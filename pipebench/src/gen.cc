// pipebench_gen — load generator, reference and judge of the end-to-end
// DCS pipeline benchmark (see ../README.md).
//
// Plays every router of a workload from one process: synthesizes the epoch
// templates from --seed, launches pipebench_server (the system under test),
// does the routers' work on at most nproc threads and ships every digest
// over one Unix-domain connection — back to back
// (closed loop), then on a fixed epoch period (open loop), in one or more
// such cycles — reads the
// reports the server emits, and checks each against an in-process one-shot
// DcsMonitor analysis of the same digests and against the planted ground
// truth. Prints every metric by name and unit; the last stdout line is the
// JSON result.
//
//   pipebench_gen --server <path> --workload <name> --seed <n>
//                 --seconds <s> --trace <0|1> [--quick] [--threads N]
//                 [--socket-dir <dir>] [--reference]
//
// --reference prints the workload's planted ground truth and the one-shot
// reference reports for the seed, checks them against each other, and exits
// (0 when they agree) without starting a server.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "dcs/monitor.h"
#include "netio/digest_sender.h"
#include "netio/frame.h"
#include "sketch/digest_codec.h"
#include "workload.h"

extern char** environ;

namespace pipebench {
namespace {

struct Args {
  std::string server;
  std::string workload;
  std::string socket_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  bool reference = false;
  unsigned threads = 0;
};

// The open-loop epoch period, as a multiple of the closed loop's median
// epoch time: the open loop offers 1 / kOpenLoopSlack of the measured
// capacity.
constexpr double kOpenLoopSlack = 2.0;

// Epoch e is closed (and reported) when the first digest of e + kWindow
// arrives.
constexpr std::int64_t kWindow = kRingCapacity;

// ---------------------------------------------------------------------------
// Reference analysis and ground truth.

// Clean templates the reference judges beyond the shipped ones
// (--reference and --quick only). With router_fanin's three shipped clean
// templates that makes nine, inside the ten that allow no false alarm.
constexpr std::uint32_t kExtraCleanTemplates = 6;

struct Reference {
  dcs::DcsReport report;
  std::string text;  // SerializeReport(report)
  double calibration_ms = 0;
  double analysis_ms = 0;  // AnalyzeAligned + AnalyzeUnaligned, one shot
};

Reference OneShot(const dcs::EpochRingOptions& options,
                  const dcs::AnalysisContext& context,
                  const EpochTemplate& templ) {
  dcs::DcsMonitor monitor(options.aligned, options.unaligned, context,
                          options.ingest);
  for (const RouterInput& router : templ.routers) {
    for (dcs::Digest digest : router.digests) {
      digest.epoch_id = 0;
      const dcs::Status status = monitor.AddDigest(digest);
      DCS_CHECK(status.ok()) << status.ToString();
    }
  }
  Reference ref;
  ref.report.digests_accepted = monitor.ingest_stats().accepted;
  ref.report.digests_rejected = monitor.ingest_stats().rejected_total();
  ref.report.observed_routers = monitor.ingest_stats().observed_routers;
  std::uint64_t t0 = MonoNs();
  ref.report.aligned = monitor.AnalyzeAligned();
  ref.report.unaligned = monitor.AnalyzeUnaligned();
  ref.analysis_ms = static_cast<double>(MonoNs() - t0) / 1e6;
  ref.text = SerializeReport(ref.report);
  t0 = MonoNs();
  const dcs::EpochCalibration a = monitor.AlignedCalibration();
  const dcs::EpochCalibration u = monitor.UnalignedCalibration();
  ref.calibration_ms = static_cast<double>(MonoNs() - t0) / 1e6;
  DCS_CHECK(a == ref.report.aligned.calibration &&
            u == ref.report.unaligned.calibration);
  return ref;
}

template <typename T>
bool SubsetOf(const std::vector<T>& values, const std::vector<T>& allowed) {
  for (const T& v : values) {
    if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) {
      return false;
    }
  }
  return true;
}

// Largest false-alarm count the NNO bound allows on `clean` independent
// clean epochs: the smallest k with P[Binomial(clean, eps) > k] <= 1e-2.
// At eps = 1e-3 that is zero for up to 10 clean epochs. The tail is summed
// from the top, never taken as 1 - CDF, whose rounding can tip a tail that
// equals the level over it.
std::size_t AllowedFalseAlarms(std::size_t clean, double eps) {
  constexpr double kLevel = 1e-2 * (1 + 1e-12);
  double tail = 0;  // P[X > k]
  std::size_t k = clean;
  while (k > 0) {
    double choose = 1;
    for (std::size_t i = 0; i < k; ++i) {
      choose *= static_cast<double>(clean - i) / static_cast<double>(i + 1);
    }
    const double pmf = choose * std::pow(eps, static_cast<double>(k)) *
                       std::pow(1.0 - eps, static_cast<double>(clean - k));
    if (tail + pmf > kLevel) break;
    tail += pmf;
    --k;
  }
  return k;
}

// Judges one-shot reports against the planted ground truth, template by
// template. Appends one line per violated property to *problems.
void CheckTruth(const Geometry& g, const dcs::EpochRingOptions& options,
                const std::vector<Truth>& truths,
                const std::vector<dcs::DcsReport>& reports,
                std::vector<std::string>* problems) {
  const bool aligned = g.kind != Kind::kUnalignedNoise;
  const bool unaligned = g.kind != Kind::kAlignedNoise;
  std::size_t clean = 0;
  std::size_t aligned_alarms = 0;
  std::size_t unaligned_alarms = 0;
  for (std::size_t k = 0; k < truths.size(); ++k) {
    const Truth& t = truths[k];
    const dcs::DcsReport& r = reports[k];
    const std::string where = "template " + std::to_string(k) + ": ";
    // Degraded analysis, judged per pipeline that carries digests.
    if (aligned && r.aligned.calibration.degraded) {
      problems->push_back(where + "aligned analysis degraded");
    }
    if (unaligned && r.unaligned.calibration.degraded) {
      problems->push_back(where + "unaligned analysis degraded");
    }
    if (aligned) {
      if (t.aligned_planted) {
        if (!r.aligned.common_content_detected) {
          problems->push_back(where + "planted aligned pattern missed");
        } else if (!SubsetOf(r.aligned.routers, t.aligned_routers) ||
                   !SubsetOf(r.aligned.signature_columns, t.aligned_columns)) {
          problems->push_back(where +
                              "aligned routers/columns outside planted sets");
        }
      } else {
        aligned_alarms += r.aligned.common_content_detected;
      }
    }
    if (unaligned) {
      if (t.unaligned_planted) {
        if (!r.unaligned.common_content_detected) {
          problems->push_back(where + "planted unaligned content missed");
        } else if (!SubsetOf(r.unaligned.groups, t.unaligned_groups) ||
                   !SubsetOf(r.unaligned.routers, t.unaligned_routers)) {
          problems->push_back(where +
                              "unaligned groups/routers outside planted sets");
        }
      } else {
        unaligned_alarms += r.unaligned.common_content_detected;
      }
    }
    clean += !(t.aligned_planted || t.unaligned_planted);
  }
  const std::size_t allowed =
      AllowedFalseAlarms(clean, options.aligned.detector.nno_epsilon);
  if (aligned_alarms > allowed || unaligned_alarms > allowed) {
    problems->push_back("false alarms on clean epochs: aligned " +
                        std::to_string(aligned_alarms) + ", unaligned " +
                        std::to_string(unaligned_alarms) + ", allowed " +
                        std::to_string(allowed));
  }
}

// ---------------------------------------------------------------------------
// The system under test, as a child process.

struct ReportLine {
  std::uint64_t epoch = 0;
  std::uint64_t mono_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::string text;
};

// Everything the reader thread learns from the server's stdout, and the
// epoch schedule the sender threads follow. One mutex guards it all.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  // Server side.
  bool ready = false;
  bool eof = false;
  std::int64_t acked = -1;
  std::map<std::uint64_t, std::uint64_t> ack_ns;
  std::vector<ReportLine> reports;
  std::vector<std::string> metrics;
  std::string done;
  // Schedule side.
  std::int64_t released = -1;
  std::int64_t last = std::numeric_limits<std::int64_t>::max();
  bool abort = false;
  std::string send_error;
};

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  bool Start(const std::vector<std::string>& argv, Shared* shared) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, cargv[0], &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = -1;
      return false;
    }
    shared_ = shared;
    reader_ = std::thread([this, fd = fds[0]] { Read(fd); });
    return true;
  }

  // Waits for the child to exit by itself (up to timeout_s), then kills it.
  // Returns true when it exited normally with status 0.
  bool Wait(double timeout_s) {
    if (pid_ < 0) return false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    int status = 0;
    while (true) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (reader_.joinable()) reader_.join();
    return status == 0;
  }

  void Kill() {
    if (pid_ >= 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (reader_.joinable()) reader_.join();
  }

 private:
  void Read(int fd) {
    FILE* in = fdopen(fd, "r");
    char* line = nullptr;
    std::size_t cap = 0;
    ssize_t n = 0;
    while ((n = getline(&line, &cap, in)) > 0) {
      std::string s(line, static_cast<std::size_t>(n));
      while (!s.empty() && s.back() == '\n') s.pop_back();
      std::lock_guard<std::mutex> lock(shared_->mu);
      if (s == "READY") {
        shared_->ready = true;
      } else if (s.rfind("ACK ", 0) == 0) {
        std::uint64_t epoch = 0;
        std::uint64_t ns = 0;
        std::sscanf(s.c_str(), "ACK %" SCNu64 " %" SCNu64, &epoch, &ns);
        shared_->ack_ns[epoch] = ns;
        shared_->acked = std::max(shared_->acked,
                                  static_cast<std::int64_t>(epoch));
      } else if (s.rfind("REPORT ", 0) == 0) {
        ReportLine r;
        int consumed = 0;
        std::sscanf(s.c_str(), "REPORT %" SCNu64 " %" SCNu64 " %" SCNu64 " %n",
                    &r.epoch, &r.mono_ns, &r.cpu_ns, &consumed);
        r.text = s.substr(static_cast<std::size_t>(consumed));
        shared_->acked = std::max(shared_->acked,
                                  static_cast<std::int64_t>(r.epoch));
        shared_->reports.push_back(std::move(r));
      } else if (s.rfind("METRIC ", 0) == 0) {
        shared_->metrics.push_back(s.substr(7));
      } else if (s.rfind("DONE ", 0) == 0) {
        shared_->done = s.substr(5);
      }
      shared_->cv.notify_all();
    }
    free(line);
    std::fclose(in);
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->eof = true;
    shared_->cv.notify_all();
  }

  pid_t pid_ = -1;
  Shared* shared_ = nullptr;
  std::thread reader_;
};

// ---------------------------------------------------------------------------
// Router side.

using Frame = std::vector<std::uint8_t>;

struct RouterTimes {
  SketchTimes sketch;
  std::uint64_t encode_ns = 0;
  std::uint64_t encode_count = 0;
  std::uint64_t frame_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

dcs::DigestCodecId Encode(const dcs::Digest& digest, dcs::CodecMode mode,
                          std::vector<std::uint8_t>* payload) {
  switch (mode) {
    case dcs::CodecMode::kRaw:
      *payload = dcs::EncodeDigestPayload(digest, dcs::DigestCodecId::kRaw);
      return dcs::DigestCodecId::kRaw;
    case dcs::CodecMode::kSparse:
      *payload = dcs::EncodeDigestPayload(digest, dcs::DigestCodecId::kSparse);
      return dcs::DigestCodecId::kSparse;
    case dcs::CodecMode::kAuto:
      break;
  }
  return dcs::EncodeDigestPayloadAuto(digest, payload);
}

class Routers {
 public:
  Routers(const Geometry& g, std::uint64_t seed,
          std::vector<EpochTemplate>* templates)
      : g_(g), seed_(seed), templates_(templates) {}

  // One router's frames for `epoch`: the router's work for the epoch
  // (sketching, for kFanin), encode and framing. Only the sender thread
  // that owns `router` calls this, so it may stamp the epoch id into that
  // router's template digests in place.
  void Prepare(std::uint32_t router, std::uint64_t epoch, bool timed,
               RouterTimes* times, std::vector<Frame>* out) {
    const std::uint32_t k =
        static_cast<std::uint32_t>(epoch % templates_->size());
    RouterInput& input = (*templates_)[k].routers[router];
    std::vector<dcs::Digest> sketched;
    std::vector<dcs::Digest>* digests = &input.digests;
    if (g_.kind == Kind::kFanin) {
      sketched =
          SketchRouter(g_, seed_, k, router, input.trace, timed, &times->sketch);
      digests = &sketched;
    }
    for (dcs::Digest& digest : *digests) {
      digest.epoch_id = epoch;
      std::vector<std::uint8_t> payload;
      const std::uint64_t t0 = timed ? MonoNs() : 0;
      const dcs::DigestCodecId codec = Encode(digest, g_.codec, &payload);
      const std::uint64_t t1 = timed ? MonoNs() : 0;
      Frame frame = dcs::EncodeFrame(codec, router, epoch, payload);
      if (timed) {
        times->encode_ns += t1 - t0;
        times->frame_ns += MonoNs() - t1;
      }
      ++times->encode_count;
      out->push_back(std::move(frame));
    }
  }

 private:
  const Geometry& g_;
  std::uint64_t seed_;
  std::vector<EpochTemplate>* templates_;
};

// Router work for one epoch, filled by the worker threads and shipped by
// the sender. Two batches alternate: workers fill epoch e+1 while the
// sender ships epoch e.
struct Batch {
  std::int64_t epoch = -1;
  unsigned filled = 0;  // workers done with `epoch`
  std::vector<std::vector<Frame>> by_router;
};

// Worker `index` of `width`: prepares the frames of routers
// r == index (mod width) for every epoch after 0, one epoch ahead of the
// sender.
void WorkerLoop(unsigned index, unsigned width, const Geometry& g,
                Routers* routers, bool timed, Shared* shared, Batch* batches,
                std::int64_t* shipped, RouterTimes* times) {
  for (std::int64_t e = 1;; ++e) {
    Batch& batch = batches[e % 2];
    {
      std::unique_lock<std::mutex> lock(shared->mu);
      // The batch is free once the sender shipped epoch e - 2.
      shared->cv.wait(lock, [&] {
        return *shipped >= e - 2 || e > shared->last || shared->abort;
      });
      if (e > shared->last || shared->abort) return;
    }
    for (std::uint32_t r = index; r < g.routers; r += width) {
      batch.by_router[r].clear();
      routers->Prepare(r, static_cast<std::uint64_t>(e), timed, times,
                       &batch.by_router[r]);
    }
    std::lock_guard<std::mutex> lock(shared->mu);
    if (batch.epoch != e) {
      batch.epoch = e;
      batch.filled = 0;
    }
    ++batch.filled;
    shared->cv.notify_all();
  }
}

// The one connection: ships each released epoch's frames in router order.
// A single ordered stream keeps the server's arrival order — and so its
// matrix row order — equal to the reference's (see README, "Arrival
// order").
void SenderLoop(unsigned width, const std::vector<std::vector<Frame>>* epoch0,
                dcs::DigestSender* sender, bool timed, Shared* shared,
                Batch* batches, std::int64_t* shipped, RouterTimes* times) {
  for (std::int64_t e = 0;; ++e) {
    const std::vector<std::vector<Frame>>* frames = epoch0;
    {
      std::unique_lock<std::mutex> lock(shared->mu);
      shared->cv.wait(lock, [&] {
        return (shared->released >= e &&
                (e == 0 || (batches[e % 2].epoch == e &&
                            batches[e % 2].filled == width))) ||
               e > shared->last || shared->abort;
      });
      if (e > shared->last || shared->abort) break;
    }
    if (e > 0) frames = &batches[e % 2].by_router;
    for (const std::vector<Frame>& router_frames : *frames) {
      for (const Frame& frame : router_frames) {
        const std::uint64_t t0 = timed ? MonoNs() : 0;
        const dcs::Status status = sender->SendRaw(frame);
        if (timed) times->send_ns += MonoNs() - t0;
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(shared->mu);
          shared->abort = true;
          shared->send_error = status.ToString();
          shared->cv.notify_all();
          sender->Close();
          return;
        }
        ++times->frames;
        times->bytes += frame.size();
      }
    }
    std::lock_guard<std::mutex> lock(shared->mu);
    *shipped = e;
    shared->cv.notify_all();
  }
  sender->Close();
}

// ---------------------------------------------------------------------------
// Statistics helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-epoch cost from consecutive reports: for every report whose
// predecessor epoch also reported and passes `use`, the clock's advance
// since that predecessor is a sample of the template the epoch ships. The
// cost is the median sample of each template, averaged over the templates
// with samples, so planted and clean epochs weigh as they occur in a cycle
// and a stretch of host contention moves none of the medians. 0 without
// samples.
template <typename Clock, typename Use>
double CostPerEpoch(const std::map<std::uint64_t, const ReportLine*>& by_epoch,
                    std::size_t templates, Clock clock, Use use) {
  std::vector<std::vector<double>> samples(templates);
  for (const auto& [epoch, report] : by_epoch) {
    if (epoch == 0 || !use(static_cast<std::int64_t>(epoch))) continue;
    const auto prev = by_epoch.find(epoch - 1);
    if (prev == by_epoch.end()) continue;
    samples[epoch % templates].push_back(
        static_cast<double>(clock(report) - clock(prev->second)));
  }
  double sum = 0;
  std::size_t n = 0;
  for (const std::vector<double>& v : samples) {
    if (v.empty()) continue;
    sum += Median(v);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

// One closed-loop or open-loop stretch of epochs [first, last].
struct Segment {
  bool closed = true;
  std::int64_t first = 0;
  std::int64_t last = 0;
  double period_s = 0;  // open segments: the epoch period
};

std::map<std::string, std::string> ParseKeyValues(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

std::uint64_t U64(const std::map<std::string, std::string>& kv,
                  const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

// Sum / count of the server's registry entries.
struct MetricDump {
  struct Entry {
    double count = 0;  // counter value, gauge value, or histogram count
    double sum = 0;    // histogram sum
  };
  std::map<std::string, Entry> entries;

  explicit MetricDump(const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      std::istringstream in(line);
      std::string name;
      Entry e;
      in >> name >> e.count >> e.sum;
      entries[name] = e;
    }
  }
  double Counter(const std::string& name) const {
    const auto it = entries.find(name);
    return it == entries.end() ? 0 : it->second.count;
  }
  double HistSum(const std::string& name) const {
    const auto it = entries.find(name);
    return it == entries.end() ? 0 : it->second.sum;
  }
  // Wall ns of every stage.<...>/<leaf>.ns (or stage.<leaf>.ns) span.
  double StageNs(const std::string& leaf) const {
    double sum = 0;
    for (const auto& [name, e] : entries) {
      if (name.rfind("stage.", 0) != 0) continue;
      if (name == "stage." + leaf + ".ns" ||
          (name.size() > leaf.size() + 4 &&
           name.compare(name.size() - leaf.size() - 4, leaf.size() + 4,
                        "/" + leaf + ".ns") == 0)) {
        sum += e.sum;
      }
    }
    return sum;
  }
  // Tasks the pool ran: every per-task stage histogram's count.
  double PoolTasks() const {
    double n = 0;
    for (const auto& [name, e] : entries) {
      if (name.rfind("stage.", 0) == 0 && name.size() > 8 &&
          name.compare(name.size() - 8, 8, "_task.ns") == 0) {
        n += e.count;
      }
    }
    return n;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Replays through public functions, for layers the run cannot time from
// outside the server (traced run only).

// Times `fn` over whole repetitions for at least `min_s`; mean ns per call.
template <typename Fn>
double TimePerCall(std::size_t calls_per_rep, double min_s, Fn fn) {
  std::uint64_t reps = 0;
  const std::uint64_t t0 = MonoNs();
  std::uint64_t elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = MonoNs() - t0;
  } while (static_cast<double>(elapsed) < min_s * 1e9 || reps < 3);
  return static_cast<double>(elapsed) /
         static_cast<double>(reps * calls_per_rep);
}

struct Replays {
  double decode_ns_per_digest = 0;
  double parse_ns_per_frame = 0;
  double offer_ns_per_digest = 0;
};

Replays RunReplays(const Geometry& g, const dcs::EpochRingOptions& options,
                   std::vector<EpochTemplate>* templates, double min_s) {
  Replays out;
  // One epoch per template, encoded as the senders encode it.
  std::vector<std::pair<dcs::DigestCodecId, std::vector<std::uint8_t>>> payloads;
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<dcs::Digest>> epochs(templates->size());
  for (std::size_t k = 0; k < templates->size(); ++k) {
    for (std::uint32_t r = 0; r < g.routers; ++r) {
      for (const dcs::Digest& digest : (*templates)[k].routers[r].digests) {
        dcs::Digest d = digest;
        d.epoch_id = k;
        std::vector<std::uint8_t> payload;
        const dcs::DigestCodecId codec = Encode(d, g.codec, &payload);
        const std::vector<std::uint8_t> frame =
            dcs::EncodeFrame(codec, d.router_id, d.epoch_id, payload);
        stream.insert(stream.end(), frame.begin(), frame.end());
        payloads.emplace_back(codec, std::move(payload));
        epochs[k].push_back(std::move(d));
      }
    }
  }
  out.decode_ns_per_digest = TimePerCall(payloads.size(), min_s, [&] {
    for (const auto& [codec, payload] : payloads) {
      dcs::Digest d;
      const dcs::Status status = dcs::DecodeDigestPayload(payload, codec, &d);
      DCS_CHECK(status.ok());
    }
  });
  constexpr std::size_t kChunk = 64 * 1024;  // IngestServer read_chunk_bytes
  out.parse_ns_per_frame = TimePerCall(payloads.size(), min_s, [&] {
    dcs::FrameParser parser;
    std::vector<dcs::FrameEvent> events;
    std::size_t frames = 0;
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      parser.Consume(stream.data() + off, std::min(kChunk, stream.size() - off),
                     &events);
      frames += events.size();
      events.clear();
    }
    DCS_CHECK(frames == payloads.size());
  });
  // Non-closing offers: fill the window's epochs, never advance it.
  const std::size_t window = std::min(options.capacity, epochs.size());
  std::size_t offered = 0;
  for (std::size_t k = 0; k < window; ++k) offered += epochs[k].size();
  out.offer_ns_per_digest = TimePerCall(offered, min_s, [&] {
    dcs::EpochRing ring(options);
    for (std::size_t k = 0; k < window; ++k) {
      for (const dcs::Digest& d : epochs[k]) {
        const dcs::Status status = ring.Offer(d);
        DCS_CHECK(status.ok());
      }
    }
    DCS_CHECK(ring.TakeReports().empty());
  });
  return out;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    auto number = [&](double lo, double hi, double* out) {
      char* end = nullptr;
      const double v = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(v >= lo && v <= hi)) return false;
      *out = v;
      return true;
    };
    double v = 0;
    if (a == "--server" && has_value) {
      args->server = argv[++i];
    } else if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--socket-dir" && has_value) {
      args->socket_dir = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!number(0, 1e15, &v)) return false;
      args->seed = static_cast<std::uint64_t>(v);
    } else if (a == "--seconds" && has_value) {
      if (!number(0.1, 3600, &args->seconds)) return false;
    } else if (a == "--trace" && has_value) {
      if (!number(0, 1, &v)) return false;
      args->trace = v != 0;
    } else if (a == "--threads" && has_value) {
      if (!number(1, 64, &v)) return false;
      args->threads = static_cast<unsigned>(v);
    } else if (a == "--quick") {
      args->quick = true;
    } else if (a == "--reference") {
      args->reference = true;
    } else {
      std::fprintf(stderr, "pipebench_gen: bad argument %s\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && (args->reference || !args->server.empty());
}

std::string JoinU32(const std::vector<std::uint32_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + std::to_string(v[i]);
  }
  return s;
}

int PrintReference(const Geometry& g, const std::vector<EpochTemplate>& templates,
                   const std::vector<Reference>& refs,
                   const std::vector<Reference>& extra_refs,
                   const std::vector<std::string>& problems) {
  for (std::size_t k = 0; k < templates.size(); ++k) {
    const Truth& t = templates[k].truth;
    std::printf("template %zu (epochs e with e %% %zu == %zu)\n", k,
                templates.size(), k);
    if (g.kind != Kind::kUnalignedNoise) {
      std::printf("  truth aligned: %s", t.aligned_planted ? "planted" : "clean");
      if (t.aligned_planted) {
        std::printf(" routers=[%s] columns=[", JoinU32(t.aligned_routers).c_str());
        for (std::size_t i = 0; i < t.aligned_columns.size(); ++i) {
          std::printf("%s%zu", i ? "," : "", t.aligned_columns[i]);
        }
        std::printf("]");
      }
      std::printf("\n");
    }
    if (g.kind != Kind::kAlignedNoise) {
      std::printf("  truth unaligned: %s",
                  t.unaligned_planted ? "planted" : "clean");
      if (t.unaligned_planted) {
        std::printf(" routers=[%s] groups=[",
                    JoinU32(t.unaligned_routers).c_str());
        for (std::size_t i = 0; i < t.unaligned_groups.size(); ++i) {
          std::printf("%s%u:%u", i ? "," : "", t.unaligned_groups[i].router_id,
                      t.unaligned_groups[i].group_index);
        }
        std::printf("]");
      }
      std::printf("\n");
    }
    std::printf("  reference (analysis %.1f ms): %s\n", refs[k].analysis_ms,
                refs[k].text.c_str());
  }
  for (std::size_t i = 0; i < extra_refs.size(); ++i) {
    std::printf("template %zu (clean, checked only, never shipped)\n"
                "  reference (analysis %.1f ms): %s\n",
                templates.size() + i, extra_refs[i].analysis_ms,
                extra_refs[i].text.c_str());
  }
  for (const std::string& p : problems) std::printf("PROBLEM %s\n", p.c_str());
  std::printf("reference %s\n", problems.empty() ? "agrees with the ground truth"
                                                  : "DISAGREES with the ground truth");
  return problems.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench_gen --server <path> --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--quick] "
                 "[--threads N] [--socket-dir <dir>] "
                 "[--reference]\n");
    return 2;
  }
  Geometry g;
  if (!MakeGeometry(args.workload, args.quick, &g)) {
    std::fprintf(stderr, "pipebench_gen: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads =
      args.threads ? args.threads
                   : g.pooled ? std::min(4u, std::max(1u, nproc - 1)) : 1u;
  // Router-work threads; the digests of all routers share one connection.
  const unsigned width = std::min(threads, g.routers);
  const dcs::EpochRingOptions options = RingOptions(g);
  const std::uint32_t per_epoch = g.routers * DigestsPerRouter(g);

  std::uint64_t t0 = MonoNs();
  std::vector<EpochTemplate> templates = SynthesizeTemplates(g, args.seed);
  const double synth_s = static_cast<double>(MonoNs() - t0) / 1e9;

  // Reference: one-shot in-process analysis of every template, judged
  // against the ground truth. --reference and --quick also judge extra
  // clean templates that are never shipped, so the false-alarm check sees
  // more clean epochs than a run carries.
  t0 = MonoNs();
  std::vector<Reference> refs;
  std::vector<Reference> extra_refs;
  std::vector<Truth> truths;
  std::vector<dcs::DcsReport> reports;
  {
    std::unique_ptr<dcs::ThreadPool> pool;
    dcs::AnalysisContext context;
    if (threads > 1) {
      pool = std::make_unique<dcs::ThreadPool>(threads);
      context.pool = pool.get();
    }
    for (const EpochTemplate& templ : templates) {
      refs.push_back(OneShot(options, context, templ));
      truths.push_back(templ.truth);
      reports.push_back(refs.back().report);
    }
    for (std::uint32_t i = 0;
         (args.reference || args.quick) && i < kExtraCleanTemplates; ++i) {
      // 4j + 3 is a clean index (Planted()), past every shipped template.
      const EpochTemplate extra =
          SynthesizeTemplate(g, args.seed, 4 * (g.templates + i) + 3);
      extra_refs.push_back(OneShot(options, context, extra));
      truths.push_back(extra.truth);
      reports.push_back(extra_refs.back().report);
    }
  }
  const double reference_s = static_cast<double>(MonoNs() - t0) / 1e9;
  std::vector<std::string> problems;
  CheckTruth(g, options, truths, reports, &problems);
  if (args.reference) {
    return PrintReference(g, templates, refs, extra_refs, problems);
  }

  std::printf("host nproc=%u server_threads=%u router_threads=%u connections=1 "
              "workload=%s "
              "seed=%" PRIu64 " seconds=%g trace=%d quick=%d\n",
              nproc, threads, width, g.name.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, args.quick ? 1 : 0);
  std::printf("inputs: %u templates synthesized in %.2f s, references in "
              "%.2f s\n",
              g.templates, synth_s, reference_s);

  Routers routers(g, args.seed, &templates);
  // Epoch 0's frames are made before any launch: set-up time covers the
  // server, not the generator's input synthesis.
  std::vector<std::vector<Frame>> epoch0(g.routers);
  {
    RouterTimes unused;
    for (std::uint32_t r = 0; r < g.routers; ++r) {
      routers.Prepare(r, 0, false, &unused, &epoch0[r]);
    }
  }

  // One malloc arena for the server: with per-thread arenas its peak RSS
  // and latency moved with how glibc happened to assign arenas to pool
  // threads (README, "Settings for steady figures").
  setenv("MALLOC_ARENA_MAX", "1", 0);
  std::vector<std::string> server_argv = {
      args.server, "--workload", g.name, "--threads", std::to_string(threads),
      "--uds",     ""};
  if (args.quick) server_argv.push_back("--quick");
  if (args.trace) server_argv.push_back("--trace");

  const double hang_s = args.quick ? 30 : 60;
  const int setups = kSetups;
  std::vector<double> setup_s;
  std::vector<RouterTimes> times(width);
  std::unique_ptr<Shared> shared;
  std::unique_ptr<ServerProcess> server;
  dcs::DigestSender sender;
  Batch batches[2];
  std::int64_t shipped = -1;
  RouterTimes send_times;
  RouterTimes setup_send_times;
  std::vector<std::thread> sender_threads;
  bool server_failed = false;
  std::string failure;

  auto wait_for = [&](auto pred, double timeout_s) {
    std::unique_lock<std::mutex> lock(shared->mu);
    return shared->cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                               [&] { return pred() || shared->eof || shared->abort; }) &&
           pred();
  };
  auto join_senders = [&] {
    for (std::thread& t : sender_threads) t.join();
    sender_threads.clear();
  };

  for (int launch = 0; launch < setups; ++launch) {
    const bool final_launch = launch == setups - 1;
    shared = std::make_unique<Shared>();
    server = std::make_unique<ServerProcess>();
    const std::string path = args.socket_dir + "/pb" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(launch) + ".sock";
    server_argv[6] = path;
    if (!final_launch) shared->last = 0;
    const std::uint64_t start = MonoNs();
    if (!server->Start(server_argv, shared.get())) {
      std::fprintf(stderr, "pipebench_gen: cannot start %s\n",
                   args.server.c_str());
      return 1;
    }
    if (!wait_for([&] { return shared->ready; }, hang_s)) {
      server_failed = true;
      failure = "server never became ready";
      break;
    }
    const dcs::Status connected = dcs::DigestSender::ConnectUds(path, &sender);
    if (!connected.ok()) {
      std::fprintf(stderr, "pipebench_gen: %s\n", connected.ToString().c_str());
      return 1;
    }
    shipped = -1;
    for (Batch& batch : batches) {
      batch = Batch{};
      batch.by_router.resize(g.routers);
    }
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->released = 0;
    }
    sender_threads.emplace_back(SenderLoop, width, &epoch0, &sender, args.trace,
                                shared.get(), batches, &shipped,
                                final_launch ? &send_times : &setup_send_times);
    for (unsigned i = 0; final_launch && i < width; ++i) {
      sender_threads.emplace_back(WorkerLoop, i, width, std::cref(g), &routers,
                                  args.trace, shared.get(), batches, &shipped,
                                  &times[i]);
    }
    const bool acked = wait_for([&] { return shared->acked >= 0; }, hang_s);
    if (!acked) {
      server_failed = true;
      failure = "first epoch never accepted";
      break;
    }
    setup_s.push_back(static_cast<double>(shared->ack_ns[0] - start) / 1e9);
    if (!final_launch) {
      server->Kill();
      join_senders();
      unlink(path.c_str());
    }
  }

  // Measured phases on the final launch: g.cycles rounds of a closed-loop
  // segment and an open-loop segment, so that both phases sample the whole
  // run rather than one stretch of it.
  const int cycles = static_cast<int>(std::max<std::uint32_t>(1, g.cycles));
  const double closed_s = args.seconds * kClosedShare / cycles;
  const double open_s = args.seconds * (1 - kClosedShare) / cycles;
  std::int64_t e = 1;
  std::vector<Segment> segments;
  std::map<std::int64_t, std::uint64_t> due_ns;
  double max_late_ms = 0;
  std::int64_t last_epoch = 0;
  if (!server_failed) {
    auto release = [&](std::int64_t epoch) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->released = epoch;
      shared->cv.notify_all();
    };
    for (int c = 0; c < cycles && !server_failed; ++c) {
      Segment closed{true, e, e - 1, 0};
      const std::uint64_t closed_end =
          MonoNs() + static_cast<std::uint64_t>(closed_s * 1e9);
      while (MonoNs() < closed_end && !server_failed) {
        release(e);
        if (!wait_for([&] { return shared->acked >= e; }, hang_s)) {
          server_failed = true;
          failure = "epoch " + std::to_string(e) + " never accepted";
          break;
        }
        closed.last = e;
        ++e;
      }
      segments.push_back(closed);
      if (server_failed) break;
      // The open segment runs at a fixed share of the capacity the closed
      // segment just measured, so it never queues up on a slow host.
      Segment open{false, e, e - 1, 1.0};
      {
        std::map<std::uint64_t, const ReportLine*> measured;
        std::lock_guard<std::mutex> lock(shared->mu);
        for (const ReportLine& r : shared->reports) measured[r.epoch] = &r;
        const double ns = CostPerEpoch(
            measured, g.templates,
            [](const ReportLine* r) { return r->mono_ns; },
            [&](std::int64_t ep) {
              return ep > closed.first && ep + kWindow <= closed.last;
            });
        if (ns > 0) open.period_s = kOpenLoopSlack * ns / 1e9;
      }
      const std::int64_t open_epochs = std::max<std::int64_t>(
          static_cast<std::int64_t>(kRingCapacity) + 2,
          static_cast<std::int64_t>(std::floor(open_s / open.period_s)));
      // First due time one period out, so the routers' work for it is done.
      const std::uint64_t open_start =
          MonoNs() + static_cast<std::uint64_t>(open.period_s * 1e9);
      for (std::int64_t i = 0; i < open_epochs && !server_failed; ++i, ++e) {
        const std::uint64_t due =
            open_start + static_cast<std::uint64_t>(
                             static_cast<double>(i) * open.period_s * 1e9);
        due_ns[e] = due;
        const std::uint64_t now = MonoNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        if (!wait_for([&] { return shared->acked >= e - 1; }, hang_s)) {
          server_failed = true;
          failure = "epoch " + std::to_string(e - 1) + " never accepted";
          break;
        }
        max_late_ms = std::max(max_late_ms,
                               static_cast<double>(MonoNs() - due) / 1e6);
        release(e);
        open.last = e;
      }
      segments.push_back(open);
    }
    last_epoch = e - 1;
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->last = last_epoch;
      shared->cv.notify_all();
    }
    if (!server_failed &&
        !wait_for([&] { return shared->acked >= last_epoch; }, hang_s)) {
      server_failed = true;
      failure = "last epoch never accepted";
    }
  } else {
    last_epoch = 0;
  }
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    if (server_failed) shared->abort = true;
    shared->last = std::min(shared->last, last_epoch);
    shared->cv.notify_all();
  }
  join_senders();
  // Senders hung up: the server drains the open epochs and exits.
  const bool clean_exit = server->Wait(server_failed ? 0.5 : hang_s);
  unlink((server_argv[6]).c_str());
  if (!clean_exit && !server_failed) {
    server_failed = true;
    failure = "server did not exit cleanly";
  }

  // ------------------------------------------------------------------------
  // Judge the outputs.
  RouterTimes total = send_times;
  for (const RouterTimes& t : times) {
    total.sketch.aligned_ns += t.sketch.aligned_ns;
    total.sketch.unaligned_ns += t.sketch.unaligned_ns;
    total.sketch.aligned_packets += t.sketch.aligned_packets;
    total.sketch.unaligned_packets += t.sketch.unaligned_packets;
    total.encode_ns += t.encode_ns;
    total.encode_count += t.encode_count;
    total.frame_ns += t.frame_ns;
  }
  const std::uint64_t epochs_sent = static_cast<std::uint64_t>(last_epoch + 1);
  std::uint64_t planted_sent = 0;
  for (std::uint64_t ep = 0; ep < epochs_sent; ++ep) {
    const Truth& t = templates[ep % templates.size()].truth;
    planted_sent += t.aligned_planted || t.unaligned_planted;
  }
  const std::map<std::string, std::string> done = ParseKeyValues(shared->done);
  std::map<std::uint64_t, const ReportLine*> by_epoch;
  for (const ReportLine& r : shared->reports) {
    if (by_epoch.count(r.epoch) > 0) {
      problems.push_back("epoch " + std::to_string(r.epoch) +
                         " reported twice");
    }
    by_epoch[r.epoch] = &r;
  }
  std::uint64_t epochs_reported = 0;
  std::uint64_t planted_reported = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t ep = 0; ep < epochs_sent; ++ep) {
    const auto it = by_epoch.find(ep);
    if (it == by_epoch.end()) continue;
    ++epochs_reported;
    const std::size_t k = ep % templates.size();
    planted_reported +=
        templates[k].truth.aligned_planted || templates[k].truth.unaligned_planted;
    if (it->second->text != refs[k].text) {
      if (mismatches++ == 0) {
        problems.push_back("epoch " + std::to_string(ep) +
                           " report differs from the in-process reference:\n"
                           "  wire: " + it->second->text + "\n  ref:  " +
                           refs[k].text);
      }
    }
  }
  if (mismatches > 1) {
    problems.push_back(std::to_string(mismatches) +
                       " reports differ from the reference in all");
  }
  if (by_epoch.size() > epochs_reported) {
    problems.push_back("reports for epochs that were never sent");
  }
  // Frames shipped on the measured launch, epoch 0 included.
  const std::uint64_t frames_sent = total.frames;
  const std::uint64_t bytes_sent = total.bytes;
  const std::uint64_t frames_accepted = U64(done, "frames");
  const std::uint64_t digests_accepted = U64(done, "digests_accepted");
  if (!server_failed) {
    if (frames_accepted != frames_sent) {
      problems.push_back("frames sent " + std::to_string(frames_sent) +
                         " != frames accepted " +
                         std::to_string(frames_accepted));
    }
    if (U64(done, "bytes_rx") != bytes_sent) {
      problems.push_back("bytes sent != bytes received");
    }
    for (const char* key : {"frame_rejects", "decode_failures",
                            "identity_mismatches", "digests_rejected",
                            "stale_digests", "ring_rejected", "epochs_shed",
                            "epochs_degraded", "penalty_closes"}) {
      if (U64(done, key) != 0) {
        problems.push_back(std::string(key) + " = " +
                           std::to_string(U64(done, key)) + ", expected 0");
      }
    }
    if (U64(done, "reports") != epochs_sent) {
      problems.push_back("expected exactly one report per epoch");
    }
  }
  const std::uint64_t digests_sent = epochs_sent * per_epoch;
  const std::uint64_t frames_attempted =
      std::max<std::uint64_t>(frames_sent, epochs_sent * per_epoch);
  const std::uint64_t attempted =
      frames_attempted + digests_sent + epochs_sent + planted_sent;
  const std::uint64_t failed =
      (frames_attempted - std::min(frames_attempted, frames_accepted)) +
      (digests_sent - std::min(digests_sent, digests_accepted)) +
      (epochs_sent - epochs_reported) + (planted_sent - planted_reported);
  if (server_failed) {
    std::printf("FAILURE: %s (send error: %s)\n", failure.c_str(),
                shared->send_error.c_str());
  }

  // ------------------------------------------------------------------------
  // Metrics.
  const std::uint64_t reports_n = std::max<std::uint64_t>(1, epochs_reported);
  // Open-loop latency: epoch ep is closable at the due time of ep + kWindow,
  // which must fall in ep's own open segment.
  std::vector<double> latencies;
  std::string latency_line;
  for (const Segment& seg : segments) {
    if (seg.closed) continue;
    for (std::int64_t ep = seg.first;
         ep + kWindow <= std::min(seg.last, last_epoch); ++ep) {
      const auto it = by_epoch.find(static_cast<std::uint64_t>(ep));
      if (it == by_epoch.end()) continue;
      const std::uint64_t closable = due_ns[ep + kWindow];
      latencies.push_back(static_cast<double>(it->second->mono_ns) / 1e6 -
                          static_cast<double>(closable) / 1e6);
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %" PRId64 ":%.1f", ep,
                    latencies.back());
      latency_line += buf;
    }
  }
  std::printf("latency by epoch (ms):%s\n", latency_line.c_str());
  std::sort(latencies.begin(), latencies.end());
  const double p50 = Median(latencies);
  double tail = 0;
  double tail_pct = 0;
  if (!latencies.empty()) {
    // The highest percentile with 10 samples beyond it, but never below the
    // median's rank: below 22 samples that percentile would not exceed the
    // median, so the maximum stands in.
    const std::size_t n = latencies.size();
    const std::size_t rank = n >= 22 ? n - 11 : n - 1;
    tail = latencies[rank];
    tail_pct = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  }
  // Closed-loop throughput, and server CPU per epoch over both phases. A
  // closed-loop sample is the gap between two reports whose epochs were
  // both closed by digests of the same closed segment (epoch ep closes when
  // ep + kWindow arrives).
  std::string closed_line;
  for (const Segment& seg : segments) {
    if (!seg.closed) continue;
    for (std::int64_t ep = seg.first + 1; ep + kWindow <= seg.last; ++ep) {
      const auto it = by_epoch.find(static_cast<std::uint64_t>(ep));
      const auto prev = by_epoch.find(static_cast<std::uint64_t>(ep - 1));
      if (it == by_epoch.end() || prev == by_epoch.end()) continue;
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %" PRId64 ":%.1f", ep,
                    static_cast<double>(it->second->mono_ns -
                                        prev->second->mono_ns) /
                        1e6);
      closed_line += buf;
    }
  }
  std::printf("closed loop, ms since the previous report:%s\n",
              closed_line.c_str());
  const double ns_per_epoch = CostPerEpoch(
      by_epoch, g.templates, [](const ReportLine* r) { return r->mono_ns; },
      [&](std::int64_t ep) {
        for (const Segment& seg : segments) {
          if (seg.closed && ep > seg.first && ep + kWindow <= seg.last) {
            return true;
          }
        }
        return false;
      });
  const double epochs_per_s = ns_per_epoch > 0 ? 1e9 / ns_per_epoch : 0;
  const double cpu_ms =
      CostPerEpoch(by_epoch, g.templates,
                   [](const ReportLine* r) { return r->cpu_ns; },
                   [&](std::int64_t ep) {
                     return ep > 1 && ep + kWindow <= last_epoch;
                   }) /
      1e6;
  const double peak_rss_mb =
      static_cast<double>(U64(done, "peak_rss_kb")) / 1024.0;
  const double wire_per_epoch =
      static_cast<double>(U64(done, "bytes_rx")) / static_cast<double>(reports_n);

  std::string phases;
  for (const Segment& seg : segments) {
    char buf[96];
    if (seg.closed) {
      std::snprintf(buf, sizeof(buf), " closed %" PRId64 "..%" PRId64 ";",
                    seg.first, seg.last);
    } else {
      std::snprintf(buf, sizeof(buf), " open %" PRId64 "..%" PRId64
                    " every %.3f s;", seg.first, seg.last, seg.period_s);
    }
    phases += buf;
  }
  std::printf("phases (%d x (%.1f s closed + %.1f s open)):%s generator "
              "ran at most %.2f ms late\n",
              cycles, closed_s, open_s, phases.c_str(), max_late_ms);
  std::printf("latency: %zu samples, p50 %.3f ms, p%.1f %.3f ms\n",
              latencies.size(), p50, tail_pct, tail);
  std::printf("accounting: frames %" PRIu64 "/%" PRIu64 ", digests %" PRIu64
              "/%" PRIu64 ", epochs reported %" PRIu64 "/%" PRIu64
              ", planted epochs reported %" PRIu64 "/%" PRIu64 "\n",
              frames_accepted, frames_attempted, digests_accepted, digests_sent,
              epochs_reported, epochs_sent, planted_reported, planted_sent);
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  // End-to-end figures are printed on every run (a traced run's against an
  // untraced run's are the tracing overhead); the JSON carries the set the
  // mode asks for.
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"epochs_per_s", epochs_per_s, "epoch/s"},
      {"report_latency_p50_ms", p50, "ms"},
      {"report_latency_tail_ms", tail, "ms"},
      {"cpu_ms_per_epoch", cpu_ms, "ms"},
      {"wire_bytes_per_epoch", wire_per_epoch, "bytes"},
  };
  // Printed on every run, reported (ungated) with the per-layer metrics: it
  // flips between two levels on identical input (README, "Settings for
  // steady figures").
  if (!args.trace) {
    std::printf("%-40s %16.6f %s\n", "server.peak_rss_mb", peak_rss_mb, "MiB");
  }
  std::printf("report_latency_tail_ms is p%.1f of %zu samples\n", tail_pct,
              latencies.size());
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end;
  } else {
    const MetricDump dump(shared->metrics);
    const double n = static_cast<double>(reports_n);
    const double ms = 1e6 * n;  // ns total -> ms per epoch
    const Replays replays =
        RunReplays(g, options, &templates, args.quick ? 0.05 : 0.3);
    double calibration_ms = 0;
    for (const Reference& ref : refs) calibration_ms += ref.calibration_ms;
    calibration_ms /= static_cast<double>(refs.size());
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double close_ms = dump.StageNs("ring_epoch") / ms;
    const double build_ns = dump.StageNs("build_correlation_graph");
    const double row_ns = dump.StageNs("unaligned_row_weights");
    const double lambda_ns = dump.StageNs("unaligned_lambda_calibrate");
    const double merge_ns = dump.StageNs("unaligned_edge_merge");
    const double sub_ms =
        (dump.StageNs("stack_matrix") + dump.StageNs("weight_screen") +
         dump.StageNs("aligned_detect") + build_ns + dump.StageNs("er_test") +
         dump.StageNs("find_core") + dump.StageNs("cluster_separation")) /
            ms +
        calibration_ms;
    const double packets =
        static_cast<double>(total.sketch.aligned_packets);
    const double epochs_timed =
        static_cast<double>(std::max<std::int64_t>(1, last_epoch));
    metrics = {
        {"sketch.aligned.ns_per_packet",
         per(static_cast<double>(total.sketch.aligned_ns), packets), "ns"},
        {"sketch.unaligned.ns_per_packet",
         per(static_cast<double>(total.sketch.unaligned_ns),
             static_cast<double>(total.sketch.unaligned_packets)),
         "ns"},
        {"sketch.packets_per_epoch", packets / epochs_timed, "packet/epoch"},
        {"codec.encode.ns_per_digest",
         per(static_cast<double>(total.encode_ns),
             static_cast<double>(total.encode_count)),
         "ns"},
        {"codec.decode.ns_per_digest", replays.decode_ns_per_digest, "ns"},
        {"codec.bytes_per_digest",
         per(static_cast<double>(U64(done, "payload_bytes")),
             static_cast<double>(U64(done, "frames"))),
         "bytes"},
        {"codec.sparse_frames",
         static_cast<double>(U64(done, "sparse_frames")) / n, "frame/epoch"},
        {"netio.send.ns_per_frame",
         per(static_cast<double>(total.send_ns + total.frame_ns),
             static_cast<double>(total.encode_count)),
         "ns"},
        {"netio.recv.ns_per_frame", replays.parse_ns_per_frame, "ns"},
        {"netio.frames_per_epoch", static_cast<double>(U64(done, "frames")) / n,
         "frame/epoch"},
        {"netio.poll_rounds_per_epoch",
         static_cast<double>(U64(done, "poll_rounds")) / n, "round/epoch"},
        {"netio.frames_rejected", static_cast<double>(U64(done, "frame_rejects")),
         "count"},
        {"dcs.offer.ns_per_digest", replays.offer_ns_per_digest, "ns"},
        {"dcs.close.ms_per_epoch", close_ms, "ms"},
        {"dcs.close.unattributed_ms_per_epoch", close_ms - sub_ms, "ms"},
        {"dcs.stack_matrix.ms_per_epoch", dump.StageNs("stack_matrix") / ms,
         "ms"},
        {"dcs.calibration.ms_per_epoch", calibration_ms, "ms"},
        {"dcs.stale_digests", static_cast<double>(U64(done, "stale_digests")),
         "count"},
        {"dcs.digests_rejected",
         static_cast<double>(U64(done, "digests_rejected")), "count"},
        {"analysis.weight_screen.ms_per_epoch", dump.StageNs("weight_screen") / ms,
         "ms"},
        {"analysis.aligned_detect.ms_per_epoch",
         dump.StageNs("aligned_detect") / ms, "ms"},
        {"analysis.core_scan.ms_per_epoch",
         dump.StageNs("aligned_core_scan") / ms, "ms"},
        {"analysis.hopefuls_per_epoch",
         dump.HistSum("detector.aligned.hopefuls_per_iteration") / n, "count"},
        {"analysis.iterations_per_epoch",
         dump.Counter("detector.aligned.iterations") / n, "count"},
        {"analysis.row_weights.ms_per_epoch", row_ns / ms, "ms"},
        {"analysis.lambda_calibrate.ms_per_epoch", lambda_ns / ms, "ms"},
        {"analysis.lambda_entries_per_epoch",
         dump.Counter("unaligned.lambda_calibrated_entries") / n, "count"},
        {"analysis.pair_scan.ms_per_epoch",
         (build_ns - row_ns - lambda_ns - merge_ns) / ms, "ms"},
        {"analysis.edge_merge.ms_per_epoch", merge_ns / ms, "ms"},
        {"analysis.edges_per_epoch", dump.Counter("pairscan.edges_emitted") / n,
         "count"},
        {"analysis.er_test.ms_per_epoch", dump.StageNs("er_test") / ms, "ms"},
        {"analysis.find_core.ms_per_epoch", dump.StageNs("find_core") / ms,
         "ms"},
        {"analysis.peel_waves_per_epoch", dump.Counter("unaligned.peel_waves") / n,
         "count"},
        {"analysis.cluster_separation.ms_per_epoch",
         dump.StageNs("cluster_separation") / ms, "ms"},
        {"common.pool.shard_tasks_per_epoch", dump.PoolTasks() / n, "count"},
        {"server.peak_rss_mb", peak_rss_mb, "MiB"},
    };
  }
  if (args.trace) {
    for (const Metric& m : end_to_end) {
      std::printf("traced %-33s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = problems.empty();
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }

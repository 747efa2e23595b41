#include "obs/exporter.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "common/table_printer.h"

namespace dcs {
namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

// Upper bound (inclusive) of the log2 bucket whose lower bound is `lower`.
std::uint64_t BucketInclusiveUpper(std::uint64_t lower) {
  return lower == 0 ? 0 : 2 * lower - 1;
}

// q-quantile upper bound from a snapshot entry's non-empty buckets.
std::uint64_t EntryQuantile(const MetricsSnapshot::Entry& e, double q) {
  if (e.hist_count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(e.hist_count) + 0.9999999);
  std::uint64_t seen = 0;
  for (const auto& [lower, count] : e.hist_buckets) {
    seen += count;
    if (seen >= rank) return BucketInclusiveUpper(lower);
  }
  return e.hist_buckets.empty()
             ? 0
             : BucketInclusiveUpper(e.hist_buckets.back().first);
}

// --- Minimal parsing helpers for the exporter's own output format. ---

// Position just past `"key":`, or npos.
std::size_t AfterKey(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t pos = line.find(pattern);
  return pos == std::string_view::npos ? std::string_view::npos
                                       : pos + pattern.size();
}

bool ParseU64At(std::string_view line, std::size_t pos, std::uint64_t* v) {
  if (pos == std::string_view::npos || pos >= line.size()) return false;
  char* end = nullptr;
  *v = std::strtoull(line.data() + pos, &end, 10);
  return end != line.data() + pos;
}

bool ParseDoubleAt(std::string_view line, std::size_t pos, double* v) {
  if (pos == std::string_view::npos || pos >= line.size()) return false;
  char* end = nullptr;
  *v = std::strtod(line.data() + pos, &end);
  return end != line.data() + pos;
}

bool ParseStringAt(std::string_view line, std::size_t pos, std::string* v) {
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '"') {
    return false;
  }
  v->clear();
  for (std::size_t i = pos + 1; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      v->push_back(line[++i]);
    } else if (line[i] == '"') {
      return true;
    } else {
      v->push_back(line[i]);
    }
  }
  return false;  // Unterminated.
}

}  // namespace

std::string SnapshotToJsonLines(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    out += "{\"epoch\":";
    AppendU64(&out, snapshot.epoch_id);
    out += ",\"name\":\"";
    AppendEscaped(&out, e.name);
    out += "\",\"type\":\"";
    switch (e.type) {
      case MetricType::kCounter:
        out += "counter\",\"value\":";
        AppendU64(&out, e.counter_value);
        break;
      case MetricType::kGauge:
        out += "gauge\",\"value\":";
        AppendDouble(&out, e.gauge_value);
        break;
      case MetricType::kHistogram:
        out += "histogram\",\"count\":";
        AppendU64(&out, e.hist_count);
        out += ",\"sum\":";
        AppendU64(&out, e.hist_sum);
        out += ",\"p50\":";
        AppendU64(&out, EntryQuantile(e, 0.50));
        out += ",\"p99\":";
        AppendU64(&out, EntryQuantile(e, 0.99));
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < e.hist_buckets.size(); ++i) {
          if (i > 0) out += ',';
          out += '[';
          AppendU64(&out, e.hist_buckets[i].first);
          out += ',';
          AppendU64(&out, e.hist_buckets[i].second);
          out += ']';
        }
        out += ']';
        break;
    }
    out += "}\n";
  }
  return out;
}

Status WriteSnapshotFile(const MetricsSnapshot& snapshot,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << SnapshotToJsonLines(snapshot);
  out.close();
  return out ? Status::Ok() : Status::IoError("cannot write " + path);
}

Status ParseJsonLines(const std::string& text, MetricsSnapshot* out) {
  *out = MetricsSnapshot{};
  bool epoch_set = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (line.empty()) continue;

    MetricsSnapshot::Entry entry;
    std::uint64_t epoch = 0;
    std::string type;
    if (!ParseU64At(line, AfterKey(line, "epoch"), &epoch) ||
        !ParseStringAt(line, AfterKey(line, "name"), &entry.name) ||
        !ParseStringAt(line, AfterKey(line, "type"), &type)) {
      return Status::Corruption("metrics line missing epoch/name/type: " +
                                std::string(line));
    }
    if (epoch_set && epoch != out->epoch_id) {
      return Status::Corruption("mixed epochs in metrics snapshot");
    }
    out->epoch_id = epoch;
    epoch_set = true;

    if (type == "counter") {
      entry.type = MetricType::kCounter;
      if (!ParseU64At(line, AfterKey(line, "value"), &entry.counter_value)) {
        return Status::Corruption("counter line missing value");
      }
    } else if (type == "gauge") {
      entry.type = MetricType::kGauge;
      if (!ParseDoubleAt(line, AfterKey(line, "value"), &entry.gauge_value)) {
        return Status::Corruption("gauge line missing value");
      }
    } else if (type == "histogram") {
      entry.type = MetricType::kHistogram;
      if (!ParseU64At(line, AfterKey(line, "count"), &entry.hist_count) ||
          !ParseU64At(line, AfterKey(line, "sum"), &entry.hist_sum)) {
        return Status::Corruption("histogram line missing count/sum");
      }
      std::size_t pos = AfterKey(line, "buckets");
      if (pos == std::string_view::npos || pos >= line.size() ||
          line[pos] != '[') {
        return Status::Corruption("histogram line missing buckets");
      }
      ++pos;  // Past the outer '['.
      while (pos < line.size() && line[pos] != ']') {
        if (line[pos] == ',' || line[pos] == '[') {
          ++pos;
          continue;
        }
        char* after = nullptr;
        const std::uint64_t lower =
            std::strtoull(line.data() + pos, &after, 10);
        if (after == line.data() + pos || *after != ',') {
          return Status::Corruption("bad histogram bucket");
        }
        pos = static_cast<std::size_t>(after - line.data()) + 1;
        const std::uint64_t count =
            std::strtoull(line.data() + pos, &after, 10);
        if (after == line.data() + pos || *after != ']') {
          return Status::Corruption("bad histogram bucket");
        }
        pos = static_cast<std::size_t>(after - line.data()) + 1;
        entry.hist_buckets.emplace_back(lower, count);
      }
    } else {
      return Status::Corruption("unknown metric type: " + type);
    }
    out->entries.push_back(std::move(entry));
  }
  return Status::Ok();
}

std::string FormatNanos(double nanos) {
  char buf[40];
  if (nanos >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f s", nanos / 1e9);
  } else if (nanos >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", nanos / 1e6);
  } else if (nanos >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", nanos / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", nanos);
  }
  return buf;
}

void PrintSnapshotTable(const MetricsSnapshot& snapshot, std::ostream& os) {
  TablePrinter table({"metric", "type", "value", "count", "p50", "p99"});
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    switch (e.type) {
      case MetricType::kCounter:
        table.AddRow({e.name, "counter", std::to_string(e.counter_value),
                      "", "", ""});
        break;
      case MetricType::kGauge:
        table.AddRow({e.name, "gauge", TablePrinter::Fmt(e.gauge_value, 4),
                      "", "", ""});
        break;
      case MetricType::kHistogram: {
        // Nanosecond histograms (stage timers) print human units; count
        // histograms print raw numbers.
        const bool is_nanos =
            e.name.size() > 3 && e.name.rfind(".ns") == e.name.size() - 3;
        const double mean =
            e.hist_count == 0
                ? 0.0
                : static_cast<double>(e.hist_sum) /
                      static_cast<double>(e.hist_count);
        const std::uint64_t p50 = EntryQuantile(e, 0.50);
        const std::uint64_t p99 = EntryQuantile(e, 0.99);
        table.AddRow(
            {e.name, "histogram",
             is_nanos ? FormatNanos(mean) : TablePrinter::Fmt(mean, 1),
             std::to_string(e.hist_count),
             is_nanos ? FormatNanos(static_cast<double>(p50))
                      : std::to_string(p50),
             is_nanos ? FormatNanos(static_cast<double>(p99))
                      : std::to_string(p99)});
        break;
      }
    }
  }
  table.Print(os);
}

}  // namespace dcs

#include "testing/fault_injector.h"

#include <sstream>

#include "common/config.h"
#include "common/logging.h"
#include "netio/frame.h"
#include "sketch/digest.h"

namespace dcs {
namespace {

std::uint64_t ReadU64(const std::vector<std::uint8_t>& bytes,
                      std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

void WriteU64(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t ReadU32(const std::vector<std::uint8_t>& bytes,
                      std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

void WriteU32(std::vector<std::uint8_t>* bytes, std::size_t offset,
              std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kBitFlip:
      return "bit_flip";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kGarbage:
      return "garbage";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kStaleEpoch:
      return "stale_epoch";
    case FaultKind::kFutureEpoch:
      return "future_epoch";
    case FaultKind::kLyingShape:
      return "lying_shape";
  }
  return "unknown";
}

Status FaultSpec::Parse(const std::string& text, FaultSpec* out) {
  DCS_CHECK(out != nullptr);
  FaultSpec spec;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec item missing '=': " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    double p = 0.0;
    const bool parsed = key == "seed" ? ParseNumber(value, &spec.seed)
                                      : ParseNumber(value, &p);
    if (!parsed) {
      return Status::InvalidArgument("bad fault spec value: " + item);
    }
    if (key != "seed") {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("fault probability out of [0,1]: " +
                                       item);
      }
      if (key == "drop") {
        spec.drop = p;
      } else if (key == "flip") {
        spec.bit_flip = p;
      } else if (key == "truncate") {
        spec.truncate = p;
      } else if (key == "garbage") {
        spec.garbage = p;
      } else if (key == "duplicate") {
        spec.duplicate = p;
      } else if (key == "stale") {
        spec.stale_epoch = p;
      } else if (key == "future") {
        spec.future_epoch = p;
      } else if (key == "shape") {
        spec.lying_shape = p;
      } else {
        return Status::InvalidArgument("unknown fault spec key: " + key);
      }
    }
  }
  const double total = spec.drop + spec.bit_flip + spec.truncate +
                       spec.garbage + spec.duplicate + spec.stale_epoch +
                       spec.future_epoch + spec.lying_shape;
  if (total > 1.0) {
    return Status::InvalidArgument("fault probabilities sum above 1");
  }
  *out = spec;
  return Status::Ok();
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << seed;
  for (const PlannedFault& fault : faults) {
    if (fault.kind == FaultKind::kNone) continue;
    os << " " << fault.router_id << ":" << FaultKindName(fault.kind);
  }
  os << "}";
  return os.str();
}

FaultPlan MaterializeFaultPlan(const FaultSpec& spec,
                               std::uint32_t num_routers) {
  FaultPlan plan;
  plan.seed = spec.seed;
  plan.faults.reserve(num_routers);
  Rng rng(spec.seed);
  // Cumulative thresholds in a fixed kind order keep the plan stable under
  // spec-field reordering.
  const struct {
    double p;
    FaultKind kind;
  } table[] = {
      {spec.drop, FaultKind::kDrop},
      {spec.bit_flip, FaultKind::kBitFlip},
      {spec.truncate, FaultKind::kTruncate},
      {spec.garbage, FaultKind::kGarbage},
      {spec.duplicate, FaultKind::kDuplicate},
      {spec.stale_epoch, FaultKind::kStaleEpoch},
      {spec.future_epoch, FaultKind::kFutureEpoch},
      {spec.lying_shape, FaultKind::kLyingShape},
  };
  for (std::uint32_t r = 0; r < num_routers; ++r) {
    PlannedFault fault;
    fault.router_id = r;
    // Draw both values for every router so one router's outcome never
    // shifts another's randomness.
    const double u = rng.UniformDouble();
    fault.mutation_seed = rng.Next();
    double cumulative = 0.0;
    for (const auto& entry : table) {
      cumulative += entry.p;
      if (u < cumulative) {
        fault.kind = entry.kind;
        break;
      }
    }
    plan.faults.push_back(fault);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

std::vector<std::vector<std::uint8_t>> FaultInjector::Apply(
    std::uint32_t router_id, const std::vector<std::uint8_t>& encoded) const {
  PlannedFault fault;
  if (router_id < plan_.faults.size()) fault = plan_.faults[router_id];
  Rng rng(fault.mutation_seed);
  switch (fault.kind) {
    case FaultKind::kNone:
      return {encoded};
    case FaultKind::kDrop:
      return {};
    case FaultKind::kBitFlip:
      return {FlipBits(encoded, &rng)};
    case FaultKind::kTruncate:
      return {Truncate(encoded, &rng)};
    case FaultKind::kGarbage:
      return {Garbage(encoded.size(), &rng)};
    case FaultKind::kDuplicate:
      return {encoded, encoded};
    case FaultKind::kStaleEpoch:
    case FaultKind::kFutureEpoch: {
      if (encoded.size() <
          DigestWireLayout::kEpochIdOffset + 8 +
              DigestWireLayout::kChecksumBytes) {
        return {encoded};
      }
      const std::uint64_t epoch =
          ReadU64(encoded, DigestWireLayout::kEpochIdOffset);
      const std::uint64_t skew = 1 + rng.UniformInt(100);
      // Unsigned wraparound for a stale epoch at 0 still lands far outside
      // any sane skew window, which is the point.
      const std::uint64_t lied = fault.kind == FaultKind::kStaleEpoch
                                     ? epoch - skew
                                     : epoch + skew;
      return {RewriteEpoch(encoded, lied)};
    }
    case FaultKind::kLyingShape:
      return {LieAboutShape(encoded, &rng)};
  }
  return {encoded};
}

std::vector<std::uint8_t> FaultInjector::FlipBits(
    std::vector<std::uint8_t> bytes, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (bytes.empty()) return bytes;
  const std::uint64_t total_bits = bytes.size() * 8;
  const std::uint64_t flips =
      1 + rng->UniformInt(total_bits < 8 ? total_bits : 8);
  // Distinct positions: a bit flipped twice restores itself, and the fuzz
  // suite's contract is that every mutation actually changes the buffer.
  std::vector<std::uint64_t> chosen;
  while (chosen.size() < flips) {
    const std::uint64_t bit = rng->UniformInt(total_bits);
    bool fresh = true;
    for (const std::uint64_t seen : chosen) fresh = fresh && seen != bit;
    if (!fresh) continue;
    chosen.push_back(bit);
    bytes[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
  }
  return bytes;
}

std::vector<std::uint8_t> FaultInjector::Truncate(
    std::vector<std::uint8_t> bytes, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (bytes.empty()) return bytes;
  bytes.resize(rng->UniformInt(bytes.size()));  // Cuts at least one byte.
  return bytes;
}

std::vector<std::uint8_t> FaultInjector::Garbage(std::size_t num_bytes,
                                                 Rng* rng) {
  DCS_CHECK(rng != nullptr);
  std::vector<std::uint8_t> out(num_bytes);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng->Next());
  return out;
}

std::vector<std::uint8_t> FaultInjector::RewriteEpoch(
    std::vector<std::uint8_t> bytes, std::uint64_t new_epoch) {
  if (bytes.size() < DigestWireLayout::kEpochIdOffset + 8 +
                         DigestWireLayout::kChecksumBytes) {
    return bytes;
  }
  WriteU64(&bytes, DigestWireLayout::kEpochIdOffset, new_epoch);
  Digest::ResealChecksum(&bytes);
  return bytes;
}

std::vector<std::uint8_t> FaultInjector::LieAboutShape(
    std::vector<std::uint8_t> bytes, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (bytes.size() < DigestWireLayout::kHeaderBytes +
                         DigestWireLayout::kChecksumBytes) {
    return bytes;
  }
  // Pick a field, then a lie: a small perturbation (off-by-a-few row
  // counts), or an absurdly large claim probing the decoder's allocation
  // bounds.
  const std::uint64_t field = rng->UniformInt(4);
  const bool absurd = rng->UniformInt(4) == 0;
  const std::uint64_t delta = 1 + rng->UniformInt(16);
  switch (field) {
    case 0: {
      const std::uint32_t v =
          ReadU32(bytes, DigestWireLayout::kNumGroupsOffset);
      WriteU32(&bytes, DigestWireLayout::kNumGroupsOffset,
               absurd ? 0xFFFFFFFFu : v + static_cast<std::uint32_t>(delta));
      break;
    }
    case 1: {
      const std::uint32_t v =
          ReadU32(bytes, DigestWireLayout::kArraysPerGroupOffset);
      WriteU32(&bytes, DigestWireLayout::kArraysPerGroupOffset,
               absurd ? 0xFFFFFFFFu : v + static_cast<std::uint32_t>(delta));
      break;
    }
    case 2: {
      const std::uint64_t v =
          ReadU64(bytes, DigestWireLayout::kNumRowsOffset);
      WriteU64(&bytes, DigestWireLayout::kNumRowsOffset,
               absurd ? (1ULL << 62) : v + delta);
      break;
    }
    default: {
      const std::uint64_t v =
          ReadU64(bytes, DigestWireLayout::kRowBitsOffset);
      WriteU64(&bytes, DigestWireLayout::kRowBitsOffset,
               absurd ? (1ULL << 62) : v + delta * 64);
      break;
    }
  }
  Digest::ResealChecksum(&bytes);
  return bytes;
}

std::vector<std::uint8_t> FaultInjector::MutateForFuzz(
    const std::vector<std::uint8_t>& bytes, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  switch (bytes.empty() ? 2 : rng->UniformInt(5)) {
    case 0:
      return FlipBits(bytes, rng);
    case 1:
      return Truncate(bytes, rng);
    case 2:
      // Length in [0, 2|bytes|]: shorter-than-header, header-sized, and
      // longer-than-original garbage all get coverage.
      return Garbage(rng->UniformInt(2 * bytes.size() + 1), rng);
    case 3: {  // Insert one random byte at a random position.
      std::vector<std::uint8_t> out = bytes;
      const std::uint64_t pos = rng->UniformInt(out.size() + 1);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                 static_cast<std::uint8_t>(rng->Next()));
      return out;
    }
    default: {  // Delete one byte.
      std::vector<std::uint8_t> out = bytes;
      const std::uint64_t pos = rng->UniformInt(out.size());
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
      return out;
    }
  }
}

std::vector<std::uint8_t> FaultInjector::LieAboutFrameLength(
    std::vector<std::uint8_t> frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (frame.size() <
      FrameWireLayout::kHeaderBytes + FrameWireLayout::kChecksumBytes) {
    return frame;
  }
  const std::uint32_t len =
      ReadU32(frame, FrameWireLayout::kPayloadLenOffset);
  const bool absurd = rng->UniformInt(4) == 0;
  std::uint32_t lied;
  if (absurd) {
    // Past the protocol max: the parser must refuse before buffering.
    lied = FrameWireLayout::kMaxPayloadBytes + 1 +
           static_cast<std::uint32_t>(rng->UniformInt(1u << 20));
  } else {
    // Off by a few, either direction, never the truth.
    const std::uint32_t delta =
        1 + static_cast<std::uint32_t>(rng->UniformInt(32));
    lied = rng->UniformInt(2) == 0 && len > delta ? len - delta : len + delta;
  }
  WriteU32(&frame, FrameWireLayout::kPayloadLenOffset, lied);
  ResealFrameChecksum(&frame);
  return frame;
}

std::vector<std::uint8_t> FaultInjector::CorruptFrameChecksum(
    std::vector<std::uint8_t> frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (frame.size() < FrameWireLayout::kChecksumBytes) return frame;
  const std::size_t tail = frame.size() - FrameWireLayout::kChecksumBytes;
  const std::uint64_t old = ReadU64(frame, tail);
  std::uint64_t lied = old;
  while (lied == old) lied = rng->Next();
  WriteU64(&frame, tail, lied);
  return frame;
}

std::vector<std::uint8_t> FaultInjector::LieAboutFrameHeader(
    std::vector<std::uint8_t> frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  if (frame.size() <
      FrameWireLayout::kHeaderBytes + FrameWireLayout::kChecksumBytes) {
    return frame;
  }
  switch (rng->UniformInt(5)) {
    case 0: {  // Version the parser does not speak.
      std::uint16_t v = FrameWireLayout::kVersion;
      while (v == FrameWireLayout::kVersion) {
        v = static_cast<std::uint16_t>(rng->Next());
      }
      frame[FrameWireLayout::kVersionOffset] =
          static_cast<std::uint8_t>(v & 0xFF);
      frame[FrameWireLayout::kVersionOffset + 1] =
          static_cast<std::uint8_t>(v >> 8);
      break;
    }
    case 1:  // Reserved flags set.
      frame[FrameWireLayout::kFlagsOffset] =
          static_cast<std::uint8_t>(1 + rng->UniformInt(255));
      break;
    case 2:  // Codec id outside the registry (0/1 are the known ids —
             // swapping those is a *negotiation* question the deterministic
             // codec tests cover, not a malformed frame).
      frame[FrameWireLayout::kCodecOffset] =
          static_cast<std::uint8_t>(2 + rng->UniformInt(254));
      break;
    case 3: {  // Envelope router differs from the payload's.
      const std::uint32_t v = ReadU32(frame, FrameWireLayout::kRouterIdOffset);
      WriteU32(&frame, FrameWireLayout::kRouterIdOffset,
               v + 1 + static_cast<std::uint32_t>(rng->UniformInt(1000)));
      break;
    }
    default: {  // Envelope epoch differs from the payload's.
      const std::uint64_t v = ReadU64(frame, FrameWireLayout::kEpochIdOffset);
      WriteU64(&frame, FrameWireLayout::kEpochIdOffset,
               v + 1 + rng->UniformInt(1000));
      break;
    }
  }
  ResealFrameChecksum(&frame);
  return frame;
}

std::vector<std::uint8_t> FaultInjector::CorruptFramePayload(
    std::vector<std::uint8_t> frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  const std::size_t overhead =
      FrameWireLayout::kHeaderBytes + FrameWireLayout::kChecksumBytes;
  if (frame.size() <= overhead) return frame;
  const std::size_t payload_len = frame.size() - overhead;
  // Flip 1-8 payload bits; the digest payload's own checksum breaks, so the
  // strict decode must fail while the (resealed) frame still parses.
  const std::uint64_t flips =
      1 + rng->UniformInt(payload_len * 8 < 8 ? payload_len * 8 : 8);
  // Distinct positions: a bit flipped twice restores itself, and since the
  // frame checksum is resealed below, cancelling flips would hand back a
  // byte-identical intact frame.
  std::vector<std::uint64_t> chosen;
  while (chosen.size() < flips) {
    const std::uint64_t bit = rng->UniformInt(payload_len * 8);
    bool fresh = true;
    for (const std::uint64_t seen : chosen) fresh = fresh && seen != bit;
    if (!fresh) continue;
    chosen.push_back(bit);
    frame[FrameWireLayout::kHeaderBytes + (bit >> 3)] ^=
        static_cast<std::uint8_t>(1u << (bit & 7));
  }
  ResealFrameChecksum(&frame);
  return frame;
}

std::vector<std::uint8_t> FaultInjector::EmbedInGarbage(
    const std::vector<std::uint8_t>& frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  std::vector<std::uint8_t> out =
      Garbage(rng->UniformInt(256), rng);
  out.insert(out.end(), frame.begin(), frame.end());
  const std::vector<std::uint8_t> tail = Garbage(rng->UniformInt(256), rng);
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

std::vector<std::uint8_t> FaultInjector::MutateFrameForFuzz(
    const std::vector<std::uint8_t>& frame, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  switch (frame.empty() ? 2 : rng->UniformInt(9)) {
    case 0:
      return FlipBits(frame, rng);
    case 1:
      return Truncate(frame, rng);
    case 2:
      return Garbage(rng->UniformInt(2 * frame.size() + 1), rng);
    case 3: {  // Insert one random byte strictly before the checksum field:
               // the covered window shifts, so the checksum cannot match.
               // Two insertions would merely *prepend garbage* to an intact
               // frame, which the parser rightly resyncs past and accepts:
               // position 0, and position 1 with a byte equal to frame[0]
               // (same buffer either way). Both are excluded — this
               // mutation must guarantee malformation.
      std::vector<std::uint8_t> out = frame;
      const std::size_t bound =
          out.size() > FrameWireLayout::kChecksumBytes
              ? out.size() - FrameWireLayout::kChecksumBytes
              : 1;
      const std::uint64_t pos =
          bound > 1 ? 1 + rng->UniformInt(bound - 1) : 0;
      std::uint8_t value = static_cast<std::uint8_t>(rng->Next());
      if (pos == 1 && !out.empty() && value == out[0]) {
        value = static_cast<std::uint8_t>(value ^ 0xFFu);
      }
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), value);
      return out;
    }
    case 4: {  // Delete one byte.
      std::vector<std::uint8_t> out = frame;
      const std::uint64_t pos = rng->UniformInt(out.size());
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
      return out;
    }
    case 5:
      return LieAboutFrameLength(frame, rng);
    case 6:
      return CorruptFrameChecksum(frame, rng);
    case 7:
      return LieAboutFrameHeader(frame, rng);
    default:
      return CorruptFramePayload(frame, rng);
  }
}

}  // namespace dcs

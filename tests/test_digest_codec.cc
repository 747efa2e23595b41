// The digest payload codecs (src/sketch/digest_codec.h,
// docs/DISTRIBUTED.md).
//
// The raw codec is the trivially-correct oracle: every property of the
// sparse codec is checked differentially against it — identical decoded
// digest, never a larger wire image than it needs, strict rejection of rows
// a codec is not allowed to emit.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sketch/digest.h"
#include "sketch/digest_codec.h"

namespace dcs {
namespace {

// One-row aligned digest with `ones` set bits scattered by `rng` (or evenly
// when rng == nullptr).
Digest MakeDigest(std::size_t row_bits, std::size_t ones, Rng* rng = nullptr) {
  Digest digest;
  digest.kind = DigestKind::kAligned;
  digest.router_id = 3;
  digest.epoch_id = 9;
  BitVector row(row_bits);
  if (rng != nullptr) {
    std::size_t set = 0;
    while (set < ones) {
      const std::size_t i = rng->UniformInt(row_bits);
      if (!row.Test(i)) {
        row.Set(i);
        ++set;
      }
    }
  } else {
    for (std::size_t k = 0; k < ones; ++k) {
      row.Set(k * row_bits / (ones == 0 ? 1 : ones));
    }
  }
  digest.rows.push_back(std::move(row));
  digest.packets_covered = 100;
  digest.raw_bytes_covered = 53600;
  return digest;
}

TEST(DigestCodecTest, CodecNamesAndKnownIds) {
  EXPECT_STREQ(DigestCodecName(DigestCodecId::kRaw), "raw");
  EXPECT_STREQ(DigestCodecName(DigestCodecId::kSparse), "sparse");
  EXPECT_TRUE(KnownDigestCodecId(0));
  EXPECT_TRUE(KnownDigestCodecId(1));
  for (int raw = 2; raw < 256; ++raw) {
    EXPECT_FALSE(KnownDigestCodecId(static_cast<std::uint8_t>(raw)));
  }
}

// Both codecs round-trip to the identical digest across the whole fill
// range, including all-zero, single-bit, near-full, and ragged-tail rows.
TEST(DigestCodecTest, RoundTripAcrossFillFractions) {
  Rng rng(7);
  const std::size_t sizes[] = {1, 63, 64, 65, 512, 1000, 4096};
  const double fills[] = {0.0, 0.001, 0.01, 0.05, 0.25, 0.5, 0.9, 1.0};
  for (const std::size_t row_bits : sizes) {
    for (const double fill : fills) {
      const std::size_t ones =
          static_cast<std::size_t>(fill * static_cast<double>(row_bits));
      const Digest original = MakeDigest(row_bits, ones, &rng);
      for (const DigestCodecId codec :
           {DigestCodecId::kRaw, DigestCodecId::kSparse}) {
        const std::vector<std::uint8_t> bytes =
            EncodeDigestPayload(original, codec);
        Digest decoded;
        const Status status = DecodeDigestPayload(bytes, codec, &decoded);
        ASSERT_TRUE(status.ok()) << "bits=" << row_bits << " fill=" << fill
                                 << " codec=" << DigestCodecName(codec) << ": "
                                 << status.ToString();
        EXPECT_TRUE(decoded == original)
            << "bits=" << row_bits << " fill=" << fill
            << " codec=" << DigestCodecName(codec);
      }
    }
  }
}

// Raw and sparse payloads of the same digest are decode-equivalent: the
// sparse image may differ on the wire but never in meaning.
TEST(DigestCodecTest, RawVsSparseDecodeEquivalenceOracle) {
  Rng rng(21);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t row_bits = 1 + rng.UniformInt(3000);
    const std::size_t ones = rng.UniformInt(row_bits + 1);
    const Digest original = MakeDigest(row_bits, ones, &rng);
    Digest from_raw;
    Digest from_sparse;
    ASSERT_TRUE(DecodeDigestPayload(EncodeDigestPayload(original,
                                                        DigestCodecId::kRaw),
                                    DigestCodecId::kRaw, &from_raw)
                    .ok());
    ASSERT_TRUE(
        DecodeDigestPayload(EncodeDigestPayload(original,
                                                DigestCodecId::kSparse),
                            DigestCodecId::kSparse, &from_sparse)
            .ok());
    EXPECT_TRUE(from_raw == from_sparse) << "trial " << trial;
    EXPECT_TRUE(from_raw == original) << "trial " << trial;
  }
}

// The sparse codec never loses to raw by more than the per-row tag (which
// both codecs pay), and its size grows monotonically in fill until it hands
// over to the dense fallback — after which it is pinned at the raw size.
TEST(DigestCodecTest, SparseNeverBeatenByRawAndMonotoneUntilDense) {
  const std::size_t row_bits = 4096;
  const std::size_t raw_size =
      EncodeDigestPayload(MakeDigest(row_bits, 0), DigestCodecId::kRaw).size();
  EXPECT_EQ(raw_size, RawPayloadSizeBytes(MakeDigest(row_bits, 0)));
  std::size_t prev = 0;
  bool dense_reached = false;
  for (std::size_t ones = 0; ones <= row_bits; ones += 64) {
    const Digest digest = MakeDigest(row_bits, ones);
    const std::size_t sparse_size =
        EncodeDigestPayload(digest, DigestCodecId::kSparse).size();
    EXPECT_LE(sparse_size, raw_size) << "ones=" << ones;
    EXPECT_EQ(RawPayloadSizeBytes(digest), raw_size);
    if (dense_reached) {
      EXPECT_EQ(sparse_size, raw_size) << "ones=" << ones;
    } else if (sparse_size == raw_size && ones > row_bits / 2) {
      dense_reached = true;
    } else if (ones > 0) {
      // Evenly-spread fills: more set bits never shrink the sparse image.
      EXPECT_GE(sparse_size, prev) << "ones=" << ones;
    }
    prev = sparse_size;
  }
  EXPECT_TRUE(dense_reached) << "full rows must fall back to dense";
}

// The acceptance target from EXPERIMENTS.md: at most 1% fill the sparse
// codec is at least a 4x reduction over the dense wire size.
TEST(DigestCodecTest, SparseAtLeastFourXAtOnePercentFill) {
  Rng rng(4);
  for (const std::size_t row_bits : {8192u, 65536u, 1u << 20}) {
    const std::size_t ones = row_bits / 100;
    const Digest digest = MakeDigest(row_bits, ones, &rng);
    const std::size_t raw_size = RawPayloadSizeBytes(digest);
    const std::size_t sparse_size =
        EncodeDigestPayload(digest, DigestCodecId::kSparse).size();
    EXPECT_GE(raw_size, 4 * sparse_size) << "bits=" << row_bits;
  }
}

// Strictness: a payload that declares kRaw but carries a compressed row is
// malformed, even though the bytes are a perfectly valid kSparse payload.
TEST(DigestCodecTest, RawCodecRejectsCompressedRows) {
  Rng rng(11);
  const Digest sparse_digest = MakeDigest(4096, 10, &rng);
  const std::vector<std::uint8_t> sparse_bytes =
      EncodeDigestPayload(sparse_digest, DigestCodecId::kSparse);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(sparse_bytes, DigestCodecId::kSparse, &out).ok());
  const Status status =
      DecodeDigestPayload(sparse_bytes, DigestCodecId::kRaw, &out);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

// A raw payload is all-dense, so it happens to be a valid sparse payload
// too — the degenerate overlap the negotiation relies on (auto mode can
// pick raw and the receiver may still be told sparse... it is not: the
// codec travels in the frame. This checks the *decoder* contract only).
TEST(DigestCodecTest, RawPayloadDecodesUnderSparseCodec) {
  Rng rng(13);
  const Digest digest = MakeDigest(4096, 2000, &rng);
  const std::vector<std::uint8_t> raw_bytes =
      EncodeDigestPayload(digest, DigestCodecId::kRaw);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(raw_bytes, DigestCodecId::kSparse, &out).ok());
  EXPECT_TRUE(out == digest);
}

// Auto negotiation: near-empty digests ship sparse, dense digests ship raw,
// and the payload always matches the returned codec.
TEST(DigestCodecTest, AutoNegotiationPicksThePayingCodec) {
  Rng rng(17);
  std::vector<std::uint8_t> payload;
  const Digest sparse_case = MakeDigest(8192, 40, &rng);
  EXPECT_EQ(EncodeDigestPayloadAuto(sparse_case, &payload),
            DigestCodecId::kSparse);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(payload, DigestCodecId::kSparse, &out).ok());
  EXPECT_TRUE(out == sparse_case);

  const Digest dense_case = MakeDigest(8192, 4000, &rng);
  EXPECT_EQ(EncodeDigestPayloadAuto(dense_case, &payload), DigestCodecId::kRaw);
  ASSERT_TRUE(DecodeDigestPayload(payload, DigestCodecId::kRaw, &out).ok());
  EXPECT_TRUE(out == dense_case);
  EXPECT_EQ(payload.size(), RawPayloadSizeBytes(dense_case));
}

// Digest::Encode is the kSparse payload, byte for byte — the digest plane
// and the on-disk format cannot drift apart.
TEST(DigestCodecTest, DigestEncodeIsTheSparsePayload) {
  Rng rng(19);
  for (const std::size_t ones : {0u, 5u, 300u, 4096u}) {
    const Digest digest = MakeDigest(4096, ones, &rng);
    EXPECT_EQ(digest.Encode(),
              EncodeDigestPayload(digest, DigestCodecId::kSparse));
  }
}

// One row of `bits` bits in one of the shapes the row policy must size
// exactly: empty, one bit, full, word-clustered (RLE wins), scattered at a
// random fill (sparse or dense wins).
BitVector ShapedRow(std::size_t bits, int shape, Rng* rng) {
  BitVector row(bits);
  switch (shape) {
    case 0:
      break;
    case 1:
      row.Set(rng->UniformInt(bits));
      break;
    case 2:
      for (std::size_t i = 0; i < bits; ++i) row.Set(i);
      break;
    case 3: {
      // A few fully-set words in a sea of zero words.
      const std::size_t start = rng->UniformInt(bits);
      for (std::size_t i = start; i < std::min(bits, start + 128); ++i) {
        row.Set(i);
      }
      break;
    }
    default: {
      const double fill = rng->UniformDouble() * 0.6;
      for (std::size_t i = 0; i < bits; ++i) {
        if (rng->UniformDouble() < fill) row.Set(i);
      }
      break;
    }
  }
  return row;
}

// Size accounting never encodes, so it must agree with the encoder byte for
// byte: EncodedSizeBytes() == Encode().size() and PayloadSizeBytes matches
// both codecs, over aligned and unaligned shapes, ragged tails included,
// with every row form (dense, sparse, RLE) exercised.
TEST(DigestCodecTest, PayloadSizeMatchesEncodedSize) {
  Rng rng(29);
  std::size_t tags_seen[3] = {0, 0, 0};
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 1000u, 1024u, 4097u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const bool aligned = trial % 2 == 0;
      Digest digest;
      digest.kind = aligned ? DigestKind::kAligned : DigestKind::kUnaligned;
      digest.router_id = static_cast<std::uint32_t>(trial);
      digest.num_groups = aligned ? 1 : 3;
      digest.arrays_per_group = aligned ? 1 : 4;
      const std::size_t rows = aligned ? 1 : 12;
      for (std::size_t r = 0; r < rows; ++r) {
        const int shape = aligned ? trial / 2 % 5
                                  : static_cast<int>(rng.UniformInt(5));
        digest.rows.push_back(ShapedRow(bits, shape, &rng));
        std::vector<std::uint8_t> one;
        EncodeRow(digest.rows.back(), DigestCodecId::kSparse, &one);
        ++tags_seen[one.front()];
      }
      const std::vector<std::uint8_t> encoded = digest.Encode();
      EXPECT_EQ(digest.EncodedSizeBytes(), encoded.size())
          << "bits=" << bits << " trial=" << trial;
      for (const DigestCodecId codec :
           {DigestCodecId::kRaw, DigestCodecId::kSparse}) {
        EXPECT_EQ(PayloadSizeBytes(digest, codec),
                  EncodeDigestPayload(digest, codec).size())
            << "bits=" << bits << " trial=" << trial << " codec="
            << DigestCodecName(codec);
      }
    }
  }
  EXPECT_GT(tags_seen[RowWire::kDense], 0u);
  EXPECT_GT(tags_seen[RowWire::kSparse], 0u);
  EXPECT_GT(tags_seen[RowWire::kRle], 0u);
}

// --- Row-level strictness -------------------------------------------------

// Encodes `row` with kSparse, returning (tag, bytes-after-tag position).
std::vector<std::uint8_t> EncodeOneRow(const BitVector& row,
                                       DigestCodecId codec) {
  std::vector<std::uint8_t> out;
  EncodeRow(row, codec, &out);
  return out;
}

TEST(DigestCodecTest, DenseRowTailGarbageRejected) {
  BitVector row(70);  // 64 < bits < 128: the last word has 58 dead bits.
  row.Set(0);
  row.Set(69);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kRaw);
  ASSERT_EQ(bytes.size(), 1 + 2 * 8);
  ASSERT_EQ(bytes[0], RowWire::kDense);
  std::size_t pos = 0;
  BitVector decoded(70);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Set a bit past size() in the trailing word.
  bytes.back() |= 0x80;
  pos = 0;
  const Status status = DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

TEST(DigestCodecTest, SparseRowOutOfRangeIndexRejected) {
  BitVector row(100);
  row.Set(99);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kSparse);
  ASSERT_EQ(bytes[0], RowWire::kSparse);
  std::size_t pos = 0;
  BitVector decoded(100);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Decode the same bytes into a *smaller* row: index 99 is out of range.
  pos = 0;
  BitVector small(50);
  const Status status =
      DecodeRow(bytes, &pos, DigestCodecId::kSparse, &small);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

TEST(DigestCodecTest, RleRowMalformedTokensRejected) {
  // A long zero run with a literal island — the shape RLE wins on.
  BitVector row(4096);
  for (std::size_t i = 2048; i < 2048 + 64; ++i) row.Set(i);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kSparse);
  ASSERT_EQ(bytes[0], RowWire::kRle);
  std::size_t pos = 0;
  BitVector decoded(4096);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Hand-built malformed variants.
  const auto expect_reject = [](const std::vector<std::uint8_t>& in) {
    std::size_t p = 0;
    BitVector out(128);  // 2 words.
    EXPECT_EQ(DecodeRow(in, &p, DigestCodecId::kSparse, &out).code(),
              Status::Code::kCorruption);
  };
  // Empty token: zeros == 0 && literals == 0 never covers ground.
  expect_reject({RowWire::kRle, 0, 0});
  // Run overflowing the row: 3 zero words in a 2-word row.
  expect_reject({RowWire::kRle, 3, 0});
  // Token stream ending short of the row: 1 zero word covers 1 of 2.
  expect_reject({RowWire::kRle, 1, 0});
  // Literal count claiming more words than the encoding carries.
  expect_reject({RowWire::kRle, 1, 1});
}

TEST(DigestCodecTest, UnknownRowTagRejected) {
  std::size_t pos = 0;
  BitVector out(64);
  const std::vector<std::uint8_t> bytes = {3, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &out).code(),
            Status::Code::kCorruption);
}

// Multi-row unaligned digests mix row encodings freely under kSparse: each
// row independently picks its cheapest form.
TEST(DigestCodecTest, MixedRowEncodingsInOnePayload) {
  Rng rng(23);
  Digest digest;
  digest.kind = DigestKind::kUnaligned;
  digest.router_id = 8;
  digest.epoch_id = 2;
  digest.num_groups = 3;
  digest.arrays_per_group = 1;
  BitVector empty(1024);                       // RLE or sparse.
  BitVector dense(1024);                       // Dense fallback.
  for (std::size_t i = 0; i < 1024; ++i) dense.Set(i);
  BitVector sparse(1024);                      // A few scattered bits.
  for (std::size_t k = 0; k < 6; ++k) sparse.Set(rng.UniformInt(1024));
  digest.rows = {empty, dense, sparse};
  digest.packets_covered = 1;
  digest.raw_bytes_covered = 1;

  const std::vector<std::uint8_t> bytes =
      EncodeDigestPayload(digest, DigestCodecId::kSparse);
  Digest decoded;
  ASSERT_TRUE(
      DecodeDigestPayload(bytes, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == digest);
  EXPECT_LT(bytes.size(), RawPayloadSizeBytes(digest));
}

}  // namespace
}  // namespace dcs

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "store/crc32c.h"
#include "store/dataset.h"
#include "store/encoding.h"
#include "store/format.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / Castagnoli check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // 32 zero bytes — the iSCSI test vector.
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, data.size() - 1}) {
    const std::uint32_t first = crc32c(data.substr(0, split));
    EXPECT_EQ(crc32c(data.substr(split), first), whole) << "split " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(64, 'x');
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte : {std::size_t{0}, std::size_t{31}, data.size() - 1}) {
    std::string bad = data;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x01);
    EXPECT_NE(crc32c(bad), clean);
  }
}

TEST(Crc32cTest, SoftwareFallbackMatchesKnownVectors) {
  // The slice-by-4 table path must hold the same vectors on its own — it is
  // the cross-check oracle for the hardware path below.
  EXPECT_EQ(crc32c_software("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c_software(""), 0u);
  EXPECT_EQ(crc32c_software(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, DispatchedAndSoftwarePathsAgree) {
  // crc32c() dispatches to SSE4.2/ARMv8 CRC instructions when the CPU has
  // them; whatever backend ran, it must agree with the table fallback on
  // every length class (word loop, 8-byte chunks, byte tails) and seed.
  EXPECT_FALSE(crc32c_backend().empty());
  util::Rng rng(20260808);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{15},
        std::size_t{16}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{255}, std::size_t{1024}, std::size_t{4097}}) {
    std::string buf(len, '\0');
    for (char& c : buf) {
      c = static_cast<char>(rng.uniform_index(256));
    }
    const auto seed = static_cast<std::uint32_t>(rng.uniform_index(1u << 31));
    EXPECT_EQ(crc32c(buf, seed), crc32c_software(buf, seed)) << "len " << len;
    if (len > 3) {
      // Misaligned start: the hardware path's unaligned loads must not
      // change the answer.
      const std::string_view tail(buf.data() + 3, len - 3);
      EXPECT_EQ(crc32c(tail, seed), crc32c_software(tail, seed))
          << "len " << len;
    }
  }
}

TEST(EncodingTest, FixedWidthRoundTrip) {
  std::string buf;
  put_u16(buf, 0xBEEF);
  put_u32(buf, 0xDEADBEEFu);
  put_u64(buf, 0x0123456789ABCDEFull);
  put_f64(buf, -0.0);
  ASSERT_EQ(buf.size(), 2u + 4u + 8u + 8u);
  EXPECT_EQ(get_u16(buf.data()), 0xBEEF);
  EXPECT_EQ(get_u32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(buf.data() + 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::signbit(get_f64(buf.data() + 14)), true);
  // The wire layout is little-endian regardless of host order.
  EXPECT_EQ(buf[0], '\xEF');
  EXPECT_EQ(buf[1], '\xBE');
}

// ---- reference codecs ------------------------------------------------------
// The byte-at-a-time varint writer and the bounds-checked-only reader the
// pointer-based codecs replaced. The production codecs must produce and
// accept exactly what these do.

void reference_put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool reference_get_varint(std::string_view data, std::size_t* pos,
                          std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift < 70) {
    const auto byte = static_cast<unsigned char>(data[*pos]);
    ++*pos;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

std::string reference_f64_stream(const std::vector<double>& values) {
  std::string out;
  std::uint64_t prev = 0;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    reference_put_varint(out, bits ^ prev);
    prev = bits;
  }
  return out;
}

std::string reference_u32_stream(const std::vector<std::uint32_t>& values) {
  std::string out;
  std::int64_t prev = 0;
  for (const std::uint32_t v : values) {
    reference_put_varint(out, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = static_cast<std::int64_t>(v);
  }
  return out;
}

std::string encode_varint(std::uint64_t v) {
  char buf[kMaxVarintBytes];
  return std::string(buf, write_varint(buf, v));
}

std::string encode_f64(const std::vector<double>& values,
                       std::string prefix = {}) {
  encode_f64_stream(values.data(), values.size(), 1, prefix);
  return prefix;
}

/// Whole-payload f64 column decode, as the reader does it: the stream must
/// end exactly at the payload's end.
bool decode_f64_column(std::string_view payload, std::size_t rows,
                       std::vector<double>& out) {
  out.assign(rows, 0.0);
  std::size_t pos = 0;
  return decode_f64_stream(payload, &pos, rows, out.data(), 1) &&
         pos == payload.size();
}

/// Edge values of the varint domain: every 7-bit length boundary, the
/// 32-bit boundary, 2^63 and UINT64_MAX.
std::vector<std::uint64_t> varint_edges() {
  std::vector<std::uint64_t> values = {
      0, 1, 0x7F, 0x80, 300, (1ull << 32) - 1, 1ull << 32, 1ull << 63,
      std::numeric_limits<std::uint64_t>::max()};
  for (int shift = 7; shift < 64; shift += 7) {
    values.push_back((1ull << shift) - 1);
    values.push_back(1ull << shift);
  }
  return values;
}

/// Bit patterns the f64 codec must carry exactly: signed zeros, NaN
/// payloads (quiet and signalling, both signs), denormals, infinities.
std::vector<double> f64_edges() {
  const auto from = [](std::uint64_t bits) {
    return std::bit_cast<double>(bits);
  };
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          1e-300,
          -1e300,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          from(0x7FF8000000000123ull),
          from(0xFFF8DEADBEEF0001ull),
          from(0x7FF0000000000001ull),
          from(0xFFFFFFFFFFFFFFFFull),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          from(0x000FFFFFFFFFFFFFull),
          std::numeric_limits<double>::max(),
          4.9406564584124654e-324};
}

/// Copies `bytes` into an exactly sized heap block, so a read one past the
/// end is a heap overflow sanitizers report (a std::string's small buffer
/// or spare capacity would hide it).
struct ExactBuffer {
  explicit ExactBuffer(std::string_view bytes)
      : data(new char[bytes.size() + (bytes.empty() ? 1 : 0)]),
        size(bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), data.get());
  }
  std::string_view view() const { return {data.get(), size}; }
  std::unique_ptr<char[]> data;
  std::size_t size;
};

/// Decodes `bytes` from `start` with both decoders and requires the same
/// verdict, the same cursor, and (on success) the same value.
void expect_same_decode(std::string_view bytes, std::size_t start) {
  const ExactBuffer buf(bytes);
  std::size_t pos = start, ref_pos = start;
  std::uint64_t value = 0, ref_value = 0;
  const bool ok = get_varint(buf.view(), &pos, &value);
  const bool ref_ok = reference_get_varint(buf.view(), &ref_pos, &ref_value);
  ASSERT_EQ(ok, ref_ok) << "size " << bytes.size() << " start " << start;
  EXPECT_EQ(pos, ref_pos) << "size " << bytes.size() << " start " << start;
  if (ok) {
    EXPECT_EQ(value, ref_value);
  }
}

TEST(EncodingTest, VarintRoundTripAndEdges) {
  for (const std::uint64_t v : varint_edges()) {
    const std::string buf = encode_varint(v);
    EXPECT_LE(buf.size(), kMaxVarintBytes);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(get_varint(buf, &pos, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(EncodingTest, VarintRejectsTruncation) {
  std::string buf = encode_varint(std::numeric_limits<std::uint64_t>::max());
  buf.pop_back();  // drop the terminating byte
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(get_varint(buf, &pos, &out));
}

TEST(EncodingTest, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0, -1, 1, -2, 2,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  // Small magnitudes map to small codes (the property the action column
  // relies on for one-byte deltas).
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

TEST(EncodingTest, VarintWriterMatchesByteAtATimeReference) {
  util::Rng rng(20261018);
  std::vector<std::uint64_t> values = varint_edges();
  for (int i = 0; i < 2000; ++i) {
    // Uniform over the encoded length, not the value, so every length from
    // 1 to 10 bytes is exercised often.
    const auto width = static_cast<int>(rng.uniform_index(64)) + 1;
    const std::uint64_t raw = rng.next_u64();
    values.push_back(width == 64 ? raw : raw & ((1ull << width) - 1));
  }
  for (const std::uint64_t v : values) {
    std::string ref;
    reference_put_varint(ref, v);
    EXPECT_EQ(encode_varint(v), ref) << v;
  }

  // The stream encoders, appending after existing bytes, at stride 1 and at
  // the context column's stride.
  std::vector<double> doubles = f64_edges();
  for (int i = 0; i < 500; ++i) {
    doubles.push_back(std::bit_cast<double>(rng.next_u64()));
    doubles.push_back(rng.uniform(-1.0, 1.0));
    doubles.push_back(doubles[doubles.size() - 2]);  // repeat: 1-byte delta
  }
  EXPECT_EQ(encode_f64(doubles, "tag"), "tag" + reference_f64_stream(doubles));
  for (const std::size_t stride : {std::size_t{2}, std::size_t{3}}) {
    std::vector<double> field;
    for (std::size_t i = 0; i < doubles.size(); i += stride) {
      field.push_back(doubles[i]);
    }
    std::string out = "x";
    encode_f64_stream(doubles.data(), field.size(), stride, out);
    EXPECT_EQ(out, "x" + reference_f64_stream(field)) << "stride " << stride;
  }
  std::vector<std::uint32_t> codes = {0, 0xFFFFFFFFu, 0, 1, 0x80, 0x7F};
  for (int i = 0; i < 1000; ++i) {
    codes.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    codes.push_back(static_cast<std::uint32_t>(rng.uniform_index(5)));
  }
  std::string out = "y";
  encode_u32_stream(codes, out);
  EXPECT_EQ(out, "y" + reference_u32_stream(codes));
  std::string empty;
  encode_f64_stream(doubles.data(), 0, 1, empty);
  encode_u32_stream({}, empty);
  EXPECT_TRUE(empty.empty());
}

TEST(EncodingTest, VarintDecoderMatchesReferenceAtFastPathBoundary) {
  // Exactly 9, 10 and 11 bytes left at the cursor: the last length the
  // bounds-checked tail handles and the first two the fast path takes.
  for (const std::uint64_t v : varint_edges()) {
    const std::string enc = encode_varint(v);
    for (const std::size_t left : {std::size_t{9}, std::size_t{10},
                                   std::size_t{11}}) {
      if (enc.size() > left) continue;
      for (const char pad : {'\x00', '\x80', '\xFF'}) {
        const std::string bytes =
            "ab" + enc + std::string(left - enc.size(), pad);
        expect_same_decode(bytes, 2);
      }
    }
  }
  // Ten continuation bytes and then a terminator: rejected after consuming
  // the ten, whether the eleventh byte is in range or not.
  const std::string overlong(10, '\x80');
  expect_same_decode(overlong, 0);
  expect_same_decode(overlong + '\x01', 0);
  expect_same_decode("z" + overlong + "\x01\x01", 1);
  // A 10-byte varint whose last byte carries high bits past 2^64: accepted
  // (bits beyond 64 are dropped), as before.
  expect_same_decode(std::string(9, '\xFF') + '\x7F', 0);
  expect_same_decode(std::string(9, '\xFF') + '\x7F' + "pad", 0);
  // Truncated last varint, at every tail length.
  const std::string max =
      encode_varint(std::numeric_limits<std::uint64_t>::max());
  for (std::size_t cut = 0; cut < max.size(); ++cut) {
    expect_same_decode(max.substr(0, cut), 0);
    expect_same_decode("0123456789" + max.substr(0, cut), 10);
  }
  // Cursor at and past the end.
  expect_same_decode("abc", 3);
  expect_same_decode("abc", 4);
}

TEST(EncodingTest, VarintDecoderMatchesReferenceOnRandomBytes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t size = rng.uniform_index(24);
    std::string bytes(size, '\0');
    for (char& c : bytes) {
      // Bias toward continuation bytes so long varints are common.
      c = static_cast<char>(rng.bernoulli(0.8) ? 0x80 | rng.uniform_index(128)
                                               : rng.uniform_index(128));
    }
    expect_same_decode(bytes, rng.uniform_index(size + 1));
  }
}

TEST(EncodingTest, F64ColumnRoundTripsEveryBitPattern) {
  const std::vector<double> values = f64_edges();
  const std::string buf = encode_f64(values);
  std::vector<double> back;
  ASSERT_TRUE(decode_f64_column(ExactBuffer(buf).view(), values.size(), back));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "index " << i;
  }
}

TEST(EncodingTest, ConstantF64ColumnIsOneBytePerRowAfterFirst) {
  const std::vector<double> values(1000, 1.0);
  const std::string buf = encode_f64(values);
  // First row carries bits(1.0); every later XOR-delta is 0 → one byte.
  EXPECT_LE(buf.size(), 999u + 10u);
}

TEST(EncodingTest, F64ColumnRejectsTruncationAndTrailingGarbage) {
  const std::vector<double> values = {3.14, 2.71, 1.41};
  const std::string buf = encode_f64(values);
  std::vector<double> out;
  const ExactBuffer truncated(buf.substr(0, buf.size() - 1));
  EXPECT_FALSE(decode_f64_column(truncated.view(), values.size(), out));
  const ExactBuffer padded(buf + '\0');
  EXPECT_FALSE(decode_f64_column(padded.view(), values.size(), out));
  // One more row than was written: the decoder runs out of bytes.
  EXPECT_FALSE(decode_f64_column(buf, values.size() + 1, out));
}

TEST(EncodingTest, U32ColumnRoundTripAndBoundsCheck) {
  const std::vector<std::uint32_t> values = {0, 5, 2, 2, 0xFFFFFFFFu, 0, 7};
  std::string buf;
  encode_u32_stream(values, buf);
  std::vector<std::uint32_t> back(values.size());
  std::size_t pos = 0;
  ASSERT_TRUE(decode_u32_stream(buf, &pos, values.size(), back.data()));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back, values);

  // A delta that drives the running value negative must be rejected.
  const std::string bad = encode_varint(zigzag(-1));
  std::uint32_t one = 0;
  pos = 0;
  EXPECT_FALSE(decode_u32_stream(bad, &pos, 1, &one));
}

TEST(FormatTest, MagicDetection) {
  std::string hlog;
  put_u32(hlog, kFileMagic);
  hlog += "rest";
  EXPECT_TRUE(is_hlog(hlog));
  EXPECT_FALSE(is_hlog("t=0 ev=decide x=1\n"));
  EXPECT_FALSE(is_hlog(""));
  EXPECT_FALSE(is_hlog("HLO"));
}

TEST(FormatTest, SchemaEquality) {
  Schema a;
  a.decision_event = "decide";
  a.context_fields = {"x", "y"};
  a.action_field = "a";
  a.reward_field = "r";
  a.num_actions = 3;
  Schema b = a;
  EXPECT_EQ(a, b);
  b.reward_hi = 2.0;
  EXPECT_NE(a, b);
}

ZoneMap zone(double tmin, double tmax, std::uint32_t amin, std::uint32_t amax,
             double pmin, double pmax) {
  ZoneMap z;
  z.min_time = tmin;
  z.max_time = tmax;
  z.min_action = amin;
  z.max_action = amax;
  z.min_propensity = pmin;
  z.max_propensity = pmax;
  return z;
}

TEST(FormatTest, TrivialPredicateAdmitsAndMatchesEverything) {
  const ScanPredicate all;
  EXPECT_TRUE(all.trivial());
  EXPECT_EQ(all.describe(), "all");
  EXPECT_TRUE(all.admits(zone(10, 20, 2, 5, 0.1, 0.5)));
  EXPECT_TRUE(all.matches(1e300, 7, -3.0));
  EXPECT_TRUE(all.matches(std::numeric_limits<double>::quiet_NaN(), 0,
                          std::numeric_limits<double>::quiet_NaN()));
}

TEST(FormatTest, PredicatePrunesByEveryZoneDimension) {
  const ZoneMap z = zone(10, 20, 2, 5, 0.1, 0.5);

  ScanPredicate time_after;
  time_after.min_time = 25;
  EXPECT_FALSE(time_after.trivial());
  EXPECT_FALSE(time_after.admits(z));
  time_after.min_time = 20;  // zone max is inclusive
  EXPECT_TRUE(time_after.admits(z));

  ScanPredicate time_before;
  time_before.max_time = 5;
  EXPECT_FALSE(time_before.admits(z));

  ScanPredicate wrong_action;
  wrong_action.action = 7;
  EXPECT_FALSE(wrong_action.admits(z));
  wrong_action.action = 3;
  EXPECT_TRUE(wrong_action.admits(z));

  ScanPredicate p_band;
  p_band.min_propensity = 0.6;
  EXPECT_FALSE(p_band.admits(z));
  p_band.min_propensity = 0.3;
  EXPECT_TRUE(p_band.admits(z));
}

TEST(FormatTest, NanWidenedZoneIsNeverPruned) {
  // Writer widens a block's zone to ±inf when it saw a NaN value; no
  // predicate may prune such a block, else pruned != filtered.
  const double inf = std::numeric_limits<double>::infinity();
  const ZoneMap widened = zone(-inf, inf, 0, 0, -inf, inf);
  ScanPredicate narrow;
  narrow.min_time = 1e9;
  narrow.max_time = 1e9 + 1;
  narrow.min_propensity = 0.999;
  EXPECT_TRUE(narrow.admits(widened));
}

TEST(FormatTest, NanRowPassesRangeFiltersButNotActionEquality) {
  // Row filters are negated comparisons: NaN fails every ordered compare,
  // so a NaN time/propensity row survives range predicates (matching what a
  // post-hoc filter built the same way would keep).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScanPredicate range;
  range.min_time = 100;
  range.max_propensity = 0.5;
  EXPECT_TRUE(range.matches(nan, 0, nan));
  EXPECT_FALSE(range.matches(50, 0, 0.25));

  ScanPredicate only2;
  only2.action = 2;
  EXPECT_TRUE(only2.matches(nan, 2, nan));
  EXPECT_FALSE(only2.matches(nan, 3, nan));
}

TEST(FormatTest, ManifestJsonRoundTrips) {
  Manifest manifest;
  manifest.version = kManifestVersion;
  manifest.counts.records_seen = 100;
  manifest.counts.decisions_seen = 90;
  manifest.counts.dropped_missing_fields = 3;
  manifest.counts.dropped_bad_action = 2;
  manifest.counts.dropped_bad_propensity = 1;
  manifest.counts.dropped_stale_timestamp = 4;
  manifest.counts.dropped_corrupt_block = 5;
  manifest.counts.rows = 75;
  Counts part;
  part.records_seen = 40;
  part.decisions_seen = 40;
  part.rows = 40;
  manifest.shards.push_back({"part-00000.hlog", part});
  part.rows = 35;
  part.records_seen = 35;
  part.decisions_seen = 35;
  manifest.shards.push_back({"part-00001.hlog", part});

  const Manifest back = Manifest::parse_json(manifest.to_json(), "test");
  EXPECT_EQ(back.version, manifest.version);
  EXPECT_EQ(back.counts, manifest.counts);
  ASSERT_EQ(back.shards.size(), manifest.shards.size());
  for (std::size_t i = 0; i < back.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].file, manifest.shards[i].file);
    EXPECT_EQ(back.shards[i].counts, manifest.shards[i].counts);
  }
}

TEST(FormatTest, ManifestRejectsMalformedJson) {
  EXPECT_THROW(Manifest::parse_json("not json at all", "t"),
               std::runtime_error);
  EXPECT_THROW(Manifest::parse_json("{\"hlog_dataset\": 1}", "t"),
               std::runtime_error);
  EXPECT_THROW(
      Manifest::parse_json(
          "{\"hlog_dataset\": 99, \"counts\": {}, \"shards\": []}", "t"),
      std::runtime_error);
}

TEST(FormatTest, ManifestRejectsDeepNestingAndOverflow) {
  // Rejected by the nesting limit, not a stack overflow.
  EXPECT_THROW(Manifest::parse_json(std::string(100000, '['), "t"),
               std::runtime_error);
  // Counts are unsigned 64-bit: the largest parses exactly; one more, a
  // sign or a fraction does not.
  Manifest manifest;
  manifest.counts.records_seen = UINT64_MAX;
  const std::string json = manifest.to_json();
  EXPECT_EQ(Manifest::parse_json(json, "t").counts.records_seen, UINT64_MAX);
  for (const std::string bad : {"18446744073709551616", "-1", "1.5", "1e3"}) {
    std::string text = json;
    text.replace(text.find("\"rows\": 0") + 8, 1, bad);
    EXPECT_THROW(Manifest::parse_json(text, "t"), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace harvest::store

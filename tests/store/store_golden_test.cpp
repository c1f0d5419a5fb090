// Committed HLOG byte goldens. Every other store test compares two outputs
// of the same build, so a codec or layout change that shifts the bytes the
// same way on both sides would pass them. These pin the CRC32C and size of
// a fixed input written through Writer and through DatasetWriter (two part
// files), plus the exact MANIFEST.json text. The input covers a
// dictionary-coded context field (with -0.0 distinct from 0.0), a raw one
// (with a denormal) that overflows the dictionary, a NaN row, and a
// non-trivial ledger. The constants hold with blocks encoded inline and on
// pools of one and eight workers. A change to these constants is a format
// change: it needs a format version bump, not a new golden.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "par/thread_pool.h"
#include "store/crc32c.h"
#include "store/dataset.h"
#include "store/writer.h"

namespace harvest::store {
namespace {

constexpr std::size_t kRows = 600;

Schema golden_schema() {
  Schema schema;
  schema.decision_event = "decide";
  schema.context_fields = {"load", "zone"};
  schema.action_field = "choice";
  schema.reward_field = "reward";
  schema.propensity_field = "p";
  schema.stale_after_seconds = 30;
  schema.reward_lo = -0.5;
  schema.reward_hi = 1.5;
  schema.num_actions = 3;
  return schema;
}

WriterOptions golden_options() {
  return {.rows_per_block = 64, .blocks_per_shard = 3, .max_dict_entries = 16};
}

Counts golden_counts() {
  Counts counts;
  counts.records_seen = kRows + 50;
  counts.decisions_seen = kRows + 20;
  counts.dropped_missing_fields = 12;
  counts.dropped_stale_timestamp = 8;
  return counts;
}

/// Row i of the fixed input; integer arithmetic only, so the values do not
/// depend on any library's random streams.
template <typename Sink>
void write_rows(Sink& sink) {
  for (std::size_t i = 0; i < kRows; ++i) {
    double time = static_cast<double>(i) * 0.25;
    double load = static_cast<double>((i * 7919) % 1000) / 8.0;
    const double zone = i % 5 == 4 ? -0.0 : static_cast<double>(i % 5);
    const auto action = static_cast<std::uint32_t>((i * 31) % 3);
    double reward = static_cast<double>((i * 13) % 17) / 16.0 - 0.25;
    double propensity = action == 0 ? 0.5 : 0.25;
    if (i == 7) load = std::numeric_limits<double>::denorm_min();
    if (i == 123) {
      time = std::numeric_limits<double>::quiet_NaN();
      reward = std::bit_cast<double>(std::uint64_t{0x7FF8000000000123});
      propensity = std::numeric_limits<double>::quiet_NaN();
    }
    const double context[] = {load, zone};
    sink.add(time, context, action, reward, propensity);
  }
}

constexpr const char* kGoldenManifest = R"({
  "hlog_dataset": 1,
  "counts": {
    "records_seen": 650,
    "decisions_seen": 620,
    "dropped_missing_fields": 12,
    "dropped_bad_action": 0,
    "dropped_bad_propensity": 0,
    "dropped_stale_timestamp": 8,
    "dropped_corrupt_block": 0,
    "rows": 600
  },
  "shards": [
    {
      "file": "part-00000.hlog",
      "counts": {
        "records_seen": 350,
        "decisions_seen": 350,
        "dropped_missing_fields": 0,
        "dropped_bad_action": 0,
        "dropped_bad_propensity": 0,
        "dropped_stale_timestamp": 0,
        "dropped_corrupt_block": 0,
        "rows": 350
      }
    },
    {
      "file": "part-00001.hlog",
      "counts": {
        "records_seen": 250,
        "decisions_seen": 250,
        "dropped_missing_fields": 0,
        "dropped_bad_action": 0,
        "dropped_bad_propensity": 0,
        "dropped_stale_timestamp": 0,
        "dropped_corrupt_block": 0,
        "rows": 250
      }
    }
  ]
}
)";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Writes the golden input through a Writer encoding on `pool` (null:
/// inline) and checks the pinned bytes.
void expect_writer_bytes_pinned(par::ThreadPool* pool) {
  std::ostringstream out;
  {
    Writer writer(out, golden_schema(), golden_options(), pool);
    write_rows(writer);
    writer.set_counts(golden_counts());
    writer.finish();
  }
  const std::string bytes = out.str();
  EXPECT_EQ(bytes.size(), 20655u);
  EXPECT_EQ(crc32c(bytes), 441254113u);
}

/// Same for a DatasetWriter, whose parts encode on par::default_pool() set to
/// `total_threads` (1: inline). Its 350-row part roll falls inside a block,
/// so on a pool the roll finishes a part while its last full block is in
/// flight.
void expect_dataset_bytes_pinned(std::size_t total_threads) {
  par::set_default_threads(total_threads);
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hlog_golden_dataset";
  std::filesystem::remove_all(dir);
  {
    DatasetWriter writer(dir.string(), golden_schema(), golden_options(),
                         /*rows_per_file=*/350);
    write_rows(writer);
    writer.set_counts(golden_counts());
    writer.finish();
  }
  const std::string part0 = read_file(dir / "part-00000.hlog");
  const std::string part1 = read_file(dir / "part-00001.hlog");
  EXPECT_FALSE(std::filesystem::exists(dir / "part-00002.hlog"));
  EXPECT_EQ(part0.size(), 12128u);
  EXPECT_EQ(crc32c(part0), 3890408508u);
  EXPECT_EQ(part1.size(), 8721u);
  EXPECT_EQ(crc32c(part1), 4201991688u);
  EXPECT_EQ(read_file(dir / kManifestFileName), kGoldenManifest);
  std::filesystem::remove_all(dir);
}

TEST(StoreGoldenTest, WriterBytesArePinned) {
  expect_writer_bytes_pinned(nullptr);
}

TEST(StoreGoldenTest, DatasetPartsAndManifestArePinned) {
  expect_dataset_bytes_pinned(1);
}

// Blocks encoded on a pool while the next one fills: the same constants at
// one worker and at eight.
TEST(StoreGoldenTest, WriterBytesArePinnedOnPools) {
  for (const std::size_t workers : {1u, 8u}) {
    SCOPED_TRACE(workers);
    par::ThreadPool pool(workers);
    expect_writer_bytes_pinned(&pool);
  }
}

TEST(StoreGoldenTest, DatasetPartsAndManifestArePinnedOnPools) {
  for (const std::size_t total_threads : {2u, 9u}) {  // 1 and 8 workers
    SCOPED_TRACE(total_threads);
    expect_dataset_bytes_pinned(total_threads);
  }
  par::set_default_threads(1);
}

}  // namespace
}  // namespace harvest::store

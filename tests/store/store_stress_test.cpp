// Concurrency torture for the pipelined HLOG writer: eight DatasetWriters,
// each on its own thread, encode their sealed blocks on one shared pool
// (and help run each other's encodes while they wait). Every dataset must
// come out byte-identical to the same rows written with no pool. tools/ci.sh
// also runs it in its TSan sub-build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "par/thread_pool.h"
#include "store/dataset.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

constexpr std::size_t kWriters = 8;
constexpr std::size_t kRows = 20000;

Schema stress_schema() {
  Schema schema;
  schema.decision_event = "decide";
  schema.context_fields = {"load", "zone"};
  schema.action_field = "a";
  schema.reward_field = "r";
  schema.propensity_field = "p";
  schema.num_actions = 4;
  return schema;
}

/// Writer `w`'s rows: its own random stream, a dictionary-friendly "zone"
/// and a raw "load". Small blocks and parts, so every writer seals many
/// blocks and rolls parts while blocks are in flight. Encodes on
/// par::default_pool().
void write_dataset(const std::filesystem::path& dir, std::size_t w) {
  std::filesystem::remove_all(dir);
  DatasetWriter writer(dir.string(), stress_schema(),
                       {.rows_per_block = 256, .blocks_per_shard = 4},
                       /*rows_per_file=*/7000);
  util::Rng rng(0x5EED0000 + w);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double context[] = {rng.uniform(0, 100),
                              static_cast<double>(rng.uniform_int(0, 9))};
    const auto action = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    writer.add(static_cast<double>(i), context, action, rng.uniform(0, 1),
               0.25);
  }
  writer.finish();
}

/// Every file of a dataset directory, by name.
std::vector<std::pair<std::string, std::string>> read_dir(
    const std::filesystem::path& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files.emplace_back(entry.path().filename().string(),
                       std::string(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(StoreStressTest, WritersSharingOnePoolMatchInlineBytes) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "hlog_pipeline_stress";
  par::set_default_threads(5);  // one shared pool of 4 workers
  {
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        write_dataset(root / ("pooled-" + std::to_string(w)), w);
      });
    }
    for (auto& t : threads) t.join();
  }
  par::set_default_threads(1);  // no pool: encode inline
  for (std::size_t w = 0; w < kWriters; ++w) {
    SCOPED_TRACE(w);
    const std::filesystem::path inline_dir =
        root / ("inline-" + std::to_string(w));
    write_dataset(inline_dir, w);
    const auto pooled = read_dir(root / ("pooled-" + std::to_string(w)));
    const auto expected = read_dir(inline_dir);
    ASSERT_EQ(expected.size(), 4u);  // three parts and the manifest
    EXPECT_EQ(pooled, expected);
    EXPECT_EQ(Dataset::open(inline_dir.string()).rows(), kRows);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace harvest::store

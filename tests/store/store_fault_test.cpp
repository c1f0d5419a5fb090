// Corruption behavior of the HLOG read path: a CRC-damaged block is
// quarantined at block granularity (the rest of its shard still reads),
// the drop lands in the kCorruptBlock ledger class, and damage to the
// trusted sections (header, schema, footer, trailer) is fatal at open.
// A dataset's MANIFEST.json is published by temp-then-rename, so a crash
// mid-publish never leaves a torn manifest.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "logs/scavenger.h"
#include "store/store.h"
#include "util/rng.h"

namespace harvest::store {
namespace {

constexpr std::size_t kRowsPerBlock = 50;
constexpr std::size_t kBlocks = 12;  // 4 shards of 3 blocks

Schema demo_schema() {
  Schema schema;
  schema.decision_event = "decide";
  schema.context_fields = {"x", "y"};
  schema.action_field = "a";
  schema.reward_field = "r";
  schema.num_actions = 4;
  return schema;
}

/// A corpus whose row values encode their own index, so surviving rows can
/// be attributed to blocks after quarantine compaction.
std::string demo_corpus() {
  std::ostringstream out;
  Writer writer(out, demo_schema(),
                {.rows_per_block = kRowsPerBlock, .blocks_per_shard = 3});
  for (std::size_t i = 0; i < kRowsPerBlock * kBlocks; ++i) {
    const double row[] = {static_cast<double>(i) * 2.0,
                          static_cast<double>(i) * 3.0};
    writer.add(static_cast<double>(i), row,
               static_cast<std::uint32_t>(i % 4), 0.25, 1.0);
  }
  Counts counts;
  counts.records_seen = kRowsPerBlock * kBlocks;
  counts.decisions_seen = kRowsPerBlock * kBlocks;
  writer.set_counts(counts);
  writer.finish();
  return out.str();
}

TEST(StoreFaultTest, CorruptedBlockIsQuarantinedRestOfShardReads) {
  std::string bytes = demo_corpus();
  // Deterministically corrupt exactly one block: sweep seeds until a
  // single-block report (fraction is per-block probability, not a count).
  std::uint64_t seed = 1;
  CorruptionReport report;
  for (;; ++seed) {
    std::string copy = bytes;
    report = corrupt_blocks(copy, seed, 0.08);
    if (report.blocks_corrupted == 1) {
      bytes = std::move(copy);
      break;
    }
    ASSERT_LT(seed, 100u) << "no seed produced exactly one corrupt block";
  }
  EXPECT_EQ(report.blocks_total, kBlocks);
  EXPECT_EQ(report.rows_affected, kRowsPerBlock);

  const Reader reader = Reader::from_memory(bytes);  // open still succeeds
  const ScanResult scan = reader.scan();
  ASSERT_EQ(scan.quarantined.size(), 1u);
  const QuarantinedBlock& q = scan.quarantined.front();
  EXPECT_EQ(q.rows, kRowsPerBlock);
  EXPECT_TRUE(q.reason.rfind("crc_mismatch:", 0) == 0) << q.reason;
  EXPECT_EQ(scan.blocks_read, kBlocks - 1);
  EXPECT_EQ(scan.rows(), kRowsPerBlock * (kBlocks - 1));

  // Every surviving row is intact and in writer order; exactly the
  // quarantined block's index range is missing.
  std::set<std::uint64_t> expect_rows;
  for (std::uint64_t i = 0; i < kRowsPerBlock * kBlocks; ++i) {
    if (i / kRowsPerBlock != q.block) expect_rows.insert(i);
  }
  auto it = expect_rows.begin();
  for (std::size_t i = 0; i < scan.rows(); ++i, ++it) {
    const auto row = static_cast<std::uint64_t>(scan.time[i]);
    ASSERT_EQ(row, *it) << "scan row " << i;
    EXPECT_EQ(scan.context[i * 2], static_cast<double>(row) * 2.0);
    EXPECT_EQ(scan.context[i * 2 + 1], static_cast<double>(row) * 3.0);
    EXPECT_EQ(scan.action[i], static_cast<std::uint32_t>(row % 4));
  }
}

TEST(StoreFaultTest, ScavengeLedgersCorruptBlocksWithTheRightClass) {
  std::string bytes = demo_corpus();
  std::uint64_t seed = 1;
  for (;; ++seed) {
    std::string copy = bytes;
    if (corrupt_blocks(copy, seed, 0.08).blocks_corrupted == 1) {
      bytes = std::move(copy);
      break;
    }
    ASSERT_LT(seed, 100u);
  }
  const Reader reader = Reader::from_memory(bytes);

  logs::ScavengeSpec spec;
  spec.decision_event = "decide";
  spec.context_fields = {"x", "y"};
  spec.action_field = "a";
  spec.reward_field = "r";
  spec.num_actions = 4;
  spec.reward_transform = [](double r) { return r; };
  std::vector<logs::QuarantineClass> classes;
  std::vector<logs::Record> records;
  spec.on_quarantine = [&](logs::QuarantineClass cls,
                           const logs::Record& rec) {
    classes.push_back(cls);
    records.push_back(rec);
  };

  const logs::ScavengeResult result = logs::scavenge(reader, spec);
  EXPECT_EQ(result.dropped_corrupt_block, kRowsPerBlock);
  EXPECT_EQ(result.total_dropped(), kRowsPerBlock);
  EXPECT_EQ(result.data.size(), kRowsPerBlock * (kBlocks - 1));
  // Conservation: every decision the compactor saw is either harvested or
  // in a quarantine class.
  EXPECT_EQ(result.decisions_seen,
            result.data.size() + result.total_dropped());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes.front(), logs::QuarantineClass::kCorruptBlock);
  EXPECT_EQ(records.front().event, "hlog.corrupt_block");
  EXPECT_TRUE(records.front().integer("block").has_value());
}

TEST(StoreFaultTest, CorruptionIsDeterministic) {
  const std::string pristine = demo_corpus();
  std::string a = pristine;
  std::string b = pristine;
  const CorruptionReport ra = corrupt_blocks(a, 7, 0.5);
  const CorruptionReport rb = corrupt_blocks(b, 7, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.blocks_corrupted, rb.blocks_corrupted);
  EXPECT_GT(ra.blocks_corrupted, 0u);
  // A different seed damages a different set of blocks (overwhelmingly).
  std::string c = pristine;
  corrupt_blocks(c, 8, 0.5);
  EXPECT_NE(a, c);
}

TEST(StoreFaultTest, TrustedSectionCorruptionIsFatalAtOpen) {
  const std::string pristine = demo_corpus();

  // Header magic.
  std::string bad = pristine;
  bad[0] = 'X';
  EXPECT_THROW(Reader::from_memory(bad), std::runtime_error);

  // Unsupported version.
  bad = pristine;
  bad[4] = 9;
  EXPECT_THROW(Reader::from_memory(bad), std::runtime_error);

  // Schema payload byte (CRC-guarded).
  bad = pristine;
  bad[kHeaderBytes + 8] = static_cast<char>(bad[kHeaderBytes + 8] ^ 0xFF);
  EXPECT_THROW(Reader::from_memory(bad), std::runtime_error);

  // Footer byte (CRC-guarded; kill a shard index offset).
  bad = pristine;
  const std::size_t footer_len = [&] {
    const char* t = bad.data() + bad.size() - kTrailerBytes;
    return static_cast<std::size_t>(static_cast<unsigned char>(t[0]) |
                                    (static_cast<unsigned char>(t[1]) << 8) |
                                    (static_cast<unsigned char>(t[2]) << 16) |
                                    (static_cast<unsigned char>(t[3]) << 24));
  }();
  const std::size_t footer_at = bad.size() - kTrailerBytes - footer_len;
  bad[footer_at + 4] = static_cast<char>(bad[footer_at + 4] ^ 0xFF);
  EXPECT_THROW(Reader::from_memory(bad), std::runtime_error);

  // Truncated trailer.
  bad = pristine.substr(0, pristine.size() - 1);
  EXPECT_THROW(Reader::from_memory(bad), std::runtime_error);

  // Not HLOG at all.
  EXPECT_THROW(Reader::from_memory("t=0 ev=decide x=1\n"),
               std::runtime_error);
}

TEST(StoreFaultTest, ChaosSweepConservesEveryRow) {
  // At every corruption intensity, harvested + quarantined must equal the
  // corpus (no silent loss, no double counting), and quarantined blocks
  // must match what the corruptor reports.
  const std::string pristine = demo_corpus();
  for (const double fraction : {0.1, 0.3, 0.6, 1.0}) {
    std::string bytes = pristine;
    const CorruptionReport report = corrupt_blocks(bytes, 42, fraction);
    const Reader reader = Reader::from_memory(bytes);
    const ScanResult scan = reader.scan();
    EXPECT_EQ(scan.quarantined.size(), report.blocks_corrupted)
        << "fraction " << fraction;
    EXPECT_EQ(scan.rows_quarantined(), report.rows_affected);
    EXPECT_EQ(scan.rows() + scan.rows_quarantined(),
              kRowsPerBlock * kBlocks);
  }
}

/// Writes `rows` rows of the demo schema as a one-part dataset in `dir`.
void write_dataset(const std::filesystem::path& dir, std::size_t rows) {
  DatasetWriter writer(dir.string(), demo_schema());
  for (std::size_t i = 0; i < rows; ++i) {
    const double row[] = {static_cast<double>(i), 1.0};
    writer.add(static_cast<double>(i), row, static_cast<std::uint32_t>(i % 4),
               0.5, 0.25);
  }
  writer.finish();
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(StoreFaultTest, LeftoverManifestTempDoesNotBreakOpen) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hlog_manifest_leftover";
  std::filesystem::remove_all(dir);
  write_dataset(dir, 30);
  // A crash during the next publish leaves a half-written temporary beside
  // the intact manifest; readers never look at it.
  const std::filesystem::path tmp = dir / ".MANIFEST.json.tmp";
  std::ofstream(tmp) << "{\n  \"hlog_dataset\": 1,\n  \"coun";
  const Dataset dataset = Dataset::open(dir.string());
  EXPECT_EQ(dataset.rows(), 30u);
  EXPECT_EQ(dataset.scan().rows(), 30u);
  // The next publish overwrites the stale temporary and renames it away.
  write_dataset(dir, 45);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(Dataset::open(dir.string()).rows(), 45u);
  std::filesystem::remove_all(dir);
}

TEST(StoreFaultTest, ManifestIsReplacedNeverRewrittenInPlace) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "hlog_manifest_replace";
  std::filesystem::remove_all(root);
  const std::filesystem::path dir = root / "ds";
  write_dataset(dir, 30);
  const std::string first = slurp(dir / kManifestFileName);
  // A second name for the published manifest: an in-place truncate and
  // rewrite would change what it reads mid-write; a rename never does.
  const std::filesystem::path held = root / "held-manifest.json";
  std::filesystem::create_hard_link(dir / kManifestFileName, held);
  write_dataset(dir, 45);
  EXPECT_EQ(slurp(held), first);
  EXPECT_NE(slurp(dir / kManifestFileName), first);
  EXPECT_EQ(Dataset::open(dir.string()).rows(), 45u);

  // A publish that fails (here: the temporary cannot be created) throws and
  // leaves the previous manifest whole.
  const std::string second = slurp(dir / kManifestFileName);
  std::filesystem::create_directory(dir / ".MANIFEST.json.tmp");
  EXPECT_THROW(write_dataset(dir, 60), std::runtime_error);
  EXPECT_EQ(slurp(dir / kManifestFileName), second);
  // The parts it names are untouched too: the failed writer numbered its
  // parts past the existing ones instead of truncating them.
  EXPECT_EQ(Dataset::open(dir.string()).rows(), 45u);
  std::filesystem::remove_all(root);
}

TEST(StoreFaultTest, ReusedDirectoryDropsSupersededPartsAfterPublish) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hlog_reused_dir";
  std::filesystem::remove_all(dir);
  write_dataset(dir, 30);
  ASSERT_TRUE(std::filesystem::exists(dir / "part-00000.hlog"));
  write_dataset(dir, 45);
  const Dataset reopened = Dataset::open(dir.string());
  EXPECT_EQ(reopened.rows(), 45u);
  ASSERT_EQ(reopened.manifest().shards.size(), 1u);
  EXPECT_EQ(reopened.manifest().shards[0].file, "part-00001.hlog");
  EXPECT_FALSE(std::filesystem::exists(dir / "part-00000.hlog"));
  std::filesystem::remove_all(dir);
}

TEST(StoreFaultTest, DeeplyNestedManifestThrowsInsteadOfCrashing) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "hlog_deep_manifest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / kManifestFileName) << std::string(100000, '[');
  EXPECT_THROW(Dataset::open(dir.string()), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace harvest::store

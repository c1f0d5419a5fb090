#include "store/dataset.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/atomic_file.h"
#include "util/json.h"

namespace harvest::store {

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error("hlog dataset: " + origin + ": " + what);
}

std::uint64_t require_uint(const util::JsonValue& obj, std::string_view key,
                           const std::string& origin) {
  const util::JsonValue* v = obj.find(key);
  const std::optional<std::uint64_t> value =
      v ? v->as_uint() : std::nullopt;
  if (!value) {
    fail(origin, "field \"" + std::string(key) +
                     "\" is missing or not an unsigned 64-bit integer");
  }
  return *value;
}

Counts parse_counts(const util::JsonValue& obj, const std::string& origin) {
  Counts c;
  c.records_seen = require_uint(obj, "records_seen", origin);
  c.decisions_seen = require_uint(obj, "decisions_seen", origin);
  c.dropped_missing_fields = require_uint(obj, "dropped_missing_fields", origin);
  c.dropped_bad_action = require_uint(obj, "dropped_bad_action", origin);
  c.dropped_bad_propensity =
      require_uint(obj, "dropped_bad_propensity", origin);
  c.dropped_stale_timestamp =
      require_uint(obj, "dropped_stale_timestamp", origin);
  c.dropped_corrupt_block = require_uint(obj, "dropped_corrupt_block", origin);
  c.rows = require_uint(obj, "rows", origin);
  return c;
}

void append_counts(std::string& out, const Counts& c,
                   const std::string& indent) {
  const auto field = [&](const char* name, std::uint64_t v, bool last = false) {
    out += indent + "  \"" + name + "\": " + std::to_string(v) +
           (last ? "\n" : ",\n");
  };
  out += "{\n";
  field("records_seen", c.records_seen);
  field("decisions_seen", c.decisions_seen);
  field("dropped_missing_fields", c.dropped_missing_fields);
  field("dropped_bad_action", c.dropped_bad_action);
  field("dropped_bad_propensity", c.dropped_bad_propensity);
  field("dropped_stale_timestamp", c.dropped_stale_timestamp);
  field("dropped_corrupt_block", c.dropped_corrupt_block);
  field("rows", c.rows, /*last=*/true);
  out += indent + "}";
}

/// The N of a "part-N.hlog" file name, or nullopt for any other name.
std::optional<std::size_t> part_index(std::string_view name) {
  constexpr std::string_view kPrefix = "part-", kSuffix = ".hlog";
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      !name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  std::size_t index = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return index;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

}  // namespace

std::string Manifest::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"hlog_dataset\": " + std::to_string(version) + ",\n";
  out += "  \"counts\": ";
  append_counts(out, counts, "  ");
  out += ",\n  \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n      \"file\": \"" + util::json_escape(shards[i].file) +
           "\",\n      \"counts\": ";
    append_counts(out, shards[i].counts, "      ");
    out += "\n    }";
  }
  out += shards.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Manifest Manifest::parse_json(std::string_view text,
                              const std::string& origin) {
  util::JsonValue root;
  try {
    root = util::parse_json(text);
  } catch (const util::JsonError& e) {
    fail(origin, e.what());
  }
  if (root.kind != util::JsonValue::kObject) {
    fail(origin, "manifest is not an object");
  }

  Manifest manifest;
  const std::uint64_t version = require_uint(root, "hlog_dataset", origin);
  if (version != kManifestVersion) {
    fail(origin, "unsupported dataset version " + std::to_string(version));
  }
  manifest.version = static_cast<std::uint32_t>(version);

  const util::JsonValue* counts = root.find("counts");
  if (counts == nullptr || counts->kind != util::JsonValue::kObject) {
    fail(origin, "missing \"counts\" object");
  }
  manifest.counts = parse_counts(*counts, origin);

  const util::JsonValue* shards = root.find("shards");
  if (shards == nullptr || shards->kind != util::JsonValue::kArray) {
    fail(origin, "missing \"shards\" array");
  }
  for (const util::JsonValue& entry : shards->items) {
    if (entry.kind != util::JsonValue::kObject) {
      fail(origin, "shard entry is not an object");
    }
    const util::JsonValue* file = entry.find("file");
    if (file == nullptr || file->kind != util::JsonValue::kString ||
        file->text.empty()) {
      fail(origin, "shard entry missing \"file\"");
    }
    const util::JsonValue* shard_counts = entry.find("counts");
    if (shard_counts == nullptr ||
        shard_counts->kind != util::JsonValue::kObject) {
      fail(origin, "shard entry missing \"counts\"");
    }
    manifest.shards.push_back(
        {file->text, parse_counts(*shard_counts, origin)});
  }
  return manifest;
}

bool is_dataset_dir(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) return false;
  return std::filesystem::is_regular_file(
      std::filesystem::path(path) / kManifestFileName, ec);
}

Dataset Dataset::open(const std::string& dir) {
  Dataset dataset;
  dataset.dir_ = dir;
  const std::string manifest_path =
      (std::filesystem::path(dir) / kManifestFileName).string();
  dataset.manifest_ = Manifest::parse_json(slurp(manifest_path), manifest_path);

  std::uint64_t rows = 0;
  for (const ManifestShard& shard : dataset.manifest_.shards) {
    const std::string path =
        (std::filesystem::path(dir) / shard.file).string();
    Reader reader = Reader::open(path);
    if (reader.counts().rows != shard.counts.rows) {
      fail(path, "footer row count disagrees with manifest (" +
                     std::to_string(reader.counts().rows) + " vs " +
                     std::to_string(shard.counts.rows) + ")");
    }
    if (dataset.readers_.empty()) {
      dataset.schema_ = reader.schema();
    } else if (!(reader.schema() == dataset.schema_)) {
      fail(path, "schema disagrees with " +
                     dataset.manifest_.shards.front().file);
    }
    rows += shard.counts.rows;
    dataset.readers_.push_back(std::move(reader));
  }
  if (dataset.manifest_.counts.rows != rows) {
    fail(manifest_path, "dataset row total disagrees with shard ledgers (" +
                            std::to_string(dataset.manifest_.counts.rows) +
                            " vs " + std::to_string(rows) + ")");
  }
  return dataset;
}

std::size_t Dataset::num_blocks() const {
  std::size_t total = 0;
  for (const Reader& reader : readers_) total += reader.num_blocks();
  return total;
}

std::uint64_t Dataset::file_bytes() const {
  std::uint64_t total = 0;
  for (const Reader& reader : readers_) total += reader.file_bytes();
  return total;
}

ScanResult Dataset::scan(par::ThreadPool* pool) const {
  return scan(ScanPredicate{}, pool);
}

ScanResult Dataset::scan(const ScanPredicate& predicate,
                         par::ThreadPool* pool) const {
  ScanResult out;
  out.context_dim = schema_.context_fields.size();
  std::size_t shard_base = 0;
  std::size_t block_base = 0;
  // The first non-empty part's columns are taken over, not copied: a
  // one-part dataset (one serving round) costs no concatenation at all.
  const auto append = [](auto& to, auto& from) {
    if (to.empty()) {
      to.swap(from);
    } else {
      to.insert(to.end(), from.begin(), from.end());
    }
  };
  for (const Reader& reader : readers_) {
    ScanResult part = reader.scan(predicate, pool);
    out.blocks_read += part.blocks_read;
    out.blocks_pruned += part.blocks_pruned;
    out.rows_pruned += part.rows_pruned;
    for (QuarantinedBlock& q : part.quarantined) {
      q.shard += shard_base;
      q.block += block_base;
      out.quarantined.push_back(std::move(q));
    }
    append(out.time, part.time);
    append(out.context, part.context);
    append(out.action, part.action);
    append(out.reward, part.reward);
    append(out.propensity, part.propensity);
    shard_base += reader.shards().size();
    block_base += reader.num_blocks();
  }
  return out;
}

DatasetWriter::DatasetWriter(std::string dir, Schema schema,
                             WriterOptions options,
                             std::uint64_t rows_per_file)
    : dir_(std::move(dir)),
      schema_(std::move(schema)),
      options_(options),
      rows_per_file_(rows_per_file) {
  if (rows_per_file_ == 0) {
    throw std::invalid_argument(
        "store::DatasetWriter: rows_per_file must be positive");
  }
  std::filesystem::create_directories(dir_);
  // Parts already in the directory belong to the published manifest (or to
  // a writer that died before publishing). New parts never reuse their
  // names, so the manifest in place keeps naming intact files until the new
  // one replaces it; the old parts are removed only after that.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::optional<std::size_t> index =
        part_index(entry.path().filename().string());
    if (!index) continue;
    first_part_ = std::max(first_part_, *index + 1);
    superseded_.push_back(entry.path());
  }
  roll();
}

DatasetWriter::~DatasetWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void DatasetWriter::roll() {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%05zu.hlog",
                first_part_ + manifest_.shards.size());
  const std::string path = (std::filesystem::path(dir_) / name).string();
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) fail(path, "cannot create shard file");
  writer_ = std::make_unique<Writer>(out_, schema_, options_);
  manifest_.shards.push_back({name, Counts{}});
  part_rows_ = 0;
}

void DatasetWriter::close_part() {
  if (!writer_) return;
  // Each part file carries the pass-through ledger of its own rows; the
  // dataset-level drops live in the manifest's top-level counts.
  Counts counts;
  counts.records_seen = part_rows_;
  counts.decisions_seen = part_rows_;
  writer_->set_counts(counts);
  writer_->finish();
  writer_.reset();
  out_.close();
  counts.rows = part_rows_;
  manifest_.shards.back().counts = counts;
}

void DatasetWriter::add(double time, std::span<const double> context,
                        std::uint32_t action, double reward,
                        double propensity) {
  if (finished_) {
    throw std::logic_error("store::DatasetWriter: add() after finish()");
  }
  if (part_rows_ >= rows_per_file_) {
    close_part();
    roll();
  }
  writer_->add(time, context, action, reward, propensity);
  ++part_rows_;
  ++rows_written_;
}

void DatasetWriter::set_counts(const Counts& counts) {
  counts_ = counts;
  have_counts_ = true;
}

void DatasetWriter::finish() {
  if (finished_) return;
  finished_ = true;
  close_part();

  if (!have_counts_) {
    counts_.records_seen = rows_written_;
    counts_.decisions_seen = rows_written_;
  }
  counts_.rows = rows_written_;
  manifest_.counts = counts_;

  // Published atomically: a crash mid-write leaves the previous manifest
  // (or none) in place, never a torn one Dataset::open would refuse.
  const std::filesystem::path path =
      std::filesystem::path(dir_) / kManifestFileName;
  try {
    util::atomic_write_file(path, manifest_.to_json());
  } catch (const std::exception& e) {
    fail(path.string(), e.what());
  }
  // Best effort: a leftover part is never named by the manifest, and the
  // next writer in this directory removes it.
  for (const std::filesystem::path& stale : superseded_) {
    std::error_code ec;
    std::filesystem::remove(stale, ec);
  }
}

}  // namespace harvest::store

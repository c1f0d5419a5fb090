#include "store/dataset.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/atomic_file.h"

namespace harvest::store {

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error("hlog dataset: " + origin + ": " + what);
}

// ---- minimal JSON ---------------------------------------------------------
// Just enough for the fixed manifest grammar: objects, arrays, strings with
// the common escapes, unsigned integers (ledger counts), bool/null. No
// floats, no \uXXXX — the manifest writer never emits them.

struct JsonValue {
  enum Kind { kNull, kBool, kUint, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  std::uint64_t uint = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  const std::string& origin;

  [[noreturn]] void error(const std::string& what) const {
    fail(origin, what + " at byte " + std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    skip_ws();
    if (pos >= text.size()) error("unexpected end of manifest");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) error("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: error("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos >= text.size()) error("unterminated string");
    ++pos;  // closing quote
    return out;
  }

  JsonValue parse_value() {
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos;
      v.kind = JsonValue::kObject;
      if (!consume('}')) {
        do {
          std::string key = parse_string();
          expect(':');
          v.members.emplace_back(std::move(key), parse_value());
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos;
      v.kind = JsonValue::kArray;
      if (!consume(']')) {
        do {
          v.items.push_back(parse_value());
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JsonValue::kString;
      v.str = parse_string();
    } else if (c >= '0' && c <= '9') {
      v.kind = JsonValue::kUint;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
        if (v.uint > (UINT64_MAX - digit) / 10) error("integer overflow");
        v.uint = v.uint * 10 + digit;
        ++pos;
      }
    } else if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      v.kind = JsonValue::kBool;
      v.boolean = true;
    } else if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      v.kind = JsonValue::kBool;
    } else if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
    } else {
      error("unexpected token");
    }
    return v;
  }
};

std::uint64_t require_uint(const JsonValue& obj, std::string_view key,
                           const std::string& origin) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::kUint) {
    fail(origin, "missing numeric field \"" + std::string(key) + "\"");
  }
  return v->uint;
}

Counts parse_counts(const JsonValue& obj, const std::string& origin) {
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

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
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
    out += "    {\n      \"file\": ";
    append_json_string(out, shards[i].file);
    out += ",\n      \"counts\": ";
    append_counts(out, shards[i].counts, "      ");
    out += "\n    }";
  }
  out += shards.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Manifest Manifest::parse_json(std::string_view text,
                              const std::string& origin) {
  JsonParser parser{text, 0, origin};
  const JsonValue root = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.error("trailing garbage");
  if (root.kind != JsonValue::kObject) fail(origin, "manifest is not an object");

  Manifest manifest;
  const std::uint64_t version = require_uint(root, "hlog_dataset", origin);
  if (version != kManifestVersion) {
    fail(origin, "unsupported dataset version " + std::to_string(version));
  }
  manifest.version = static_cast<std::uint32_t>(version);

  const JsonValue* counts = root.find("counts");
  if (counts == nullptr || counts->kind != JsonValue::kObject) {
    fail(origin, "missing \"counts\" object");
  }
  manifest.counts = parse_counts(*counts, origin);

  const JsonValue* shards = root.find("shards");
  if (shards == nullptr || shards->kind != JsonValue::kArray) {
    fail(origin, "missing \"shards\" array");
  }
  for (const JsonValue& entry : shards->items) {
    if (entry.kind != JsonValue::kObject) {
      fail(origin, "shard entry is not an object");
    }
    const JsonValue* file = entry.find("file");
    if (file == nullptr || file->kind != JsonValue::kString ||
        file->str.empty()) {
      fail(origin, "shard entry missing \"file\"");
    }
    const JsonValue* shard_counts = entry.find("counts");
    if (shard_counts == nullptr || shard_counts->kind != JsonValue::kObject) {
      fail(origin, "shard entry missing \"counts\"");
    }
    manifest.shards.push_back(
        {file->str, parse_counts(*shard_counts, origin)});
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
                manifest_.shards.size());
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
}

}  // namespace harvest::store

#include "serve/persist.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "obs/metrics.h"
#include "store/crc32c.h"
#include "util/atomic_file.h"

namespace harvest::serve {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

// magic(4) + version(4) + payload_size(8) + payload_crc(4)
constexpr std::size_t kFileHeaderBytes = 20;

std::string snapshot_file_name(std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu%s",
                static_cast<unsigned long long>(id),
                std::string(kSnapshotFileExt).c_str());
  return buf;
}

std::string read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("snapshot file unreadable: " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    throw std::invalid_argument("snapshot file read failed: " + path.string());
  }
  return bytes;
}

/// Parses "snapshot-<digits>.hsnap" back to its id; returns false for any
/// other name (quarantined files, temporaries, CURRENT).
bool parse_snapshot_id(const std::string& name, std::uint64_t* id) {
  constexpr std::string_view prefix = "snapshot-";
  if (name.size() <= prefix.size() + kSnapshotFileExt.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - kSnapshotFileExt.size(),
                   kSnapshotFileExt.size(), kSnapshotFileExt) != 0) {
    return false;
  }
  std::uint64_t v = 0;
  const std::size_t begin = prefix.size();
  const std::size_t end = name.size() - kSnapshotFileExt.size();
  if (begin == end) return false;
  for (std::size_t i = begin; i < end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *id = v;
  return true;
}

}  // namespace

std::string frame_snapshot_file(std::string_view payload) {
  std::string out;
  out.reserve(kFileHeaderBytes + payload.size());
  out.append(kSnapshotFileMagic);
  append_u32(out, kSnapshotFormatVersion);
  append_u64(out, payload.size());
  append_u32(out, store::crc32c(payload));
  out.append(payload);
  return out;
}

std::unique_ptr<const PolicySnapshot> parse_snapshot_file(
    std::string_view bytes) {
  if (bytes.size() < kFileHeaderBytes) {
    throw std::invalid_argument("snapshot file truncated before header");
  }
  if (bytes.substr(0, 4) != kSnapshotFileMagic) {
    throw std::invalid_argument("snapshot file has bad magic");
  }
  const std::uint32_t version = read_u32(bytes, 4);
  if (version != kSnapshotFormatVersion) {
    throw std::invalid_argument("snapshot file has unsupported version " +
                                std::to_string(version));
  }
  const std::uint64_t payload_size = read_u64(bytes, 8);
  if (bytes.size() != kFileHeaderBytes + payload_size) {
    throw std::invalid_argument(
        "snapshot file length does not match its header");
  }
  const std::string_view payload = bytes.substr(kFileHeaderBytes);
  const std::uint32_t expect_crc = read_u32(bytes, 16);
  if (store::crc32c(payload) != expect_crc) {
    throw std::invalid_argument("snapshot payload fails its CRC32C");
  }
  return PolicySnapshot::deserialize(payload);
}

SnapshotStore::SnapshotStore(Options options) : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec || !std::filesystem::is_directory(options_.dir)) {
    throw std::runtime_error("SnapshotStore: cannot create directory " +
                             options_.dir.string());
  }
}

std::filesystem::path SnapshotStore::save(const PolicySnapshot& snapshot) {
  return save_bytes(snapshot.id(), snapshot.serialize());
}

std::filesystem::path SnapshotStore::save_bytes(std::uint64_t id,
                                                std::string_view payload) {
  const std::string name = snapshot_file_name(id);
  const std::filesystem::path path = options_.dir / name;
  util::atomic_write_file(path, frame_snapshot_file(payload));
  // The snapshot file is durable before CURRENT flips to it, so a crash
  // between the two renames leaves CURRENT pointing at the previous (still
  // intact) snapshot.
  util::atomic_write_file(
      options_.dir / std::filesystem::path(kCurrentFileName), name + "\n");
  ++saved_;
  if (options_.registry != nullptr) {
    options_.registry->counter("serve_snapshot_saved_total").add(1);
  }
  return path;
}

std::unique_ptr<const PolicySnapshot> SnapshotStore::load_file(
    const std::filesystem::path& path) {
  return parse_snapshot_file(read_whole_file(path));
}

void SnapshotStore::quarantine(const std::filesystem::path& file,
                               const std::string& why) {
  ++quarantined_;
  if (options_.registry != nullptr) {
    options_.registry->counter("serve_snapshot_quarantined_total").add(1);
  }
  std::error_code ec;
  const std::filesystem::path aside =
      file.string() + std::string(kQuarantineSuffix);
  std::filesystem::rename(file, aside, ec);
  std::fprintf(stderr,
               "SnapshotStore: quarantined %s (%s)%s\n", file.string().c_str(),
               why.c_str(), ec ? " [rename aside failed]" : "");
}

std::unique_ptr<const PolicySnapshot> SnapshotStore::try_load(
    const std::filesystem::path& path, std::size_t expect_actions,
    std::size_t expect_dim, std::size_t* quarantined) {
  std::string why;
  try {
    auto snap = load_file(path);
    if ((expect_actions != 0 && snap->num_actions() != expect_actions) ||
        (expect_dim != 0 && snap->dim() != expect_dim)) {
      why = "geometry mismatch";
    } else {
      return snap;
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  quarantine(path, why);
  ++*quarantined;
  return nullptr;
}

SnapshotStore::LoadResult SnapshotStore::load_current(
    std::size_t expect_actions, std::size_t expect_dim) {
  LoadResult result;
  const std::filesystem::path current =
      options_.dir / std::filesystem::path(kCurrentFileName);

  // 1. The CURRENT pointer, when it resolves to an intact file.
  std::error_code ec;
  if (std::filesystem::exists(current, ec)) {
    std::string target;
    try {
      target = read_whole_file(current);
    } catch (const std::exception&) {
      target.clear();
    }
    while (!target.empty() &&
           (target.back() == '\n' || target.back() == '\r')) {
      target.pop_back();
    }
    // Refuse a pointer that escapes the store directory; treat it like any
    // other damage (fall through to the scan).
    if (!target.empty() && target.find('/') == std::string::npos) {
      const std::filesystem::path path = options_.dir / target;
      if (std::filesystem::exists(path, ec)) {
        auto snap =
            try_load(path, expect_actions, expect_dim, &result.quarantined);
        if (snap != nullptr) {
          result.snapshot = std::move(snap);
          result.path = path;
          result.from_current = true;
          if (options_.registry != nullptr) {
            options_.registry->counter("serve_snapshot_loaded_total").add(1);
          }
          return result;
        }
      }
    }
  }

  // 2. Fallback: highest-id intact snapshot in the directory.
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> candidates;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    std::uint64_t id = 0;
    if (entry.is_regular_file(ec) &&
        parse_snapshot_id(entry.path().filename().string(), &id)) {
      candidates.emplace_back(id, entry.path());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [id, path] : candidates) {
    auto snap = try_load(path, expect_actions, expect_dim, &result.quarantined);
    if (snap != nullptr) {
      result.snapshot = std::move(snap);
      result.path = path;
      if (options_.registry != nullptr) {
        options_.registry->counter("serve_snapshot_loaded_total").add(1);
      }
      return result;
    }
  }
  return result;
}

ResumeResult resume_service(DecisionService::Options options,
                            SnapshotStore& store) {
  ResumeResult result;
  SnapshotStore::LoadResult loaded =
      store.load_current(options.num_actions, options.dim);
  result.quarantined = loaded.quarantined;
  std::unique_ptr<const PolicySnapshot> initial = std::move(loaded.snapshot);
  if (initial != nullptr) {
    result.resumed = true;
    result.snapshot_id = initial->id();
  } else {
    std::fprintf(stderr,
                 "resume_service: no usable snapshot in %s; falling back to "
                 "uniform exploration\n",
                 store.dir().string().c_str());
    initial = PolicySnapshot::uniform(1, options.num_actions, options.dim);
    result.snapshot_id = initial->id();
  }
  result.service =
      std::make_unique<DecisionService>(options, std::move(initial));
  return result;
}

}  // namespace harvest::serve

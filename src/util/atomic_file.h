// Atomic file publish: write to a temporary beside the target, then rename
// over it. A reader (or a process restarted after a crash mid-write) sees
// either the old file or the new one, never a prefix. Every file the repo
// publishes in place — snapshot files, the CURRENT pointer, a dataset's
// MANIFEST.json — goes through this one helper.
//
// No fsync: this protects against a crashed process, not against power
// loss; durability is a separate, still-open item.
#pragma once

#include <filesystem>
#include <string_view>

namespace harvest::util {

/// Writes `bytes` to ".<name>.tmp" in `path`'s directory, flushes, and
/// renames it onto `path`. Throws std::runtime_error naming the file on an
/// open, write, or rename failure, after removing the temporary. A stale
/// temporary left by an earlier crash is simply overwritten.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes);

}  // namespace harvest::util

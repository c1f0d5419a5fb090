#include "util/atomic_file.h"

#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace harvest::util {

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes) {
  const std::filesystem::path tmp =
      path.parent_path() / ("." + path.filename().string() + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("atomic_write_file: cannot open " +
                               tmp.string());
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("atomic_write_file: short write to " +
                               tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw std::runtime_error("atomic_write_file: rename to " + path.string() +
                             " failed: " + ec.message());
  }
}

}  // namespace harvest::util

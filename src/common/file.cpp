#include "common/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace rtft {
namespace {

[[noreturn]] void io_failure(const char* what, const std::string& path,
                             int error) {
  throw std::runtime_error(std::string(what) + " '" + path +
                           "': " + std::strerror(error));
}

}  // namespace

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) io_failure("cannot open", path, errno);
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  const int error = std::ferror(f) != 0 ? errno : 0;
  std::fclose(f);
  if (error != 0) io_failure("cannot read", path, error);
  return content;
}

void write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) io_failure("cannot open", path, errno);
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const int write_error = errno;
  // Close even after a failed write. The close flushes the buffer, so a
  // small write to a full disk fails only here.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    io_failure("cannot write", path, wrote ? errno : write_error);
  }
}

}  // namespace rtft

#include "common/binio.hpp"

#include <unistd.h>

#include <cerrno>
#include <system_error>

namespace bgp {

void BinaryWriter::write_file(const std::filesystem::path& path) const {
  write_file_bytes(path, buf_);
}

std::vector<std::byte> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw BinIoError("cannot open for read: " + path.string());
  }
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> buf(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!in) {
    throw BinIoError("short read: " + path.string());
  }
  return buf;
}

void write_file_bytes(const std::filesystem::path& path,
                      std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  // A small file sits in the stream buffer until close() flushes it, so a
  // full disk only shows up there.
  out.close();
  if (!out) throw BinIoError("cannot write " + path.string());
}

int write_all(int fd, std::span<const std::byte> bytes) noexcept {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errno;
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return 0;
}

void publish_file(const std::filesystem::path& path,
                  std::span<const std::byte> bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  try {
    write_file_bytes(tmp, bytes);
    std::filesystem::rename(tmp, path);
  } catch (const std::exception& e) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw BinIoError(e.what());
  }
}

}  // namespace bgp

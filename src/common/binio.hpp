// Little-endian binary serialization helpers for the per-node dump files
// written by the interface library and read by the post-processing tools.
#pragma once

#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bgp {

/// Error thrown on malformed or truncated binary input.
class BinIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends little-endian scalars and byte ranges to an in-memory buffer.
class BinaryWriter {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void put_string(const std::string& s) {
    put<u32>(static_cast<u32>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    put_bytes({p, s.size()});
  }

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Write the accumulated buffer to `path` (see write_file_bytes).
  void write_file(const std::filesystem::path& path) const;

 private:
  std::vector<std::byte> buf_;
};

/// Reads little-endian scalars from a byte buffer with bounds checking.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) noexcept
      : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) {
      throw BinIoError("binary input truncated");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string() {
    const u32 n = get<u32>();
    need(n, "string");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Throw unless `bytes` more bytes remain: bounds a declared length
  /// before anything is allocated for it.
  void need(u64 bytes, const char* what) const {
    if (bytes > remaining()) {
      throw BinIoError(std::string(what) + ": " + std::to_string(bytes) +
                       " bytes declared, only " +
                       std::to_string(remaining()) + " remain");
    }
  }
  /// Raw input bytes [begin, end) — e.g. to checksum an already-read span.
  [[nodiscard]] std::span<const std::byte> window(std::size_t begin,
                                                  std::size_t end) const {
    if (begin > end || end > data_.size()) {
      throw BinIoError("binary input window out of range");
    }
    return data_.subspan(begin, end - begin);
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Read a whole file into a byte vector; throws BinIoError on failure.
std::vector<std::byte> read_file_bytes(const std::filesystem::path& path);

/// Write `bytes` to `path`, replacing any existing file. Throws BinIoError
/// unless every byte reached the file and it closed cleanly.
void write_file_bytes(const std::filesystem::path& path,
                      std::span<const std::byte> bytes);

/// write(2) all of `bytes` to `fd`, retrying short writes and EINTR.
/// Returns 0, or the errno that stopped it. Async-signal-safe.
int write_all(int fd, std::span<const std::byte> bytes) noexcept;

/// Atomic publication: write `<path>.tmp`, then rename it over `path`, so
/// readers never observe a half-written file. On failure the temp file is
/// removed and BinIoError is thrown.
void publish_file(const std::filesystem::path& path,
                  std::span<const std::byte> bytes);

}  // namespace bgp

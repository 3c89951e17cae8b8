// The one CRC32 framing codec of every checksummed on-disk format:
//
//   trailing section CRC   section bytes | u32 CRC32 of the section
//       (`.bgpc` dump and `.bgpt` trace sections), read from memory or
//       streamed from a file one section at a time;
//   length-prefixed frame  u32 len | u32 CRC32 of payload | payload
//       (bgpcd journal records, flight-ring slots), decoded without
//       allocating or throwing, so a signal handler can use it.
//
// A declared length is never trusted past the bytes actually present.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"
#include "common/types.hpp"

namespace bgp {

/// Append the CRC32 of the bytes written to `w` since offset `mark`.
void put_section_crc(BinaryWriter& w, std::size_t mark);

/// Read the CRC32 trailing the section that began at `mark` and check it.
/// Throws BinIoError "<section> CRC mismatch over bytes a..b (stored X,
/// computed Y)".
void check_section_crc(BinaryReader& r, std::size_t mark,
                       std::string_view section);

/// Streams a file as CRC32-trailed sections, holding one section's bytes
/// at a time; no read reaches past the end of the file.
class SectionFileReader {
 public:
  /// `label` prefixes every error. Throws BinIoError "cannot open <label>".
  SectionFileReader(const std::filesystem::path& path, std::string label);

  /// Start a CRC-covered section at the current offset.
  void begin_section() noexcept;
  /// The next `n` bytes of the section, or nullopt (nothing consumed) when
  /// fewer remain in the file. Valid until the next take().
  [[nodiscard]] std::optional<BinaryReader> take(std::size_t n);
  /// Read and check the section's CRC32, then begin the next section:
  /// false when the file ends first, BinIoError "<label>: <section> CRC
  /// mismatch ..." when it differs. The last take() stays valid, so a
  /// section can be verified before it is used.
  [[nodiscard]] bool check_section_crc(std::string_view section);

 private:
  std::ifstream in_;
  std::string label_;
  u64 size_ = 0;
  u64 pos_ = 0;
  u64 section_begin_ = 0;
  u32 crc_ = 0;
  std::vector<std::byte> buf_;
};

inline constexpr std::size_t kFrameHeaderBytes = 8;  ///< u32 len + u32 CRC

/// Write the frame of `payload` to `out` (kFrameHeaderBytes +
/// payload.size() bytes). Async-signal-safe.
void encode_frame(std::span<const std::byte> payload, std::byte* out) noexcept;

enum class FrameStatus : u8 { kOk, kTornHeader, kTooLong, kTorn, kBadCrc };

struct Frame {
  FrameStatus status = FrameStatus::kTornHeader;
  u32 len = 0;                         ///< declared length
  std::span<const std::byte> payload;  ///< set when status is kOk
};

/// Decode the frame at the start of `bytes`: kTornHeader when fewer than
/// kFrameHeaderBytes remain, kTooLong when the length exceeds `max_len`,
/// kTorn when it runs past the end of `bytes`, kBadCrc on a mismatch. An
/// empty payload is kOk; callers that reserve it apply their own rule.
/// Async-signal-safe.
[[nodiscard]] Frame decode_frame(std::span<const std::byte> bytes,
                                 std::size_t max_len) noexcept;

}  // namespace bgp

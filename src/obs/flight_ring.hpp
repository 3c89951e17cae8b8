// Crash-surviving host flight recorder: a fixed-size ring of the most
// recent host events, kept in an mmap(MAP_SHARED) file so the records
// survive SIGKILL exactly the way BGPSNAP snapshots do — the kernel owns
// the pages, process death changes nothing. Each slot carries a
// monotonically increasing sequence number and a CRC over its text, so a
// reader (live /debug/events, the SIGSEGV dump handler, or restart
// recovery salvaging after a crash) can reconstruct the event tail in
// order while skipping at most the one record that was mid-write.
//
// Layout (little-endian, u64-aligned):
//   Header  magic "BGPFRNG\0", version, slot_bytes, num_slots,
//           clean flag (1 after a clean close), head sequence
//   Slot[]  { u64 seq (0 = empty, else claim+1), u32 len, u32 CRC32 of
//             text, char text[slot_bytes - 16] } (common/framing.hpp frame)
#pragma once

#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace bgp::obs {

inline constexpr char kFlightMagic[8] = {'B', 'G', 'P', 'F',
                                         'R', 'N', 'G', '\0'};
inline constexpr u32 kFlightVersion = 1;

struct FlightRingConfig {
  std::filesystem::path path;
  u32 slot_bytes = 512;  ///< per-record capacity including the 16B frame
  u32 num_slots = 512;
};

class FlightRing {
 public:
  /// Open-or-create. If `path` holds a ring that was not closed cleanly
  /// (a crash), its CRC-valid records are collected into salvaged() in
  /// sequence order before the ring is reset for this process. A file
  /// with a foreign magic/geometry is discarded and recreated. Throws
  /// std::system_error on I/O failure.
  explicit FlightRing(FlightRingConfig cfg);
  ~FlightRing();
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Append one event line (truncated to the slot text capacity).
  /// Thread-safe; wait-free for readers via per-slot seq invalidation.
  void append(std::string_view line) noexcept;

  /// Consistent copy of the current ring contents in append order
  /// (oldest surviving record first). Serializes against writers.
  [[nodiscard]] std::vector<std::string> records() const;

  /// Records recovered from a dirty ring found at open.
  [[nodiscard]] const std::vector<std::string>& salvaged() const noexcept {
    return salvaged_;
  }
  /// True when the file at open() carried a dirty ring (crash evidence).
  [[nodiscard]] bool recovered_dirty() const noexcept {
    return recovered_dirty_;
  }

  /// Async-signal-safe dump of the ring to `fd`, one line per record in
  /// sequence order. Only write(2) — callable from SIGSEGV/SIGABRT.
  void dump_signal_safe(int fd) const noexcept;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return cfg_.path;
  }
  [[nodiscard]] u32 num_slots() const noexcept { return cfg_.num_slots; }
  [[nodiscard]] u64 head() const noexcept;

 private:
  [[nodiscard]] std::byte* slot_base(u64 index) const noexcept;

  FlightRingConfig cfg_;
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  mutable std::mutex mu_;  ///< serializes writers (single process)
  std::vector<std::string> salvaged_;
  bool recovered_dirty_ = false;
};

/// Salvage a dirty ring file without opening it for writing: used by
/// restart recovery to turn a crashed daemon's ring into flight.jsonl.
/// Returns the CRC-valid records in sequence order; empty when the file
/// is missing, foreign, or was closed cleanly (no crash to explain).
[[nodiscard]] std::vector<std::string> salvage_flight_ring(
    const std::filesystem::path& path);

}  // namespace bgp::obs

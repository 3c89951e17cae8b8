#include "obs/flight_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <span>
#include <system_error>

#include "common/binio.hpp"
#include "common/framing.hpp"

namespace bgp::obs {

namespace {

// Header field offsets (see the layout comment in the header file).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffSlotBytes = 12;
constexpr std::size_t kOffNumSlots = 16;
constexpr std::size_t kOffClean = 20;
constexpr std::size_t kOffHead = 24;
constexpr std::size_t kHeaderBytes = 32;

// Slot: u64 seq, then one frame (u32 len, u32 crc, text).
constexpr std::size_t kSeqBytes = sizeof(u64);
constexpr std::size_t kSlotFrameBytes = kSeqBytes + kFrameHeaderBytes;

template <typename T>
T load_raw(const std::byte* base, std::size_t off) noexcept {
  T v;
  std::memcpy(&v, base + off, sizeof(T));
  return v;
}

template <typename T>
void store_raw(std::byte* base, std::size_t off, T v) noexcept {
  std::memcpy(base + off, &v, sizeof(T));
}

[[nodiscard]] std::atomic_ref<u64> seq_ref(std::byte* slot) noexcept {
  return std::atomic_ref<u64>(*reinterpret_cast<u64*>(slot));
}

/// Validate one slot without allocating (async-signal-safe). On success
/// `text` views the record inside the mapping.
bool slot_ok(const std::byte* slot, u32 slot_bytes, u64& seq,
             std::span<const std::byte>& text) noexcept {
  seq = std::atomic_ref<const u64>(*reinterpret_cast<const u64*>(slot))
            .load(std::memory_order_acquire);
  if (seq == 0) return false;
  const Frame f = decode_frame({slot + kSeqBytes, slot_bytes - kSeqBytes},
                               slot_bytes - kSlotFrameBytes);
  if (f.status != FrameStatus::kOk) return false;
  text = f.payload;
  return true;
}

/// The valid records of `num_slots` slots at `slots`, oldest first.
std::vector<std::string> records_in_order(const std::byte* slots,
                                          u32 slot_bytes, u32 num_slots) {
  std::vector<std::pair<u64, std::string>> found;
  for (u32 i = 0; i < num_slots; ++i) {
    u64 seq = 0;
    std::span<const std::byte> text;
    if (slot_ok(slots + static_cast<std::size_t>(i) * slot_bytes, slot_bytes,
                seq, text)) {
      const auto* chars = reinterpret_cast<const char*>(text.data());
      found.emplace_back(seq, std::string(chars, text.size()));
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [seq, text] : found) out.push_back(std::move(text));
  return out;
}

[[nodiscard]] u32 round_up8(u32 v) noexcept { return (v + 7u) & ~7u; }

void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

std::vector<std::string> salvage_flight_ring(
    const std::filesystem::path& path) {
  std::vector<std::byte> buf;
  try {
    buf = read_file_bytes(path);
  } catch (const BinIoError&) {
    return {};
  }
  if (buf.size() < kHeaderBytes) return {};

  const std::byte* base = buf.data();
  if (std::memcmp(base, kFlightMagic, sizeof(kFlightMagic)) != 0) return {};
  if (load_raw<u32>(base, kOffVersion) != kFlightVersion) return {};
  const u32 slot_bytes = load_raw<u32>(base, kOffSlotBytes);
  const u32 num_slots = load_raw<u32>(base, kOffNumSlots);
  if (slot_bytes <= kSlotFrameBytes) return {};
  if (load_raw<u32>(base, kOffClean) != 0) return {};  // clean close: no crash
  // The declared geometry must fit in the bytes actually present.
  if (buf.size() < kHeaderBytes + u64{slot_bytes} * num_slots) return {};
  return records_in_order(base + kHeaderBytes, slot_bytes, num_slots);
}

FlightRing::FlightRing(FlightRingConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.slot_bytes = std::max<u32>(round_up8(cfg_.slot_bytes), 32);
  cfg_.num_slots = std::max<u32>(cfg_.num_slots, 8);

  // A pre-existing dirty ring is crash evidence: salvage before reset.
  salvaged_ = salvage_flight_ring(cfg_.path);
  recovered_dirty_ = !salvaged_.empty();

  map_bytes_ = kHeaderBytes +
               static_cast<std::size_t>(cfg_.slot_bytes) * cfg_.num_slots;
  const int fd =
      ::open(cfg_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("flight ring open");
  if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("flight ring ftruncate");
  }
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) throw_errno("flight ring mmap");
  map_ = static_cast<std::byte*>(p);

  // Reset: all zero (dirty while open, head 0, every slot empty), then a
  // fresh header.
  std::memset(map_, 0, map_bytes_);
  std::memcpy(map_ + kOffMagic, kFlightMagic, sizeof(kFlightMagic));
  store_raw<u32>(map_, kOffVersion, kFlightVersion);
  store_raw<u32>(map_, kOffSlotBytes, cfg_.slot_bytes);
  store_raw<u32>(map_, kOffNumSlots, cfg_.num_slots);
}

FlightRing::~FlightRing() {
  if (map_ != nullptr) {
    // Clean close: the next open knows there is no crash to explain.
    store_raw<u32>(map_, kOffClean, 1);
    ::munmap(map_, map_bytes_);
  }
}

std::byte* FlightRing::slot_base(u64 index) const noexcept {
  return map_ + kHeaderBytes +
         static_cast<std::size_t>(index % cfg_.num_slots) * cfg_.slot_bytes;
}

u64 FlightRing::head() const noexcept {
  return std::atomic_ref<const u64>(
             *reinterpret_cast<const u64*>(map_ + kOffHead))
      .load(std::memory_order_acquire);
}

void FlightRing::append(std::string_view line) noexcept {
  line = line.substr(0, cfg_.slot_bytes - kSlotFrameBytes);  // slot capacity

  std::lock_guard lk(mu_);
  std::atomic_ref<u64> head(*reinterpret_cast<u64*>(map_ + kOffHead));
  const u64 claim = head.load(std::memory_order_relaxed);
  std::byte* slot = slot_base(claim);

  // Invalidate -> body -> publish: a crash at any point leaves either the
  // old record (CRC-valid), an empty slot, or a CRC-invalid torn body —
  // never a wrong-but-valid record.
  seq_ref(slot).store(0, std::memory_order_release);
  encode_frame(std::as_bytes(std::span(line)), slot + kSeqBytes);
  seq_ref(slot).store(claim + 1, std::memory_order_release);
  head.store(claim + 1, std::memory_order_release);
}

std::vector<std::string> FlightRing::records() const {
  std::lock_guard lk(mu_);
  return records_in_order(slot_base(0), cfg_.slot_bytes, cfg_.num_slots);
}

void FlightRing::dump_signal_safe(int fd) const noexcept {
  if (map_ == nullptr) return;
  // No allocation, no locks, only write(2). Sequence s lives in slot
  // (s - 1) % num_slots: walk the window ending one past the head (a
  // record published just before its head update), skipping slots whose
  // sequence does not match (empty, overwritten, torn).
  const u64 end = head() + 1;
  for (u64 s = end > cfg_.num_slots ? end - cfg_.num_slots : 1; s <= end;
       ++s) {
    u64 seq = 0;
    std::span<const std::byte> text;
    if (!slot_ok(slot_base(s - 1), cfg_.slot_bytes, seq, text) || seq != s) {
      continue;
    }
    if (write_all(fd, text) != 0) return;
    (void)write_all(fd, std::as_bytes(std::span("\n", 1)));
  }
}

}  // namespace bgp::obs

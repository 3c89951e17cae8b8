#include "daemon/snapfile.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"

namespace bgp::daemon {

namespace {

// ---- fixed layout (all offsets u64-aligned so atomic_ref is legal) --------
//
// Header:
//   0   char     magic[8]
//   8   u32      version
//   12  u32      num_nodes
//   16  u64      node0_offset
//   24  u64      node_block_bytes
//   32  u64      metrics_offset
//   40  u64      metrics_capacity      (per-slot text bytes, 8-aligned)
//   48  char     app[kSnapNameBytes]
//   168 char     session[kSnapNameBytes]
//   288 = kHeaderBytes
//
// NodeBlock (per node):
//   +0   u64 seq           seqlock: odd while a publish is in flight
//   +8   u64 active_slot   0/1, index of the last published slot
//   +16  Slot[2]
// Slot:
//   +0   u64 published_cycle
//   +8   u64 mode
//   +16  u64 state
//   +24  u64 node_id
//   +32  u64 card_id
//   +40  u64 counters[kCountersPerUnit]
//   +40+8*256 u64 crc32    (of the preceding slot bytes)
//
// MetricsBlock:
//   +0   u64 seq
//   +8   u64 active_slot
//   +16  MSlot[2]
// MSlot:
//   +0   u64 len
//   +8   u64 crc32         (of text[0..len))
//   +16  char text[metrics_capacity]

constexpr std::size_t kHeaderBytes = 48 + 2 * kSnapNameBytes;
constexpr std::size_t kSlotWords = 5 + isa::kCountersPerUnit + 1;
constexpr std::size_t kSlotBytes = kSlotWords * sizeof(u64);
constexpr std::size_t kNodeBlockBytes = 16 + 2 * kSlotBytes;

constexpr std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::atomic_ref<u64> word_ref(const std::byte* p) {
  // atomic_ref wants a mutable lvalue even for loads; readers of a
  // PROT_READ mapping never store through it.
  return std::atomic_ref<u64>(
      *reinterpret_cast<u64*>(const_cast<std::byte*>(p)));
}

void store_words_relaxed(std::byte* dst, const u64* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    word_ref(dst + i * sizeof(u64)).store(src[i], std::memory_order_relaxed);
  }
}

void load_words_relaxed(u64* dst, const std::byte* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = word_ref(src + i * sizeof(u64)).load(std::memory_order_relaxed);
  }
}

struct Geometry {
  std::size_t node0_offset = kHeaderBytes;
  std::size_t node_block_bytes = kNodeBlockBytes;
  std::size_t metrics_offset = 0;
  std::size_t metrics_capacity = 0;
  std::size_t total = 0;
};

Geometry make_geometry(unsigned num_nodes, std::size_t metrics_capacity) {
  Geometry g;
  g.metrics_capacity = round8(metrics_capacity);
  g.metrics_offset = g.node0_offset + num_nodes * g.node_block_bytes;
  const std::size_t mslot = 16 + g.metrics_capacity;
  g.total = g.metrics_offset + 16 + 2 * mslot;
  return g;
}

void write_name(std::byte* dst, const std::string& name) {
  char buf[kSnapNameBytes] = {};
  std::memcpy(buf, name.data(), std::min(name.size(), kSnapNameBytes - 1));
  std::memcpy(dst, buf, kSnapNameBytes);
}

std::string read_name(const std::byte* src) {
  char buf[kSnapNameBytes];
  std::memcpy(buf, src, kSnapNameBytes);
  buf[kSnapNameBytes - 1] = '\0';
  return std::string(buf);
}

}  // namespace

const char* to_string(SnapReadStatus status) noexcept {
  switch (status) {
    case SnapReadStatus::kOk: return "ok";
    case SnapReadStatus::kBusy: return "busy";
    case SnapReadStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

SnapshotWriter::SnapshotWriter(const std::filesystem::path& path,
                               const std::string& app,
                               const std::string& session, unsigned num_nodes,
                               std::size_t metrics_capacity,
                               fault::DaemonFaultInjector* faults)
    : path_(path),
      num_nodes_(num_nodes),
      metrics_capacity_(round8(metrics_capacity)),
      faults_(faults) {
  const Geometry g = make_geometry(num_nodes, metrics_capacity);
  // Built under a temporary name and renamed into place once the header
  // and every idle slot are written: an attach that finds `path` always
  // finds a whole file, never a zero-filled one still waiting for its magic.
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error(
        strfmt("cannot create snapshot file %s: %s", tmp.c_str(),
               std::strerror(errno)));
  }
  if (::ftruncate(fd, static_cast<off_t>(g.total)) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error(strfmt("cannot size snapshot file %s: %s",
                                    tmp.c_str(), std::strerror(err)));
  }
  void* map = ::mmap(nullptr, g.total, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error(strfmt("cannot mmap snapshot file %s: %s",
                                    tmp.c_str(), std::strerror(err)));
  }
  map_ = static_cast<std::byte*>(map);
  map_bytes_ = g.total;

  // Names and geometry first, magic last: a reader that mmaps a file whose
  // magic is present can trust the header fields.
  u32 version = kSnapVersion;
  u32 nodes32 = num_nodes;
  std::memcpy(map_ + 8, &version, sizeof(version));
  std::memcpy(map_ + 12, &nodes32, sizeof(nodes32));
  const u64 geom[4] = {g.node0_offset, g.node_block_bytes, g.metrics_offset,
                       g.metrics_capacity};
  std::memcpy(map_ + 16, geom, sizeof(geom));
  write_name(map_ + 48, app);
  write_name(map_ + 48 + kSnapNameBytes, session);
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(map_, kSnapMagic, sizeof(kSnapMagic));

  // Seed every node with a readable kIdle slot: an attach racing session
  // startup must distinguish "not started yet" from corruption, and an
  // all-zero slot fails its CRC.
  const std::array<u64, isa::kCountersPerUnit> zeros{};
  for (unsigned node = 0; node < num_nodes_; ++node) {
    publish_node(node, node, 0, 0, SnapState::kIdle, 0, zeros);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    ::unlink(tmp.c_str());
    throw std::runtime_error(strfmt("cannot publish snapshot file %s: %s",
                                    path.c_str(), std::strerror(err)));
  }
}

SnapshotWriter::~SnapshotWriter() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void SnapshotWriter::publish_node(
    unsigned node, u32 node_id, u32 card_id, u32 mode, SnapState state,
    cycles_t now, const std::array<u64, isa::kCountersPerUnit>& counters) {
  if (node >= num_nodes_) {
    throw std::out_of_range(strfmt("snapshot node %u out of range", node));
  }
  std::byte* block = map_ + kHeaderBytes + node * kNodeBlockBytes;
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);

  u64 staged[kSlotWords];
  staged[0] = now;
  staged[1] = mode;
  staged[2] = static_cast<u64>(state);
  staged[3] = node_id;
  staged[4] = card_id;
  std::memcpy(&staged[5], counters.data(), sizeof(u64) * counters.size());
  staged[kSlotWords - 1] =
      crc32({reinterpret_cast<const std::byte*>(staged),
             (kSlotWords - 1) * sizeof(u64)});

  const u64 next = 1 - active.load(std::memory_order_relaxed);
  seq.fetch_add(1, std::memory_order_acq_rel);  // odd: publish in flight
  if (faults_ != nullptr && faults_->next_snapshot_publish_torn()) {
    // A crash mid-publish: half the slot lands, the seqlock stays odd.
    // Readers must classify this as writer-gone, never spin forever.
    store_words_relaxed(block + 16 + next * kSlotBytes, staged,
                        kSlotWords / 2);
    return;
  }
  store_words_relaxed(block + 16 + next * kSlotBytes, staged, kSlotWords);
  active.store(next, std::memory_order_release);
  seq.fetch_add(1, std::memory_order_release);  // even: stable again
}

void SnapshotWriter::publish_metrics(std::string_view text) {
  std::byte* block = map_ + map_bytes_ - (16 + 2 * (16 + metrics_capacity_));
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);

  const std::size_t len = std::min(text.size(), metrics_capacity_);
  std::vector<u64> staged(2 + metrics_capacity_ / sizeof(u64), 0);
  staged[0] = len;
  staged[1] = crc32({reinterpret_cast<const std::byte*>(text.data()), len});
  std::memcpy(&staged[2], text.data(), len);

  const u64 next = 1 - active.load(std::memory_order_relaxed);
  seq.fetch_add(1, std::memory_order_acq_rel);
  store_words_relaxed(block + 16 + next * (16 + metrics_capacity_),
                      staged.data(), staged.size());
  active.store(next, std::memory_order_release);
  seq.fetch_add(1, std::memory_order_release);
}

SnapshotReader SnapshotReader::open_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error(strfmt("cannot open snapshot file %s: %s",
                                    path.c_str(), std::strerror(errno)));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error(
        strfmt("cannot stat snapshot file %s", path.c_str()));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw std::runtime_error(strfmt("cannot mmap snapshot file %s: %s",
                                    path.c_str(), std::strerror(errno)));
  }
  SnapshotReader r;
  r.owns_map_ = true;
  try {
    r.init(static_cast<const std::byte*>(map), size);
  } catch (...) {
    ::munmap(map, size);
    r.base_ = nullptr;
    throw;
  }
  return r;
}

SnapshotReader SnapshotReader::from_view(const std::byte* data,
                                         std::size_t size) {
  SnapshotReader r;
  r.init(data, size);
  return r;
}

SnapshotReader::SnapshotReader(SnapshotReader&& other) noexcept
    : base_(other.base_),
      bytes_(other.bytes_),
      owns_map_(other.owns_map_),
      num_nodes_(other.num_nodes_),
      metrics_capacity_(other.metrics_capacity_),
      app_(std::move(other.app_)),
      session_(std::move(other.session_)) {
  other.base_ = nullptr;
  other.owns_map_ = false;
}

SnapshotReader::~SnapshotReader() {
  if (owns_map_ && base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), bytes_);
  }
}

void SnapshotReader::init(const std::byte* data, std::size_t size) {
  if (size < kHeaderBytes ||
      std::memcmp(data, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    throw std::runtime_error("not a BGPSNAP snapshot (bad magic)");
  }
  u32 version = 0;
  u32 nodes32 = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  std::memcpy(&nodes32, data + 12, sizeof(nodes32));
  if (version != kSnapVersion) {
    throw std::runtime_error(
        strfmt("unsupported snapshot version %u", version));
  }
  u64 geom[4];
  std::memcpy(geom, data + 16, sizeof(geom));
  const Geometry expect = make_geometry(nodes32, geom[3]);
  if (geom[0] != expect.node0_offset ||
      geom[1] != expect.node_block_bytes ||
      geom[2] != expect.metrics_offset || size < expect.total) {
    throw std::runtime_error("corrupt snapshot header (bad geometry)");
  }
  base_ = data;
  bytes_ = size;
  num_nodes_ = nodes32;
  metrics_capacity_ = geom[3];
  app_ = read_name(data + 48);
  session_ = read_name(data + 48 + kSnapNameBytes);
}

bool SnapshotReader::read_node(unsigned node, NodeSnapshot& out,
                               unsigned max_retries) const {
  return read_node_status(node, out, max_retries) == SnapReadStatus::kOk;
}

SnapReadStatus SnapshotReader::read_node_status(unsigned node,
                                                NodeSnapshot& out,
                                                unsigned max_retries) const {
  if (node >= num_nodes_) return SnapReadStatus::kCorrupt;
  const std::byte* block = base_ + kHeaderBytes + node * kNodeBlockBytes;
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);
  u64 staged[kSlotWords];
  for (unsigned attempt = 0; attempt <= max_retries; ++attempt) {
    const u64 s1 = seq.load(std::memory_order_acquire);
    if (s1 % 2 != 0) continue;  // publish in flight
    const u64 idx = active.load(std::memory_order_acquire) & 1;
    load_words_relaxed(staged, block + 16 + idx * kSlotBytes, kSlotWords);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq.load(std::memory_order_acquire) != s1) continue;  // torn, retry
    const u32 crc = crc32({reinterpret_cast<const std::byte*>(staged),
                           (kSlotWords - 1) * sizeof(u64)});
    if (staged[kSlotWords - 1] != crc) {
      // Stable sequence but bad checksum: foreign corruption, not a race.
      return SnapReadStatus::kCorrupt;
    }
    out.published_cycle = staged[0];
    out.mode = static_cast<u32>(staged[1]);
    out.state = static_cast<SnapState>(staged[2]);
    out.node_id = static_cast<u32>(staged[3]);
    out.card_id = static_cast<u32>(staged[4]);
    std::memcpy(out.counters.data(), &staged[5],
                sizeof(u64) * out.counters.size());
    return SnapReadStatus::kOk;
  }
  // The sequence never stabilized: either a live writer is publishing
  // faster than we can copy (transient) or the writer died mid-publish
  // and the lock is held forever (stale). The caller decides via retry.
  return SnapReadStatus::kBusy;
}

bool SnapshotReader::read_metrics(std::string& out,
                                  unsigned max_retries) const {
  const std::byte* block =
      base_ + bytes_ - (16 + 2 * (16 + metrics_capacity_));
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);
  std::vector<u64> staged(2 + metrics_capacity_ / sizeof(u64));
  for (unsigned attempt = 0; attempt <= max_retries; ++attempt) {
    const u64 s1 = seq.load(std::memory_order_acquire);
    if (s1 % 2 != 0) continue;
    const u64 idx = active.load(std::memory_order_acquire) & 1;
    load_words_relaxed(staged.data(),
                       block + 16 + idx * (16 + metrics_capacity_),
                       staged.size());
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq.load(std::memory_order_acquire) != s1) continue;
    const u64 len = staged[0];
    if (len > metrics_capacity_) return false;
    out.assign(reinterpret_cast<const char*>(&staged[2]), len);
    const u32 crc =
        crc32({reinterpret_cast<const std::byte*>(out.data()), out.size()});
    if (s1 != 0 && staged[1] != crc) return false;
    return true;
  }
  return false;
}

}  // namespace bgp::daemon

// Binary layout of the per-node time-series trace files written by the
// tracing layer and mined by the timeline post-processor. Little-endian
// throughout, per-section CRC32 like the v2 dump format (core/dumpformat).
//
//   header:  magic "BGPT" (u32) | version (u32) | node id (u32)
//            | card id (u32) | counter mode (u32) | app name (string)
//            | interval cycles (u64) | pacer event (u32, kPacerTimebase =
//            |   Time-Base polled) | event count (u32) | event ids (u16 each)
//            | header CRC32 (u32)
//   chunk:   interval count (u32, 1..kMaxChunkRecords) | that many
//            | interval records
//            | chunk CRC32 (u32)
//   footer:  sentinel 0 (u32) | intervals produced (u64) | intervals
//            | dropped (u64) | samples taken (u64) | sampling overhead
//            | cycles (u64) | footer CRC32 (u32)
//
//   interval record: first index (u64) | spanned intervals (u32)
//            | begin cycle (u64) | end cycle (u64)
//            | event count counter deltas (u64 each)
//
// Traces are streamed: the header is written when tracing starts, chunks
// are appended as the ring buffer fills, and the footer seals the file at
// BGP_Finalize — all into a `.partial` file that is atomically renamed to
// `.bgpt` on clean close (the PR 1 temp+rename convention). A node that
// dies mid-run leaves a footer-less `.partial` whose complete chunks still
// parse: traces truncate cleanly and the miner runs degraded.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/events.hpp"

namespace bgp::trace {

inline constexpr u32 kTraceMagic = 0x54504742;  // "BGPT" little-endian
inline constexpr u32 kTraceVersion = 1;

/// Most interval records one chunk may hold. The writer never commits a
/// larger chunk, so the reader rejects a larger count as corrupt instead
/// of reading it as a chunk torn off by a dying node.
inline constexpr u32 kMaxChunkRecords = 1u << 16;

/// Pacer sentinel: the node had no cycle counter in its programmed mode, so
/// sampling was paced by Time-Base polling instead of threshold interrupts.
inline constexpr u32 kPacerTimebase = ~u32{0};

/// File name suffixes: sealed traces vs. still-streaming (or crashed) ones.
inline constexpr const char* kTraceSuffix = ".bgpt";
inline constexpr const char* kPartialSuffix = ".bgpt.partial";

/// Identity and sampling parameters of one node's trace (the header).
struct TraceMeta {
  u32 node_id = 0;
  u32 card_id = 0;
  u32 counter_mode = 0;
  std::string app_name;
  cycles_t interval_cycles = 0;
  /// Event whose physical counter paced the threshold interrupts, or
  /// kPacerTimebase when the sampler fell back to Time-Base polling.
  u32 pacer_event = kPacerTimebase;
  /// Events snapshotted each interval (all of the node's programmed mode);
  /// interval record values are parallel to this list.
  std::vector<isa::EventId> events;
};

/// One sampled interval: counter deltas over [t_begin, t_end). When the
/// pacer crossed several boundaries in one increment (a long uninterrupted
/// loop), the record is coalesced: it spans `spanned` intervals starting at
/// `index` and the deltas cover the whole span.
struct IntervalRecord {
  u64 index = 0;     ///< first interval index covered
  u32 spanned = 1;   ///< number of interval boundaries coalesced
  cycles_t t_begin = 0;
  cycles_t t_end = 0;
  std::vector<u64> values;  ///< parallel to TraceMeta::events

  [[nodiscard]] cycles_t span_cycles() const noexcept {
    return t_end - t_begin;
  }
};

/// Lifetime totals sealed into the footer on clean close.
struct TraceTotals {
  u64 intervals = 0;        ///< interval records produced
  u64 dropped = 0;          ///< records evicted unflushed (ring overflow)
  u64 samples = 0;          ///< counter-set snapshots taken
  cycles_t overhead_cycles = 0;  ///< modeled sampling cost charged to cores
};

}  // namespace bgp::trace

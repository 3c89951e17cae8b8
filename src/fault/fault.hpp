// Deterministic, seedable fault injection for the collect->dump->load->mine
// pipeline. On a real 40k-node machine truncated files, dropped nodes and
// wrapped counters are facts of life (the paper's §IV validates every dump
// for record counts, lengths and value ranges before mining); this module
// lets tests and harnesses schedule those failures reproducibly and assert
// that the pipeline degrades instead of aborting.
//
// A FaultPlan is a list of concrete scheduled events (built explicitly or
// generated from a seed); a FaultInjector is the runtime oracle the
// instrumented layers query:
//   * rt::Machine asks death_cycle() and unwinds a node's ranks at that time
//   * pc::NodeMonitor asks counter_wraps() and narrows the victim counters
//   * pc::Session asks corrupt_dump() / next_write_fails() around the
//     atomic dump write
// The same (seed, node count, spec) always produces the same plan, and the
// simulator's scheduling is deterministic, so a faulted run is exactly
// reproducible from its seed.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace bgp::fault {

enum class FaultKind : u8 {
  kNodeDeath,       ///< every rank of the node aborts at `cycle`
  kDumpWriteError,  ///< the next `attempts` dump writes on the node fail
  kDumpTruncate,    ///< dump silently loses its tail (torn write)
  kDumpBitFlip,     ///< one bit of the dump bytes flips
  kCounterWrap,     ///< a UPC counter behaves as 32-bit and wraps early
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

struct FaultEvent {
  FaultKind kind{};
  u32 node = 0;
  cycles_t cycle = 0;    ///< kNodeDeath: first cycle at which the node is dead
  u32 counter = 0;       ///< kCounterWrap: physical counter index
  u32 margin = 256;      ///< kCounterWrap: counts left before the 32-bit wrap
  u32 keep_bytes = 0;    ///< kDumpTruncate: bytes that survive
  u32 byte_offset = 0;   ///< kDumpBitFlip: victim byte (mod dump size)
  u8 bit = 0;            ///< kDumpBitFlip: victim bit within the byte
  u32 attempts = 1;      ///< kDumpWriteError: failing attempts (kAlwaysFail)

  bool operator==(const FaultEvent&) const = default;
};

/// kDumpWriteError attempt count that outlasts any retry budget: the dump
/// is lost, not delayed.
inline constexpr u32 kAlwaysFail = ~u32{0};

[[nodiscard]] std::string describe(const FaultEvent& e);

/// Knobs for FaultPlan::random().
struct FaultSpec {
  unsigned node_deaths = 0;
  unsigned dump_truncates = 0;
  unsigned dump_bit_flips = 0;
  unsigned transient_write_errors = 0;  ///< recoverable within the retry budget
  unsigned lost_dumps = 0;              ///< persistent write failure
  unsigned counter_wraps = 0;
  /// Extra deaths scheduled after every primary death, inside the window a
  /// survivor-recovery protocol (revoke/agree/shrink) would be running in.
  /// Exercises the FT layer's handling of failures during recovery itself
  /// (e.g. the shrink coordinator dying mid-agreement).
  unsigned deaths_during_recovery = 0;
  /// Deaths are scheduled uniformly in [1, death_window].
  cycles_t death_window = 200'000;
  /// Physical counter narrowed by kCounterWrap events; kAnyCounter lets the
  /// generator pick one (which may be a counter the workload never touches —
  /// a latent fault).
  u32 wrap_counter = kAnyCounter;
  static constexpr u32 kAnyCounter = ~u32{0};
};

class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(const FaultEvent& e) {
    events_.push_back(e);
    return *this;
  }

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Deterministic plan generation: identical (seed, num_nodes, spec) yield
  /// identical plans. Victim nodes for deaths are drawn first; dump faults
  /// are assigned to surviving nodes (a dead node writes nothing to break).
  [[nodiscard]] static FaultPlan random(u64 seed, unsigned num_nodes,
                                        const FaultSpec& spec);

  bool operator==(const FaultPlan&) const = default;

 private:
  std::vector<FaultEvent> events_;
};

/// Runtime oracle for one faulted run. Queries are pure functions of the
/// plan except next_write_fails(), which consumes the per-node failure
/// budget, so use a fresh injector per run.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// First cycle at/after which `node` is dead, if a death is scheduled.
  [[nodiscard]] std::optional<cycles_t> death_cycle(u32 node) const;

  struct CounterWrap {
    u32 counter = 0;
    u64 preload = 0;  ///< initial counter value, `margin` counts below 2^32
  };
  /// Counters on `node` that wrap at 32 bits, with their preload values.
  [[nodiscard]] std::vector<CounterWrap> counter_wraps(u32 node) const;

  /// Apply silent corruption (truncation, bit flips) to serialized dump
  /// bytes. Returns a description of every mutation for the injection log.
  std::vector<std::string> corrupt_dump(u32 node,
                                        std::vector<std::byte>& bytes);

  /// Consume one scheduled write failure for `node`, if any remain.
  [[nodiscard]] bool next_write_fails(u32 node);

  /// Everything injected so far, in injection order (for reports/tests).
  [[nodiscard]] const std::vector<std::string>& injected_log() const noexcept {
    return log_;
  }

 private:
  FaultPlan plan_;
  std::unordered_map<u32, u64> write_failures_left_;  ///< per node
  std::vector<std::string> log_;
};

// ---------------------------------------------------------------------------
// Daemon-surface faults.
//
// bgpcd adds failure surfaces the per-run injector above never sees: the
// write-ahead session journal (torn appends, ENOSPC, EINTR), the BGPSNAP
// publisher (a crash mid-publish leaves a slot's seqlock held), and the
// control socket (a connection reset before the response lands). These are
// ordinal-scheduled ("the Nth append"), not cycle-scheduled, because the
// daemon surfaces run on host time, and they are consumed concurrently from
// control and session threads, so the injector is internally locked.

enum class DaemonFaultKind : u8 {
  kJournalTorn,   ///< the Nth journal append persists only a prefix
  kJournalError,  ///< the Nth journal append fails as if ENOSPC
  kJournalEintr,  ///< the Nth journal append is interrupted once (EINTR)
  kSnapshotTorn,  ///< the Nth snapshot publication dies with the seqlock held
  kSocketReset,   ///< the Nth control response is dropped, connection reset
};

[[nodiscard]] const char* to_string(DaemonFaultKind kind) noexcept;

struct DaemonFaultEvent {
  DaemonFaultKind kind{};
  /// Fires on the (after+1)-th operation of its category (0 = first).
  u32 after = 0;
  u32 keep_bytes = 0;      ///< kJournalTorn: frame bytes that reach the disk
  bool persistent = false;  ///< kJournalError: the disk stays full forever
};

[[nodiscard]] std::string describe(const DaemonFaultEvent& e);

/// Knobs for DaemonFaultInjector::random().
struct DaemonFaultSpec {
  unsigned journal_torn = 0;
  unsigned journal_errors = 0;  ///< transient write failures
  unsigned journal_eintr = 0;
  unsigned snapshot_torn = 0;
  unsigned socket_resets = 0;
  bool journal_enospc_sticky = false;  ///< one persistent failure at the end
  /// Ordinals are drawn uniformly from [0, window).
  u32 window = 16;
  /// kJournalTorn keep_bytes drawn from [0, torn_keep_max].
  u32 torn_keep_max = 64;
};

/// Consume-style oracle for one daemon lifetime. Thread-safe: control
/// threads and session threads query it concurrently.
class DaemonFaultInjector {
 public:
  DaemonFaultInjector() = default;
  explicit DaemonFaultInjector(std::vector<DaemonFaultEvent> plan);

  /// Deterministic: identical (seed, spec) yield identical plans.
  [[nodiscard]] static DaemonFaultInjector random(u64 seed,
                                                  const DaemonFaultSpec& spec);

  struct JournalFault {
    enum class Kind : u8 { kNone, kTorn, kError, kEintr };
    Kind kind = Kind::kNone;
    u32 keep_bytes = 0;
    bool persistent = false;
  };
  /// Fault (if any) scheduled for the next journal append. A persistent
  /// kError latches: every later append fails too (the disk stays full).
  [[nodiscard]] JournalFault next_journal_append();

  /// True if the next snapshot publication should die mid-write, leaving
  /// the slot's seqlock odd (a reader must classify this as writer-gone).
  [[nodiscard]] bool next_snapshot_publish_torn();

  /// True if the next control response should be dropped and the
  /// connection reset instead of answered.
  [[nodiscard]] bool next_control_response_reset();

  /// Everything injected so far, in injection order.
  [[nodiscard]] std::vector<std::string> injected_log() const;

 private:
  std::vector<DaemonFaultEvent> plan_;
  u64 journal_ops_ = 0;
  u64 snapshot_ops_ = 0;
  u64 socket_ops_ = 0;
  bool journal_stuck_ = false;  ///< persistent kJournalError latched
  std::vector<std::string> log_;
  mutable std::mutex mu_;
};

}  // namespace bgp::fault

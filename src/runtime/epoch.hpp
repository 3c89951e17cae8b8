// The parallel epoch scheduler (MachineConfig::sched == kParallel).
//
// Model: each rank runs on its own fiber; fibers are multiplexed onto a
// bounded worker pool with one task per *node* (a node's ranks share the
// simulated caches, so they execute mutually exclusively — the node is the
// unit of host parallelism). A rank runs its compute segment lock-free
// (its core, caches and counters are private while it runs) and parks at
// every cross-rank interaction; interactions execute as *commits* in
// ascending (simulated cycle at segment start, rank) order — exactly the
// order the serial dispatcher's pick_next produces — so same-seed runs
// are byte-identical to --sched=serial.
//
// Why the order matches the serial dispatcher (the commit-order theorem):
// the serial scheduler is greedy — at each step it runs the minimum
// (key, rank) over the *dynamic* set of pending ranks, where a rank's key
// is its core clock frozen at the moment it became ready. Here a commit
// executes only when its rank is the global minimum over pending ranks,
// and a rank woken by a commit joins the pending set only at that commit
// (same as serial). Induction over commits: both schedulers pop the same
// greedy sequence.
//
// Concurrency rules that keep compute segments parallel:
//  * A rank may *start* a segment (kStartable) out of global order when no
//    locally-blocked rank could be woken into an earlier slot — the hazard
//    gate: if some rank w on the same node is blocked with
//    (clock_w, w) < (key_r, r), a commit could wake w at a key below r's,
//    so r must wait until it is the global minimum. (Blocked clocks are
//    stable while blocked: only commits move them, and commits serialize
//    under the scheduler lock.)
//  * A rank *resuming* mid-segment after a commit (kReadyResume) continues
//    immediately — the serial scheduler never preempts a running rank
//    either. Its node starts no other rank until the segment ends, and
//    from its first commit to its next yield/block it holds the *token*:
//    it counts as the global minimum, so its later commits run at once
//    and ranks its commits woke at smaller keys wait for the segment to
//    end, exactly as under the serial dispatcher.
//  * A stop request is the one wake that lands mid-segment: it can make a
//    resident pending at a key below a node-mate that is running but has
//    not committed yet. That node-mate then parks at its commit, and the
//    node starts the woken rank, which only unwinds; the parked commit
//    drains once the woken rank has left the pending set.
//  * Strict mode (fault injection or FT enabled): segments read global
//    state mid-flight (death schedules, revocation flags, group
//    membership), so both kStartable and kReadyResume gate on the global
//    minimum — at most one rank progresses at a time, in exactly serial
//    order, and the world is frozen around it. Same results, no races,
//    still one fiber per rank instead of one thread.
//  * Segment boundaries are lock-free under contention: a fiber that
//    fails the scheduler-mutex try_lock publishes its transition to an
//    MPSC commit queue (runtime/commitq.hpp) and parks instead of
//    blocking; the lock holder pumps the queue before every scheduling
//    decision. Unapplied transitions only make the dispatch gates more
//    conservative (the rank still looks kRunning at its frozen key), so
//    the commit sequence — and therefore every byte of output — is
//    unchanged.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/commitq.hpp"
#include "runtime/machine.hpp"
#include "runtime/pool.hpp"

namespace bgp::rt {

class EpochScheduler {
 public:
  EpochScheduler(Machine& machine, const RankFn& program);
  ~EpochScheduler();

  /// Drive every rank to a terminal status. Deadlock diagnostics are
  /// thrown after all fibers unwound, mirroring the serial dispatcher.
  void run();

  // -- called from rank fibers (via Machine) ------------------------------
  /// Park until every earlier (cycle, rank) slot committed, then run `fn`
  /// under the scheduler lock. Exceptions from `fn` rethrow here.
  void run_at_slot(unsigned rank, const std::function<void()>& fn);
  /// End-of-segment yield: re-key at the current clock, hand the node's
  /// executor to whoever is next.
  void yield_segment(unsigned rank);
  /// The previous commit left this rank blocked (status already set);
  /// park until a later commit makes it ready.
  void block_fiber(unsigned rank);

  // -- called from inside commits (scheduler lock already held) -----------
  /// `rank` became kReady: give it a fresh key and queue it.
  void on_ready(unsigned rank);

 private:
  /// Where a rank's fiber stands with respect to the dispatch order.
  enum class Phase : u8 {
    kStartable,    ///< at a segment boundary, key frozen, hazard gate applies
    kRunning,      ///< executing on some worker, lock-free
    kParkedSlot,   ///< parked at run_at_slot, commit pending
    kReadyResume,  ///< commit done, may continue mid-segment
    kBlocked,      ///< blocked in a wait structure (recv/collective)
    kTerminal,     ///< finished/failed/died; fiber unwound
  };

  struct RankState {
    std::unique_ptr<Fiber> fiber;  // created lazily at first dispatch
    Phase phase = Phase::kStartable;
    cycles_t key = 0;  ///< dispatch key, frozen while pending
    unsigned node = 0;
    const std::function<void()>* slot_fn = nullptr;
    std::exception_ptr slot_error;
    /// This rank's lock-free transition entry: filled and pushed by the
    /// fiber when it loses the try_lock race at a segment boundary,
    /// applied by pump_queue_locked(). One in flight at a time (the fiber
    /// parks right after pushing).
    CommitNode qnode;
  };

  struct NodeState {
    bool active = false;  ///< a node_loop task is running/posted
    std::vector<unsigned> residents;
  };

  [[nodiscard]] bool pending(unsigned rank) const {
    const Phase p = states_[rank].phase;
    return p == Phase::kStartable || p == Phase::kRunning ||
           p == Phase::kParkedSlot || p == Phase::kReadyResume;
  }
  /// Global minimum (key, rank) over pending ranks, or -1. Prunes stale
  /// heap entries, hence non-const.
  [[nodiscard]] int global_min_locked();
  /// Next rank this node's executor may run, or -1. Applies the hazard /
  /// strict gates.
  [[nodiscard]] int pick_local_locked(unsigned node);
  /// Apply every queued lock-free transition (mutex held). Must run
  /// before scheduling decisions so freshly published yields/parks/blocks
  /// are visible; drain_commits_locked() calls it first.
  void pump_queue_locked();
  /// Execute the global minimum's commit if it is parked; that rank then
  /// holds the token.
  void drain_commits_locked();
  /// `rank`'s segment ended (yield, block or terminal): drop its token.
  void end_segment_locked(unsigned rank);
  /// Post node_loop tasks for every inactive node that has dispatchable
  /// work.
  void sweep_locked();
  /// Worker task: run this node's ranks until none is dispatchable.
  void node_loop(unsigned node);
  void fiber_main(unsigned rank);

  Machine& machine_;
  const RankFn& program_;
  const bool strict_;
  std::mutex mu_;
  std::condition_variable cv_main_;
  std::vector<RankState> states_;
  std::vector<NodeState> nodes_;
  /// Pending ranks by frozen (key, rank); entries stay queued across a
  /// whole segment (the key is frozen at segment start, exactly like the
  /// serial dispatcher's pick key).
  ReadyQueue pending_q_;
  /// Lock-free MPSC queue of segment-boundary transitions from fibers
  /// that lost the try_lock race (see runtime/commitq.hpp).
  CommitQueue queue_;
  WorkerPool pool_;
  /// Rank whose current segment has committed (see the model above), or
  /// -1. global_min_locked() returns it while set.
  int token_ = -1;
  unsigned active_nodes_ = 0;
  unsigned terminal_count_ = 0;
  std::string deadlock_diag_;
};

}  // namespace bgp::rt

#include "runtime/epoch.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "runtime/rankctx.hpp"

namespace bgp::rt {

namespace {

unsigned worker_count(const MachineConfig& cfg, unsigned num_nodes,
                      unsigned num_ranks) {
  unsigned n = cfg.jobs != 0 ? cfg.jobs
                             : std::max(1u, std::thread::hardware_concurrency());
  // The node is the unit of host parallelism (its ranks share simulated
  // caches and execute exclusively), so more workers than nodes is waste.
  n = std::min(n, num_nodes);
  n = std::min(n, num_ranks);
  return std::max(1u, n);
}

}  // namespace

EpochScheduler::EpochScheduler(Machine& machine, const RankFn& program)
    : machine_(machine),
      program_(program),
      strict_(machine.strict_sched()),
      states_(machine.num_ranks()),
      nodes_(machine.partition().num_nodes()),
      pending_q_(machine.num_ranks()),
      pool_(worker_count(machine.config(), machine.partition().num_nodes(),
                         machine.num_ranks())) {
  for (unsigned r = 0; r < machine_.num_ranks(); ++r) {
    RankCtx& ctx = *machine_.ranks_[r]->ctx;
    states_[r].node = ctx.node_id();
    states_[r].key = ctx.core().now();  // boot skew: same key pick_next sees
    states_[r].qnode.rank = r;
    nodes_[states_[r].node].residents.push_back(r);
    pending_q_.push(states_[r].key, r);
  }
}

EpochScheduler::~EpochScheduler() = default;

int EpochScheduler::global_min_locked() {
  // The serial dispatcher runs a picked rank uninterrupted to its next
  // yield/block, so once a segment has committed it stays first in the
  // order — even over ranks its own commits woke at smaller keys.
  if (token_ >= 0) return token_;
  unsigned r = 0;
  if (pending_q_.peek_min(r, [this](unsigned cand) { return pending(cand); })) {
    return static_cast<int>(r);
  }
  return -1;
}

int EpochScheduler::pick_local_locked(unsigned node) {
  const NodeState& ns = nodes_[node];
  int best = -1;
  cycles_t best_key = 0;
  int parked = -1;
  for (const unsigned r : ns.residents) {
    const RankState& s = states_[r];
    switch (s.phase) {
      case Phase::kRunning:
        // This node's executor is busy with it.
        return -1;
      case Phase::kReadyResume:
        // Mid-segment continuation: the serial dispatcher never preempts
        // a running rank, not even for one its commit woke at a smaller
        // key. Its commit made it the token holder, hence the global
        // minimum, so the strict gate holds too.
        return static_cast<int>(r);
      case Phase::kParkedSlot:
        parked = static_cast<int>(r);
        break;
      case Phase::kStartable:
        if (best < 0 || SchedKey{s.key, r} <
                            SchedKey{best_key, static_cast<unsigned>(best)}) {
          best = static_cast<int>(r);
          best_key = s.key;
        }
        break;
      default:
        break;
    }
  }
  if (best < 0) return -1;
  const unsigned br = static_cast<unsigned>(best);
  // A segment parked for the coordinator to drain its commit holds these
  // caches against every rank that follows it in order. Only a stop can
  // wake a resident ahead of it (see the model in epoch.hpp); that rank
  // runs first, as the serial dispatcher would run it, and the parked
  // commit cannot execute while it is pending.
  if (parked >= 0 &&
      SchedKey{states_[static_cast<std::size_t>(parked)].key,
               static_cast<unsigned>(parked)} < SchedKey{best_key, br}) {
    return -1;
  }
  if (strict_) return global_min_locked() == best ? best : -1;
  // Hazard gate: a locally-blocked rank could be woken by a commit at a key
  // below ours, and the serial dispatcher would run it first on these very
  // caches. Blocked clocks are stable under the lock.
  for (const unsigned w : ns.residents) {
    if (states_[w].phase != Phase::kBlocked) continue;
    const cycles_t wc = machine_.ranks_[w]->ctx->core().now();
    if (SchedKey{wc, w} < SchedKey{best_key, br}) {
      return global_min_locked() == best ? best : -1;
    }
  }
  return best;
}

void EpochScheduler::pump_queue_locked() {
  if (queue_.empty()) return;
  for (CommitNode* n = queue_.take_all(); n != nullptr;) {
    // Read `next` before applying: once applied, the owning fiber may be
    // resumed (by an executor that serializes after us on mu_) and push
    // the node again.
    CommitNode* const next = n->next.load(std::memory_order_relaxed);
    RankState& s = states_[n->rank];
    switch (n->op) {
      case CommitOp::kParkSlot:
        s.slot_fn = n->fn;
        s.phase = Phase::kParkedSlot;
        break;
      case CommitOp::kYieldSegment:
        end_segment_locked(n->rank);
        s.key = n->key;
        pending_q_.invalidate(n->rank);
        pending_q_.push(s.key, n->rank);
        s.phase = Phase::kStartable;
        break;
    }
    n = next;
  }
}

void EpochScheduler::drain_commits_locked() {
  pump_queue_locked();
  const int g = global_min_locked();
  if (g < 0) return;
  RankState& s = states_[static_cast<std::size_t>(g)];
  if (s.phase != Phase::kParkedSlot) return;
  token_ = g;
  try {
    (*s.slot_fn)();
  } catch (...) {
    s.slot_error = std::current_exception();
  }
  s.slot_fn = nullptr;
  // The token holder stays the global minimum, so nothing else drains
  // until its segment ends; slots that wait behind it drain from there.
  s.phase = Phase::kReadyResume;
}

void EpochScheduler::end_segment_locked(unsigned rank) {
  if (token_ == static_cast<int>(rank)) token_ = -1;
}

void EpochScheduler::sweep_locked() {
  for (unsigned n = 0; n < nodes_.size(); ++n) {
    NodeState& ns = nodes_[n];
    if (ns.active || ns.residents.empty()) continue;
    if (pick_local_locked(n) < 0) continue;
    ns.active = true;
    ++active_nodes_;
    pool_.post([this, n] { node_loop(n); });
  }
}

void EpochScheduler::node_loop(unsigned node) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Fibers on other nodes may have published transitions lock-free
    // since the last holder pumped; apply them before picking.
    pump_queue_locked();
    // Honor request_stop() promptly: segments end here constantly, and
    // make_ready/on_ready need mu_, which we hold.
    if (machine_.service_stop()) sweep_locked();
    const int r = pick_local_locked(node);
    if (r < 0) break;
    RankState& s = states_[static_cast<std::size_t>(r)];
    s.phase = Phase::kRunning;
    if (!s.fiber) {
      const unsigned rank = static_cast<unsigned>(r);
      s.fiber = std::make_unique<Fiber>(machine_.config().fiber_stack_bytes,
                                        [this, rank] { fiber_main(rank); });
    }
    Fiber* fiber = s.fiber.get();
    lock.unlock();
    fiber->resume();
    lock.lock();
    // The segment ended in a yield/park/terminal; commits it enabled (and
    // wakes from those commits) may put other nodes — or this one — back
    // in business.
    drain_commits_locked();
    sweep_locked();
  }
  nodes_[node].active = false;
  if (--active_nodes_ == 0) cv_main_.notify_all();
}

void EpochScheduler::run_at_slot(unsigned rank, const std::function<void()>& fn) {
  RankState& s = states_[rank];
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: publish the park lock-free and get off the mutex. Until
    // the holder pumps, this rank still looks kRunning at its frozen key —
    // strictly more conservative than kParkedSlot (drain stalls at it
    // instead of executing it), so no later slot can jump the order. Our
    // park returns control to our node executor, which locks and pumps,
    // so the transition cannot strand.
    s.qnode.op = CommitOp::kParkSlot;
    s.qnode.fn = &fn;
    queue_.push(&s.qnode);
    s.fiber->park();
    // Same sequencing argument as the locked path below: the drain wrote
    // slot_error under mu_ before our executor resumed us.
    std::exception_ptr err = std::move(s.slot_error);
    s.slot_error = nullptr;
    if (err) std::rethrow_exception(err);
    return;
  }
  s.phase = Phase::kParkedSlot;
  s.slot_fn = &fn;
  drain_commits_locked();  // fast path: we may be the global minimum already
  if (s.phase == Phase::kReadyResume) {
    s.phase = Phase::kRunning;
    std::exception_ptr err = std::move(s.slot_error);
    s.slot_error = nullptr;
    sweep_locked();  // our commit may have woken remote ranks
    lock.unlock();
    if (err) std::rethrow_exception(err);
    return;
  }
  sweep_locked();
  lock.unlock();
  s.fiber->park();
  // Resumed by our node's executor after the coordinator drained our slot.
  // The drain wrote slot_error under mu_, the executor locked mu_ before
  // resuming us on its own OS thread: sequenced, no lock needed here.
  std::exception_ptr err = std::move(s.slot_error);
  s.slot_error = nullptr;
  if (err) std::rethrow_exception(err);
}

void EpochScheduler::yield_segment(unsigned rank) {
  RankState& s = states_[rank];
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: publish the yield lock-free (the new key rides in the
    // node; reading our own core clock needs no lock) and park. We forgo
    // the keep-running fast path — the executor re-dispatches us once the
    // transition is pumped.
    s.qnode.op = CommitOp::kYieldSegment;
    s.qnode.key = machine_.ranks_[rank]->ctx->core().now();
    queue_.push(&s.qnode);
    s.fiber->park();
    return;
  }
  end_segment_locked(rank);
  s.key = machine_.ranks_[rank]->ctx->core().now();
  pending_q_.invalidate(rank);
  pending_q_.push(s.key, rank);
  s.phase = Phase::kStartable;
  drain_commits_locked();
  // Fast path: if this rank is still what the node would dispatch next,
  // keep running without a fiber switch.
  const bool self_next = pick_local_locked(s.node) == static_cast<int>(rank);
  if (self_next) s.phase = Phase::kRunning;
  sweep_locked();
  lock.unlock();
  if (!self_next) s.fiber->park();
}

void EpochScheduler::block_fiber(unsigned rank) {
  RankState& s = states_[rank];
  // Deliberately NOT queued lock-free: a commit that wakes this rank
  // (on_ready) while the block transition sat unpumped would see it
  // kRunning and drop the wake, stranding the fiber. Blocks are rare
  // (recv/collective waits) — the mutex stays.
  std::unique_lock<std::mutex> lock(mu_);
  end_segment_locked(rank);
  s.phase = Phase::kBlocked;
  pending_q_.invalidate(rank);
  drain_commits_locked();  // we left the pending set; commits may proceed
  sweep_locked();
  lock.unlock();
  s.fiber->park();
}

void EpochScheduler::on_ready(unsigned rank) {
  // Called from inside a commit or stall resolution, lock already held.
  RankState& s = states_[rank];
  if (s.phase != Phase::kBlocked) return;  // already pending
  s.key = machine_.ranks_[rank]->ctx->core().now();
  s.phase = Phase::kStartable;
  pending_q_.invalidate(rank);
  pending_q_.push(s.key, rank);
}

void EpochScheduler::fiber_main(unsigned rank) {
  Machine::Rank& self = *machine_.ranks_[rank];
  try {
    if (machine_.aborting_.load(std::memory_order_relaxed)) throw AbortRun{};
    program_(*self.ctx);
    self.status = Machine::Status::kFinished;
  } catch (const AbortRun&) {
    self.status = Machine::Status::kFailed;
  } catch (const NodeDeathFault& death) {
    // Death bookkeeping mutates shared lists and obs counters: commit it
    // at this rank's slot (faults imply strict mode, so the slot is
    // immediate — same point in the order the serial dispatcher records
    // it at).
    const bool inherited = death.inherited;
    run_at_slot(rank,
                [this, rank, inherited] {
                  machine_.record_rank_death(rank, inherited);
                });
  } catch (...) {
    self.status = Machine::Status::kFailed;
    self.error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  end_segment_locked(rank);
  states_[rank].phase = Phase::kTerminal;
  pending_q_.invalidate(rank);
  ++terminal_count_;
  drain_commits_locked();
  sweep_locked();
  cv_main_.notify_all();
  lock.unlock();
  // Returning unwinds the fiber back into its node executor.
}

void EpochScheduler::run() {
  const unsigned n = machine_.num_ranks();
  std::unique_lock<std::mutex> lock(mu_);
  sweep_locked();
  for (;;) {
    cv_main_.wait(lock, [this, n] {
      return terminal_count_ == n || active_nodes_ == 0;
    });
    if (terminal_count_ == n) break;
    // No executor is active: either a wake raced the last node_loop exit,
    // or nobody can run at all. A pending stop must be serviced before
    // resolve_stall, or a stop during a full block would be misread as a
    // deadlock.
    machine_.service_stop();
    drain_commits_locked();
    sweep_locked();
    if (active_nodes_ > 0) continue;
    if (terminal_count_ == n) break;
    std::string diag;
    const Machine::StallOutcome out = machine_.resolve_stall(diag);
    if (out == Machine::StallOutcome::kAllDone) break;
    if (out == Machine::StallOutcome::kDeadlock) deadlock_diag_ = diag;
    // kProgress / kDeadlock / kAbortFailure all woke ranks via
    // make_ready; dispatch them (deadlock/abort victims unwind via
    // their wake flags).
    sweep_locked();
  }
  lock.unlock();
  if (!deadlock_diag_.empty()) throw std::runtime_error(deadlock_diag_);
}

}  // namespace bgp::rt

// A job submission on the daemon's control channel: machine configuration,
// workload, fault/FT/trace/obs options — the same knob set bgpc_run exposes
// as flags, so a daemon-hosted session can reproduce a batch run exactly.
// Parsed from the NDJSON control protocol with strict validation: unknown
// keys and malformed values are structured errors, never silent defaults.
#pragma once

#include <filesystem>
#include <optional>
#include <string>

#include "daemon/json.hpp"
#include "ft/ftypes.hpp"
#include "nas/runner.hpp"
#include "sys/mode.hpp"

namespace bgp::daemon {

struct JobSpec {
  /// Session name (path-safe: [A-Za-z0-9._-]); empty = daemon assigns one.
  std::string session;
  nas::Benchmark bench = nas::Benchmark::kCG;
  nas::ProblemClass cls = nas::ProblemClass::kS;
  unsigned nodes = 4;
  sys::OpMode mode = sys::OpMode::kVnm;
  unsigned ranks = 0;  ///< 0 = all the partition hosts

  unsigned deaths = 0;
  u64 fault_seed = 1;
  ft::FtParams ftp;

  bool trace = false;
  cycles_t interval_cycles = 10'000;
  std::string preset = "default";

  bool obs = false;

  /// Periodic snapshot publication period in simulated cycles; nullopt =
  /// the daemon's default, 0 = final-only snapshots.
  std::optional<cycles_t> snapshot_period_cycles;

  /// Ranks this job will run (after mode/override resolution).
  [[nodiscard]] unsigned effective_ranks() const {
    const unsigned capacity = nodes * sys::processes_per_node(mode);
    return ranks == 0 ? capacity : ranks;
  }

  /// The run this job describes, with its dumps, traces and span files in
  /// `dir`. A session runs it through nas::Run, the path bgpc_run takes.
  [[nodiscard]] nas::RunConfig run_config(
      const std::filesystem::path& dir) const;

  /// Strict parse of a control-protocol submit object. Throws
  /// json::JsonError (with a human detail) on unknown keys or bad values.
  /// The retired "sched" ("serial"|"parallel") and "jobs" (unsigned) keys
  /// are validated and ignored, so journals that carry them still replay.
  [[nodiscard]] static JobSpec from_json(const json::Value& v);
  /// The wire form (round-trips through from_json).
  [[nodiscard]] json::Value to_json() const;
};

/// Admission-control budgets, enforced per submit.
struct Quotas {
  unsigned max_sessions = 8;        ///< concurrently queued/running
  unsigned max_ranks = 1024;        ///< per session
  u64 max_resident_bytes = u64{2} << 30;  ///< sum over live sessions
};

/// Deterministic resident-memory model for admission control: the simulated
/// L3 + DDR structures per node, a fiber stack per rank, and the snapshot
/// file mapping. Intentionally a coarse upper-bound model — the
/// point is a stable, explainable admission decision.
[[nodiscard]] u64 estimate_resident_bytes(const JobSpec& spec);

/// True when `name` is a safe session name (nonempty, [A-Za-z0-9._-],
/// no leading dot, at most 64 chars).
[[nodiscard]] bool valid_session_name(const std::string& name);

}  // namespace bgp::daemon

// The one instrumented-run path: build the machine, link the interface
// library into "MPI" (counters start in MPI_Init, every node dumps at
// MPI_Finalize), run the kernel, and collect the per-node dumps. bgpc_run,
// bgpc_trace, the bgpcd sessions, the bench harnesses and the examples all
// run a benchmark through here; a run is fully described by one RunConfig
// value.
#pragma once

#include <memory>

#include "core/session.hpp"
#include "fault/fault.hpp"
#include "ft/ftcomm.hpp"
#include "nas/kernel.hpp"
#include "postproc/report.hpp"

namespace bgp::nas {

struct RunConfig {
  Benchmark bench = Benchmark::kEP;
  ProblemClass cls = ProblemClass::kW;
  /// Partition size, operating mode, boot and compiler options and rank
  /// override (the paper's 121 ranks for SP/BT).
  rt::MachineConfig machine{};
  /// Interface-library options: dump directory, tracing, flight recorder.
  /// Dumps stay in memory unless `write_dumps` is set. The run overwrites
  /// `app_name` with the benchmark's name and `fault` with its own
  /// injector.
  pc::Options options = [] {
    pc::Options o;
    o.write_dumps = false;
    return o;
  }();
  /// Faults the run injects (node deaths, dump and counter faults), owned
  /// by the run. Empty = a fault-free run.
  fault::FaultPlan fault{};
  /// ULFM-style survivor recovery. Disabled (the default), a node death
  /// aborts its ranks and strands blocked peers; enabled, the kernel runs
  /// guarded and survivors recover, finalize and dump.
  ft::FtParams ft{};

  bool operator==(const RunConfig&) const = default;
};

struct RunOutput {
  std::vector<pc::NodeDump> dumps;  ///< per-node counter dumps
  cycles_t elapsed = 0;             ///< wall clock of the slowest node
  KernelResult result;              ///< kernel verification outcome
  post::AppRecord record;           ///< standard metrics (run_benchmark)
  std::vector<unsigned> dead_nodes;        ///< nodes lost during the run
  std::vector<ft::RecoveryEvent> recovery; ///< machine recovery log (FT)
  /// The machine was stopped (rt::RunStopped): traces are sealed and every
  /// initialized node wrote a checkpoint dump.
  bool stopped = false;
};

/// `deaths` random node deaths on a `nodes`-node partition, drawn from
/// `seed` (bgpc_run --deaths, bgpc_trace --kill-nodes, a bgpcd job's
/// "deaths"). Zero deaths is the empty plan.
[[nodiscard]] fault::FaultPlan node_deaths(u64 seed, unsigned nodes,
                                           unsigned deaths);

/// One instrumented run. The constructor builds the machine, the fault
/// injector, the linked session and the kernel; callers may attach a
/// snapshot publisher, print a banner or publish a stop handle through
/// machine()/session() before calling run() once.
class Run {
 public:
  explicit Run(RunConfig config);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  [[nodiscard]] const RunConfig& config() const noexcept { return config_; }
  [[nodiscard]] rt::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] pc::Session& session() noexcept { return session_; }

  /// Run the rank program — plain, or FT-guarded when `ft.enabled` — with
  /// the `region.<APP>` span around the kernel. A stop seals every trace
  /// and checkpoint-dumps the initialized nodes instead of throwing.
  /// Leaves `record` empty.
  RunOutput run();

  /// The run succeeded: its kernel verified or, for an FT run that lost
  /// nodes (the dead ranks never contributed, so nothing can verify),
  /// every survivor wrote a clean dump.
  [[nodiscard]] bool succeeded(const RunOutput& out) const;

 private:
  /// config_.options with the run's app name and injector filled in.
  [[nodiscard]] pc::Options session_options();

  RunConfig config_;
  fault::FaultInjector injector_;
  rt::Machine machine_;
  pc::Session session_;
  std::unique_ptr<Kernel> kernel_;
};

/// Run one benchmark fully instrumented, sanity-check the dumps and compute
/// the standard metrics record (paper §IV).
[[nodiscard]] RunOutput run_benchmark(const RunConfig& config);

}  // namespace bgp::nas

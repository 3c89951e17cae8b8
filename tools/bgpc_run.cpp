// bgpc_run — launch an instrumented NAS benchmark on a simulated Blue
// Gene/P partition (the moral equivalent of the paper's job submission):
// pick the benchmark, partition size, operating mode, problem class, boot
// options and compiler option set; the interface library is linked into
// MPI and per-node dump files are written for bgpc_mine. --trace
// additionally attaches the time-series sampler and writes .bgpt trace
// files for bgpc_trace --mine-only. The --obs-* flags attach the flight
// recorder and export a Chrome trace / Prometheus metrics view of the run
// (inspect span files with bgpc_obs).
//
//   bgpc_run BENCH [options]       (see --help for the full flag list)
//   bgpc_run --list                list benchmarks, modes, classes, presets
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "cli.hpp"
#include "common/strfmt.hpp"
#include "daemon/publisher.hpp"
#include "nas/runner.hpp"

using namespace bgp;

namespace {

/// SIGINT/SIGTERM turn into a cooperative Machine stop: the dispatcher
/// finishes the instruction block in flight, traces are sealed and every
/// initialized node checkpoint-dumps through the atomic write path, so an
/// interrupted run leaves minable files instead of torn ones.
std::atomic<rt::Machine*> g_machine{nullptr};
volatile std::sig_atomic_t g_signal = 0;

void on_stop_signal(int sig) {
  g_signal = sig;
  // Both the load and request_stop() are lock-free atomics —
  // async-signal-safe.
  if (rt::Machine* m = g_machine.load(std::memory_order_relaxed)) {
    m->request_stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  nas::RunConfig cfg;
  cfg.options.dump_dir = "bgpc_dumps";
  cfg.options.trace.trace_dir = cfg.options.dump_dir;
  cfg.options.write_dumps = true;
  unsigned deaths = 0;
  u64 fault_seed = 1;
  cli::ObsArgs obs_args;
  std::filesystem::path snapshot_file;
  daemon::PublisherConfig snap_cfg;
  sys::BootOptions& boot = cfg.machine.boot;
  trace::TraceConfig& tc = cfg.options.trace;

  cli::FlagSet fs("bgpc_run", "BENCH");
  fs.flag("list", "list benchmarks, modes, classes and event presets", [] {
    cli::list_choices();
    std::printf("fault tolerance: --deaths=K --fault-seed=S inject K node "
                "deaths;\n  --ft enables ULFM-style survivor recovery "
                "(revoke/agree/shrink),\n  --ft-detect-latency=N sets the "
                "failure-detection latency in cycles (default %llu)\n",
                static_cast<unsigned long long>(ft::FtParams{}.detect_latency));
    std::exit(0);
  });
  cli::add_run_flags(fs, cfg, fault_seed);
  fs.value("l3", "MB", "L3 size in MiB, 0 disables (default 8)",
           [&](const char* v) {
             boot.l3_size_bytes = cli::parse_u64("--l3", v) * MiB;
           });
  fs.value("prefetch", "D", "L2 prefetch depth, 0 disables (default 2)",
           [&](const char* v) {
             const unsigned d = cli::parse_unsigned("--prefetch", v);
             boot.prefetch.enabled = d > 0;
             boot.prefetch.depth = d;
           });
  fs.value("opt", "FLAGS", "compiler options, e.g. \"-O5 -qarch440d\"",
           [&](const char* v) { cfg.machine.opt = opt::OptConfig::parse(v); });
  fs.toggle("trace", "enable time-series tracing", &tc.enabled);
  fs.unsigned_value("deaths", "K",
                    "inject K random node deaths (see --fault-seed)", &deaths);
  fs.toggle("ft",
            "ULFM-style survivor recovery: detect the deaths, "
            "revoke/agree/shrink, survivors finalize and dump",
            &cfg.ft.enabled);
  fs.u64_value("ft-detect-latency", "N",
               "failure-detection latency in cycles (default 2000)",
               &cfg.ft.detect_latency);
  fs.path_value("snapshot-file", "PATH",
                "publish live counter snapshots to this mmap-able file "
                "(attach with bgpc_mine/bgpc_obs --attach)",
                &snapshot_file);
  fs.duration_cycles_value(
      "snapshot-period", "DUR",
      "snapshot publication period as simulated time with a unit suffix "
      "(default 500us; needs --snapshot-file)",
      &snap_cfg.period_cycles);
  cli::add_obs_flags(fs, obs_args);

  if (argc < 2) {
    fs.print_usage(stderr);
    return 2;
  }
  if (argv[1][0] == '-') {
    // No benchmark given: --list/--help/--version are still fine; anything
    // else is an error (parse_one reports it).
    if (const auto rc = fs.parse(argc, argv, 1)) return *rc;
    fs.print_usage(stderr);
    return 2;
  }

  try {
    cfg.bench = nas::parse_benchmark(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpc_run: %s\n", e.what());
    fs.print_usage(stderr);
    return 2;
  }
  if (const auto rc = fs.parse(argc, argv, 2)) return *rc;

  const std::filesystem::path& dump_dir = cfg.options.dump_dir;
  std::filesystem::create_directories(dump_dir);
  const unsigned nodes = cfg.machine.num_nodes;
  cfg.fault = nas::node_deaths(fault_seed, nodes, deaths);
  cfg.options.obs = obs_args.config;
  const std::string app(nas::name(cfg.bench));
  nas::Run run(cfg);
  rt::Machine& machine = run.machine();
  pc::Session& session = run.session();

  std::printf("%s class %s | %u nodes %s (%u ranks) | L3 %s | prefetch %s | "
              "%s%s\n",
              app.c_str(), std::string(nas::name(cfg.cls)).c_str(), nodes,
              std::string(sys::to_string(cfg.machine.mode)).c_str(),
              machine.num_ranks(),
              boot.l3_size_bytes
                  ? human_bytes((double)boot.l3_size_bytes).c_str()
                  : "off",
              boot.prefetch.enabled
                  ? strfmt("depth %u", boot.prefetch.depth).c_str()
                  : "off",
              cfg.machine.opt.name().c_str(),
              tc.enabled
                  ? strfmt(" | tracing every %llu cycles (%s)",
                           static_cast<unsigned long long>(tc.interval_cycles),
                           tc.preset.c_str())
                        .c_str()
                  : "");

  if (deaths > 0) {
    std::printf("fault plan (seed %llu): %u node death(s)%s\n",
                static_cast<unsigned long long>(fault_seed), deaths,
                cfg.ft.enabled ? ", FT recovery enabled" : "");
  }

  std::unique_ptr<daemon::SnapshotPublisher> publisher;
  if (!snapshot_file.empty()) {
    publisher = std::make_unique<daemon::SnapshotPublisher>(
        machine, snapshot_file, app, app, snap_cfg);
    if (session.flight_recorder() != nullptr) {
      publisher->set_metrics_source(&session.flight_recorder()->metrics());
    }
    std::printf("publishing snapshots to %s every %llu cycles\n",
                snapshot_file.string().c_str(),
                static_cast<unsigned long long>(snap_cfg.period_cycles));
  }

  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  g_machine.store(&machine, std::memory_order_relaxed);
  const nas::RunOutput out = run.run();
  g_machine.store(nullptr, std::memory_order_relaxed);
  if (publisher) publisher->publish_final();

  if (out.stopped) {
    std::printf("interrupted at %llu cycles: sealed %zu trace(s), wrote %zu "
                "checkpoint dump(s) to %s\n",
                static_cast<unsigned long long>(out.elapsed),
                session.trace_files().size(), session.dump_files().size(),
                dump_dir.string().c_str());
    return 128 + static_cast<int>(g_signal);
  }

  const std::vector<unsigned>& dead = out.dead_nodes;
  if (cfg.ft.enabled && !dead.empty()) {
    std::printf("verification: SKIPPED (degraded FT run: %zu node(s) died, "
                "the dead ranks never contributed)\n",
                dead.size());
  } else {
    std::printf("verification: %s (%s)\n",
                out.result.verified ? "PASSED" : "FAILED",
                out.result.detail.c_str());
  }
  if (!out.recovery.empty()) {
    std::printf("recovery log (%zu events):\n", out.recovery.size());
    for (const ft::RecoveryEvent& e : out.recovery) {
      std::printf("  %s\n", ft::describe(e).c_str());
    }
  }
  if (!dead.empty()) {
    std::printf("%zu node(s) lost:", dead.size());
    for (const unsigned n : dead) std::printf(" %u", n);
    std::printf("  (survivor dumps: %zu)\n", session.dump_files().size());
  }
  std::printf("simulated time: %.3f ms (%llu cycles on the slowest node)\n",
              1e3 * cycles_to_seconds(out.elapsed),
              static_cast<unsigned long long>(out.elapsed));
  std::printf("wrote %zu dump files to %s — mine them with:\n"
              "  bgpc_mine %s %s --metrics=metrics.csv%s\n",
              session.dump_files().size(), dump_dir.string().c_str(),
              dump_dir.string().c_str(), app.c_str(),
              cfg.ft.enabled
                  ? strfmt(" --ft --expected-nodes=%u", nodes).c_str()
                  : "");
  if (tc.enabled) {
    std::printf("wrote %zu trace files — mine them with:\n"
                "  bgpc_trace --mine-only %s %s --phases=phases.csv\n",
                session.trace_files().size(), dump_dir.string().c_str(),
                app.c_str());
  }
  const int obs_rc =
      cli::write_obs_outputs(obs_args, session.flight_recorder(), app);
  if (obs_args.config.enabled && !session.span_files().empty()) {
    std::printf("wrote %zu span files — inspect them with:\n"
                "  bgpc_obs %s %s\n",
                session.span_files().size(), dump_dir.string().c_str(),
                app.c_str());
  }
  return run.succeeded(out) && obs_rc == 0 ? 0 : 1;
}

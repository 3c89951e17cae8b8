// bgpc_trace — time-series counter tracing end to end: run an instrumented
// NAS benchmark with the threshold-driven sampler attached to every node,
// then mine the per-node trace files into a per-interval timeline and a
// change-point phase report (MFLOPS, DDR bandwidth and instruction-mix
// drift over the run). With --mine-only it skips the run and mines an
// existing trace directory, including the `.bgpt.partial` leftovers of
// nodes that died mid-run (the report carries a coverage annotation).
//
//   bgpc_trace BENCH [options]                 run + trace + mine
//   bgpc_trace --mine-only DIR APP [options]   mine existing traces
//   bgpc_trace --list                          list benchmarks, modes, presets
//
// See --help for the full flag list (the run flags are bgpc_run's, from
// cli::add_run_flags; the mining flags are shared between both modes).
#include <cstdio>
#include <filesystem>
#include <string>

#include "cli.hpp"
#include "nas/runner.hpp"
#include "postproc/timeline.hpp"

using namespace bgp;

namespace {

struct MiningArgs {
  post::TimelineOptions opts;
  std::string timeline_file;
  std::string phases_file;
  bool quiet = false;
};

/// The mining flags, shared between run+mine and --mine-only.
void add_mining_flags(cli::FlagSet& fs, MiningArgs& m) {
  fs.string_value("timeline", "FILE", "write the per-interval CSV",
                  &m.timeline_file);
  fs.string_value("phases", "FILE", "write the per-phase CSV", &m.phases_file);
  fs.unsigned_value("expected-nodes", "N",
                    "traces the run should have produced (default: infer)",
                    &m.opts.expected_nodes);
  fs.double_value("change-threshold", "F",
                  "phase-detection sensitivity (default 0.35)", 0.0, 5.0,
                  &m.opts.change_threshold);
  fs.value("min-phase", "N", "minimum phase length in intervals (default 4)",
           [&m](const char* v) {
             m.opts.min_phase_intervals = cli::parse_positive("--min-phase", v);
           });
  fs.flag("sealed-only", "ignore .bgpt.partial files",
          [&m] { m.opts.include_partial = false; });
  fs.toggle("quiet", "suppress the stdout report", &m.quiet);
}

int report_and_write(const post::TimelineReport& report, const MiningArgs& m) {
  if (!m.quiet) {
    std::fputs(post::render_timeline(report).c_str(), stdout);
  }
  if (!m.timeline_file.empty()) {
    const std::string text = post::interval_csv(report);
    std::FILE* f = std::fopen(m.timeline_file.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", m.timeline_file.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (!m.quiet) std::printf("wrote %s\n", m.timeline_file.c_str());
  }
  if (!m.phases_file.empty()) {
    const std::string text = post::phase_csv(report);
    std::FILE* f = std::fopen(m.phases_file.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", m.phases_file.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (!m.quiet) std::printf("wrote %s\n", m.phases_file.c_str());
  }
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  MiningArgs mining;

  if (argc >= 2 && cli::match_flag(argv[1], "list")) return cli::list_choices();
  if (argc >= 2 && cli::match_flag(argv[1], "mine-only")) {
    cli::FlagSet fs("bgpc_trace --mine-only", "DIR APP");
    add_mining_flags(fs, mining);
    if (argc < 4) {
      fs.print_usage(stderr);
      return 2;
    }
    const std::filesystem::path dir = argv[2];
    const std::string app = argv[3];
    if (const auto rc = fs.parse(argc, argv, 4)) return *rc;
    return report_and_write(post::mine_timeline(dir, app, mining.opts),
                            mining);
  }

  nas::RunConfig cfg;
  cfg.cls = nas::ProblemClass::kS;
  cfg.options.dump_dir = "bgpc_traces";
  cfg.options.trace.trace_dir = cfg.options.dump_dir;
  cfg.options.trace.enabled = true;
  cfg.options.write_dumps = true;
  unsigned kill_nodes = 0;
  u64 fault_seed = 1;
  cli::ObsArgs obs_args;
  trace::TraceConfig& tc = cfg.options.trace;

  cli::FlagSet fs("bgpc_trace", "BENCH");
  fs.flag("list", "list benchmarks, modes and event presets",
          [] { std::exit(cli::list_choices()); });
  cli::add_run_flags(fs, cfg, fault_seed);
  fs.value("buffer", "N",
           "per-node ring capacity in intervals (default 4096)",
           [&](const char* v) {
             tc.buffer_capacity = cli::parse_positive("--buffer", v);
           });
  fs.unsigned_value("kill-nodes", "N",
                    "kill N random nodes mid-run (fault injection)",
                    &kill_nodes);
  add_mining_flags(fs, mining);
  cli::add_obs_flags(fs, obs_args);

  if (argc < 2) {
    fs.print_usage(stderr);
    return 2;
  }
  if (argv[1][0] == '-') {
    if (const auto rc = fs.parse(argc, argv, 1)) return *rc;
    fs.print_usage(stderr);
    return 2;
  }

  try {
    cfg.bench = nas::parse_benchmark(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpc_trace: %s\n", e.what());
    fs.print_usage(stderr);
    return 2;
  }
  if (const auto rc = fs.parse(argc, argv, 2)) return *rc;

  const std::filesystem::path& dir = cfg.options.dump_dir;
  std::filesystem::create_directories(dir);
  const unsigned nodes = cfg.machine.num_nodes;
  cfg.fault = nas::node_deaths(fault_seed, nodes, kill_nodes);
  cfg.options.obs = obs_args.config;
  const std::string app(nas::name(cfg.bench));
  nas::Run run(cfg);

  std::printf("%s class %s | %u nodes %s (%u ranks) | interval %llu cycles | "
              "events %s | buffer %zu\n",
              app.c_str(), std::string(nas::name(cfg.cls)).c_str(), nodes,
              std::string(sys::to_string(cfg.machine.mode)).c_str(),
              run.machine().num_ranks(),
              static_cast<unsigned long long>(tc.interval_cycles),
              tc.preset.c_str(), tc.buffer_capacity);

  const nas::RunOutput out = run.run();
  if (!out.dead_nodes.empty()) {
    std::printf("%zu node(s) died mid-run — their traces are truncated\n",
                out.dead_nodes.size());
  }
  std::printf("sealed %zu trace file(s) in %s\n",
              run.session().trace_files().size(), dir.string().c_str());

  const int obs_rc = cli::write_obs_outputs(
      obs_args, run.session().flight_recorder(), app, mining.quiet);

  mining.opts.expected_nodes =
      mining.opts.expected_nodes == 0 ? nodes : mining.opts.expected_nodes;
  const post::TimelineReport report =
      post::mine_timeline(dir, app, mining.opts);
  const int mine_rc = report_and_write(report, mining);
  return out.result.verified && obs_rc == 0 ? mine_rc : 1;
}

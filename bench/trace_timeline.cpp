// Tracing-subsystem harness: run NAS kernels with threshold-driven counter
// tracing on, mine the per-node traces into a merged timeline, and print
// the recovered phase structure. The paper characterizes workloads from
// whole-run aggregates; the time-series layer shows the same metrics
// resolved over execution time.
#include <filesystem>

#include "bench/util.hpp"
#include "nas/runner.hpp"
#include "postproc/timeline.hpp"

using namespace bgp;

namespace {

struct TimelineOutcome {
  post::TimelineReport report;
  bool verified = false;
};

TimelineOutcome trace_one(nas::Benchmark bench, nas::ProblemClass cls,
                          unsigned nodes, const std::filesystem::path& dir) {
  nas::RunConfig cfg;
  cfg.bench = bench;
  cfg.cls = cls;
  cfg.machine.num_nodes = nodes;
  cfg.machine.mode = sys::OpMode::kSmp1;
  cfg.options.dump_dir = dir;
  cfg.options.trace.enabled = true;
  cfg.options.trace.interval_cycles = 4'000;
  cfg.options.trace.trace_dir = dir;
  const nas::RunOutput run = nas::Run(cfg).run();

  post::TimelineOptions mine;
  mine.expected_nodes = nodes;
  TimelineOutcome out;
  out.report = post::mine_timeline(dir, std::string(nas::name(bench)), mine);
  out.verified = run.result.verified;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Scale args{8, nas::ProblemClass::kS};
  for (int i = 1; i < argc; ++i) {
    if (!bench::parse_scale_flag(argv[i], args)) {
      std::fprintf(stderr, "usage: %s [--nodes=N] [--class=S|W|A]\n", argv[0]);
      return 2;
    }
  }
  bench::banner("Timeline (tracing subsystem)",
                "Phase structure mined from per-node counter traces",
                "iterative kernels alternate compute and communicate; the "
                "change-point miner should recover a multi-phase timeline "
                "with full coverage and plausible per-phase MFLOPS");

  int rc = 0;
  for (const nas::Benchmark b : {nas::Benchmark::kFT, nas::Benchmark::kCG}) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        strfmt("bgpc_trace_timeline_bench_%s", std::string(nas::name(b)).c_str());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const TimelineOutcome out = trace_one(b, args.cls, args.nodes, dir);
    std::filesystem::remove_all(dir);

    std::printf("\n%s class %s, %u nodes SMP/1, interval 4000 cycles:\n",
                std::string(nas::name(b)).c_str(),
                std::string(nas::name(args.cls)).c_str(), args.nodes);
    std::fputs(post::render_timeline(out.report).c_str(), stdout);

    const bool shape_ok = out.report.ok && out.report.phases.size() >= 2 &&
                          out.report.coverage.mined == args.nodes &&
                          out.verified;
    if (!shape_ok) {
      std::printf("FAIL: expected a verified run mining to >= 2 phases with "
                  "full coverage\n");
      rc = 1;
    }
  }
  return rc;
}

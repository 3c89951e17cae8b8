// Host-scaling curve for the parallel epoch scheduler
// (docs/parallel-scheduler.md): run one benchmark on one worker
// (--sched=serial), then under --sched=parallel at each worker count in
// the --jobs list, and report host wall-clock, speedup over one worker,
// and the simulated cycle count of every run. The simulated cycles must be identical across all
// rows — the scheduler trades host time, never simulated behaviour — and
// the harness fails if they are not.
//
// Defaults reproduce the acceptance configuration (CG class A on 64 VNM
// nodes = 256 ranks); --nodes/--class/--jobs scale it down for quick runs.
// Speedup is only meaningful on a multi-core host: with one core the
// workers serialize and the curve is flat (the JSON records host_cores so
// readers can tell).
//
// With BGPC_BENCH_ARTIFACT_DIR set the same rows are written to
// $BGPC_BENCH_ARTIFACT_DIR/BENCH_scaling.json (the CI artifact); otherwise
// BENCH_scaling.json lands in the working directory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/util.hpp"
#include "nas/runner.hpp"

using namespace bgp;

namespace {

struct RunResult {
  double wall_ms = 0;
  cycles_t sim_cycles = 0;
  bool verified = false;
};

RunResult one_run(nas::Benchmark bench, nas::ProblemClass cls, unsigned nodes,
                  rt::SchedMode sched, unsigned jobs) {
  nas::RunConfig cfg;
  cfg.bench = bench;
  cfg.cls = cls;
  cfg.machine.num_nodes = nodes;
  cfg.machine.sched = sched;
  cfg.machine.jobs = jobs;
  nas::Run run(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  const nas::RunOutput out = run.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.sim_cycles = out.elapsed;
  r.verified = out.result.verified;
  return r;
}

std::vector<unsigned> parse_jobs_list(const char* v) {
  std::vector<unsigned> jobs;
  for (const char* p = v; *p != '\0';) {
    char* end = nullptr;
    const unsigned long j = std::strtoul(p, &end, 10);
    if (end == p || j == 0) {
      std::fprintf(stderr, "bad --jobs list: %s\n", v);
      std::exit(2);
    }
    jobs.push_back(static_cast<unsigned>(j));
    p = *end == ',' ? end + 1 : end;
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  nas::Benchmark bench = nas::Benchmark::kCG;
  nas::ProblemClass cls = nas::ProblemClass::kA;
  unsigned nodes = 64;
  bool allow_oversub = false;
  std::vector<unsigned> jobs_list = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes = static_cast<unsigned>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--class=", 8) == 0) {
      cls = nas::parse_class(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--bench=", 8) == 0) {
      bench = nas::parse_benchmark(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs_list = parse_jobs_list(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--allow-oversubscribed") == 0) {
      allow_oversub = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--bench=B] [--nodes=N] [--class=S|W|A] "
                   "[--jobs=1,2,4,8] [--allow-oversubscribed]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned host_cores = std::thread::hardware_concurrency();

  // Datapoints with more workers than host cores measure scheduler noise,
  // not scaling: skip them by default (they stay in the JSON as skipped),
  // or run-but-flag them under --allow-oversubscribed. host_cores == 0
  // means the host could not report a count — run everything, flag nothing.
  std::vector<unsigned> skipped_jobs;
  if (host_cores != 0 && !allow_oversub) {
    std::vector<unsigned> kept;
    for (const unsigned j : jobs_list) {
      (j > host_cores ? skipped_jobs : kept).push_back(j);
    }
    jobs_list = std::move(kept);
  }
  const auto oversubscribed = [&](unsigned j) {
    return host_cores != 0 && j > host_cores;
  };
  const unsigned ranks = nodes * sys::processes_per_node(sys::OpMode::kVnm);
  bench::banner("Host scaling (parallel epoch scheduler)",
                "wall-clock vs worker count at fixed simulated behaviour",
                "simulated cycles identical on every row; wall-clock falls "
                "with --jobs up to min(host cores, nodes)");
  std::printf("%s class %s | %u VNM nodes (%u ranks) | host cores %u\n",
              std::string(nas::name(bench)).c_str(),
              std::string(nas::name(cls)).c_str(), nodes, ranks, host_cores);
  for (const unsigned j : skipped_jobs) {
    std::printf("skipping jobs=%u: oversubscribed (host has %u cores; "
                "--allow-oversubscribed to run anyway)\n",
                j, host_cores);
  }
  std::printf("\n");
  if (jobs_list.empty()) {
    std::fprintf(stderr, "no runnable --jobs datapoints\n");
    return 2;
  }

  const RunResult serial =
      one_run(bench, cls, nodes, rt::SchedMode::kSerial, 0);

  bench::Table t({"scheduler", "jobs", "wall ms", "speedup vs jobs=1",
                  "sim cycles"});
  std::vector<RunResult> rows;
  for (const unsigned j : jobs_list) {
    rows.push_back(one_run(bench, cls, nodes, rt::SchedMode::kParallel, j));
  }
  const double base_ms = rows.front().wall_ms;

  auto cyc = [](cycles_t v) {
    return strfmt("%llu", static_cast<unsigned long long>(v));
  };
  t.row({"serial", "-", strfmt("%.1f", serial.wall_ms), "-",
         cyc(serial.sim_cycles)});
  bool cycles_ok = serial.verified;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.row({oversubscribed(jobs_list[i]) ? "parallel (oversub)" : "parallel",
           strfmt("%u", jobs_list[i]), strfmt("%.1f", rows[i].wall_ms),
           strfmt("%.2fx", base_ms / rows[i].wall_ms),
           cyc(rows[i].sim_cycles)});
    cycles_ok = cycles_ok && rows[i].verified &&
                rows[i].sim_cycles == serial.sim_cycles;
  }
  t.print();
  if (!cycles_ok) {
    std::printf("FAIL: simulated cycles differ across schedulers (or a run "
                "failed verification)\n");
  }

  std::string json = "{\n";
  json += strfmt("  \"bench\": \"%s\",\n",
                 std::string(nas::name(bench)).c_str());
  json += strfmt("  \"class\": \"%s\",\n",
                 std::string(nas::name(cls)).c_str());
  json += strfmt("  \"nodes\": %u,\n  \"ranks\": %u,\n  \"host_cores\": %u,\n",
                 nodes, ranks, host_cores);
  json += strfmt("  \"serial\": {\"wall_ms\": %.3f, \"sim_cycles\": %llu},\n",
                 serial.wall_ms,
                 static_cast<unsigned long long>(serial.sim_cycles));
  json += "  \"parallel\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += strfmt("    {\"jobs\": %u, \"wall_ms\": %.3f, "
                   "\"speedup_vs_jobs1\": %.3f, \"sim_cycles\": %llu, "
                   "\"oversubscribed\": %s}%s\n",
                   jobs_list[i], rows[i].wall_ms, base_ms / rows[i].wall_ms,
                   static_cast<unsigned long long>(rows[i].sim_cycles),
                   oversubscribed(jobs_list[i]) ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"skipped_oversubscribed\": [";
  for (std::size_t i = 0; i < skipped_jobs.size(); ++i) {
    json += strfmt("%s%u", i == 0 ? "" : ", ", skipped_jobs[i]);
  }
  json += "],\n";
  json += strfmt("  \"sim_cycles_identical\": %s\n}\n",
                 cycles_ok ? "true" : "false");

  std::filesystem::path out = "BENCH_scaling.json";
  if (const char* dir = std::getenv("BGPC_BENCH_ARTIFACT_DIR")) {
    std::filesystem::create_directories(dir);
    out = std::filesystem::path(dir) / "BENCH_scaling.json";
  }
  std::FILE* f = std::fopen(out.string().c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.string().c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out.string().c_str());
  return cycles_ok ? 0 : 1;
}

// The acceptance-run timer: time one instrumented run of CG class A on 64
// VNM nodes (256 ranks) through nas::Run and report its host wall-clock
// next to its simulated cycles. The harness fails if the run does not
// verify. --bench/--nodes/--class scale it down for quick runs.
//
// With BGPC_BENCH_ARTIFACT_DIR set the result is written to
// $BGPC_BENCH_ARTIFACT_DIR/BENCH_scaling.json (the CI artifact); otherwise
// BENCH_scaling.json lands in the working directory.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench/util.hpp"
#include "nas/runner.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  nas::RunConfig cfg;
  cfg.bench = nas::Benchmark::kCG;
  bench::Scale scale{64, nas::ProblemClass::kA};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench=", 8) == 0) {
      cfg.bench = nas::parse_benchmark(argv[i] + 8);
    } else if (!bench::parse_scale_flag(argv[i], scale)) {
      std::fprintf(stderr,
                   "usage: %s [--bench=B] [--nodes=N] [--class=S|W|A]\n",
                   argv[0]);
      return 2;
    }
  }
  cfg.cls = scale.cls;
  cfg.machine.num_nodes = scale.nodes;

  const unsigned nodes = cfg.machine.num_nodes;
  const unsigned ranks = nodes * sys::processes_per_node(cfg.machine.mode);
  const unsigned host_cores = std::thread::hardware_concurrency();
  const std::string bench_name(nas::name(cfg.bench));
  const std::string class_name(nas::name(cfg.cls));
  bench::banner("Acceptance run", "host wall-clock of one instrumented run",
                "the run verifies; simulated cycles are fixed per config");
  std::printf("%s class %s | %u VNM nodes (%u ranks) | host cores %u\n\n",
              bench_name.c_str(), class_name.c_str(), nodes, ranks,
              host_cores);

  nas::Run run(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const nas::RunOutput out = run.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const bool verified = out.result.verified;

  bench::Table t({"wall ms", "sim cycles", "verified"});
  t.row({strfmt("%.1f", wall_ms),
         strfmt("%llu", static_cast<unsigned long long>(out.elapsed)),
         verified ? "yes" : "no"});
  t.print();
  if (!verified) {
    std::printf("FAIL: the run did not verify: %s\n",
                out.result.detail.c_str());
  }

  std::string json = "{\n";
  json += strfmt("  \"bench\": \"%s\",\n  \"class\": \"%s\",\n",
                 bench_name.c_str(), class_name.c_str());
  json += strfmt("  \"nodes\": %u,\n  \"ranks\": %u,\n  \"host_cores\": %u,\n",
                 nodes, ranks, host_cores);
  json += strfmt("  \"wall_ms\": %.3f,\n  \"sim_cycles\": %llu,\n", wall_ms,
                 static_cast<unsigned long long>(out.elapsed));
  json += strfmt("  \"verified\": %s\n}\n", verified ? "true" : "false");

  const auto path = bench::write_bench_file("BENCH_scaling.json", json);
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.string().c_str());
  return verified ? 0 : 1;
}

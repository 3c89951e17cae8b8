// Explore a workload's sensitivity to the shared-L3 size and the L2
// prefetch depth (the hardware parameters the paper varies in §VII and
// flags as future work in §IX). Demonstrates the svchost-style boot options.
//
//   build/examples/l3_explorer [BENCH] [nodes]
#include <cstdio>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const nas::Benchmark bench =
      argc > 1 ? nas::parse_benchmark(argv[1]) : nas::Benchmark::kMG;
  // At least 4 nodes so both node-card parities exist: memory metrics come
  // from the odd-card (mode 1) nodes (paper's 512-events-per-run scheme).
  const unsigned nodes = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("%s, %u nodes VNM, class W — boot-option exploration\n\n",
              std::string(nas::name(bench)).c_str(), nodes);

  std::printf("%-14s %14s %14s %12s\n", "L3 size", "DDR traffic", "exec Mcyc",
              "L3 miss%");
  for (u64 mb : {0, 1, 2, 4, 8}) {
    nas::RunConfig cfg;
    cfg.bench = bench;
    cfg.cls = nas::ProblemClass::kW;
    cfg.machine.num_nodes = nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.boot.l3_size_bytes = mb * MiB;
    const auto out = nas::run_benchmark(cfg);
    std::printf("%-14s %14s %14.2f %11.1f%%\n",
                mb ? strfmt("%llu MiB", (unsigned long long)mb).c_str()
                   : "disabled",
                human_bytes(out.record.ddr_traffic_bytes).c_str(),
                out.record.exec_cycles / 1e6,
                100.0 * out.record.l3_read_miss_ratio);
  }

  std::printf("\n%-14s %14s %14s\n", "L2 prefetch", "DDR traffic",
              "exec Mcyc");
  for (unsigned depth : {0u, 2u, 8u}) {
    nas::RunConfig cfg;
    cfg.bench = bench;
    cfg.cls = nas::ProblemClass::kW;
    cfg.machine.num_nodes = nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.boot.prefetch.enabled = depth > 0;
    cfg.machine.boot.prefetch.depth = depth;
    const auto out = nas::run_benchmark(cfg);
    std::printf("%-14s %14s %14.2f\n",
                depth ? strfmt("depth %u", depth).c_str() : "off",
                human_bytes(out.record.ddr_traffic_bytes).c_str(),
                out.record.exec_cycles / 1e6);
  }
  return 0;
}

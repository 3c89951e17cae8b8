// Shared Virtual-Node-Mode vs SMP/1 comparison used by the Figure 12, 13
// and 14 harnesses. The paper compares the class C benchmarks with 128
// processes on 32 nodes (VNM) against the same 128 processes on 128 nodes
// (SMP/1, L3 reduced to 2 MB per node for a fair per-process cache): we run
// the same processes-count comparison at configurable scale.
#pragma once

#include "bench/util.hpp"

namespace bgp::bench {

struct ModePair {
  nas::Benchmark bench;
  nas::RunOutput vnm;
  nas::RunOutput smp;
};

/// Run every benchmark in both configurations. `vnm_nodes` VNM nodes host
/// 4x as many ranks; the SMP side gets 4x the node count so the rank count
/// matches.
inline std::vector<ModePair> run_mode_comparison(unsigned vnm_nodes,
                                                 nas::ProblemClass cls) {
  std::vector<ModePair> out;
  for (nas::Benchmark b : nas::all_benchmarks()) {
    ModePair mp;
    mp.bench = b;

    nas::RunConfig vnm;
    vnm.bench = b;
    vnm.cls = cls;
    vnm.machine.num_nodes = vnm_nodes;
    vnm.machine.mode = sys::OpMode::kVnm;
    vnm.machine.num_ranks_override =
        ranks_for(b, vnm_nodes, vnm.machine.mode);
    mp.vnm = nas::run_benchmark(vnm);

    nas::RunConfig smp;
    smp.bench = b;
    smp.cls = cls;
    smp.machine.num_nodes = vnm_nodes * 4;
    smp.machine.mode = sys::OpMode::kSmp1;
    // Paper §VIII: "we reduced the L3 cache size to 2 MB per node using the
    // svchost options" so one process sees the same cache as a VNM share.
    smp.machine.boot.l3_size_bytes = 2 * MiB;
    smp.machine.num_ranks_override =
        ranks_for(b, smp.machine.num_nodes, smp.machine.mode);
    mp.smp = nas::run_benchmark(smp);

    out.push_back(std::move(mp));
  }
  return out;
}

}  // namespace bgp::bench

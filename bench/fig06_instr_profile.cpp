// Figure 6: dynamic FP instruction profile of the NAS parallel benchmarks
// (fractions of single add-sub / mult / FMA / div and SIMD add-sub / FMA /
// mult), measured with the interface library in Virtual Node Mode. The
// paper runs class C with 128 processes (121 for SP/BT) on 32 nodes; pass
// --nodes=32 to match that scale.
#include "bench/util.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv, /*nodes=*/8,
                                              nas::ProblemClass::kW);
  bench::banner("Figure 6", "Dynamic FP instruction profile (VNM)",
                "MG and FT dominated by SIMD add-sub + SIMD FMA; EP, CG, IS, "
                "LU, SP, BT dominated by single FMA; div negligible");

  bench::Table t({"app", "ranks", "add-sub", "mult", "fma", "div",
                  "simd add-sub", "simd mult", "simd fma", "verified"});
  bool all_ok = true;
  for (nas::Benchmark b : nas::all_benchmarks()) {
    nas::RunConfig cfg;
    cfg.bench = b;
    cfg.cls = args.cls;
    cfg.machine.num_nodes = args.nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.num_ranks_override =
        bench::ranks_for(b, args.nodes, cfg.machine.mode);
    const auto out = nas::run_benchmark(cfg);
    all_ok = all_ok && out.result.verified;
    const auto& fp = out.record.fp;
    auto frac = [&](isa::FpOp op) {
      return strfmt("%5.1f%%", 100.0 * fp.fraction(op));
    };
    const unsigned ranks =
        cfg.machine.num_ranks_override
            ? cfg.machine.num_ranks_override
            : args.nodes * sys::processes_per_node(cfg.machine.mode);
    t.row({std::string(nas::name(b)), strfmt("%u", ranks),
           frac(isa::FpOp::kAddSub), frac(isa::FpOp::kMult),
           frac(isa::FpOp::kFma), frac(isa::FpOp::kDiv),
           frac(isa::FpOp::kSimdAddSub), frac(isa::FpOp::kSimdMult),
           frac(isa::FpOp::kSimdFma), out.result.verified ? "yes" : "NO"});
  }
  t.print();
  return all_ok ? 0 : 1;
}

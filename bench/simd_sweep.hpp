// Shared SIMD-vs-optimization sweep used by the Figure 7 (FT) and
// Figure 8 (MG) harnesses.
#pragma once

#include "bench/util.hpp"
#include "postproc/metrics.hpp"

namespace bgp::bench {


inline int run_simd_sweep(const char* figure, nas::Benchmark b, int argc,
                   char** argv) {
  const auto args = HarnessArgs::parse(argc, argv, /*nodes=*/4,
                                                   nas::ProblemClass::kW);
  banner(figure,
                strfmt("%s — SIMD instructions vs compiler optimization",
                       std::string(nas::name(b)).c_str())
                    .c_str(),
                "-qarch440d introduces large SIMD counts (zero without it); "
                "higher levels with 440d SIMDize the most; quad load/stores "
                "appear alongside");

  Table t({"option set", "simd add-sub", "simd mult", "simd fma",
                  "quad l/s fraction", "exec Mcycles", "verified"});
  bool all_ok = true;
  double simd_without_440d = 0, best_simd = 0;
  for (const auto& cfg_opt : opt::OptConfig::paper_set()) {
    nas::RunConfig cfg;
    cfg.bench = b;
    cfg.cls = args.cls;
    cfg.machine.num_nodes = args.nodes;
    cfg.machine.mode = sys::OpMode::kVnm;
    cfg.machine.opt = cfg_opt;
    const auto out = nas::run_benchmark(cfg);
    all_ok = all_ok && out.result.verified;
    const auto& fp = out.record.fp;
    if (!cfg_opt.qarch440d) {
      simd_without_440d += fp.simd_instructions();
    } else {
      best_simd = std::max(best_simd, fp.simd_instructions());
    }
    // Quad fraction needs the load/store profile.
    const post::Aggregate agg(out.dumps, 0);
    const auto ls = post::ls_profile(agg);
    t.row({cfg_opt.name(),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdAddSub], "%.0f"),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdMult], "%.0f"),
           fmt_double(fp.counts[(int)isa::FpOp::kSimdFma], "%.0f"),
           strfmt("%.1f%%", 100.0 * ls.quad_fraction()),
           fmt_double(out.record.exec_cycles / 1e6),
           out.result.verified ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nshape check: SIMD without -qarch440d = %.0f (expect 0), "
              "best SIMD with it = %.0f (expect > 0)\n",
              simd_without_440d, best_simd);
  return (all_ok && simd_without_440d == 0 && best_simd > 0) ? 0 : 1;
}


}  // namespace bgp::bench

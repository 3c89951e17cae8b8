// Ablation (paper §IX future work): "vary the hardware parameters like
// prefetch amount in L2 ... and conclude on the optimal values for the
// modern workloads". Sweeps the L2 stream-prefetcher depth and reports
// execution time and DDR traffic for the memory-sensitive kernels.
#include "bench/util.hpp"

using namespace bgp;

int main(int argc, char** argv) {
  const auto args = bench::HarnessArgs::parse(argc, argv, /*nodes=*/4,
                                              nas::ProblemClass::kW);
  bench::banner("Ablation A1", "L2 prefetch depth sweep (paper section IX)",
                "deeper sequential prefetch hides DDR latency for streaming "
                "kernels up to a knee; depth 0 disables the prefetcher");

  const std::vector<unsigned> depths{0, 1, 2, 4, 8};
  std::vector<std::string> headers{"app"};
  for (unsigned d : depths) headers.push_back(strfmt("d=%u Mcyc", d));
  headers.push_back("best depth");
  bench::Table t(headers);

  bool ok = true;
  for (nas::Benchmark b :
       {nas::Benchmark::kCG, nas::Benchmark::kMG, nas::Benchmark::kFT,
        nas::Benchmark::kLU}) {
    std::vector<std::string> row{std::string(nas::name(b))};
    double best = 1e300;
    unsigned best_depth = 0;
    double depth0 = 0;
    for (unsigned d : depths) {
      nas::RunConfig cfg;
      cfg.bench = b;
      cfg.cls = args.cls;
      cfg.machine.num_nodes = args.nodes;
      cfg.machine.mode = sys::OpMode::kVnm;
      cfg.machine.boot.prefetch.enabled = d > 0;
      cfg.machine.boot.prefetch.depth = d;
      const auto out = nas::run_benchmark(cfg);
      ok = ok && out.result.verified;
      row.push_back(bench::fmt_double(out.record.exec_cycles / 1e6));
      if (d == 0) depth0 = out.record.exec_cycles;
      if (out.record.exec_cycles < best) {
        best = out.record.exec_cycles;
        best_depth = d;
      }
    }
    row.push_back(strfmt("%u", best_depth));
    t.row(row);
    // Shape: prefetching must help streaming kernels.
    if (best >= depth0) ok = false;
  }
  t.print();
  return ok ? 0 : 1;
}

// A run is one nas::RunConfig value, and two runs with equal values produce
// equal outputs, so bench/repro simulates each distinct value once. These
// tests pin what "equal" means and the duplicates the paper figures share.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "bench/util.hpp"

namespace bgp::nas {
namespace {

const bench::Figure& figure(std::string_view id) {
  const auto& all = bench::figures();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const auto& f) { return f.id == id; });
  EXPECT_NE(it, all.end()) << id;
  return *it;
}

std::vector<RunConfig> default_runs(std::string_view id) {
  const bench::Figure& f = figure(id);
  return f.runs(f.defaults);
}

bool contains(const std::vector<RunConfig>& runs, const RunConfig& c) {
  return std::find(runs.begin(), runs.end(), c) != runs.end();
}

TEST(RunConfigEquality, OneFieldAnywhereMakesRunsDiffer) {
  const RunConfig base;
  EXPECT_EQ(base, RunConfig{});

  RunConfig depth = base;
  depth.machine.boot.prefetch.depth = 4;
  EXPECT_NE(depth, base);

  RunConfig l3 = base;
  l3.machine.boot.l3_size_bytes = 4 * MiB;
  EXPECT_NE(l3, base);

  RunConfig traced = base;
  traced.options.trace.enabled = true;
  EXPECT_NE(traced, base);

  RunConfig faulted = base;
  faulted.fault = node_deaths(7, base.machine.num_nodes, 1);
  EXPECT_NE(faulted, base);
}

TEST(RunConfigEquality, FiguresShareTheRunsTheyDuplicate) {
  const auto fig09 = default_runs("fig09");
  for (const RunConfig& c : default_runs("fig07")) {
    EXPECT_TRUE(contains(fig09, c)) << "a Figure 7 FT run is not in Figure 9";
  }
  const auto fig10 = default_runs("fig10");
  for (const RunConfig& c : default_runs("fig08")) {
    EXPECT_TRUE(contains(fig10, c)) << "a Figure 8 MG run is not in Figure 10";
  }
  EXPECT_EQ(default_runs("fig13"), default_runs("fig12"));
  EXPECT_EQ(default_runs("fig14"), default_runs("fig12"));
}

TEST(RunConfigEquality, DefaultScaleDeclares186RunsOf128Distinct) {
  std::size_t declared = 0;
  std::vector<RunConfig> distinct;
  for (const bench::Figure& f : bench::figures()) {
    for (const RunConfig& c : f.runs(f.defaults)) {
      ++declared;
      if (!contains(distinct, c)) distinct.push_back(c);
    }
  }
  EXPECT_EQ(declared, 186u);
  EXPECT_EQ(distinct.size(), 128u);
}

}  // namespace
}  // namespace bgp::nas

// bench/repro regenerates every paper artifact from one process, simulating
// each distinct run once on several host threads. At one node and class S
// its stdout must equal, byte for byte, the concatenated output of the
// per-figure harnesses it replaced (bench/golden/repro_S1.txt), whatever
// order its threads finish runs in. Figure 12's shape check fails at that
// scale (VNM DDR traffic is 0: the class S working set fits in the L3), so
// the driver must exit 1 and name fig12. Runs the real binary.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#ifndef REPRO_BINARY
#error "repro_test needs -DREPRO_BINARY=\"<path to repro>\""
#endif
#ifndef REPRO_GOLDEN
#error "repro_test needs -DREPRO_GOLDEN=\"<path to repro_S1.txt>\""
#endif

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Result {
  int exit_code = -1;
  std::string out, err;
};

/// Run repro with `args` at one node and class S, BENCH file to `dir`.
Result run_repro(const std::string& args, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cmd = "BGPC_BENCH_ARTIFACT_DIR=" + dir.string() + " " +
                          REPRO_BINARY + " --nodes=1 --class=S" + args +
                          " > " + (dir / "out.txt").string() + " 2> " +
                          (dir / "err.txt").string();
  const int status = std::system(cmd.c_str());
  Result r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.out = slurp(dir / "out.txt");
  r.err = slurp(dir / "err.txt");
  return r;
}

/// The golden output cut into figures: each opens with a banner framed by
/// two rule lines.
std::vector<std::string> golden_figures() {
  const std::string golden = slurp(REPRO_GOLDEN);
  const std::string rule(64, '=');
  std::vector<std::size_t> starts;
  for (std::size_t at = golden.find(rule + "\n"); at != std::string::npos;
       at = golden.find(rule + "\n", golden.find('\n', at) + 1)) {
    if (at == 0 || golden[at - 1] == '\n') starts.push_back(at);
  }
  std::vector<std::string> figures;
  for (std::size_t i = 0; i < starts.size(); i += 2) {
    const std::size_t end =
        i + 2 < starts.size() ? starts[i + 2] : golden.size();
    figures.push_back(golden.substr(starts[i], end - starts[i]));
  }
  return figures;
}

TEST(Repro, SmallScaleOutputMatchesTheGoldenAndNamesFig12) {
  const fs::path dir = fs::temp_directory_path() / "bgpc_repro_all";
  const Result r = run_repro("", dir);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("repro: failed: fig12\n"), std::string::npos)
      << r.err;
  EXPECT_TRUE(r.out == slurp(REPRO_GOLDEN))
      << "repro stdout differs from " << REPRO_GOLDEN;
  const std::string bench = slurp(dir / "BENCH_e2e.json");
  EXPECT_NE(bench.find("\"declared_runs\": 186,"), std::string::npos)
      << bench;
  fs::remove_all(dir);
}

TEST(Repro, OnlyPrintsTheChosenFiguresInPaperOrder) {
  const std::vector<std::string> figures = golden_figures();
  ASSERT_EQ(figures.size(), 12u);  // fig03, tab_overhead, fig06-14, ablation
  const fs::path dir = fs::temp_directory_path() / "bgpc_repro_only";
  const Result r = run_repro(" --only=fig13,fig07", dir);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(r.out == figures[3] + figures[9]) << r.out;
  fs::remove_all(dir);
}

TEST(Repro, UnknownFigureIsAUsageError) {
  const fs::path dir = fs::temp_directory_path() / "bgpc_repro_usage";
  const Result r = run_repro(" --only=fig99", dir);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.out.empty());
  fs::remove_all(dir);
}

}  // namespace

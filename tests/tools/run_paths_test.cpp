// bgpc_run --trace and bgpc_trace run the same benchmark through the same
// instrumented-run path (nas::Run), so for the same configuration they
// must write the same counter dumps and trace files byte for byte — with
// the flight recorder on too, where both record the `region.<APP>` span
// around the kernel and bill its overhead. Runs the real binaries.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "obs/span_io.hpp"

#ifndef BGPC_RUN_BINARY
#error "run_paths_test needs -DBGPC_RUN_BINARY=\"<path to bgpc_run>\""
#endif
#ifndef BGPC_TRACE_BINARY
#error "run_paths_test needs -DBGPC_TRACE_BINARY=\"<path to bgpc_trace>\""
#endif

namespace fs = std::filesystem;

namespace bgp {
namespace {

int run_tool(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Every .bgpc/.bgpt file in `dir`, by name.
std::map<std::string, std::string> artifacts(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string ext = e.path().extension().string();
    if (ext != ".bgpc" && ext != ".bgpt") continue;
    std::ifstream in(e.path(), std::ios::binary);
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

bool has_span(const fs::path& dir, const std::string& name) {
  const obs::SpanSet set = obs::load_span_dir(dir, "EP");
  const auto rows = obs::self_profile(set.spans);
  return std::any_of(rows.begin(), rows.end(), [&](const obs::ProfileRow& r) {
    return r.name == name && r.calls > 0;
  });
}

void expect_same_run(const std::string& label, const std::string& extra) {
  const fs::path root =
      fs::temp_directory_path() / ("bgpc_run_paths_" + label);
  fs::remove_all(root);
  const fs::path run_dir = root / "run";
  const fs::path trace_dir = root / "trace";
  const std::string common = " EP --class=S --nodes=2" + extra;
  ASSERT_EQ(run_tool(std::string(BGPC_RUN_BINARY) + common +
                     " --trace --dumps=" + run_dir.string()),
            0);
  ASSERT_EQ(run_tool(std::string(BGPC_TRACE_BINARY) + common +
                     " --quiet --dumps=" + trace_dir.string()),
            0);

  const auto a = artifacts(run_dir);
  const auto b = artifacts(trace_dir);
  ASSERT_EQ(a.size(), 4u);  // two nodes, a dump and a trace each
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, bytes] : a) {
    const auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name << " missing from the bgpc_trace run";
    EXPECT_TRUE(bytes == it->second)
        << name << " differs bgpc_run vs bgpc_trace";
  }
  if (!extra.empty()) {
    EXPECT_TRUE(has_span(run_dir, "region.EP"));
    EXPECT_TRUE(has_span(trace_dir, "region.EP"));
  }
  fs::remove_all(root);
}

TEST(RunPaths, BgpcRunAndBgpcTraceWriteTheSameBytes) {
  expect_same_run("plain", "");
}

TEST(RunPaths, BgpcRunAndBgpcTraceWriteTheSameBytesWithObs) {
  expect_same_run("obs", " --obs");
}

}  // namespace
}  // namespace bgp

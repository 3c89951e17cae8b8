// Serial-vs-parallel determinism matrix (docs/parallel-scheduler.md): the
// parallel epoch scheduler must be bit-for-bit indistinguishable from the
// serial dispatcher. Every cell runs the same instrumented benchmark twice
// — once per scheduler — and byte-compares all artifacts: counter dumps
// (.bgpc), sealed and partial trace files (.bgpt*), and span files (.bgps,
// compared with host-nanosecond fields zeroed, the one wall-clock channel
// in the formats). The matrix covers {SMP, DUAL, VNM} x {no fault, kill-2,
// FT kill-3} with tracing and the flight recorder both attached, plus a
// 256-rank stress cell on eight workers. Three golden cells pin the serial
// dispatcher's artifacts to committed CRC32 digests, so a change to either
// scheduler that moves both in step still fails.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>

#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "ft/ftcomm.hpp"
#include "nas/kernel.hpp"
#include "obs/span_io.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp {
namespace {

namespace fs = std::filesystem;

struct MatrixCell {
  sys::OpMode mode = sys::OpMode::kVnm;
  unsigned nodes = 4;
  unsigned deaths = 0;
  bool ft = false;
  unsigned jobs = 4;
};

/// Everything observable a run leaves behind, in comparable form.
struct RunArtifacts {
  std::map<std::string, std::string> files;  ///< name -> raw bytes
  cycles_t elapsed = 0;
  std::size_t dead_nodes = 0;
  std::size_t recovery_events = 0;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Re-serialize a span file with its host-ns fields zeroed: span begin/end
/// wall times are real time, everything else is simulated state.
std::string normalized_spans(const fs::path& p) {
  obs::SpanFile f = obs::load_span_file(p);
  std::string out;
  for (const obs::SpanRec& s : f.spans) {
    out += s.name + ' ' + std::string(obs::to_string(s.cat)) + ' ' +
           std::to_string(s.node) + ':' + std::to_string(s.core) + ' ' +
           std::to_string(s.depth) + ' ' + std::to_string(s.begin_cycles) +
           '-' + std::to_string(s.end_cycles) + '\n';
  }
  for (const obs::InstantRec& i : f.instants) {
    out += i.name + ' ' + std::string(obs::to_string(i.cat)) + ' ' +
           std::to_string(i.node) + ':' + std::to_string(i.core) + ' ' +
           std::to_string(i.cycles) + '\n';
  }
  out += "dropped=" + std::to_string(f.dropped) + '\n';
  return out;
}

RunArtifacts run_cell(const MatrixCell& cell, rt::SchedMode sched) {
  const ::testing::TestInfo* ti =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("bgpc_sched_") + ti->name() +
       (sched == rt::SchedMode::kParallel ? "_par" : "_ser"));
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::MachineConfig mc;
  mc.num_nodes = cell.nodes;
  mc.mode = cell.mode;
  mc.sched = sched;
  mc.jobs = sched == rt::SchedMode::kParallel ? cell.jobs : 0;
  rt::Machine machine(mc);

  fault::FaultInjector injector{[&] {
    fault::FaultSpec spec;
    spec.node_deaths = cell.deaths;
    return fault::FaultPlan::random(7, cell.nodes, spec);
  }()};
  if (cell.deaths > 0) machine.set_fault_injector(&injector);
  ft::FtParams ftp;
  ftp.enabled = cell.ft;
  machine.set_ft_params(ftp);

  pc::Options opts;
  opts.app_name = "CG";
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  opts.obs.enabled = true;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kS);
  if (cell.ft) {
    machine.run([&](rt::RankCtx& ctx) {
      ft::run_guarded(ctx, [&](rt::RankCtx& c) {
        c.mpi_init();
        kernel->run(c);
      });
      ft::finalize_guarded(ctx);
    });
  } else {
    machine.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
  }

  RunArtifacts a;
  a.elapsed = machine.elapsed();
  a.dead_nodes = machine.dead_nodes().size();
  a.recovery_events = machine.recovery_log().size();
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    a.files[name] = entry.path().extension() == ".bgps"
                        ? normalized_spans(entry.path())
                        : slurp(entry.path());
  }
  fs::remove_all(dir);
  return a;
}

void expect_identical(const MatrixCell& cell) {
  const RunArtifacts ser = run_cell(cell, rt::SchedMode::kSerial);
  const RunArtifacts par = run_cell(cell, rt::SchedMode::kParallel);

  EXPECT_EQ(ser.elapsed, par.elapsed);
  EXPECT_EQ(ser.dead_nodes, par.dead_nodes);
  EXPECT_EQ(ser.recovery_events, par.recovery_events);
  ASSERT_FALSE(ser.files.empty());
  ASSERT_EQ(ser.files.size(), par.files.size());
  for (const auto& [name, bytes] : ser.files) {
    const auto it = par.files.find(name);
    ASSERT_NE(it, par.files.end()) << name << " missing from parallel run";
    EXPECT_EQ(bytes, it->second) << name << " differs between schedulers";
  }
}

TEST(SchedDeterminism, Smp1Plain) {
  expect_identical({.mode = sys::OpMode::kSmp1});
}
TEST(SchedDeterminism, Smp1Kill2) {
  expect_identical({.mode = sys::OpMode::kSmp1, .deaths = 2});
}
TEST(SchedDeterminism, Smp1FtKill3) {
  expect_identical({.mode = sys::OpMode::kSmp1, .nodes = 8, .deaths = 3,
                    .ft = true});
}
TEST(SchedDeterminism, DualPlain) {
  expect_identical({.mode = sys::OpMode::kDual});
}
TEST(SchedDeterminism, DualKill2) {
  expect_identical({.mode = sys::OpMode::kDual, .deaths = 2});
}
TEST(SchedDeterminism, DualFtKill3) {
  expect_identical({.mode = sys::OpMode::kDual, .nodes = 8, .deaths = 3,
                    .ft = true});
}
TEST(SchedDeterminism, VnmPlain) {
  expect_identical({.mode = sys::OpMode::kVnm});
}
TEST(SchedDeterminism, VnmKill2) {
  expect_identical({.mode = sys::OpMode::kVnm, .deaths = 2});
}
TEST(SchedDeterminism, VnmFtKill3) {
  expect_identical({.mode = sys::OpMode::kVnm, .nodes = 8, .deaths = 3,
                    .ft = true});
}

/// 256 ranks (64 VNM nodes) on eight workers: the stress cell where
/// commit-order races would actually show up.
TEST(SchedDeterminism, Stress256Ranks) {
  expect_identical({.mode = sys::OpMode::kVnm, .nodes = 64, .jobs = 8});
}

/// Committed digest of one serial-dispatcher run: the scalar outcomes plus
/// the CRC32 of every artifact file (span files normalized as above).
struct GoldenRun {
  cycles_t elapsed = 0;
  std::size_t dead_nodes = 0;
  std::size_t recovery_events = 0;
  std::map<std::string, u32> file_crcs;
};

/// `a` as a GoldenRun initializer, indented to paste over a stale one.
std::string golden_source(const RunArtifacts& a,
                          const std::map<std::string, u32>& crcs) {
  std::string out = strfmt(
      "          .elapsed = %llu,\n          .dead_nodes = %zu,\n"
      "          .recovery_events = %zu,\n          .file_crcs = {\n",
      static_cast<unsigned long long>(a.elapsed), a.dead_nodes,
      a.recovery_events);
  for (const auto& [name, crc] : crcs) {
    out += strfmt("              {\"%s\", 0x%08xu},\n", name.c_str(), crc);
  }
  return out + "          }\n";
}

/// CRC32 of a file's bytes taken back to front. Dumps and traces close
/// each section with that section's own CRC32, and a forward CRC over data
/// followed by its CRC is the same constant for any data of that length
/// (the CRC residue), so a forward digest would not see checksummed bytes.
u32 file_crc(const std::string& bytes) {
  const std::string reversed(bytes.rbegin(), bytes.rend());
  return crc32(std::as_bytes(std::span(reversed.data(), reversed.size())));
}

/// Runs `cell` on the serial dispatcher and compares it with `golden`. On
/// a mismatch the failure prints the regenerated initializer.
void expect_golden(const MatrixCell& cell, const GoldenRun& golden) {
  const RunArtifacts a = run_cell(cell, rt::SchedMode::kSerial);
  std::map<std::string, u32> crcs;
  for (const auto& [name, bytes] : a.files) {
    crcs[name] = file_crc(bytes);
  }
  EXPECT_EQ(a.elapsed, golden.elapsed);
  EXPECT_EQ(a.dead_nodes, golden.dead_nodes);
  EXPECT_EQ(a.recovery_events, golden.recovery_events);
  EXPECT_EQ(crcs, golden.file_crcs) << "this run:\n" << golden_source(a, crcs);
}

TEST(SchedDeterminism, GoldenVnmPlainSerial) {
  expect_golden(
      {.mode = sys::OpMode::kVnm},
      {
          .elapsed = 818584,
          .dead_nodes = 0,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpc", 0xaa2552f3u},
              {"CG.node0000.bgps", 0xe7aea83bu},
              {"CG.node0000.bgpt", 0xb41e3e1fu},
              {"CG.node0001.bgpc", 0x6408a0ccu},
              {"CG.node0001.bgps", 0x875b064eu},
              {"CG.node0001.bgpt", 0x198dcafbu},
              {"CG.node0002.bgpc", 0x51358b2eu},
              {"CG.node0002.bgps", 0xf1d6afdfu},
              {"CG.node0002.bgpt", 0xdfaa72c7u},
              {"CG.node0003.bgpc", 0xaa9fd35au},
              {"CG.node0003.bgps", 0x5102dce8u},
              {"CG.node0003.bgpt", 0xecd99749u},
          }});
}
TEST(SchedDeterminism, GoldenVnmKill2Serial) {
  expect_golden(
      {.mode = sys::OpMode::kVnm, .deaths = 2},
      {
          .elapsed = 233651,
          .dead_nodes = 4,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpt.partial", 0x1dc7a6f4u},
              {"CG.node0001.bgpt.partial", 0xc6df92ccu},
              {"CG.node0002.bgpt.partial", 0x082f8018u},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
          }});
}
TEST(SchedDeterminism, GoldenDualFtKill3Serial) {
  expect_golden(
      {.mode = sys::OpMode::kDual, .nodes = 8, .deaths = 3, .ft = true},
      {
          .elapsed = 285090,
          .dead_nodes = 3,
          .recovery_events = 8,
          .file_crcs = {
              {"CG.node0000.bgpc", 0x1eece8e0u},
              {"CG.node0000.bgps", 0x63af742bu},
              {"CG.node0000.bgpt", 0x2595e119u},
              {"CG.node0001.bgpc", 0xf8d9e764u},
              {"CG.node0001.bgps", 0x1adcffaau},
              {"CG.node0001.bgpt", 0xfe8dd521u},
              {"CG.node0002.bgpc", 0x20196781u},
              {"CG.node0002.bgps", 0x91486329u},
              {"CG.node0002.bgpt", 0xc9d1203bu},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
              {"CG.node0004.bgpt.partial", 0x09fa1e06u},
              {"CG.node0005.bgpt.partial", 0xd2e22a3eu},
              {"CG.node0006.bgpc", 0x609337fdu},
              {"CG.node0006.bgps", 0xac49b87fu},
              {"CG.node0006.bgpt", 0x3f0b57c7u},
              {"CG.node0007.bgpc", 0x78065988u},
              {"CG.node0007.bgps", 0xa619dffbu},
              {"CG.node0007.bgpt", 0xf2ddd9c0u},
          }});
}

}  // namespace
}  // namespace bgp

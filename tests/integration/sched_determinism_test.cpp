// Determinism matrix (docs/scheduler.md): every cell runs the same
// instrumented benchmark and pins everything it leaves behind to committed
// CRC32 digests: counter dumps (.bgpc), sealed and partial trace files
// (.bgpt*), and span files (.bgps, digested with host-nanosecond fields
// zeroed, the one wall-clock channel in the formats). The matrix covers
// {SMP, DUAL, VNM} x {no fault, kill-2, FT kill-3} with tracing and the
// flight recorder both attached, plus a 256-rank stress cell. Three
// Golden* tests rerun a cell with the retired MachineConfig::sched/jobs
// fields set and check the same digest, so those fields stay ignored. The
// digests were recorded from earlier dispatchers that ran the same greedy
// (cycle, rank) order: a thread-per-rank one and an epoch scheduler on one
// and on several workers.
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
  /// Sets the retired MachineConfig::sched/jobs fields the way callers
  /// written for the multi-worker scheduler do (sched = parallel, 4 jobs).
  /// The one dispatch loop ignores them, so the digest must not move.
  bool retired_sched_fields = false;
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

RunArtifacts run_cell(const MatrixCell& cell) {
  const ::testing::TestInfo* ti =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::temp_directory_path() / (std::string("bgpc_sched_") + ti->name());
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::MachineConfig mc;
  mc.num_nodes = cell.nodes;
  mc.mode = cell.mode;
  if (cell.retired_sched_fields) {
    mc.sched = rt::SchedMode::kParallel;
    mc.jobs = 4;
  }
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

/// Committed digest of a run: the scalar outcomes plus
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

/// Compares run `a` with its committed digest. On a mismatch the failure
/// prints the regenerated initializer.
void expect_golden(const RunArtifacts& a, const GoldenRun& golden) {
  std::map<std::string, u32> crcs;
  for (const auto& [name, bytes] : a.files) {
    crcs[name] = file_crc(bytes);
  }
  EXPECT_EQ(a.elapsed, golden.elapsed);
  EXPECT_EQ(a.dead_nodes, golden.dead_nodes);
  EXPECT_EQ(a.recovery_events, golden.recovery_events);
  EXPECT_EQ(crcs, golden.file_crcs) << "this run:\n" << golden_source(a, crcs);
}

/// Runs `cell` and compares it with its committed digest.
void expect_cell(const MatrixCell& cell, const GoldenRun& golden) {
  expect_golden(run_cell(cell), golden);
}

// Digests shared by a matrix cell and its Golden* twin, which runs the
// same cell with the retired scheduler fields set.
const GoldenRun kDualFtKill3 = {
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
    }};

const GoldenRun kVnmPlain = {
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
    }};

const GoldenRun kVnmKill2 = {
    .elapsed = 233651,
    .dead_nodes = 4,
    .recovery_events = 0,
    .file_crcs = {
        {"CG.node0000.bgpt.partial", 0x1dc7a6f4u},
        {"CG.node0001.bgpt.partial", 0xc6df92ccu},
        {"CG.node0002.bgpt.partial", 0x082f8018u},
        {"CG.node0003.bgpt.partial", 0xfd883071u},
    }};

TEST(SchedDeterminism, Smp1Plain) {
  expect_cell(
      {.mode = sys::OpMode::kSmp1},
      {
          .elapsed = 620808,
          .dead_nodes = 0,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpc", 0xa76a3e9cu},
              {"CG.node0000.bgps", 0xb9e77676u},
              {"CG.node0000.bgpt", 0x3a0ff764u},
              {"CG.node0001.bgpc", 0x6947cca3u},
              {"CG.node0001.bgps", 0x754ac54bu},
              {"CG.node0001.bgpt", 0x5cf66210u},
              {"CG.node0002.bgpc", 0xaa9179c7u},
              {"CG.node0002.bgps", 0xa0227f49u},
              {"CG.node0002.bgpt", 0x84d7ff12u},
              {"CG.node0003.bgpc", 0x71d43e32u},
              {"CG.node0003.bgps", 0xe0493a93u},
              {"CG.node0003.bgpt", 0x28d9b1a4u},
          }});
}

TEST(SchedDeterminism, Smp1Kill2) {
  expect_cell(
      {.mode = sys::OpMode::kSmp1, .deaths = 2},
      {
          .elapsed = 124384,
          .dead_nodes = 4,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpt.partial", 0x1dc7a6f4u},
              {"CG.node0001.bgpt.partial", 0xc6df92ccu},
              {"CG.node0002.bgpt.partial", 0x082f8018u},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
          }});
}

TEST(SchedDeterminism, Smp1FtKill3) {
  expect_cell(
      {.mode = sys::OpMode::kSmp1, .nodes = 8, .deaths = 3, .ft = true},
      {
          .elapsed = 234223,
          .dead_nodes = 3,
          .recovery_events = 4,
          .file_crcs = {
              {"CG.node0000.bgpc", 0x692aa0a5u},
              {"CG.node0000.bgps", 0x9f08327fu},
              {"CG.node0000.bgpt", 0x4c83b785u},
              {"CG.node0001.bgpc", 0x35fb7dbeu},
              {"CG.node0001.bgps", 0xa105cc21u},
              {"CG.node0001.bgpt", 0x4ec64c7du},
              {"CG.node0002.bgpc", 0x0bc3cea6u},
              {"CG.node0002.bgps", 0xe77f35fau},
              {"CG.node0002.bgpt", 0xc95b1bb6u},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
              {"CG.node0004.bgpt.partial", 0x09fa1e06u},
              {"CG.node0005.bgpt.partial", 0xd2e22a3eu},
              {"CG.node0006.bgpc", 0x856f5b9fu},
              {"CG.node0006.bgps", 0x50b5f9a5u},
              {"CG.node0006.bgpt", 0x79d43316u},
              {"CG.node0007.bgpc", 0xf8e2185au},
              {"CG.node0007.bgps", 0x2c060213u},
              {"CG.node0007.bgpt", 0xce347944u},
          }});
}

TEST(SchedDeterminism, DualPlain) {
  expect_cell(
      {.mode = sys::OpMode::kDual},
      {
          .elapsed = 722563,
          .dead_nodes = 0,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpc", 0xc5ed92abu},
              {"CG.node0000.bgps", 0x21ddb2d4u},
              {"CG.node0000.bgpt", 0xd6ad2a8bu},
              {"CG.node0001.bgpc", 0x0bc06094u},
              {"CG.node0001.bgps", 0x2ace3875u},
              {"CG.node0001.bgpt", 0x1260848au},
              {"CG.node0002.bgpc", 0x72956861u},
              {"CG.node0002.bgps", 0xe3da3d94u},
              {"CG.node0002.bgpt", 0x58fb14bdu},
              {"CG.node0003.bgpc", 0x56281589u},
              {"CG.node0003.bgps", 0x710b4fbfu},
              {"CG.node0003.bgpt", 0x6143248eu},
          }});
}

TEST(SchedDeterminism, DualKill2) {
  expect_cell(
      {.mode = sys::OpMode::kDual, .deaths = 2},
      {
          .elapsed = 169155,
          .dead_nodes = 4,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpt.partial", 0x1dc7a6f4u},
              {"CG.node0001.bgpt.partial", 0xc6df92ccu},
              {"CG.node0002.bgpt.partial", 0x082f8018u},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
          }});
}

TEST(SchedDeterminism, DualFtKill3) {
  expect_cell(
      {.mode = sys::OpMode::kDual, .nodes = 8, .deaths = 3, .ft = true},
      kDualFtKill3);
}

TEST(SchedDeterminism, VnmPlain) {
  expect_cell({.mode = sys::OpMode::kVnm}, kVnmPlain);
}

TEST(SchedDeterminism, VnmKill2) {
  expect_cell({.mode = sys::OpMode::kVnm, .deaths = 2}, kVnmKill2);
}

TEST(SchedDeterminism, VnmFtKill3) {
  expect_cell(
      {.mode = sys::OpMode::kVnm, .nodes = 8, .deaths = 3, .ft = true},
      {
          .elapsed = 348102,
          .dead_nodes = 3,
          .recovery_events = 8,
          .file_crcs = {
              {"CG.node0000.bgpc", 0x7259cb35u},
              {"CG.node0000.bgps", 0xc42d78c5u},
              {"CG.node0000.bgpt", 0x167685e7u},
              {"CG.node0001.bgpc", 0x946cc4b1u},
              {"CG.node0001.bgps", 0xa300f7ecu},
              {"CG.node0001.bgpt", 0xcd6eb1dfu},
              {"CG.node0002.bgpc", 0x34d1fd9eu},
              {"CG.node0002.bgps", 0x0a766697u},
              {"CG.node0002.bgpt", 0xc9d1203bu},
              {"CG.node0003.bgpt.partial", 0xfd883071u},
              {"CG.node0004.bgpt.partial", 0x09fa1e06u},
              {"CG.node0005.bgpt.partial", 0xd2e22a3eu},
              {"CG.node0006.bgpc", 0xc1c1dc57u},
              {"CG.node0006.bgps", 0x5e7abf4bu},
              {"CG.node0006.bgpt", 0x568c0e08u},
              {"CG.node0007.bgpc", 0xde1ae188u},
              {"CG.node0007.bgps", 0x7d157869u},
              {"CG.node0007.bgpt", 0xc80f35e0u},
          }});
}

/// 256 ranks (64 VNM nodes), the rank count of the acceptance run.
TEST(SchedDeterminism, Stress256Ranks) {
  expect_cell(
      {.mode = sys::OpMode::kVnm, .nodes = 64},
      {
          .elapsed = 2679912,
          .dead_nodes = 0,
          .recovery_events = 0,
          .file_crcs = {
              {"CG.node0000.bgpc", 0x121b403au},
              {"CG.node0000.bgps", 0x1bc765b0u},
              {"CG.node0000.bgpt", 0x6ea2ce54u},
              {"CG.node0001.bgpc", 0xdc36b205u},
              {"CG.node0001.bgps", 0x7b2c668bu},
              {"CG.node0001.bgpt", 0xeb08a483u},
              {"CG.node0002.bgpc", 0xb77ef16fu},
              {"CG.node0002.bgps", 0x1d27ca64u},
              {"CG.node0002.bgpt", 0x1448a6d9u},
              {"CG.node0003.bgpc", 0xfddd4498u},
              {"CG.node0003.bgps", 0xe2854fabu},
              {"CG.node0003.bgpt", 0x4020f847u},
              {"CG.node0004.bgpc", 0xb4af28b8u},
              {"CG.node0004.bgps", 0x661c35c8u},
              {"CG.node0004.bgpt", 0xc1854e50u},
              {"CG.node0005.bgpc", 0x529a273cu},
              {"CG.node0005.bgps", 0xe6815b82u},
              {"CG.node0005.bgpt", 0xd9efde8cu},
              {"CG.node0006.bgpc", 0x9544de25u},
              {"CG.node0006.bgps", 0x73416fe1u},
              {"CG.node0006.bgpt", 0x1a4abda7u},
              {"CG.node0007.bgpc", 0x7371d1a1u},
              {"CG.node0007.bgps", 0x77d48167u},
              {"CG.node0007.bgpt", 0x4fba7d18u},
              {"CG.node0008.bgpc", 0x09840f32u},
              {"CG.node0008.bgps", 0x7270f620u},
              {"CG.node0008.bgpt", 0x0bfa8141u},
              {"CG.node0009.bgpc", 0xefb100b6u},
              {"CG.node0009.bgps", 0xfeff242fu},
              {"CG.node0009.bgpt", 0xb83f8f21u},
              {"CG.node0010.bgpc", 0x7d699c81u},
              {"CG.node0010.bgps", 0x5b451a26u},
              {"CG.node0010.bgpt", 0x1aef4a6du},
              {"CG.node0011.bgpc", 0xce5af62bu},
              {"CG.node0011.bgps", 0x76d15215u},
              {"CG.node0011.bgpt", 0x619f455fu},
              {"CG.node0012.bgpc", 0x87289a0bu},
              {"CG.node0012.bgps", 0x0669beccu},
              {"CG.node0012.bgpt", 0x14f53846u},
              {"CG.node0013.bgpc", 0x611d958fu},
              {"CG.node0013.bgps", 0xcb0eead6u},
              {"CG.node0013.bgpt", 0x4cbb1b1bu},
              {"CG.node0014.bgpc", 0xa6c36c96u},
              {"CG.node0014.bgps", 0xf804d91bu},
              {"CG.node0014.bgpt", 0xdff4f4e1u},
              {"CG.node0015.bgpc", 0x40f66312u},
              {"CG.node0015.bgps", 0x5b5a24d9u},
              {"CG.node0015.bgpt", 0x17f00828u},
              {"CG.node0016.bgpc", 0x4f59fb75u},
              {"CG.node0016.bgps", 0x8431f79du},
              {"CG.node0016.bgpt", 0x7aa3ff12u},
              {"CG.node0017.bgpc", 0xa96cf4f1u},
              {"CG.node0017.bgps", 0xdf352409u},
              {"CG.node0017.bgpt", 0x2edc15e1u},
              {"CG.node0018.bgpc", 0x8e2a8c94u},
              {"CG.node0018.bgps", 0x2c38f07cu},
              {"CG.node0018.bgpt", 0xa917c975u},
              {"CG.node0019.bgpc", 0x8887026cu},
              {"CG.node0019.bgps", 0xe7d0d4f3u},
              {"CG.node0019.bgpt", 0x550953c7u},
              {"CG.node0020.bgpc", 0xc1f56e4cu},
              {"CG.node0020.bgps", 0xf0f663e9u},
              {"CG.node0020.bgpt", 0x7c56a089u},
              {"CG.node0021.bgpc", 0x27c061c8u},
              {"CG.node0021.bgps", 0x62adb7bcu},
              {"CG.node0021.bgpt", 0x71170c21u},
              {"CG.node0022.bgpc", 0xe01e98d1u},
              {"CG.node0022.bgps", 0x73a1c29eu},
              {"CG.node0022.bgpt", 0x64726355u},
              {"CG.node0023.bgpc", 0xaabd2d26u},
              {"CG.node0023.bgps", 0x465dcb59u},
              {"CG.node0023.bgpt", 0x18aac3d3u},
              {"CG.node0024.bgpc", 0x7cde49c6u},
              {"CG.node0024.bgps", 0x055f5187u},
              {"CG.node0024.bgpt", 0x03c67b1cu},
              {"CG.node0025.bgpc", 0x9aeb4642u},
              {"CG.node0025.bgps", 0x944d5b77u},
              {"CG.node0025.bgpt", 0xad5b69abu},
              {"CG.node0026.bgpc", 0xe98141cdu},
              {"CG.node0026.bgps", 0x066b9737u},
              {"CG.node0026.bgpt", 0x1b74ce60u},
              {"CG.node0027.bgpc", 0xbb00b0dfu},
              {"CG.node0027.bgps", 0x570d585cu},
              {"CG.node0027.bgpt", 0x80a21ee7u},
              {"CG.node0028.bgpc", 0xf272dcffu},
              {"CG.node0028.bgps", 0xddb353f3u},
              {"CG.node0028.bgpt", 0x4579d218u},
              {"CG.node0029.bgpc", 0x1447d37bu},
              {"CG.node0029.bgps", 0x21f947e2u},
              {"CG.node0029.bgpt", 0x94911a16u},
              {"CG.node0030.bgpc", 0xd3992a62u},
              {"CG.node0030.bgps", 0x0aae26f8u},
              {"CG.node0030.bgpt", 0x10d81234u},
              {"CG.node0031.bgpc", 0x60aa40c8u},
              {"CG.node0031.bgps", 0xa63fe4d1u},
              {"CG.node0031.bgpt", 0xd201ece0u},
              {"CG.node0032.bgpc", 0xc2e213fbu},
              {"CG.node0032.bgps", 0xbed4c5f8u},
              {"CG.node0032.bgpt", 0x1cabbbcfu},
              {"CG.node0033.bgpc", 0x24d71c7fu},
              {"CG.node0033.bgps", 0xda18d99bu},
              {"CG.node0033.bgpt", 0x3f319e0au},
              {"CG.node0034.bgpc", 0x57bd1bf0u},
              {"CG.node0034.bgps", 0x368dcd32u},
              {"CG.node0034.bgpt", 0x1b369f6eu},
              {"CG.node0035.bgpc", 0x053ceae2u},
              {"CG.node0035.bgps", 0x7b03f538u},
              {"CG.node0035.bgpt", 0x006e3281u},
              {"CG.node0036.bgpc", 0x4c4e86c2u},
              {"CG.node0036.bgps", 0x4bcd3879u},
              {"CG.node0036.bgpt", 0xd42a34f9u},
              {"CG.node0037.bgpc", 0xaa7b8946u},
              {"CG.node0037.bgps", 0x4d625d00u},
              {"CG.node0037.bgpt", 0xba954f97u},
              {"CG.node0038.bgpc", 0x6da5705fu},
              {"CG.node0038.bgps", 0xf433fce3u},
              {"CG.node0038.bgpt", 0xd455e419u},
              {"CG.node0039.bgpc", 0x6b08fea7u},
              {"CG.node0039.bgps", 0x4b7f1c1au},
              {"CG.node0039.bgpt", 0x2d02024du},
              {"CG.node0040.bgpc", 0xf165a148u},
              {"CG.node0040.bgps", 0x99cf1855u},
              {"CG.node0040.bgpt", 0x2c824276u},
              {"CG.node0041.bgpc", 0x1750aeccu},
              {"CG.node0041.bgps", 0xdc381e96u},
              {"CG.node0041.bgpt", 0x23a4baecu},
              {"CG.node0042.bgpc", 0xd08e57d5u},
              {"CG.node0042.bgps", 0x1b70ac9fu},
              {"CG.node0042.bgpt", 0xedc712b5u},
              {"CG.node0043.bgpc", 0x36bb5851u},
              {"CG.node0043.bgps", 0x599f3663u},
              {"CG.node0043.bgpt", 0x24756af5u},
              {"CG.node0044.bgpc", 0x7fc93471u},
              {"CG.node0044.bgps", 0x2809a5f6u},
              {"CG.node0044.bgpt", 0x5ea101c5u},
              {"CG.node0045.bgpc", 0x99fc3bf5u},
              {"CG.node0045.bgps", 0xe06d4c71u},
              {"CG.node0045.bgpt", 0xaf3a3041u},
              {"CG.node0046.bgpc", 0x2dbe55aau},
              {"CG.node0046.bgps", 0xc2a598c2u},
              {"CG.node0046.bgpt", 0x656e5fe8u},
              {"CG.node0047.bgpc", 0x0ca333feu},
              {"CG.node0047.bgps", 0xfd15f401u},
              {"CG.node0047.bgpt", 0xbc675495u},
              {"CG.node0048.bgpc", 0xb7b8550fu},
              {"CG.node0048.bgps", 0x987d7423u},
              {"CG.node0048.bgpt", 0xcef0cbc0u},
              {"CG.node0049.bgpc", 0x518d5a8bu},
              {"CG.node0049.bgps", 0x3f147603u},
              {"CG.node0049.bgpt", 0x5f87d28eu},
              {"CG.node0050.bgpc", 0x9653a392u},
              {"CG.node0050.bgps", 0xeaef912eu},
              {"CG.node0050.bgpt", 0xa29dedc1u},
              {"CG.node0051.bgpc", 0x7066ac16u},
              {"CG.node0051.bgps", 0x040e1f60u},
              {"CG.node0051.bgpt", 0xe247f680u},
              {"CG.node0052.bgpc", 0x3914c036u},
              {"CG.node0052.bgps", 0x376524a6u},
              {"CG.node0052.bgpt", 0x36212fa1u},
              {"CG.node0053.bgpc", 0xdf21cfb2u},
              {"CG.node0053.bgps", 0x1fcf9bacu},
              {"CG.node0053.bgpt", 0x1da0fe00u},
              {"CG.node0054.bgpc", 0x18ff36abu},
              {"CG.node0054.bgps", 0x27e57f0bu},
              {"CG.node0054.bgpt", 0x44d32cc4u},
              {"CG.node0055.bgpc", 0xfeca392fu},
              {"CG.node0055.bgps", 0x76def5b7u},
              {"CG.node0055.bgpt", 0x2dce116cu},
              {"CG.node0056.bgpc", 0x843fe7bcu},
              {"CG.node0056.bgps", 0xda351adcu},
              {"CG.node0056.bgpt", 0x1d59a7a6u},
              {"CG.node0057.bgpc", 0x620ae838u},
              {"CG.node0057.bgps", 0xa535828cu},
              {"CG.node0057.bgpt", 0x5282c88au},
              {"CG.node0058.bgpc", 0xa5d41121u},
              {"CG.node0058.bgps", 0x8debac85u},
              {"CG.node0058.bgpt", 0x820ee0a7u},
              {"CG.node0059.bgpc", 0x43e11ea5u},
              {"CG.node0059.bgps", 0xf93c64c7u},
              {"CG.node0059.bgpt", 0x7b04afe9u},
              {"CG.node0060.bgpc", 0x0a937285u},
              {"CG.node0060.bgps", 0x235ab735u},
              {"CG.node0060.bgpt", 0x55c3a9c9u},
              {"CG.node0061.bgpc", 0xeca67d01u},
              {"CG.node0061.bgps", 0x93dbf454u},
              {"CG.node0061.bgpt", 0x757e3e50u},
              {"CG.node0062.bgpc", 0x70b33254u},
              {"CG.node0062.bgps", 0xe96923beu},
              {"CG.node0062.bgpt", 0x979b6b9fu},
              {"CG.node0063.bgpc", 0x8b196a20u},
              {"CG.node0063.bgps", 0xb52f08feu},
              {"CG.node0063.bgpt", 0xec16239bu},
          }});
}

TEST(SchedDeterminism, GoldenVnmPlain) {
  expect_cell({.mode = sys::OpMode::kVnm, .retired_sched_fields = true},
              kVnmPlain);
}

TEST(SchedDeterminism, GoldenVnmKill2) {
  expect_cell(
      {.mode = sys::OpMode::kVnm, .deaths = 2, .retired_sched_fields = true},
      kVnmKill2);
}

TEST(SchedDeterminism, GoldenDualFtKill3) {
  expect_cell({.mode = sys::OpMode::kDual,
               .nodes = 8,
               .deaths = 3,
               .ft = true,
               .retired_sched_fields = true},
              kDualFtKill3);
}

}  // namespace
}  // namespace bgp

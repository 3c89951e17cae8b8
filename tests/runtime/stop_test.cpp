// Cooperative stop: request_stop() mid-run makes Machine::run() throw
// RunStopped, after which the session layer can seal traces and write
// checkpoint dumps through the atomic paths — the mechanism behind
// bgpc_run's SIGTERM handling and the daemon's kill. The dispatch loop
// reads the stop flag at every dispatch and wakes every blocked rank, so
// each rank unwinds whether it was running, ready or blocked.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <thread>

#include "core/session.hpp"
#include "nas/kernel.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace fs = std::filesystem;

namespace bgp {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpc_stop_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_stop_checkpoints(const rt::MachineConfig& mc) {
  const fs::path dir = test_dir();
  rt::Machine machine(mc);

  pc::Options opts;
  opts.app_name = "CG";
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  // Stop from another thread mid-flight — the signal-handler shape
  // (request_stop is lock-free and async-signal-safe). Mid-flight means
  // every rank is past mpi_init, so every node has a dump and a trace to
  // checkpoint; a stop that lands earlier leaves uninitialized nodes out.
  std::atomic<unsigned> initialized{0};
  std::atomic<bool> run_over{false};
  std::thread stopper([&] {
    while (initialized.load() < machine.num_ranks() && !run_over.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    machine.request_stop();
  });

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kW);
  bool stopped = false;
  try {
    machine.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      ++initialized;
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
  } catch (const rt::RunStopped&) {
    stopped = true;
  }
  run_over = true;
  stopper.join();
  ASSERT_TRUE(stopped) << "class-W CG finished before the stop landed";
  EXPECT_GT(machine.elapsed(), 0u);

  // The checkpoint paths still work after the abort.
  session.seal_all_traces();
  session.checkpoint_dump();
  EXPECT_EQ(session.trace_files().size(), 4u);
  EXPECT_EQ(session.dump_files().size(), 4u);
  unsigned bgpc = 0, bgpt = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bgpc") ++bgpc;
    if (entry.path().extension() == ".bgpt") ++bgpt;
    EXPECT_GT(fs::file_size(entry.path()), 0u) << entry.path();
  }
  EXPECT_EQ(bgpc, 4u);
  EXPECT_EQ(bgpt, 4u);
  fs::remove_all(dir);
}

TEST(RequestStop, SerialDispatcherStopsAndCheckpoints) {
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  expect_stop_checkpoints(mc);
}

// The retired MachineConfig::sched/jobs fields, set the way callers written
// for the multi-worker scheduler set them, are ignored: the one dispatch
// loop stops and checkpoints the same.
TEST(RequestStop, ParallelDispatcherStopsAndCheckpoints) {
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  mc.sched = rt::SchedMode::kParallel;
  mc.jobs = 4;
  expect_stop_checkpoints(mc);
}

/// Runs `program` and reports whether run() threw RunStopped. A dispatch
/// regression in these tests hangs run(), so a watchdog fails the binary
/// loudly after 60 s instead of letting it time out.
bool run_stops(rt::Machine& machine, const rt::RankFn& program) {
  std::promise<void> finished;
  std::thread watchdog([done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      std::fputs("RequestStop: run hung after the stop\n", stderr);
      std::_Exit(1);
    }
  });
  bool stopped = false;
  try {
    machine.run(program);
  } catch (const rt::RunStopped&) {
    stopped = true;
  }
  finished.set_value();
  watchdog.join();
  return stopped;
}

/// A compute loop of `trip` iterations: moves the rank's clock, then yields.
isa::LoopDesc delay(u64 trip) {
  isa::LoopDesc d;
  d.name = "delay";
  d.trip = trip;
  d.body.int_at(isa::IntOp::kAlu) = 4;
  return d;
}

// Rank 1 blocks in a recv that is never sent; rank 0, whose key is above
// rank 1's, then requests the stop from inside its segment and keeps
// computing. Its next yield parks so the loop sees the stop, which wakes
// rank 1 to unwind.
TEST(RequestStop, StopWakesARankBlockedInRecv) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;
  mc.mode = sys::OpMode::kSmp1;  // ranks 0 and 1, one per node
  rt::Machine machine(mc);

  const isa::LoopDesc long_delay = delay(100000);
  bool rank1_blocked = false;
  EXPECT_TRUE(run_stops(machine, [&](rt::RankCtx& ctx) {
    if (ctx.rank() == 1) {
      rank1_blocked = true;
      std::array<u64, 1> buf{};
      ctx.recv_values<u64>(0, buf, /*tag=*/99);  // never sent
      ADD_FAILURE() << "the recv returned";
      return;
    }
    ctx.loop(long_delay);  // rank 1 runs to its recv first
    EXPECT_TRUE(rank1_blocked);
    machine.request_stop();
    ctx.loop(long_delay);
    ADD_FAILURE() << "rank 0 kept running after the stop";
  }));
}

// A rank requests the stop and then blocks in a recv that is never sent:
// the block parks it, and the stop noticed at the next dispatch must wake
// it, or it never unwinds.
TEST(RequestStop, StopBetweenACommitAndItsBlockWakesTheRank) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;
  mc.mode = sys::OpMode::kSmp1;
  rt::Machine machine(mc);

  EXPECT_TRUE(run_stops(machine, [&](rt::RankCtx& ctx) {
    std::array<u64, 1> buf{};
    if (ctx.rank() == 0) machine.request_stop();
    ctx.recv_values<u64>(1 - ctx.rank(), buf, /*tag=*/99);  // never sent
    ADD_FAILURE() << "rank " << ctx.rank() << ": the recv returned";
  }));
}

TEST(RequestStop, StopBeforeRunThrowsImmediately) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;
  rt::Machine machine(mc);
  machine.request_stop();
  auto kernel = nas::make_kernel(nas::Benchmark::kEP, nas::ProblemClass::kS);
  EXPECT_THROW(machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    kernel->run(ctx);
    ctx.mpi_finalize();
  }),
               rt::RunStopped);
}

}  // namespace
}  // namespace bgp

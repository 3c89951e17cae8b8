// Cooperative stop: request_stop() mid-run makes Machine::run() throw
// RunStopped under both dispatchers, after which the session layer can
// seal traces and write checkpoint dumps through the atomic paths — the
// mechanism behind bgpc_run's SIGTERM handling and the daemon's kill.
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

void expect_stop_checkpoints(rt::SchedMode sched) {
  const fs::path dir = test_dir();
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  mc.sched = sched;
  mc.jobs = sched == rt::SchedMode::kParallel ? 4 : 0;
  rt::Machine machine(mc);

  pc::Options opts;
  opts.app_name = "CG";
  opts.dump_dir = dir;
  opts.trace.enabled = true;
  opts.trace.trace_dir = dir;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  // Stop from another thread a moment into the run — the signal-handler
  // shape (request_stop is lock-free and async-signal-safe).
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    machine.request_stop();
  });

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kW);
  bool stopped = false;
  try {
    machine.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
  } catch (const rt::RunStopped&) {
    stopped = true;
  }
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
  expect_stop_checkpoints(rt::SchedMode::kSerial);
}

TEST(RequestStop, ParallelDispatcherStopsAndCheckpoints) {
  expect_stop_checkpoints(rt::SchedMode::kParallel);
}

// A stop wakes a blocked rank at a key below a node-mate that is running
// and has not committed yet. The node-mate then parks at its commit behind
// the woken rank, so the node must start the woken rank (which unwinds) or
// neither ever runs again. The roles are pinned by host-side handshakes:
// rank 0 (node 0) is mid-segment when it requests the stop, rank 4
// (node 1) is mid-segment too and then parks behind it, so node 1's
// executor services the stop, and rank 1 (node 0) is the blocked rank the
// stop wakes.
TEST(RequestStop, ParallelStopWakesRankBelowAParkedCommit) {
  rt::MachineConfig mc;
  mc.num_nodes = 2;  // VNM: ranks 0-3 on node 0, 4-7 on node 1
  mc.sched = rt::SchedMode::kParallel;
  mc.jobs = 2;       // ranks 0 and 4 wait on each other's handshakes
  rt::Machine machine(mc);

  // A regression here hangs run(); fail loudly instead of timing out.
  std::promise<void> finished;
  std::thread watchdog([done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      std::fputs("RequestStop: parallel run hung after the stop\n", stderr);
      std::_Exit(1);
    }
  });

  const auto delay = [](u64 trip) {
    isa::LoopDesc d;
    d.name = "delay";
    d.trip = trip;
    d.body.int_at(isa::IntOp::kAlu) = 4;
    return d;
  };
  const isa::LoopDesc short_delay = delay(1000);
  const isa::LoopDesc long_delay = delay(100000);
  std::atomic<bool> rank4_running{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> rank4_committing{false};
  const std::array<u64, 1> payload{42};
  bool stopped = false;
  try {
    machine.run([&](rt::RankCtx& ctx) {
      std::array<u64, 1> buf{};
      switch (ctx.rank()) {
        case 0:
          ctx.loop(short_delay);  // its next segment's key is above rank 1's
          // Rank 4 must be past its own yield: a yield after the stop
          // unwinds it before it can commit.
          while (!rank4_running) std::this_thread::yield();
          machine.request_stop();
          stop_requested = true;
          while (!rank4_committing) std::this_thread::yield();
          // Rank 4 parks behind us; its executor then services the stop.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          ctx.send_values<u64>(2, payload);
          break;
        case 1:
          ctx.recv_values<u64>(2, buf, /*tag=*/99);  // never sent
          break;
        case 4:
          ctx.loop(long_delay);  // its next segment's key is above rank 0's
          rank4_running = true;
          while (!stop_requested) std::this_thread::yield();
          rank4_committing = true;
          ctx.send_values<u64>(5, payload);
          break;
        default:
          break;
      }
    });
  } catch (const rt::RunStopped&) {
    stopped = true;
  }
  finished.set_value();
  watchdog.join();
  EXPECT_TRUE(stopped);
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

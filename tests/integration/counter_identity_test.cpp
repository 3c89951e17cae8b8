// Counter-identity checks for the batched fast paths (block event vectors
// and the devirtualized cache walk). Two families:
//
//  1. Structural identities the hardware counters must satisfy regardless
//     of delivery path: hits + misses == accesses at every level that
//     counts all three (L2/L3 reads, L3 writes), misses <= accesses where
//     there is no hit counter (L1D, L2 writes).
//
//  2. Golden digests: per node, per set, in all four counter modes, the
//     CRC32 of the 256 counter deltas and the set's first-start/last-stop
//     cycle stamps must equal a committed table. The table was recorded
//     when the per-instruction event emission and the virtual cache walk
//     still existed and matched the fast paths exactly, so it pins the
//     counters those paths produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "core/session.hpp"
#include "nas/kernel.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp {
namespace {

/// CG class S on 4 VNM nodes with counter `mode` programmed on every card.
std::vector<pc::NodeDump> run_cg(u8 mode) {
  rt::MachineConfig mc;
  mc.num_nodes = 4;
  mc.mode = sys::OpMode::kVnm;
  rt::Machine machine(mc);

  pc::Options opts;
  opts.app_name = "identity";
  opts.write_dumps = false;
  // Same mode on even and odd cards so every node counts the mode under
  // test (the split-mode scheme is covered by the characterization tests).
  opts.mode_even_cards = mode;
  opts.mode_odd_cards = mode;
  pc::Session session(machine, opts);
  session.link_with_mpi();

  auto kernel = nas::make_kernel(nas::Benchmark::kCG, nas::ProblemClass::kS);
  machine.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    kernel->run(ctx);
    ctx.mpi_finalize();
  });
  EXPECT_TRUE(kernel->result().verified) << kernel->result().detail;
  return session.dumps();
}

/// Counter delta of `id` in set 0, or 0 when the dump's mode does not
/// cover the event.
u64 delta(const pc::NodeDump& d, isa::EventId id) {
  if (isa::event_mode(id) != d.counter_mode) return 0;
  return d.sets.at(0).deltas.at(isa::event_counter(id));
}

TEST(CounterIdentity, Mode0PerCoreCacheIdentities) {
  const auto dumps = run_cg(0);
  ASSERT_FALSE(dumps.empty());
  bool any_l1 = false;
  for (const auto& d : dumps) {
    for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
      const u64 l1_ra = delta(d, isa::ev::l1d(c, isa::L1dEvent::kReadAccess));
      const u64 l1_rm = delta(d, isa::ev::l1d(c, isa::L1dEvent::kReadMiss));
      const u64 l1_wa = delta(d, isa::ev::l1d(c, isa::L1dEvent::kWriteAccess));
      const u64 l1_wm = delta(d, isa::ev::l1d(c, isa::L1dEvent::kWriteMiss));
      EXPECT_LE(l1_rm, l1_ra);
      EXPECT_LE(l1_wm, l1_wa);
      any_l1 = any_l1 || l1_ra > 0;

      const u64 l2_ra = delta(d, isa::ev::l2(c, isa::L2Event::kReadAccess));
      const u64 l2_rh = delta(d, isa::ev::l2(c, isa::L2Event::kReadHit));
      const u64 l2_rm = delta(d, isa::ev::l2(c, isa::L2Event::kReadMiss));
      const u64 l2_wa = delta(d, isa::ev::l2(c, isa::L2Event::kWriteAccess));
      const u64 l2_wm = delta(d, isa::ev::l2(c, isa::L2Event::kWriteMiss));
      EXPECT_EQ(l2_ra, l2_rh + l2_rm) << "node " << d.node_id << " core " << c;
      EXPECT_LE(l2_wm, l2_wa);
    }
  }
  EXPECT_TRUE(any_l1) << "CG never touched the L1D?";
}

TEST(CounterIdentity, Mode1SharedLevelIdentities) {
  const auto dumps = run_cg(1);
  ASSERT_FALSE(dumps.empty());
  for (const auto& d : dumps) {
    const u64 ra = delta(d, isa::ev::l3(isa::L3Event::kReadAccess));
    const u64 rh = delta(d, isa::ev::l3(isa::L3Event::kReadHit));
    const u64 rm = delta(d, isa::ev::l3(isa::L3Event::kReadMiss));
    const u64 wa = delta(d, isa::ev::l3(isa::L3Event::kWriteAccess));
    const u64 wh = delta(d, isa::ev::l3(isa::L3Event::kWriteHit));
    const u64 wm = delta(d, isa::ev::l3(isa::L3Event::kWriteMiss));
    EXPECT_EQ(ra, rh + rm) << "node " << d.node_id;
    EXPECT_EQ(wa, wh + wm) << "node " << d.node_id;
  }
}

/// One row of the golden table: a set's digest in one node's dump.
struct SetDigest {
  u8 mode;
  u32 node;
  u32 set;
  u32 crc;  ///< crc32 of the 256 deltas, then first_start and last_stop

  bool operator==(const SetDigest&) const = default;
};

// CG class S on 4 VNM nodes, same counter mode on every card. On a
// mismatch the test prints the regenerated table.
constexpr SetDigest kGoldenSets[] = {
    {0, 0, 0, 0xcca040f6u},
    {0, 1, 0, 0x0d96c2d1u},
    {0, 2, 0, 0x0d96c2d1u},
    {0, 3, 0, 0x502f7cddu},
    {1, 0, 0, 0xb34e5b7au},
    {1, 1, 0, 0x94ae2846u},
    {1, 2, 0, 0x6c37a819u},
    {1, 3, 0, 0xe6b112b6u},
    {2, 0, 0, 0xac1ebdbfu},
    {2, 1, 0, 0x3ccba994u},
    {2, 2, 0, 0x3ccba994u},
    {2, 3, 0, 0xac1ebdbfu},
    {3, 0, 0, 0xdac10db6u},
    {3, 1, 0, 0x9b67aa93u},
    {3, 2, 0, 0x33142e7cu},
    {3, 3, 0, 0x3e32b768u},
};

u32 set_crc(const pc::SetDump& s) {
  u32 crc = crc32(std::as_bytes(std::span(s.deltas)));
  crc = crc32(std::as_bytes(std::span(&s.first_start_cycle, 1)), crc);
  return crc32(std::as_bytes(std::span(&s.last_stop_cycle, 1)), crc);
}

TEST(CounterIdentity, GoldenSetDigestsAllModes) {
  std::vector<SetDigest> got;
  for (u8 mode = 0; mode < isa::kNumCounterModes; ++mode) {
    for (const pc::NodeDump& d : run_cg(mode)) {
      for (const pc::SetDump& s : d.sets) {
        got.push_back({mode, d.node_id, s.set_id, set_crc(s)});
      }
    }
  }
  if (!std::ranges::equal(got, kGoldenSets)) {
    std::string table;
    for (const SetDigest& g : got) {
      table += strfmt("    {%u, %u, %u, 0x%08xu},\n", unsigned(g.mode), g.node,
                      g.set, g.crc);
    }
    ADD_FAILURE() << "counters differ from kGoldenSets; this run:\n" << table;
  }
}

}  // namespace
}  // namespace bgp

// Truncate-anywhere and bit-flip-anywhere properties of every CRC-framed
// on-disk format: `.bgpc` v2 and v3 dumps, sealed `.bgpt` traces,
// `.bgpt.partial` traces, the bgpcd journal and the flight ring. For every
// prefix of a small fixture and every single-bit flip of it, the reader
// must do one of three things:
//
//   error  throw its documented error (BinIoError / JournalError),
//   torn   report a torn or truncated tail, having returned exactly the
//          records committed before it,
//   exact  return exactly the original content.
//
// It must never return a record that differs from the original, and never
// throw anything else (std::bad_alloc included).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "core/node_monitor.hpp"
#include "daemon/journal.hpp"
#include "obs/flight_ring.hpp"
#include "trace/trace_io.hpp"

namespace bgp {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::byte>;

enum class Outcome { kError, kTorn, kExact };

class FormatProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("bgpc_format_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path put(const Bytes& bytes) const {
    const fs::path p = dir_ / "subject";
    write_file_bytes(p, bytes);
    return p;
  }

  fs::path dir_;
};

Bytes flipped(const Bytes& bytes, std::size_t bit) {
  Bytes out = bytes;
  out[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
  return out;
}

Bytes prefix(const Bytes& bytes, std::size_t n) {
  return {bytes.begin(), bytes.begin() + static_cast<long>(n)};
}

/// Runs `read` and classifies it; an exception other than the documented
/// `Error` is a test failure naming `where`.
template <typename Error, typename F>
Outcome classify(const std::string& where, F&& read) {
  try {
    return read();
  } catch (const Error&) {
    return Outcome::kError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": undocumented exception: " << e.what();
    return Outcome::kError;
  }
}

// ---------------------------------------------------------------------------
// .bgpc dumps

pc::NodeDump dump_fixture(bool with_recovery) {
  pc::NodeDump d;
  d.node_id = 5;
  d.card_id = 2;
  d.counter_mode = 1;
  d.app_name = "prop";
  for (u32 s = 0; s < 2; ++s) {
    pc::SetDump set;
    set.set_id = s * 3;
    set.pairs = s + 1;
    set.first_start_cycle = 100 + s;
    set.last_stop_cycle = 9'000 + s;
    for (std::size_t c = 0; c < set.deltas.size(); ++c) {
      set.deltas[c] = (c * 2654435761u) ^ s;
    }
    d.sets.push_back(set);
  }
  if (with_recovery) {
    ft::RecoveryEvent e;
    e.kind = ft::RecoveryKind::kDeathDetected;
    e.node = 3;
    e.rank = 12;
    e.cycle = 5'000;
    e.cost = 40;
    e.aux = 4'800;
    d.recovery.push_back(e);
    e.kind = ft::RecoveryKind::kShrink;
    e.node = ft::RecoveryEvent::kNoNode;
    e.aux = 15;
    d.recovery.push_back(e);
  }
  return d;
}

/// A dump has no torn-tail mode: anything but the exact bytes must throw.
Outcome read_dump(const Bytes& bytes, const Bytes& original, u32 version) {
  const pc::NodeDump d = pc::NodeMonitor::parse(bytes);
  EXPECT_EQ(pc::NodeMonitor::serialize(d, version), original)
      << "parsed a dump that differs from the original";
  return Outcome::kExact;
}

void check_dump_format(u32 version, bool with_recovery) {
  const Bytes original =
      pc::NodeMonitor::serialize(dump_fixture(with_recovery), version);
  ASSERT_EQ(classify<BinIoError>("intact",
                                 [&] { return read_dump(original, original,
                                                        version); }),
            Outcome::kExact);
  for (std::size_t n = 0; n < original.size(); ++n) {
    EXPECT_EQ(classify<BinIoError>(
                  strfmt("prefix %zu", n),
                  [&] { return read_dump(prefix(original, n), original,
                                         version); }),
              Outcome::kError)
        << "prefix " << n;
  }
  for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
    (void)classify<BinIoError>(strfmt("flip %zu", bit), [&] {
      return read_dump(flipped(original, bit), original, version);
    });
  }
}

TEST_F(FormatProperty, DumpV2) {
  check_dump_format(pc::kDumpVersion, false);
}

TEST_F(FormatProperty, DumpV3) {
  check_dump_format(pc::kDumpVersionFt, true);
}

TEST_F(FormatProperty, DumpCrcErrorNamesTheSetIndex) {
  const Bytes original = pc::NodeMonitor::serialize(dump_fixture(false));
  // The last byte of the file is inside set 1's CRC word.
  try {
    (void)pc::NodeMonitor::parse(flipped(original, original.size() * 8 - 1));
    FAIL() << "flipped CRC accepted";
  } catch (const BinIoError& e) {
    EXPECT_NE(std::string(e.what()).find("set 1 CRC mismatch over bytes"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// .bgpt traces

constexpr std::size_t kTraceChunk = 2;
constexpr u64 kTraceRecords = 5;

trace::TraceMeta trace_meta() {
  trace::TraceMeta m;
  m.node_id = 9;
  m.card_id = 4;
  m.counter_mode = 0;
  m.app_name = "prop";
  m.interval_cycles = 1'000;
  m.pacer_event = isa::ev::cycle_count(0);
  m.events = {isa::ev::cycle_count(0), isa::ev::instr_completed(0),
              isa::ev::fpu_op(0, isa::FpOp::kFma)};
  return m;
}

trace::IntervalRecord trace_record(u64 i) {
  trace::IntervalRecord r;
  r.index = i;
  r.spanned = 1 + static_cast<u32>(i % 2);
  r.t_begin = i * 1'000;
  r.t_end = r.t_begin + r.spanned * 1'000;
  r.values = {r.span_cycles(), 500 * i, i * i};
  return r;
}

trace::TraceTotals trace_totals() {
  trace::TraceTotals t;
  t.intervals = kTraceRecords;
  t.dropped = 1;
  t.samples = 7;
  t.overhead_cycles = 448;
  return t;
}

bool same(const trace::IntervalRecord& a, const trace::IntervalRecord& b) {
  return a.index == b.index && a.spanned == b.spanned &&
         a.t_begin == b.t_begin && a.t_end == b.t_end && a.values == b.values;
}

bool same(const trace::TraceMeta& a, const trace::TraceMeta& b) {
  return a.node_id == b.node_id && a.card_id == b.card_id &&
         a.counter_mode == b.counter_mode && a.app_name == b.app_name &&
         a.interval_cycles == b.interval_cycles &&
         a.pacer_event == b.pacer_event && a.events == b.events;
}

/// Writes the fixture trace and returns its bytes: sealed, or the
/// `.partial` a node that died before finalize leaves behind.
Bytes trace_fixture(const fs::path& dir, bool sealed) {
  const fs::path base = dir / (sealed ? "sealed" : "crashed");
  {
    trace::TraceWriter w(base, trace_meta(), kTraceChunk);
    for (u64 i = 0; i < kTraceRecords; ++i) w.append(trace_record(i));
    if (sealed) w.finalize(trace_totals());
  }
  return read_file_bytes(base.string() +
                         (sealed ? trace::kTraceSuffix
                                 : trace::kPartialSuffix));
}

/// File offset just past each committed chunk, with the record count
/// committed by then.
std::vector<std::pair<std::size_t, u64>> chunk_ends() {
  const trace::TraceMeta m = trace_meta();
  const std::size_t header = 2 * sizeof(u32) + 4 * sizeof(u32) +
                             m.app_name.size() + sizeof(u64) +
                             2 * sizeof(u32) + m.events.size() * sizeof(u16) +
                             sizeof(u32);
  const std::size_t record =
      sizeof(u64) + sizeof(u32) + 2 * sizeof(u64) + m.events.size() * 8;
  std::vector<std::pair<std::size_t, u64>> ends{{header, 0}};
  for (u64 done = 0; done < kTraceRecords;) {
    const u64 n = std::min<u64>(kTraceChunk, kTraceRecords - done);
    done += n;
    ends.emplace_back(ends.back().first + 2 * sizeof(u32) + n * record, done);
  }
  return ends;
}

/// Reads a whole trace, checking every record it returns against the
/// original as it goes. `committed` is how many records a truncated read
/// must have returned (or -1 to accept any clean prefix).
Outcome read_trace(const fs::path& path, bool sealed_original,
                   long committed) {
  trace::TraceReader r(path);
  EXPECT_TRUE(same(r.meta(), trace_meta())) << "header parsed differently";
  u64 n = 0;
  while (const auto rec = r.next()) {
    EXPECT_LT(n, kTraceRecords) << "more records than were written";
    if (n >= kTraceRecords) break;
    EXPECT_TRUE(same(*rec, trace_record(n))) << "record " << n << " differs";
    ++n;
  }
  EXPECT_EQ(r.records_read(), n);
  if (r.sealed()) {
    EXPECT_TRUE(sealed_original) << "a partial trace read as sealed";
    EXPECT_EQ(n, kTraceRecords);
    const trace::TraceTotals& t = *r.totals();
    const trace::TraceTotals want = trace_totals();
    EXPECT_TRUE(t.intervals == want.intervals && t.dropped == want.dropped &&
                t.samples == want.samples &&
                t.overhead_cycles == want.overhead_cycles)
        << "footer totals differ";
    return Outcome::kExact;
  }
  EXPECT_TRUE(r.truncated());
  if (committed >= 0) {
    EXPECT_EQ(n, static_cast<u64>(committed));
  }
  return Outcome::kTorn;
}

void check_trace_format(const Bytes& original, bool sealed,
                        const fs::path& dir) {
  const auto ends = chunk_ends();
  for (std::size_t n = 0; n <= original.size(); ++n) {
    const fs::path p = dir / "cut.bgpt";
    write_file_bytes(p, prefix(original, n));
    long committed = -1;
    for (const auto& [end, records] : ends) {
      if (end <= n) committed = static_cast<long>(records);
    }
    const Outcome o = classify<BinIoError>(strfmt("prefix %zu", n), [&] {
      return read_trace(p, sealed, committed);
    });
    if (n < ends.front().first) {
      EXPECT_EQ(o, Outcome::kError) << "torn header accepted at " << n;
    } else if (n == original.size() && sealed) {
      EXPECT_EQ(o, Outcome::kExact);
    } else {
      EXPECT_EQ(o, Outcome::kTorn) << "prefix " << n;
    }
  }
  for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
    const fs::path p = dir / "flip.bgpt";
    write_file_bytes(p, flipped(original, bit));
    (void)classify<BinIoError>(strfmt("flip %zu", bit), [&] {
      return read_trace(p, sealed, -1);
    });
  }
}

TEST_F(FormatProperty, SealedTrace) {
  const Bytes original = trace_fixture(dir_, true);
  ASSERT_EQ(original.size(),
            chunk_ends().back().first + sizeof(u32) + 4 * sizeof(u64) +
                sizeof(u32));
  check_trace_format(original, true, dir_);
}

TEST_F(FormatProperty, PartialTrace) {
  const Bytes original = trace_fixture(dir_, false);
  ASSERT_EQ(original.size(), chunk_ends().back().first);
  check_trace_format(original, false, dir_);
}

// ---------------------------------------------------------------------------
// bgpcd journal

constexpr unsigned kJournalRecords = 4;

daemon::JournalRecord journal_record(unsigned i) {
  daemon::JournalRecord rec;
  rec.op = i % 2 == 0 ? daemon::journal_op::kAdmit
                      : daemon::journal_op::kFinish;
  rec.session = "s" + std::to_string(i);
  daemon::json::Value body = daemon::json::Value::object();
  body.set("i", daemon::json::Value(u64{i}));
  body.set("text", daemon::json::Value(std::string(i * 3, 'x')));
  rec.body = body;
  return rec;
}

/// Replays a journal of `size` bytes (`full` for the whole fixture);
/// `committed` is how many records it must return.
Outcome read_journal(const fs::path& path, std::size_t committed,
                     std::size_t size, std::size_t full) {
  const daemon::JournalReplay replay = daemon::replay_journal(path);
  EXPECT_EQ(replay.records.size(), committed);
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].to_json().dump(),
              journal_record(unsigned(i)).to_json().dump())
        << "record " << i << " differs";
  }
  EXPECT_EQ(replay.valid_bytes + replay.dropped_bytes, size);
  if (committed == kJournalRecords) {
    EXPECT_TRUE(replay.tail_error.empty()) << replay.tail_error;
    return Outcome::kExact;
  }
  // Records missing from a full-length file: the replay must say why.
  if (size == full) {
    EXPECT_FALSE(replay.tail_error.empty());
  }
  return Outcome::kTorn;
}

TEST_F(FormatProperty, Journal) {
  const fs::path path = dir_ / "journal";
  std::vector<std::size_t> ends;  // file offset past each frame
  {
    daemon::JournalWriter w(path);
    for (unsigned i = 0; i < kJournalRecords; ++i) {
      w.append(journal_record(i));
      ends.push_back(static_cast<std::size_t>(fs::file_size(path)));
    }
  }
  const Bytes original = read_file_bytes(path);
  const auto committed_by = [&](std::size_t offset) {
    return static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), offset) - ends.begin());
  };

  for (std::size_t n = 0; n <= original.size(); ++n) {
    const fs::path p = put(prefix(original, n));
    const Outcome o = classify<daemon::JournalError>(
        strfmt("prefix %zu", n),
        [&] {
          return read_journal(p, committed_by(n), n, original.size());
        });
    EXPECT_EQ(o, n == original.size() ? Outcome::kExact : Outcome::kTorn)
        << "prefix " << n;
  }
  for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
    const std::size_t byte = bit / 8;
    const fs::path p = put(flipped(original, bit));
    // A flip in the header is a foreign file; past it, the frame holding
    // the flipped byte is the first one rejected.
    const Outcome o = classify<daemon::JournalError>(
        strfmt("flip %zu", bit), [&] {
          return read_journal(p, committed_by(byte), original.size(),
                              original.size());
        });
    EXPECT_EQ(o, byte < daemon::kJournalHeaderBytes ? Outcome::kError
                                                    : Outcome::kTorn)
        << "flip " << bit;
  }
}

// ---------------------------------------------------------------------------
// Flight ring

TEST_F(FormatProperty, FlightRing) {
  constexpr u32 kSlots = 8;
  constexpr u32 kSlotBytes = 32;
  constexpr std::size_t kHeaderBytes = 32;
  obs::FlightRingConfig cfg;
  cfg.path = dir_ / "flight.ring";
  cfg.num_slots = kSlots;
  cfg.slot_bytes = kSlotBytes;
  Bytes original;
  {
    obs::FlightRing ring(cfg);
    for (int i = 0; i < 11; ++i) ring.append(strfmt("{\"n\":%d}", i));
    // The live file without the clean-close flag: what SIGKILL leaves.
    original = read_file_bytes(cfg.path);
  }
  std::vector<std::string> want;
  for (int i = 3; i < 11; ++i) want.push_back(strfmt("{\"n\":%d}", i));
  ASSERT_EQ(obs::salvage_flight_ring(put(original)), want);

  // Any prefix is short of the declared geometry: nothing is salvaged.
  for (std::size_t n = 0; n < original.size(); ++n) {
    EXPECT_TRUE(obs::salvage_flight_ring(put(prefix(original, n))).empty())
        << "prefix " << n;
  }

  for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
    const std::size_t byte = bit / 8;
    const std::vector<std::string> got =
        obs::salvage_flight_ring(put(flipped(original, bit)));
    // Never a record that was not written, never one twice.
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NE(std::find(want.begin(), want.end(), got[i]), want.end())
          << "flip " << bit << " salvaged a record never written: "
          << got[i];
      EXPECT_EQ(std::count(got.begin(), got.end(), got[i]), 1)
          << "flip " << bit;
    }
    // Past the header and the slot's sequence word the flip lands in a
    // CRC-covered frame: exactly that slot's record is lost (or none, in
    // the unused tail of the slot), the rest stay in order.
    if (byte < kHeaderBytes) continue;
    const std::size_t in_slot = (byte - kHeaderBytes) % kSlotBytes;
    if (in_slot < sizeof(u64)) continue;
    std::vector<std::string> expect = want;
    // Slot k holds record k + 8 when k < 3 (wrapped), else record k.
    const std::size_t slot = (byte - kHeaderBytes) / kSlotBytes;
    const std::string victim = strfmt("{\"n\":%zu}", slot < 3 ? slot + 8 : slot);
    if (in_slot < sizeof(u64) + 8 + victim.size()) {
      expect.erase(std::find(expect.begin(), expect.end(), victim));
    }
    EXPECT_EQ(got, expect) << "flip " << bit;
  }
}

}  // namespace
}  // namespace bgp

// Write-ahead journal contract: appended records replay exactly, a torn or
// bit-flipped tail never surfaces a partial record (committed prefix only),
// the writer truncates torn tails on reopen so appends stay readable, foreign
// files are never clobbered, and the injected daemon faults (torn append,
// ENOSPC, EINTR) behave like their real counterparts. The exhaustive
// truncate-anywhere and bit-flip-anywhere sweeps live in tests/format.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "daemon/journal.hpp"
#include "fault/fault.hpp"

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpcd_jrnl_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JournalRecord make_record(unsigned i) {
  JournalRecord rec;
  rec.op = i % 2 == 0 ? journal_op::kAdmit : journal_op::kFinish;
  rec.session = "s" + std::to_string(i);
  json::Value body = json::Value::object();
  body.set("i", json::Value(u64{i}));
  body.set("text", json::Value(std::string(i * 7, 'x')));
  rec.body = body;
  return rec;
}

std::string dump(const JournalRecord& rec) { return rec.to_json().dump(); }

/// Write `n` records; returns the file offset after each append (frame
/// boundaries, for tests that truncate between/inside frames).
std::vector<std::size_t> write_journal(const fs::path& path, unsigned n) {
  std::vector<std::size_t> ends;
  JournalWriter w(path);
  for (unsigned i = 0; i < n; ++i) {
    w.append(make_record(i));
    ends.push_back(static_cast<std::size_t>(fs::file_size(path)));
  }
  return ends;
}

std::vector<std::byte> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chars{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  std::vector<std::byte> out(chars.size());
  std::memcpy(out.data(), chars.data(), chars.size());
  return out;
}

void write_bytes(const fs::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, RoundTripAndPersistence) {
  const fs::path path = test_dir() / "j";
  {
    JournalWriter w(path);
    EXPECT_EQ(w.recovered().records.size(), 0u);
    for (unsigned i = 0; i < 5; ++i) w.append(make_record(i));
    EXPECT_EQ(w.appended(), 5u);
  }
  const JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 5u);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  EXPECT_TRUE(replay.tail_error.empty()) << replay.tail_error;
  for (unsigned i = 0; i < 5; ++i) {
    EXPECT_EQ(dump(replay.records[i]), dump(make_record(i)));
  }

  // A second writer sees the history and appends after it.
  {
    JournalWriter w(path);
    EXPECT_EQ(w.recovered().records.size(), 5u);
    w.append(make_record(5));
  }
  EXPECT_EQ(replay_journal(path).records.size(), 6u);
}

TEST(Journal, MissingAndEmptyFilesAreEmptyJournals) {
  const fs::path dir = test_dir();
  EXPECT_EQ(replay_journal(dir / "nope").records.size(), 0u);
  { std::ofstream out(dir / "empty", std::ios::binary); }
  EXPECT_EQ(replay_journal(dir / "empty").records.size(), 0u);
}

TEST(Journal, ForeignFileRefusedNotClobbered) {
  const fs::path path = test_dir() / "notes.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "these are someone's notes, not a journal\n";
  }
  EXPECT_THROW((void)replay_journal(path), JournalError);
  EXPECT_THROW(JournalWriter{path}, JournalError);
  // The file must be untouched.
  EXPECT_NE(fs::file_size(path), 0u);
}

// Property: truncating the file at *any* point yields exactly the records
// whose frames survived whole — the committed prefix — and never a torn
// record or a crash.
TEST(Journal, TruncatedTailYieldsExactlyTheCommittedPrefix) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "j";
  const unsigned kRecords = 8;
  const std::vector<std::size_t> ends = write_journal(path, kRecords);
  const std::vector<std::byte> full = read_bytes(path);

  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = rng() % (full.size() + 1);
    std::vector<std::byte> bytes(full.begin(),
                                 full.begin() + static_cast<long>(cut));
    const fs::path p = dir / "cut";
    write_bytes(p, bytes);

    const JournalReplay replay = replay_journal(p);
    std::size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    ASSERT_EQ(replay.records.size(), expected) << "cut at " << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(dump(replay.records[i]), dump(make_record(unsigned(i))));
    }
    EXPECT_EQ(replay.valid_bytes + replay.dropped_bytes, cut);
  }
}

// Property: a bit flip anywhere past the header (injected through the same
// fault machinery the dump pipeline uses) invalidates exactly the frame it
// hit — replay returns the intact prefix before it, never a mutated record.
TEST(Journal, BitFlippedTailNeverYieldsACorruptRecord) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "j";
  const unsigned kRecords = 8;
  const std::vector<std::size_t> ends = write_journal(path, kRecords);
  const std::vector<std::byte> full = read_bytes(path);

  std::mt19937_64 rng(0xBADC0DE);
  for (int trial = 0; trial < 200; ++trial) {
    const u32 offset = static_cast<u32>(
        kJournalHeaderBytes + rng() % (full.size() - kJournalHeaderBytes));
    fault::FaultPlan plan;
    fault::FaultEvent flip;
    flip.kind = fault::FaultKind::kDumpBitFlip;
    flip.node = 0;
    flip.byte_offset = offset;
    flip.bit = static_cast<u8>(rng() % 8);
    plan.add(flip);
    fault::FaultInjector injector(plan);

    std::vector<std::byte> bytes = full;
    ASSERT_EQ(injector.corrupt_dump(0, bytes).size(), 1u);
    const fs::path p = dir / "flip";
    write_bytes(p, bytes);

    // The frame containing the flipped byte is the first invalid one.
    std::size_t victim = 0;
    while (victim < ends.size() && ends[victim] <= offset) ++victim;

    const JournalReplay replay = replay_journal(p);
    ASSERT_EQ(replay.records.size(), victim)
        << "flip at " << offset << " bit " << unsigned(flip.bit);
    for (std::size_t i = 0; i < victim; ++i) {
      EXPECT_EQ(dump(replay.records[i]), dump(make_record(unsigned(i))));
    }
    EXPECT_FALSE(replay.tail_error.empty());
  }
}

// A file shorter than the magic is ours only when it is a prefix of it
// (a header torn by a crash); anything else is refused, not truncated.
TEST(Journal, ShortForeignFileRefusedNotClobbered) {
  const fs::path dir = test_dir();
  {
    std::ofstream out(dir / "foreign", std::ios::binary);
    out << "abc";
  }
  EXPECT_THROW((void)replay_journal(dir / "foreign"), JournalError);
  EXPECT_THROW(JournalWriter{dir / "foreign"}, JournalError);
  EXPECT_EQ(fs::file_size(dir / "foreign"), 3u);

  {
    std::ofstream out(dir / "torn", std::ios::binary);
    out.write(kJournalMagic, 3);
  }
  const JournalReplay replay = replay_journal(dir / "torn");
  EXPECT_EQ(replay.dropped_bytes, 3u);
  EXPECT_EQ(replay.tail_error, "torn header");
  {
    JournalWriter w(dir / "torn");
    w.append(make_record(0));
  }
  EXPECT_EQ(replay_journal(dir / "torn").records.size(), 1u);
}

TEST(Journal, WriterTruncatesTornTailAndAppendsCleanly) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "j";
  const std::vector<std::size_t> ends = write_journal(path, 4);

  // Tear the last frame: keep the boundary of record 2 plus a few bytes.
  std::vector<std::byte> full = read_bytes(path);
  full.resize(ends[2] + 3);
  write_bytes(path, full);

  {
    JournalWriter w(path);
    EXPECT_EQ(w.recovered().records.size(), 3u);
    EXPECT_EQ(w.recovered().dropped_bytes, 3u);
    EXPECT_FALSE(w.recovered().tail_error.empty());
    // The tail was truncated: the file ends on a frame boundary again.
    EXPECT_EQ(fs::file_size(path), ends[2]);
    w.append(make_record(100));
  }
  const JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(dump(replay.records[3]), dump(make_record(100)));
  EXPECT_TRUE(replay.tail_error.empty()) << replay.tail_error;
}

TEST(Journal, InjectedTornAppendLeavesARecoverableTail) {
  const fs::path path = test_dir() / "j";
  std::vector<fault::DaemonFaultEvent> plan;
  fault::DaemonFaultEvent torn;
  torn.kind = fault::DaemonFaultKind::kJournalTorn;
  torn.after = 2;
  torn.keep_bytes = 5;
  plan.push_back(torn);
  fault::DaemonFaultInjector faults(std::move(plan));

  {
    JournalWriter w(path, &faults);
    w.append(make_record(0));
    w.append(make_record(1));
    EXPECT_THROW(w.append(make_record(2)), JournalWriteError);
    EXPECT_EQ(w.appended(), 2u);
    EXPECT_EQ(faults.injected_log().size(), 1u);
  }
  // Exactly what a crash mid-append leaves: two whole frames + 5 tail
  // bytes. Replay keeps the committed prefix; a new writer truncates.
  const JournalReplay replay = replay_journal(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.dropped_bytes, 5u);
  JournalWriter w2(path);
  EXPECT_EQ(w2.recovered().records.size(), 2u);
}

TEST(Journal, InjectedEnospcAndEintr) {
  const fs::path path = test_dir() / "j";
  std::vector<fault::DaemonFaultEvent> plan;
  fault::DaemonFaultEvent eintr;
  eintr.kind = fault::DaemonFaultKind::kJournalEintr;
  eintr.after = 0;
  plan.push_back(eintr);
  fault::DaemonFaultEvent transient;
  transient.kind = fault::DaemonFaultKind::kJournalError;
  transient.after = 1;
  plan.push_back(transient);
  fault::DaemonFaultEvent sticky;
  sticky.kind = fault::DaemonFaultKind::kJournalError;
  sticky.after = 3;
  sticky.persistent = true;
  plan.push_back(sticky);
  fault::DaemonFaultInjector faults(std::move(plan));

  JournalWriter w(path, &faults);
  w.append(make_record(0));  // EINTR: retried internally, append succeeds
  EXPECT_THROW(w.append(make_record(1)), JournalWriteError);  // transient
  w.append(make_record(2));                                   // recovered
  EXPECT_THROW(w.append(make_record(3)), JournalWriteError);  // sticky...
  EXPECT_THROW(w.append(make_record(4)), JournalWriteError);  // ...forever
  EXPECT_THROW(w.append(make_record(5)), JournalWriteError);
  EXPECT_EQ(w.appended(), 2u);
}

}  // namespace
}  // namespace bgp::daemon

// Byte goldens for the two CRC-framed layouts no artifact digest covers:
// one bgpcd journal frame and one flight-ring slot. (`.bgpc`, `.bgpt` and
// `.bgpt.partial` bytes are pinned by CounterIdentity.Golden* and
// SchedDeterminism.Golden*.) A failure prints the bytes actually produced;
// update the committed hex only for an intended format change.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "daemon/journal.hpp"
#include "obs/flight_ring.hpp"

namespace bgp {
namespace {

namespace fs = std::filesystem;

std::string hex(const std::vector<std::byte>& bytes) {
  std::string out;
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(b));
    out += buf;
  }
  return out;
}

TEST(FormatGolden, JournalFrameBytes) {
  daemon::JournalRecord rec;
  rec.op = daemon::journal_op::kAdmit;
  rec.session = "s1";
  daemon::json::Value body = daemon::json::Value::object();
  body.set("n", daemon::json::Value(u64{1}));
  rec.body = body;
  // u32 len | u32 crc32(payload) | payload
  EXPECT_EQ(hex(daemon::encode_journal_frame(rec)),
            "2c00000094f84a0c"
            "7b226f70223a2261646d6974222c2273657373696f6e223a227331222c"
            "22626f6479223a7b226e223a317d7d");
}

TEST(FormatGolden, FlightRingSlotBytes) {
  const fs::path dir = fs::temp_directory_path() / "bgpc_format_golden_ring";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::FlightRingConfig cfg;
  cfg.path = dir / "flight.ring";
  cfg.slot_bytes = 32;
  cfg.num_slots = 8;
  std::vector<std::byte> file;
  {
    obs::FlightRing ring(cfg);
    ring.append("{\"n\":1}");
    std::ifstream in(cfg.path, std::ios::binary);
    const std::vector<char> chars{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
    for (const char c : chars) file.push_back(static_cast<std::byte>(c));
  }
  fs::remove_all(dir);
  // Slot 0 follows the 32-byte ring header.
  ASSERT_GE(file.size(), 64u);
  const std::vector<std::byte> slot(file.begin() + 32, file.begin() + 64);
  // u64 seq | u32 len | u32 crc32(text) | text | zero fill
  EXPECT_EQ(hex(slot),
            "0100000000000000" "07000000" "7e3b4bd4"
            "7b226e223a317d000000000000000000");
}

}  // namespace
}  // namespace bgp

#include "common/binio.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

namespace bgp {
namespace {

TEST(BinIo, ScalarRoundTrip) {
  BinaryWriter w;
  w.put<u32>(0xDEADBEEF);
  w.put<u64>(0x0123456789ABCDEFull);
  w.put<double>(3.14159);
  w.put<u8>(7);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get<u32>(), 0xDEADBEEFu);
  EXPECT_EQ(r.get<u64>(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get<double>(), 3.14159);
  EXPECT_EQ(r.get<u8>(), 7);
  EXPECT_TRUE(r.at_end());
}

TEST(BinIo, StringRoundTrip) {
  BinaryWriter w;
  w.put_string("hello, world");
  w.put_string("");
  w.put_string(std::string("embedded\0null", 13));

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get_string(), "hello, world");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("embedded\0null", 13));
  EXPECT_TRUE(r.at_end());
}

TEST(BinIo, TruncatedReadThrows) {
  BinaryWriter w;
  w.put<u32>(1);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.get<u32>(), 1u);
  EXPECT_THROW(r.get<u8>(), BinIoError);
}

TEST(BinIo, TruncatedStringThrows) {
  BinaryWriter w;
  w.put<u32>(100);  // claims 100 bytes follow, but none do
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.get_string(), BinIoError);
}

TEST(BinIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "bgp_binio_test.bin";
  BinaryWriter w;
  for (u64 i = 0; i < 1000; ++i) w.put<u64>(i * i);
  w.write_file(path);

  const auto bytes = read_file_bytes(path);
  ASSERT_EQ(bytes.size(), w.size());
  BinaryReader r(bytes);
  for (u64 i = 0; i < 1000; ++i) EXPECT_EQ(r.get<u64>(), i * i);
  std::filesystem::remove(path);
}

// A small file sits in the stream buffer until close(), so a full disk
// only shows up there; it must still be reported.
TEST(BinIo, WriteToAFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  BinaryWriter w;
  for (int i = 0; i < 100; ++i) w.put<u8>(static_cast<u8>(i));
  EXPECT_THROW(w.write_file("/dev/full"), BinIoError);
}

TEST(BinIo, PublishFileReplacesAtomicallyAndCleansUp) {
  const auto dir = std::filesystem::temp_directory_path() / "bgp_binio_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::byte> bytes(10, std::byte{0x5A});
  publish_file(dir / "out.bin", bytes);
  publish_file(dir / "out.bin", bytes);  // replaces an existing file
  EXPECT_EQ(read_file_bytes(dir / "out.bin"), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir / "out.bin.tmp"));

  // The rename cannot replace a directory: the publish fails and leaves
  // no temp file behind.
  std::filesystem::create_directories(dir / "taken");
  EXPECT_THROW(publish_file(dir / "taken", bytes), BinIoError);
  EXPECT_FALSE(std::filesystem::exists(dir / "taken.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(BinIo, MissingFileThrows) {
  EXPECT_THROW(read_file_bytes("/nonexistent/bgp/file.bin"), BinIoError);
}

TEST(BinIo, RemainingAndPosition) {
  BinaryWriter w;
  w.put<u64>(1);
  w.put<u64>(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  r.get<u64>();
  EXPECT_EQ(r.position(), 8u);
  EXPECT_EQ(r.remaining(), 8u);
}

}  // namespace
}  // namespace bgp

// Fiber stacks: every rank gets one, so a 256-rank run holds 256 of them.
// Their memory must follow the depth a fiber actually reached, not the
// size it reserved.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <fstream>
#include <memory>
#include <vector>

#include "runtime/fiber.hpp"

namespace bgp {
namespace {

/// Resident set size of this process in bytes (/proc/self/statm).
std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Fiber, StacksAreNotTouchedUntilUsed) {
#ifdef BGP_TSAN_FIBERS
  GTEST_SKIP() << "__tsan_create_fiber keeps about 0.8 MiB per fiber";
#endif
  constexpr std::size_t kFibers = 256;
  constexpr std::size_t kMaxGrowth = 32u << 20;
  const std::size_t before = rss_bytes();
  ASSERT_GT(before, 0u);
  std::vector<std::unique_ptr<rt::Fiber>> fibers;
  fibers.reserve(kFibers);
  for (std::size_t i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<rt::Fiber>([] {}));
  }
  const std::size_t after = rss_bytes();
  EXPECT_LT(after - before, kMaxGrowth)
      << kFibers << " fibers that never ran grew RSS from " << before
      << " to " << after << " bytes";
}

}  // namespace
}  // namespace bgp

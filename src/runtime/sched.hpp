// The dispatch order of Machine::run: ranks run in ascending (cycle, rank)
// order, lowest cycle first with the lower rank winning ties.
#pragma once

#include "common/types.hpp"

namespace bgp::rt {

/// Accepted for source compatibility and ignored: every run dispatches its
/// ranks on the calling thread (MachineConfig::sched).
enum class SchedMode : u8 {
  kSerial,
  kParallel,
};

/// The dispatch key: a rank's core clock when it became ready, then its
/// rank number.
struct SchedKey {
  cycles_t cycle = 0;
  unsigned rank = 0;

  friend bool operator<(const SchedKey& a, const SchedKey& b) noexcept {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.rank < b.rank;
  }
  friend bool operator>(const SchedKey& a, const SchedKey& b) noexcept {
    return b < a;
  }
};

}  // namespace bgp::rt

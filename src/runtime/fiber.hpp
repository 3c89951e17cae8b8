// ucontext fibers: one per rank, resumed by Machine::run's dispatch loop.
//
// A Fiber runs until it parks (or its entry function returns); parking
// switches straight back into resume()'s caller. The return context is
// re-captured on every resume, and the AddressSanitizer/ThreadSanitizer
// fiber-switching hooks are kept informed on both edges of every switch so
// sanitized builds see the stack and happens-before structure correctly.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>

#include "common/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define BGP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BGP_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define BGP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BGP_TSAN_FIBERS 1
#endif
#endif

namespace bgp::rt {

/// A cooperatively-scheduled execution context with its own stack.
class Fiber {
 public:
  /// `entry` runs on the fiber's stack at the first resume(); when it
  /// returns the fiber is finished and resume() must not be called again.
  /// The stack is mapped, not filled: it costs memory only as the fiber
  /// touches it.
  explicit Fiber(std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it parks or finishes.
  void resume();
  /// Switch from inside the fiber back to whoever resumed it.
  void park();
  /// True once the entry function has returned.
  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void run_entry();

  /// Lowest usable stack byte; a PROT_NONE guard page sits just below.
  [[nodiscard]] std::byte* stack_base() const noexcept;

  std::function<void()> entry_;
  std::byte* map_ = nullptr;  ///< guard page + stack, owned (munmap)
  ucontext_t ctx_{};      ///< the fiber's suspended context
  ucontext_t ret_ctx_{};  ///< where park() returns to (set per resume)
  bool done_ = false;

#ifdef BGP_ASAN_FIBERS
  void* fiber_fake_stack_ = nullptr;  ///< fiber side, saved when parking
  void* host_fake_stack_ = nullptr;   ///< host side, saved when resuming
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
#endif
#ifdef BGP_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
#endif
};

}  // namespace bgp::rt

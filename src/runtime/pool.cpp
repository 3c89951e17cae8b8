#include "runtime/pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#ifdef BGP_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef BGP_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace bgp::rt {

namespace {
/// Usable stack per fiber: room for the simulator's deepest call chains
/// (kernel bodies, dump serialization, printf).
constexpr std::size_t kStackBytes = 1024 * 1024;

std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

Fiber::Fiber(std::function<void()> entry) : entry_(std::move(entry)) {
  if (getcontext(&ctx_) != 0) {
    throw std::runtime_error("fiber: getcontext failed");
  }
  // An anonymous mapping reads as zeros without being written, so a
  // fiber's resident size is the stack depth it reached, not kStackBytes.
  void* map = mmap(nullptr, guard_bytes() + kStackBytes,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (map == MAP_FAILED) throw std::runtime_error("fiber: cannot map stack");
  map_ = static_cast<std::byte*>(map);
  // An overflow faults on the guard page instead of corrupting the heap.
  if (mprotect(map_, guard_bytes(), PROT_NONE) != 0) {
    munmap(map_, guard_bytes() + kStackBytes);
    throw std::runtime_error("fiber: cannot protect the stack guard page");
  }
  ctx_.uc_stack.ss_sp = stack_base();
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // termination switches back manually
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#ifdef BGP_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef BGP_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(map_, guard_bytes() + kStackBytes);
}

std::byte* Fiber::stack_base() const noexcept { return map_ + guard_bytes(); }

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_entry();
}

void Fiber::run_entry() {
#ifdef BGP_ASAN_FIBERS
  // First entry: complete the host->fiber switch and learn the resuming
  // thread's stack bounds so park() can annotate the way back.
  __sanitizer_finish_switch_fiber(nullptr, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
  entry_();
  // Final switch out: the fiber never resumes, so its fake stack (if any)
  // is released rather than saved.
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, host_stack_bottom_,
                                 host_stack_size_);
#endif
#ifdef BGP_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  swapcontext(&ctx_, &ret_ctx_);
}

void Fiber::resume() {
#ifdef BGP_TSAN_FIBERS
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&host_fake_stack_, stack_base(),
                                 kStackBytes);
#endif
  swapcontext(&ret_ctx_, &ctx_);
#ifdef BGP_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::park() {
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, host_stack_bottom_,
                                 host_stack_size_);
#endif
#ifdef BGP_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  swapcontext(&ctx_, &ret_ctx_);
#ifdef BGP_ASAN_FIBERS
  // Resumed again, possibly from a different worker: refresh the host
  // stack bounds for the next park.
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
}

WorkerPool::WorkerPool(unsigned num_workers) {
  workers_.reserve(num_workers == 0 ? 1 : num_workers);
  for (unsigned i = 0; i < (num_workers == 0 ? 1 : num_workers); ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace bgp::rt

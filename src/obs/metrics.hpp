// Process-wide metrics registry for the flight recorder: monotonic
// counters, gauges and fixed-bucket histograms, grouped into families
// (one name + help + type, many label sets) exactly the way the
// Prometheus exposition format models them. Handles returned by the
// registry stay valid for its lifetime (instances live in deques), so
// subsystems fetch their counter once and bump a pointer afterwards.
//
// Registration (counter()/gauge()/histogram()) is serialized by an
// internal mutex and renderers snapshot under the same lock
// (families_lock()), so a daemon thread can register series while another
// thread renders the exposition. *Updates* are lock-free atomics: in
// bgpcd, session threads bump series while the HTTP thread scrapes them.
// Counter increments and histogram observations are commutative (integer
// adds; histogram sums are integral cycle counts well under 2^53, so
// double addition is exact), which keeps rendered output byte-identical
// regardless of update interleaving.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bgp::obs {

/// Sorted-insertion is the caller's job only for determinism of output
/// order; lookup compares the full vector.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : u8 { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricType t) noexcept;

/// Monotonically increasing 64-bit counter.
class Counter {
 public:
  void add(u64 n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] u64 value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> value_{0};
};

/// Free-moving instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are the ascending finite upper bounds;
/// an implicit +Inf bucket catches the rest. Counts are stored
/// per-bucket (non-cumulative) and cumulated at render time.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Count in bucket `i` (i == bounds().size() is the +Inf bucket).
  [[nodiscard]] u64 bucket(std::size_t i) const {
    if (i >= num_counts_) throw std::out_of_range("histogram bucket index");
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 (+Inf). unique_ptr array because atomics are not
  /// movable and the bucket count is fixed at construction.
  std::unique_ptr<std::atomic<u64>[]> counts_;
  std::size_t num_counts_ = 0;
  std::atomic<double> sum_{0.0};
  std::atomic<u64> count_{0};
};

/// [a-zA-Z_:][a-zA-Z0-9_:]* — the Prometheus metric-name grammar.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;
/// [a-zA-Z_][a-zA-Z0-9_]* — label-name grammar.
[[nodiscard]] bool valid_label_name(std::string_view name) noexcept;

class MetricsRegistry {
 public:
  struct Instance {
    LabelSet labels;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::deque<Instance> instances;  ///< deque: handle addresses are stable
  };

  /// Fetch-or-create. Throws std::invalid_argument on a bad metric/label
  /// name and std::logic_error when `name` already exists with another
  /// type (both are programming errors in instrumentation code).
  Counter& counter(std::string_view name, std::string_view help,
                   LabelSet labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               LabelSet labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, LabelSet labels = {});

  /// The family table. Safe to iterate without a lock only when no
  /// concurrent registration can happen; renderers that may race one hold
  /// families_lock() across the iteration.
  [[nodiscard]] const std::deque<Family>& families() const noexcept {
    return families_;
  }
  /// Serializes against registration (instances/families never move or
  /// disappear — deques — but the table may grow underneath an unlocked
  /// iteration).
  [[nodiscard]] std::unique_lock<std::mutex> families_lock() const {
    return std::unique_lock<std::mutex>(*mu_);
  }
  /// Total number of (family, label set) series.
  [[nodiscard]] std::size_t num_series() const;

 private:
  Family& family(std::string_view name, std::string_view help,
                 MetricType type);
  Instance& instance(Family& fam, LabelSet&& labels);

  /// Guards registration and renderer iteration. Behind a unique_ptr so
  /// the registry (and FlightRecorder, which holds one by value) stays
  /// movable; handles and locks stay valid across a move.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::deque<Family> families_;
};

}  // namespace bgp::obs

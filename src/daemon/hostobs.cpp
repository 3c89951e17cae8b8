#include "daemon/hostobs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "common/binio.hpp"
#include "common/strfmt.hpp"

namespace bgp::daemon {

namespace {

/// The scrape paths whose latency series are pre-registered (lazy
/// registration under the exposition lock works, but a fixed set keeps
/// the family's label cardinality bounded and its order deterministic).
constexpr const char* kHttpPaths[] = {"/metrics", "/sessions", "/healthz",
                                      "/debug/events"};

constexpr const char* kLevelNames[] = {"debug", "info", "warn", "error"};

}  // namespace

HostObs::HostObs(obs::MetricsRegistry& reg, std::filesystem::path work_dir,
                 HostObsConfig cfg)
    : cfg_(std::move(cfg)),
      flight_dump_path_(work_dir / "flight.jsonl"),
      log_(obs::HostLogConfig{
          .path = work_dir / "events.jsonl",
          .file_level = cfg_.file_level,
          .stderr_level = cfg_.stderr_level,
          .rotate_bytes = cfg_.log_rotate_bytes,
          .rotate_keep = cfg_.log_rotate_keep,
      }),
      start_ns_(obs::host_now_ns()) {
  const std::vector<double> bounds = obs::host_latency_bounds();
  const auto phase_hist = [&](const char* phase) {
    return &reg.histogram(
        "bgpcd_control_request_seconds",
        "Host latency of control requests, by processing phase", bounds,
        {{"phase", phase}});
  };
  control_parse = phase_hist("parse");
  control_dispatch = phase_hist("dispatch");
  control_respond = phase_hist("respond");
  journal_write = &reg.histogram(
      "bgpcd_journal_append_seconds",
      "Host latency of journal appends, split into the frame write and "
      "the fdatasync that makes it durable",
      bounds, {{"phase", "write"}});
  journal_fsync = &reg.histogram(
      "bgpcd_journal_append_seconds",
      "Host latency of journal appends, split into the frame write and "
      "the fdatasync that makes it durable",
      bounds, {{"phase", "fsync"}});
  snapshot_publish = &reg.histogram(
      "bgpcd_snapshot_publish_seconds",
      "Host cost of one seqlocked snapshot publication (simulated cost "
      "is billed separately on the simulated timeline)",
      bounds);
  queue_wait = &reg.histogram(
      "bgpcd_session_queue_wait_seconds",
      "Host time between a session's admission and its thread starting",
      bounds);
  for (const char* path : kHttpPaths) {
    http_by_path_[path] = &reg.histogram(
        "bgpcd_http_request_seconds",
        "Host latency of HTTP observability requests, by path", bounds,
        {{"path", path}});
  }
  http_other_ = &reg.histogram(
      "bgpcd_http_request_seconds",
      "Host latency of HTTP observability requests, by path", bounds,
      {{"path", "other"}});
  for (std::size_t i = 0; i < 4; ++i) {
    events_by_level_[i] =
        &reg.counter("bgpcd_host_events_total",
                     "Structured host events emitted, by level",
                     {{"level", kLevelNames[i]}});
  }
  reg.gauge("bgpcd_build_info",
            "Build metadata; the value is always 1",
            {{"version", cfg_.version.empty() ? "unknown" : cfg_.version},
             {"compiler", __VERSION__}})
      .set(1.0);
  uptime_ = &reg.gauge("bgpcd_uptime_seconds",
                       "Host seconds since this daemon process started");

  // The flight ring: crash evidence first, then a fresh ring for us. A
  // ring that cannot be mapped (odd filesystem) degrades to log-only.
  try {
    ring_ = std::make_unique<obs::FlightRing>(obs::FlightRingConfig{
        .path = work_dir / "flight.ring",
        .slot_bytes = cfg_.ring_slot_bytes,
        .num_slots = cfg_.ring_slots,
    });
  } catch (const std::exception& e) {
    emit(obs::EventLevel::kWarn, obs::HostEvent("flight_ring_unavailable")
                                     .str("error", e.what()));
  }
  if (ring_ != nullptr && ring_->recovered_dirty()) {
    // The predecessor died without closing the ring: its event tail is
    // the crash narrative. Append (not truncate) to flight.jsonl so
    // repeated crash/restart cycles accumulate their evidence.
    salvaged_events_ = ring_->salvaged().size();
    const int fd = ::open(flight_dump_path_.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd >= 0) {
      for (const std::string& line : ring_->salvaged()) {
        const std::string framed = line + "\n";
        (void)write_all(fd, std::as_bytes(std::span(framed)));
      }
      ::close(fd);
    }
    emit(obs::EventLevel::kInfo,
         obs::HostEvent("flight_ring_salvaged")
             .num("events", u64{salvaged_events_})
             .str("dump", flight_dump_path_.string()));
  }
}

obs::Histogram* HostObs::http_request(const std::string& path) {
  const auto it = http_by_path_.find(path);
  return it != http_by_path_.end() ? it->second : http_other_;
}

std::string HostObs::next_request_id() {
  return strfmt("r%06llu",
                static_cast<unsigned long long>(
                    req_seq_.fetch_add(1, std::memory_order_relaxed) + 1));
}

bool HostObs::enabled(obs::EventLevel level) const noexcept {
  return ring_ != nullptr || log_.enabled(level);
}

void HostObs::emit(obs::EventLevel level, const obs::HostEvent& ev) {
  const std::string line = ev.render(level, obs::host_wall_ns());
  if (ring_ != nullptr) ring_->append(line);
  log_.write_line(level, line);
  events_by_level_[static_cast<std::size_t>(level)]->add();
}

std::vector<std::string> HostObs::recent_events() const {
  if (ring_ == nullptr) return {};
  return ring_->records();
}

void HostObs::update_uptime() {
  uptime_->set(static_cast<double>(obs::host_now_ns() - start_ns_) /
               obs::kNsPerSecond);
}

}  // namespace bgp::daemon

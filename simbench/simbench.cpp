// simbench — the benchmark's in-process driver. One invocation does one
// thing and prints one JSON object on stdout:
//
//   simbench --host                         host facts
//   simbench --workload NAME [--spans]      one timed, checked iteration
//            [--serial] [--work-dir DIR]
//   simbench --workload NAME --setup-only   setup only (Machine through
//                                           make_kernel), torn down unrun
//   simbench --probes                       timed hot-path probes
//
// An iteration goes through the public API only: rt::Machine, pc::Session,
// nas::make_kernel, post::mine and post::mine_timeline. Host times are taken
// around calls into each layer and the per-layer counts are read from public
// stats after the run; nothing is instrumented inside src/. Each iteration
// runs in a fresh process, so its peak RSS and setup cost are what a user of
// the simulator sees. run.py spawns the iterations, checks their simulated
// outputs against expected.json and reduces them to the metrics.
//
// --spans also records benchmark-side spans (Machine construction, Session
// construction with link_with_mpi, Machine::run, every rank's wrapped
// on_init/on_finalize hook, post::mine, post::mine_timeline), kept in memory
// and printed with the iteration. Span times are CLOCK_MONOTONIC seconds,
// the clock run.py stamps its own spans with.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "compiler/compiler.hpp"
#include "core/session.hpp"
#include "cpu/core.hpp"
#include "mem/hierarchy.hpp"
#include "nas/kernel.hpp"
#include "postproc/pipeline.hpp"
#include "postproc/timeline.hpp"
#include "upc/upc_unit.hpp"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

using namespace bgp;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double monotonic_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Pins the process to the last CPU it may run on; returns that CPU, or -1
/// when the affinity mask cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned host_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&allowed)));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

/// Keeps a probe's result alive so the timed calls cannot be elided.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strfmt("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Builds one JSON object, member by member.
class JsonObject {
 public:
  JsonObject& raw(const char* key, const std::string& json) {
    body_ += strfmt("%s\"%s\": %s", body_.empty() ? "" : ", ", key,
                    json.c_str());
    return *this;
  }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& num(const char* key, double v) {
    return raw(key, strfmt("%.9g", v));
  }
  JsonObject& count(const char* key, u64 v) {
    return raw(key, strfmt("%llu", static_cast<unsigned long long>(v)));
  }
  JsonObject& flag(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  nas::Benchmark bench;
  nas::ProblemClass cls;
  unsigned nodes;
  /// SchedMode::kParallel with jobs = min(4, nproc); otherwise the default
  /// dispatcher.
  bool parallel;
  /// Time-series tracing at the default interval, mined with
  /// post::mine_timeline.
  bool trace;
};

constexpr Workload kWorkloads[] = {
    {"mg_miss", nas::Benchmark::kMG, nas::ProblemClass::kW, 4, false, false},
    {"ep_compute", nas::Benchmark::kEP, nas::ProblemClass::kA, 8, false,
     false},
    {"cg_trace", nas::Benchmark::kCG, nas::ProblemClass::kS, 64, false, true},
    {"cg_par_trace", nas::Benchmark::kCG, nas::ProblemClass::kS, 64, true,
     true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct RunConfig {
  const Workload* w = nullptr;
  unsigned jobs = 1;
  bool serial = false;  ///< force the default dispatcher (expected values)
  int pinned_cpu = -1;  ///< CPU the process is pinned to, or -1
  [[nodiscard]] bool parallel() const { return w->parallel && !serial; }
};

rt::MachineConfig machine_config(const RunConfig& rc) {
  rt::MachineConfig mc;
  mc.num_nodes = rc.w->nodes;
  mc.mode = sys::OpMode::kVnm;
  if (rc.parallel()) {
    mc.sched = rt::SchedMode::kParallel;
    mc.jobs = rc.jobs;
  }
  return mc;
}

/// How the iteration was dispatched, recorded with every result.
void add_dispatch(JsonObject& out, const RunConfig& rc) {
  out.str("dispatcher", rc.parallel() ? "parallel" : "serial")
      .count("jobs", rc.parallel() ? rc.jobs : 1)
      .raw("pinned_cpu", strfmt("%d", rc.pinned_cpu));
}

pc::Options session_options(const RunConfig& rc, const fs::path& dir) {
  pc::Options opts;
  opts.app_name = std::string(nas::name(rc.w->bench));
  opts.dump_dir = dir;
  if (rc.w->trace) {
    opts.trace.enabled = true;
    opts.trace.trace_dir = dir;
  }
  return opts;
}

// ---- spans -------------------------------------------------------------------

/// Benchmark-side spans, kept in memory until the iteration is printed.
/// Rank hooks run on scheduler workers under the parallel dispatcher, so
/// appends take a lock.
class SpanLog {
 public:
  long add(const char* name, Clock::time_point start, Clock::time_point end,
           long parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, monotonic_s(start), monotonic_s(end), parent});
    return static_cast<long>(spans_.size()) - 1;
  }
  /// Reserve a span whose children are recorded before it ends.
  long open(const char* name, Clock::time_point start, long parent) {
    return add(name, start, start, parent);
  }
  void close(long id, Clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = monotonic_s(end);
  }

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += strfmt("%s{\"id\": %zu, \"parent\": %ld, \"name\": \"%s\", "
                    "\"start_s\": %.9f, \"end_s\": %.9f}",
                    i ? ", " : "", i, s.parent, s.name, s.start_s, s.end_s);
    }
    return out + "]";
  }

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    long parent;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- one iteration -----------------------------------------------------------

/// FNV-1a over one node's counter record: node, mode and every set's
/// pairs, start/stop cycles and 256 counter deltas.
std::string node_digest(const pc::NodeDump& d) {
  u64 h = 1469598103934665603ULL;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(d.node_id);
  mix(d.counter_mode);
  for (const pc::SetDump& s : d.sets) {
    mix(s.set_id);
    mix(s.pairs);
    mix(s.first_start_cycle);
    mix(s.last_stop_cycle);
    for (const u64 v : s.deltas) mix(v);
  }
  return strfmt("%016llx", static_cast<unsigned long long>(h));
}

u64 file_bytes(const std::vector<fs::path>& files) {
  u64 total = 0;
  for (const fs::path& p : files) {
    std::error_code ec;
    const auto n = fs::file_size(p, ec);
    if (!ec) total += n;
  }
  return total;
}

/// Exact work counts of every layer, read from public stats after the run.
std::string layer_counts(rt::Machine& machine, pc::Session& session,
                         const post::MineResult& mined) {
  u64 l1d_reads = 0, l1d_read_misses = 0, l1d_writes = 0, l1d_misses = 0;
  u64 l2_reads = 0, l2_read_misses = 0, l2_misses = 0;
  u64 pf_issued = 0, pf_hits = 0;
  u64 l3_reads = 0, l3_read_misses = 0, l3_accesses = 0, l3_misses = 0;
  u64 ddr_requests = 0, snoop_requests = 0, snoop_filtered = 0;
  u64 trace_samples = 0, trace_dropped = 0;
  u64 instructions = 0, flops = 0, counted_events = 0;
  for (unsigned n = 0; n < machine.partition().num_nodes(); ++n) {
    const sys::Node& node = machine.partition().node(n);
    const mem::MemoryHierarchy& m = node.memory();
    for (unsigned k = 0; k < isa::kCoresPerNode; ++k) {
      const mem::CacheStats& l1 = m.l1d(k).stats();
      l1d_reads += l1.read_access;
      l1d_read_misses += l1.read_miss;
      l1d_writes += l1.write_access;
      l1d_misses += l1.misses();
      const mem::CacheStats& l2 = m.l2(k).cache_stats();
      l2_reads += l2.read_access;
      l2_read_misses += l2.read_miss;
      l2_misses += l2.misses();
      pf_issued += m.l2(k).prefetch_stats().issued;
      pf_hits += m.l2(k).prefetch_stats().hits;
      instructions += node.core(k).stats().instructions;
      flops += node.core(k).stats().flops;
    }
    if (m.has_l3()) {
      const mem::CacheStats& l3 = m.l3().stats();
      l3_reads += l3.read_access;
      l3_read_misses += l3.read_miss;
      l3_accesses += l3.accesses();
      l3_misses += l3.misses();
    }
    ddr_requests += m.ddr().total().requests();
    snoop_requests += m.snoop().stats().requests;
    snoop_filtered += m.snoop().stats().filter_hits;
    if (const trace::NodeTracer* t = session.tracer(n)) {
      trace_samples += t->sampler().samples();
      trace_dropped += t->buffer().dropped();
    }
  }
  for (const pc::NodeDump& d : mined.dumps) {
    for (const pc::SetDump& s : d.sets) {
      for (const u64 v : s.deltas) counted_events += v;
    }
  }
  return JsonObject()
      .count("l1d_reads", l1d_reads)
      .count("l1d_read_misses", l1d_read_misses)
      .count("l1d_writes", l1d_writes)
      .count("l1d_misses", l1d_misses)
      .count("l2_reads", l2_reads)
      .count("l2_read_misses", l2_read_misses)
      .count("l2_misses", l2_misses)
      .count("pf_issued", pf_issued)
      .count("pf_hits", pf_hits)
      .count("l3_reads", l3_reads)
      .count("l3_read_misses", l3_read_misses)
      .count("l3_accesses", l3_accesses)
      .count("l3_misses", l3_misses)
      .count("ddr_requests", ddr_requests)
      .count("snoop_requests", snoop_requests)
      .count("snoop_filtered", snoop_filtered)
      .count("trace_samples", trace_samples)
      .count("trace_dropped", trace_dropped)
      .count("trace_bytes", file_bytes(session.trace_files()))
      .count("dump_bytes", file_bytes(session.dump_files()))
      .count("instructions", instructions)
      .count("flops", flops)
      .count("counted_events", counted_events)
      .text();
}

/// One timed iteration: setup, Machine::run and mining, then the inputs of
/// run.py's output check and the layer counts (read after the clock stops).
std::string run_iteration(const RunConfig& rc, const fs::path& dir,
                          bool with_spans) {
  const Workload& w = *rc.w;
  const std::string app(nas::name(w.bench));
  JsonObject out;
  out.str("record", "iter").flag("traced", with_spans);
  add_dispatch(out, rc);
  SpanLog spans;
  std::mutex hook_mu;
  double init_s = 0, finalize_s = 0;  // summed over ranks
  std::string error;

  try {
    const auto t0 = Clock::now();
    const long iter_span = with_spans ? spans.open("iteration", t0, -1) : -1;
    auto machine = std::make_unique<rt::Machine>(machine_config(rc));
    const auto t1 = Clock::now();
    auto session =
        std::make_unique<pc::Session>(*machine, session_options(rc, dir));
    session->link_with_mpi();
    const auto t2 = Clock::now();
    auto kernel = nas::make_kernel(w.bench, w.cls);
    const auto t3 = Clock::now();
    long run_span = -1;
    if (with_spans) {
      spans.add("machine_ctor", t0, t1, iter_span);
      spans.add("session_ctor+link_with_mpi", t1, t2, iter_span);
      spans.add("make_kernel", t2, t3, iter_span);
      run_span = spans.open("machine_run", t3, iter_span);
      // Time each rank's library hooks from outside by wrapping them.
      const rt::MpiHooks inner = machine->mpi_hooks();
      auto timed = [&](const char* name, double& sum,
                       std::function<void(rt::RankCtx&)> fn) {
        return [&spans, &hook_mu, &sum, name, run_span,
                fn = std::move(fn)](rt::RankCtx& ctx) {
          const auto a = Clock::now();
          if (fn) fn(ctx);
          const auto b = Clock::now();
          spans.add(name, a, b, run_span);
          const std::lock_guard<std::mutex> lock(hook_mu);
          sum += seconds_between(a, b);
        };
      };
      machine->set_mpi_hooks(
          rt::MpiHooks{timed("on_init", init_s, inner.on_init),
                       timed("on_finalize", finalize_s, inner.on_finalize)});
    }

    const double cpu0 = cpu_seconds();
    const auto t4 = Clock::now();
    machine->run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
    const auto t5 = Clock::now();
    const double cpu_s = cpu_seconds() - cpu0;
    if (with_spans) spans.close(run_span, t5);

    post::MineOptions mo;
    mo.expected_nodes = w.nodes;
    const post::MineResult mined = post::mine(dir, app, mo);
    const auto t6 = Clock::now();
    if (with_spans) spans.add("post::mine", t5, t6, iter_span);
    auto t7 = t6;
    bool timeline_ok = true;
    std::string timeline_coverage;
    if (w.trace) {
      post::TimelineOptions to;
      to.expected_nodes = w.nodes;
      const post::TimelineReport tl = post::mine_timeline(dir, app, to);
      t7 = Clock::now();
      if (with_spans) spans.add("post::mine_timeline", t6, t7, iter_span);
      timeline_ok = tl.ok && tl.coverage.full();
      timeline_coverage = tl.coverage.to_string();
    }
    if (with_spans) spans.close(iter_span, t7);

    std::string digests = "[";
    for (std::size_t i = 0; i < mined.dumps.size(); ++i) {
      digests += (i ? ", \"" : "\"") + node_digest(mined.dumps[i]) + "\"";
    }
    out.num("machine_ctor_s", seconds_between(t0, t1))
        .num("session_ctor_s", seconds_between(t1, t2))
        .num("setup_s", seconds_between(t0, t3))
        .num("run_s", seconds_between(t4, t5))
        .num("cpu_s", cpu_s)
        .num("mine_s", seconds_between(t5, t6))
        .num("timeline_s", seconds_between(t6, t7))
        .num("total_s", seconds_between(t0, t7))
        .num("init_s", init_s)
        .num("finalize_s", finalize_s)
        .count("elapsed_cycles", machine->elapsed())
        .flag("verified", kernel->result().verified)
        .str("verify_detail", kernel->result().detail)
        .flag("mine_ok", mined.ok && mined.coverage.full())
        .str("coverage", mined.coverage.to_string())
        .flag("timeline_ok", timeline_ok)
        .str("timeline_coverage", timeline_coverage)
        .raw("node_digests", digests + "]")
        .raw("counts", layer_counts(*machine, *session, mined));
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  return out.str("error", error)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("spans", spans.json())
      .text();
}

/// Setup only: Machine through make_kernel, timed, then torn down unrun.
std::string setup_only(const RunConfig& rc, const fs::path& dir) {
  const auto t0 = Clock::now();
  rt::Machine machine(machine_config(rc));
  pc::Session session(machine, session_options(rc, dir));
  session.link_with_mpi();
  auto kernel = nas::make_kernel(rc.w->bench, rc.w->cls);
  JsonObject out;
  out.str("record", "setup").num("setup_s", seconds_between(t0, Clock::now()));
  add_dispatch(out, rc);
  return out.text();
}

// ---- hot-path probes ---------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Times `calls` invocations of `fn(i)` per repetition, after one warmup
/// repetition, and records under `name` the median and interquartile range
/// of the per-call cost in units of `unit_ns`.
template <class F>
void probe(JsonObject& out, const char* name, std::size_t calls,
           double unit_ns, F&& fn) {
  constexpr int kReps = 21;
  std::vector<double> per_call;
  std::size_t i = 0;
  for (int rep = -1; rep < kReps; ++rep) {
    const auto a = Clock::now();
    for (std::size_t k = 0; k < calls; ++k) fn(i++);
    const auto b = Clock::now();
    if (rep >= 0) {
      per_call.push_back(
          std::chrono::duration<double, std::nano>(b - a).count() /
          static_cast<double>(calls) / unit_ns);
    }
  }
  out.raw(name,
          JsonObject()
              .num("median", quantile(per_call, 0.5))
              .num("iqr", quantile(per_call, 0.75) - quantile(per_call, 0.25))
              .text());
}

/// Forwards hierarchy and core events into one UPC unit, as a node does.
struct UpcForwardSink final : mem::EventSink {
  upc::UpcUnit* unit;
  explicit UpcForwardSink(upc::UpcUnit* u) : unit(u) {}
  void event(isa::EventId id, u64 count) override { unit->signal(id, count); }
  void events(const isa::EventCount* batch, std::size_t n) override {
    unit->signal_batch(batch, n);
  }
};

/// A CG-matvec-shaped loop: FMA-heavy with loads, stores and integer work.
isa::LoopDesc probe_loop() {
  isa::LoopDesc d;
  d.name = "probe_matvec";
  d.trip = 4096;
  d.body.fp_at(isa::FpOp::kFma) = 7;
  d.body.ls_at(isa::LsOp::kLoadDouble) = 7;
  d.body.ls_at(isa::LsOp::kLoadSingle) = 7;
  d.body.ls_at(isa::LsOp::kStoreDouble) = 1;
  d.body.int_at(isa::IntOp::kAlu) = 10;
  d.body.int_at(isa::IntOp::kBranch) = 2;
  d.vectorizable = 0.25;
  d.locality = isa::LocalityClass::kRandom;
  return d;
}

/// Each memory probe walks a fixed address stream shaped to end at one
/// level; the L3 and DDR probes also record the share of walks that level
/// actually served.
std::string run_probes() {
  JsonObject out;
  out.str("record", "probes");
  upc::UpcUnit unit;
  unit.start();
  UpcForwardSink sink(&unit);
  const mem::HierarchyParams hp;  // node defaults: 8 MB L3, prefetch depth 2
  constexpr addr_t kLine = 128;   // L2/L3 line

  {  // L1 hit: one resident line read over and over.
    mem::MemoryHierarchy h(hp, &sink);
    h.read(0, 0x1000, 32, 0);
    cycles_t acc = 0;
    probe(out, "mem.probe.l1_hit_ns", 200'000, 1.0, [&](std::size_t) {
      acc += h.read(0, 0x1000, 32, 0).latency;
    });
    keep(acc);
  }
  {  // L3 hit: a warmed 4 MiB region (L3-resident, far beyond L1 and L2)
     // visited in a scrambled line order the stream prefetcher cannot follow.
    mem::MemoryHierarchy h(hp, &sink);
    constexpr u64 kLines = 4 * MiB / kLine;
    for (u64 l = 0; l < kLines; ++l) h.read(0, l * kLine, 32, l);
    cycles_t acc = 0;
    u64 at_level = 0, walks = 0;
    probe(out, "mem.probe.l3_hit_ns", 50'000, 1.0, [&](std::size_t i) {
      const u64 line = (static_cast<u64>(i) * 40503U) % kLines;
      const mem::AccessResult r = h.read(0, line * kLine, 32, i * 100);
      acc += r.latency;
      at_level += r.serviced_by == 3;
      ++walks;
    });
    out.num("l3_hit_level_share", static_cast<double>(at_level) / walks);
    keep(acc);
  }
  {  // DDR miss: scrambled lines over 1 GiB, far beyond the 8 MB L3.
    mem::MemoryHierarchy h(hp, &sink);
    constexpr u64 kLines = 1024 * MiB / kLine;
    cycles_t acc = 0;
    u64 at_level = 0, walks = 0;
    probe(out, "mem.probe.ddr_miss_ns", 20'000, 1.0, [&](std::size_t i) {
      const u64 line = (static_cast<u64>(i) * 2654435761U) % kLines;
      const mem::AccessResult r = h.read(0, line * kLine, 32, i * 1000);
      acc += r.latency;
      at_level += r.serviced_by >= 4;
      ++walks;
    });
    out.num("ddr_miss_level_share", static_cast<double>(at_level) / walks);
    keep(acc);
  }
  {  // Streaming reads: unit-stride L1 lines the L2 prefetcher runs ahead of.
    mem::MemoryHierarchy h(hp, &sink);
    cycles_t acc = 0;
    probe(out, "mem.probe.stream_pf_ns", 100'000, 1.0, [&](std::size_t i) {
      const addr_t a = (static_cast<addr_t>(i) * 32) % (256 * MiB);
      acc += h.read(0, a, 32, i * 20).latency;
    });
    keep(acc);
  }
  {  // Stores: write-through sweep over 64 KiB.
    mem::MemoryHierarchy h(hp, &sink);
    cycles_t acc = 0;
    probe(out, "mem.probe.store_ns", 100'000, 1.0, [&](std::size_t i) {
      const addr_t a = (static_cast<addr_t>(i) * 32) % (64 * KiB);
      acc += h.write(0, a, 32, i * 20).latency;
    });
    keep(acc);
  }

  // The block's delivery-ready events as the compile cache derives them for
  // core 0: nonzero per-class events, INSTR_COMPLETED, the bundle's cycles.
  const opt::Compiler compiler(rt::MachineConfig{}.opt);
  const isa::LoopDesc loop = probe_loop();
  const opt::CompiledLoop cl = compiler.compile(loop);
  std::vector<isa::EventCount> events;
  for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
    if (cl.ops.fp[i] != 0) {
      events.push_back(
          {isa::ev::fpu_op(0, static_cast<isa::FpOp>(i)), cl.ops.fp[i]});
    }
  }
  for (std::size_t i = 0; i < isa::kNumLsOps; ++i) {
    if (cl.ops.ls[i] != 0) {
      events.push_back(
          {isa::ev::ls_op(0, static_cast<isa::LsOp>(i)), cl.ops.ls[i]});
    }
  }
  for (std::size_t i = 0; i < isa::kNumIntOps; ++i) {
    if (cl.ops.in[i] != 0) {
      events.push_back(
          {isa::ev::int_op(0, static_cast<isa::IntOp>(i)), cl.ops.in[i]});
    }
  }
  events.push_back({isa::ev::instr_completed(0), cl.ops.total_instructions()});
  events.push_back({isa::ev::cycle_count(0),
                    cpu::Core::bundle_cycles(cl.ops, cpu::CoreParams{})});

  probe(out, "upc.probe.batch_event_ns", 200'000,
        static_cast<double>(events.size()),
        [&](std::size_t) { unit.signal_batch(events.data(), events.size()); });
  {
    cpu::Core core(0, cpu::CoreParams{}, &sink);
    cycles_t acc = 0;
    probe(out, "cpu.probe.block_ns", 200'000, 1.0, [&](std::size_t) {
      acc += core.execute_block(cl.ops, events);
    });
    keep(acc);
  }
  probe(out, "compiler.probe.compile_us", 20'000, 1000.0, [&](std::size_t) {
    const opt::CompiledLoop c = compiler.compile(loop);
    keep(c.ops);
  });
  keep(unit.read(isa::event_counter(isa::ev::instr_completed(0))));
  return out.text();
}

// ---- host facts --------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string host_facts() {
  double load[3] = {-1, -1, -1};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  return JsonObject()
      .str("record", "host")
      .count("nproc", host_cpus())
      .str("build_type", SIMBENCH_BUILD_TYPE)
      .str("compiler", "gcc " __VERSION__)
      .str("cpu_model", cpu_model())
      .num("loadavg_1m", load[0])
      .text();
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench --host | --probes |\n"
               "       simbench --workload mg_miss|ep_compute|cg_trace|cg_par_trace "
               "[--setup-only] [--spans] [--serial] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bool host = false, probes = false, setup = false, spans = false;
  bool serial = false;
  fs::path work_dir = "simbench_work";

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--host") {
      host = true;
    } else if (a == "--probes") {
      probes = true;
    } else if (a == "--setup-only") {
      setup = true;
    } else if (a == "--spans") {
      spans = true;
    } else if (a == "--serial") {
      serial = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (host) {
    std::printf("%s\n", host_facts().c_str());
    return 0;
  }
  if (probes) {
    pin_to_one_cpu();  // single-threaded; keep it off the migration path
    std::printf("%s\n", run_probes().c_str());
    return 0;
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage();

  // Never more workers than usable CPUs: jobs = min(4, nproc).
  RunConfig rc{w, std::min(4U, host_cpus()), serial};
  // The default dispatcher runs exactly one rank thread at a time, so one
  // CPU loses no simulation throughput; pinning keeps every token handoff
  // on that CPU, which takes the host's cross-CPU wakeup latency out of
  // the timings of the workloads meant to measure the simulated layers.
  if (!rc.parallel()) rc.pinned_cpu = pin_to_one_cpu();

  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir);
  const std::string record =
      setup ? setup_only(rc, work_dir) : run_iteration(rc, work_dir, spans);
  fs::remove_all(work_dir, ec);
  std::printf("%s\n", record.c_str());
  return 0;
}

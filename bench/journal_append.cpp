// Microbenchmark for the write-ahead session journal: append latency for a
// representative lifecycle record (the cost every admit/finish pays on the
// control path) and replay throughput (the cost a restart pays per journal
// record). Appends land on a tmpfs-backed temp file so the numbers measure
// framing + CRC + the write/fdatasync syscalls, not disk seeks.
//
// Besides the google-benchmark means, a dedicated quantile pass times every
// append individually and reports p50/p99/max — tail latency is what the
// daemon's admission path actually feels — with the daemon's own host
// histograms attached, so the same numbers are cross-checked through the
// bgpcd_journal_append_seconds{phase} exposition path. With
// BGPC_BENCH_ARTIFACT_DIR set the quantiles are written to
// $BGPC_BENCH_ARTIFACT_DIR/BENCH_daemon_host.json (the CI artifact);
// otherwise BENCH_daemon_host.json lands in the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/util.hpp"
#include "common/strfmt.hpp"
#include "daemon/journal.hpp"
#include "obs/host_clock.hpp"
#include "obs/promtext.hpp"

namespace fs = std::filesystem;
using namespace bgp;
using namespace bgp::daemon;

namespace {

fs::path bench_path() {
  return fs::temp_directory_path() / "bgpcd_journal_bench.jrnl";
}

JournalRecord sample_record() {
  JournalRecord rec;
  rec.op = journal_op::kFinish;
  rec.session = "s0042";
  json::Value body = json::Value::object();
  body.set("state", json::Value("finished"));
  body.set("detail", json::Value("verified: 8/8 ranks OK"));
  body.set("verified", json::Value(true));
  body.set("dump_files", json::Value(u64{8}));
  body.set("trace_files", json::Value(u64{8}));
  body.set("sim_cycles", json::Value(u64{123'456'789}));
  rec.body = body;
  return rec;
}

void BM_JournalAppend(benchmark::State& state) {
  const fs::path path = bench_path();
  fs::remove(path);
  JournalWriter writer(path);
  const JournalRecord rec = sample_record();
  for (auto _ : state) {
    writer.append(rec);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["journal_bytes"] =
      static_cast<double>(fs::file_size(path));
  fs::remove(path);
}
BENCHMARK(BM_JournalAppend);

void BM_JournalEncodeFrame(benchmark::State& state) {
  const JournalRecord rec = sample_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_journal_frame(rec));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_JournalEncodeFrame);

void BM_JournalReplay(benchmark::State& state) {
  const fs::path path = bench_path();
  fs::remove(path);
  const auto records = static_cast<unsigned>(state.range(0));
  {
    JournalWriter writer(path);
    const JournalRecord rec = sample_record();
    for (unsigned i = 0; i < records; ++i) writer.append(rec);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_journal(path));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
  fs::remove(path);
}
BENCHMARK(BM_JournalReplay)->Arg(64)->Arg(1024)->Arg(16384);

/// Per-append latency distribution for the quantile report.
struct AppendQuantiles {
  unsigned records = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
  std::size_t journal_bytes = 0;
  double replay_records_per_sec = 0.0;
  /// Quantiles reconstructed from the daemon's own host histograms
  /// (bgpcd_journal_append_seconds{phase="write"|"fsync"} exposition).
  double hist_write_p50_s = 0.0;
  double hist_write_p99_s = 0.0;
  double hist_fsync_p50_s = 0.0;
  double hist_fsync_p99_s = 0.0;
};

/// Nearest-rank statistic of a sorted sample, q in [0,1].
double rank_ns(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Time every append individually — google-benchmark reports the mean, but
/// the daemon's admission path feels the tail. The writer carries the same
/// host histograms the live daemon attaches, so the exposition-derived
/// p50/p99 can be cross-checked against the directly measured ones.
AppendQuantiles measure_append_quantiles(unsigned records) {
  const fs::path path = bench_path();
  fs::remove(path);

  obs::MetricsRegistry reg;
  obs::Histogram& h_write = reg.histogram(
      "bgpcd_journal_append_seconds", "journal append host latency",
      obs::host_latency_bounds(), {{"phase", "write"}});
  obs::Histogram& h_fsync = reg.histogram(
      "bgpcd_journal_append_seconds", "journal append host latency",
      obs::host_latency_bounds(), {{"phase", "fsync"}});

  AppendQuantiles q;
  q.records = records;
  std::vector<double> ns;
  ns.reserve(records);
  {
    JournalWriter writer(path);
    writer.set_host_timers(&h_write, &h_fsync);
    const JournalRecord rec = sample_record();
    // Warm-up: fault in the file and allocator paths before measuring.
    for (unsigned i = 0; i < 256; ++i) writer.append(rec);
    for (unsigned i = 0; i < records; ++i) {
      const i64 t0 = obs::host_now_ns();
      writer.append(rec);
      ns.push_back(static_cast<double>(obs::host_now_ns() - t0));
    }
  }
  q.journal_bytes = fs::file_size(path);

  double sum = 0.0;
  for (const double v : ns) sum += v;
  q.mean_ns = sum / static_cast<double>(ns.size());
  std::sort(ns.begin(), ns.end());
  q.p50_ns = rank_ns(ns, 0.50);
  q.p99_ns = rank_ns(ns, 0.99);
  q.max_ns = ns.back();

  // Cross-check through the exposition: render the registry and pull the
  // same quantiles back out of the cumulative buckets.
  const auto hists =
      obs::parse_prometheus_histograms(obs::render_prometheus(reg));
  const auto write_it = hists.find(obs::prometheus_key(
      "bgpcd_journal_append_seconds", {{"phase", "write"}}));
  const auto fsync_it = hists.find(obs::prometheus_key(
      "bgpcd_journal_append_seconds", {{"phase", "fsync"}}));
  if (write_it != hists.end()) {
    q.hist_write_p50_s = obs::histogram_quantile(write_it->second, 0.50);
    q.hist_write_p99_s = obs::histogram_quantile(write_it->second, 0.99);
  }
  if (fsync_it != hists.end()) {
    q.hist_fsync_p50_s = obs::histogram_quantile(fsync_it->second, 0.50);
    q.hist_fsync_p99_s = obs::histogram_quantile(fsync_it->second, 0.99);
  }

  const i64 r0 = obs::host_now_ns();
  const JournalReplay replay = replay_journal(path);
  const double replay_s =
      static_cast<double>(obs::host_now_ns() - r0) / obs::kNsPerSecond;
  if (replay_s > 0.0) {
    q.replay_records_per_sec =
        static_cast<double>(replay.records.size()) / replay_s;
  }
  fs::remove(path);
  return q;
}

void write_artifact(const AppendQuantiles& q) {
  std::string json = "{\n";
  json += strfmt("  \"records\": %u,\n", q.records);
  json += strfmt(
      "  \"append_ns\": {\"mean\": %.1f, \"p50\": %.1f, \"p99\": %.1f, "
      "\"max\": %.1f},\n",
      q.mean_ns, q.p50_ns, q.p99_ns, q.max_ns);
  json += strfmt(
      "  \"histogram_seconds\": {\n"
      "    \"write\": {\"p50\": %.9f, \"p99\": %.9f},\n"
      "    \"fsync\": {\"p50\": %.9f, \"p99\": %.9f}\n"
      "  },\n",
      q.hist_write_p50_s, q.hist_write_p99_s, q.hist_fsync_p50_s,
      q.hist_fsync_p99_s);
  json += strfmt("  \"journal_bytes\": %zu,\n", q.journal_bytes);
  json += strfmt("  \"replay_records_per_sec\": %.0f\n}\n",
                 q.replay_records_per_sec);

  const auto out = bench::write_bench_file("BENCH_daemon_host.json", json);
  if (out.empty()) return;
  std::printf("wrote %s\n", out.string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const AppendQuantiles q = measure_append_quantiles(16384);
  std::printf(
      "journal append latency over %u records: mean %.0f ns, p50 %.0f ns, "
      "p99 %.0f ns, max %.0f ns\n",
      q.records, q.mean_ns, q.p50_ns, q.p99_ns, q.max_ns);
  std::printf(
      "exposition cross-check (bgpcd_journal_append_seconds): "
      "write p50 %.1f us / p99 %.1f us, fsync p50 %.1f us / p99 %.1f us\n",
      q.hist_write_p50_s * 1e6, q.hist_write_p99_s * 1e6,
      q.hist_fsync_p50_s * 1e6, q.hist_fsync_p99_s * 1e6);
  std::printf("replay: %.0f records/s over %zu journal bytes\n",
              q.replay_records_per_sec, q.journal_bytes);
  write_artifact(q);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

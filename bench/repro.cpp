// repro [--only=ID[,ID...]] [--nodes=N] [--class=S|W|A]: every paper
// artifact (bench/figures.cpp). Simulates each distinct run of the selected
// figures once on the host's cores, then renders the figures in order, so
// stdout does not depend on thread timing; host time goes only to
// BENCH_e2e.json. --nodes/--class override each figure's default scale.
// Exits 1 naming each figure whose runs or shape check failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench/util.hpp"

using namespace bgp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A readable name for one run in BENCH_e2e.json.
std::string run_key(const nas::RunConfig& c) {
  const rt::MachineConfig& m = c.machine;
  return strfmt("%s.%s %s nodes=%u %s l3=%lluMB prefetch=%u",
                std::string(nas::name(c.bench)).c_str(),
                std::string(nas::name(c.cls)).c_str(),
                std::string(sys::to_string(m.mode)).c_str(), m.num_nodes,
                m.opt.name().c_str(),
                static_cast<unsigned long long>(m.boot.l3_size_bytes / MiB),
                m.boot.prefetch.enabled ? m.boot.prefetch.depth : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  const auto& all = bench::figures();
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bench::Scale ignored;
    if (arg.starts_with("--only=")) {
      for (std::size_t at = 7, end; at <= arg.size(); at = end + 1) {
        end = std::min(arg.find(',', at), arg.size());
        only.push_back(arg.substr(at, end - at));
      }
    } else if (!bench::parse_scale_flag(argv[i], ignored)) {
      only = {arg};  // reported below as an unknown id
    }
  }
  for (const std::string& id : only) {
    if (std::none_of(all.begin(), all.end(),
                     [&](const bench::Figure& f) { return f.id == id; })) {
      std::fprintf(stderr,
                   "unknown figure or flag: %s (figure ids: README.md)\n"
                   "usage: %s [--only=ID[,ID...]] [--nodes=N] "
                   "[--class=S|W|A]\n",
                   id.c_str(), argv[0]);
      return 2;
    }
  }

  // Each selected figure at its scale, with its runs as indices into the
  // distinct runs.
  struct Selected {
    const bench::Figure* figure;
    bench::Scale scale;
    std::vector<std::size_t> runs;
  };
  std::vector<Selected> selected;
  std::vector<nas::RunConfig> distinct;
  std::size_t declared = 0;
  for (const bench::Figure& fig : all) {
    if (!only.empty() && std::ranges::find(only, fig.id) == only.end()) {
      continue;
    }
    Selected sel{&fig, fig.defaults, {}};
    for (int i = 1; i < argc; ++i) bench::parse_scale_flag(argv[i], sel.scale);
    for (const nas::RunConfig& cfg : fig.runs(sel.scale)) {
      auto it = std::ranges::find(distinct, cfg);
      if (it == distinct.end()) it = distinct.insert(it, cfg);
      sel.runs.push_back(static_cast<std::size_t>(it - distinct.begin()));
      ++declared;
    }
    selected.push_back(std::move(sel));
  }

  // Workers claim the distinct runs through one index.
  std::vector<nas::RunOutput> outputs(distinct.size());
  std::vector<double> host_s(distinct.size());
  std::atomic<std::size_t> next{0};
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  while (pool.size() < std::min<std::size_t>(host_cores, distinct.size())) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < distinct.size(); i = next++) {
        const auto t0 = Clock::now();
        outputs[i] = nas::run_benchmark(distinct[i]);
        host_s[i] = seconds_since(t0);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  std::string failed;
  for (const Selected& sel : selected) {
    bench::Outputs outs;
    for (std::size_t i : sel.runs) outs.push_back(&outputs[i]);
    if (!sel.figure->render(sel.scale, outs)) {
      failed.append(" ").append(sel.figure->id);
    }
  }

  std::string json = strfmt(
      "{\n  \"host_cores\": %u,\n  \"wall_s\": %.3f,\n"
      "  \"declared_runs\": %zu,\n  \"distinct_runs\": %zu,\n  \"runs\": [",
      host_cores, seconds_since(start), declared, distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    json += strfmt("%s\n    {\"key\": \"%s\", \"host_s\": %.3f, "
                   "\"sim_cycles\": %llu}",
                   i ? "," : "", run_key(distinct[i]).c_str(), host_s[i],
                   static_cast<unsigned long long>(outputs[i].elapsed));
  }
  json += "\n  ]\n}\n";
  if (bench::write_bench_file("BENCH_e2e.json", json).empty()) return 1;
  if (!failed.empty()) {
    std::fprintf(stderr, "repro: failed:%s\n", failed.c_str());
    return 1;
  }
  return 0;
}

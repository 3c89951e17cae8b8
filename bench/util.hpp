// Shared helpers for the experiment harnesses: banners, aligned tables,
// --nodes/--class scaling, rank conventions, the BENCH_*.json writer, and
// the figures bench/repro regenerates, each printed with the expectation
// its shape is checked against (EXPERIMENTS.md records the outcomes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "nas/runner.hpp"

namespace bgp::bench {

/// Print the standard harness banner.
inline void banner(const char* figure, const char* title,
                   const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("paper expectation: %s\n", expectation);
  std::printf("================================================================\n");
}

/// Minimal aligned-table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), v.c_str());
      }
      std::printf("\n");
    };
    line(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// A figure's scale: partition size and problem class.
struct Scale {
  unsigned nodes = 4;
  nas::ProblemClass cls = nas::ProblemClass::kW;
};

/// Apply a --nodes=N or --class=S|W|A argument to `s`; false for any other.
inline bool parse_scale_flag(const char* arg, Scale& s) {
  if (std::strncmp(arg, "--nodes=", 8) == 0) {
    s.nodes = static_cast<unsigned>(std::atoi(arg + 8));
  } else if (std::strncmp(arg, "--class=", 8) == 0) {
    s.cls = nas::parse_class(arg + 8);
  } else {
    return false;
  }
  return true;
}

/// The paper's square-rank convention for SP and BT (121 of 128 processes).
inline unsigned square_ranks(unsigned total) {
  unsigned s = 1;
  while ((s + 1) * (s + 1) <= total) ++s;
  return s * s;
}

/// Rank override for a benchmark under the paper's conventions.
inline unsigned ranks_for(nas::Benchmark b, unsigned nodes, sys::OpMode mode) {
  const unsigned total = nodes * sys::processes_per_node(mode);
  if (b == nas::Benchmark::kSP || b == nas::Benchmark::kBT) {
    return square_ranks(total);
  }
  return 0;  // all
}

inline std::string fmt_double(double v, const char* fmt = "%.2f") {
  return strfmt(fmt, v);
}

/// Write BENCH file `name` into $BGPC_BENCH_ARTIFACT_DIR if set, else the
/// working directory. Returns its path; empty (after a message) on failure.
inline std::filesystem::path write_bench_file(const std::string& name,
                                              const std::string& text) {
  std::filesystem::path path = name;
  if (const char* dir = std::getenv("BGPC_BENCH_ARTIFACT_DIR")) {
    std::filesystem::create_directories(dir);
    path = std::filesystem::path(dir) / name;
  }
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return {};
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

using Outputs = std::vector<const nas::RunOutput*>;

/// One paper artifact (bench/figures.cpp). Its runs form a grid, apps
/// outer: each app in Virtual Node Mode under the paper's rank conventions,
/// turned into each of `variants` variants by `vary`. `render` prints the
/// artifact from their outputs, app a's variant v at outs[a * variants + v];
/// false when a run did not verify or a shape check failed.
struct Figure {
  std::string_view id;  ///< the --only name, e.g. "fig06"
  Scale defaults;       ///< before --nodes / --class override it
  std::vector<nas::Benchmark> apps;
  std::size_t variants = 0;
  void (*vary)(nas::RunConfig& cfg, std::size_t variant) = nullptr;
  std::function<bool(const Scale&, const Outputs&)> render;

  [[nodiscard]] std::vector<nas::RunConfig> runs(const Scale& s) const;
};

/// Every artifact, in print order.
[[nodiscard]] const std::vector<Figure>& figures();

/// The §IV overhead table (bench/tab_overhead.cpp); 0 when it holds.
int tab_overhead();

}  // namespace bgp::bench

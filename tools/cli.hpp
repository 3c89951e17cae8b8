// Shared argument handling for the bgpc_* command-line tools: one flag
// convention (--name=value), strict numeric parsing that rejects junk with
// a useful message instead of silently falling back to 0, and a typed
// flag table (FlagSet) that generates --help, answers --version with the
// git describe baked in at build time, and exits 2 with usage on unknown
// flags. The --obs-* observability flags (add_obs_flags) and the flags
// that describe a benchmark run (add_run_flags) are declared once here
// and reused by every tool that runs a Machine.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "common/types.hpp"
#include "nas/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/promtext.hpp"
#include "sys/mode.hpp"
#include "trace/tracer.hpp"

namespace bgp::cli {

#ifndef BGPC_VERSION
#define BGPC_VERSION "unknown"
#endif

/// The version string baked in by tools/CMakeLists.txt (git describe).
inline const char* version() { return BGPC_VERSION; }

/// True when `arg` is `--<name>=...`; leaves `*value` pointing at the text
/// after the '='.
inline bool match_value(const char* arg, const char* name,
                        const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, "--", 2) != 0 ||
      std::strncmp(arg + 2, name, n) != 0 || arg[2 + n] != '=') {
    return false;
  }
  *value = arg + 2 + n + 1;
  return true;
}

/// True when `arg` is exactly `--<name>`.
inline bool match_flag(const char* arg, const char* name) {
  return std::strncmp(arg, "--", 2) == 0 && std::strcmp(arg + 2, name) == 0;
}

/// Parse a non-negative integer; rejects empty strings, trailing junk and
/// out-of-range values (the old atoi paths silently produced 0 instead).
inline u64 parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr) {
    throw std::invalid_argument(
        strfmt("%s needs a non-negative integer, got '%s'", flag, text));
  }
  return v;
}

inline unsigned parse_unsigned(const char* flag, const char* text) {
  const u64 v = parse_u64(flag, text);
  if (v > ~0u) {
    throw std::invalid_argument(strfmt("%s: %s is out of range", flag, text));
  }
  return static_cast<unsigned>(v);
}

/// Like parse_unsigned but additionally rejects zero.
inline unsigned parse_positive(const char* flag, const char* text) {
  const unsigned v = parse_unsigned(flag, text);
  if (v == 0) {
    throw std::invalid_argument(strfmt("%s must be positive", flag));
  }
  return v;
}

/// Parse a fraction in [lo, hi].
inline double parse_double(const char* flag, const char* text, double lo,
                           double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    throw std::invalid_argument(
        strfmt("%s needs a number in [%g, %g], got '%s'", flag, lo, hi, text));
  }
  return v;
}

/// Parse a duration with a unit suffix (`250ms`, `2s`, `800us`, `425000ns`)
/// into nanoseconds. The suffix is mandatory: a bare number is ambiguous
/// and rejected with a pointer at the accepted units. Fractional values
/// (`1.5ms`) are accepted; the result is rounded to whole nanoseconds.
inline u64 parse_duration_ns(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  const auto fail = [&]() -> std::invalid_argument {
    return std::invalid_argument(
        strfmt("%s needs a duration with a unit suffix (ns, us, ms, s), "
               "e.g. 250ms or 2s; got '%s'",
               flag, text));
  };
  // `!(v >= 0)` instead of `v < 0`: NaN fails every comparison, so the
  // negated form rejects it too (a NaN would otherwise reach the
  // float->integer cast below, which is undefined behavior).
  if (end == text || errno == ERANGE || !(v >= 0)) throw fail();
  double scale = 0;
  if (std::strcmp(end, "ns") == 0) {
    scale = 1.0;
  } else if (std::strcmp(end, "us") == 0) {
    scale = 1e3;
  } else if (std::strcmp(end, "ms") == 0) {
    scale = 1e6;
  } else if (std::strcmp(end, "s") == 0) {
    scale = 1e9;
  } else {
    throw fail();
  }
  const double ns = v * scale;
  // Cap at int64 max, not u64 max: downstream arithmetic (cycle
  // conversion, deadline addition) does signed math on these values, and a
  // double cannot represent u64 max exactly anyway — casting one past the
  // representable range silently wraps. 9.2e18 ns is ~292 years, so the
  // cap costs nothing real.
  constexpr double kMaxNs = 9.223372036854775e18;
  if (!(ns <= kMaxNs)) {
    throw std::invalid_argument(
        strfmt("%s: %s overflows the nanosecond range", flag, text));
  }
  return static_cast<u64>(ns + 0.5);
}

/// A duration expressed in *simulated* cycles of the 850 MHz core clock:
/// `250ms` of simulated time is 212.5M cycles. Used by the sampling-period
/// flags (--interval, --snapshot-period), which pace modeled activity on
/// the simulated timeline.
inline cycles_t duration_to_cycles(u64 ns) {
  // kCoreClockHz = 850e6 -> 0.85 cycles per ns; keep the arithmetic exact
  // in integers: 17 cycles per 20 ns.
  return static_cast<cycles_t>((static_cast<unsigned __int128>(ns) * 17) / 20);
}

/// Typed flag table. Tools declare their flags once; parse() consumes
/// argv, auto-answers --help and --version, and turns unknown flags or
/// bad values into usage + exit 2 (returned, not called — main stays in
/// charge). Value flags are `--name=VALUE`, boolean flags bare `--name`.
class FlagSet {
 public:
  explicit FlagSet(std::string prog, std::string positionals = "")
      : prog_(std::move(prog)), positionals_(std::move(positionals)) {}

  using ValueFn = std::function<void(const char*)>;

  FlagSet& value(std::string name, std::string metavar, std::string help,
                 ValueFn fn) {
    flags_.push_back(Flag{std::move(name), std::move(metavar), std::move(help),
                          std::move(fn)});
    return *this;
  }
  FlagSet& flag(std::string name, std::string help, std::function<void()> fn) {
    flags_.push_back(Flag{std::move(name), "", std::move(help),
                          [fn = std::move(fn)](const char*) { fn(); }});
    return *this;
  }

  // Typed conveniences over the parse_* helpers.
  FlagSet& toggle(std::string name, std::string help, bool* out) {
    return flag(std::move(name), std::move(help), [out] { *out = true; });
  }
  FlagSet& unsigned_value(std::string name, std::string metavar,
                          std::string help, unsigned* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f](const char* v) { *out = parse_unsigned(f.c_str(), v); });
  }
  FlagSet& positive_value(std::string name, std::string metavar,
                          std::string help, unsigned* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f](const char* v) { *out = parse_positive(f.c_str(), v); });
  }
  FlagSet& u64_value(std::string name, std::string metavar, std::string help,
                     u64* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f](const char* v) { *out = parse_u64(f.c_str(), v); });
  }
  FlagSet& double_value(std::string name, std::string metavar,
                        std::string help, double lo, double hi, double* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f, lo, hi](const char* v) {
                   *out = parse_double(f.c_str(), v, lo, hi);
                 });
  }
  FlagSet& string_value(std::string name, std::string metavar,
                        std::string help, std::string* out) {
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out](const char* v) { *out = v; });
  }
  /// Duration flag (`--name=250ms`); stores nanoseconds.
  FlagSet& duration_ns_value(std::string name, std::string metavar,
                             std::string help, u64* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f](const char* v) {
                   *out = parse_duration_ns(f.c_str(), v);
                 });
  }
  /// Duration flag interpreted on the simulated 850 MHz timeline; stores
  /// core-clock cycles (`2s` -> 1.7e9 cycles).
  FlagSet& duration_cycles_value(std::string name, std::string metavar,
                                 std::string help, cycles_t* out) {
    const std::string f = "--" + name;
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out, f](const char* v) {
                   *out = duration_to_cycles(parse_duration_ns(f.c_str(), v));
                 });
  }
  /// Repeatable flag: every occurrence appends (the single-value helpers
  /// above overwrite, so `--preload=a --preload=b` would lose `a`).
  FlagSet& repeated_value(std::string name, std::string metavar,
                          std::string help, std::vector<std::string>* out) {
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out](const char* v) { out->push_back(v); });
  }
  FlagSet& path_value(std::string name, std::string metavar, std::string help,
                      std::filesystem::path* out) {
    return value(std::move(name), std::move(metavar), std::move(help),
                 [out](const char* v) { *out = v; });
  }

  /// Parse argv[first..); returns the process exit code when parsing
  /// settled the run (--help/--version -> 0, errors -> 2), nullopt to
  /// proceed.
  [[nodiscard]] std::optional<int> parse(int argc, char** argv,
                                         int first) const {
    for (int i = first; i < argc; ++i) {
      if (const auto rc = parse_one(argv[i])) return rc;
    }
    return std::nullopt;
  }

  /// Parse a single argument (for tools that mix positionals in).
  [[nodiscard]] std::optional<int> parse_one(const char* arg) const {
    if (match_flag(arg, "help")) {
      print_help(stdout);
      return 0;
    }
    if (match_flag(arg, "version")) {
      std::printf("%s %s\n", prog_.c_str(), version());
      return 0;
    }
    try {
      for (const Flag& f : flags_) {
        if (f.metavar.empty()) {
          if (match_flag(arg, f.name.c_str())) {
            f.fn(nullptr);
            return std::nullopt;
          }
        } else {
          const char* v = nullptr;
          if (match_value(arg, f.name.c_str(), &v)) {
            f.fn(v);
            return std::nullopt;
          }
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", prog_.c_str(), e.what());
      print_usage(stderr);
      return 2;
    }
    std::fprintf(stderr, "%s: unknown flag %s (try --help)\n", prog_.c_str(),
                 arg);
    print_usage(stderr);
    return 2;
  }

  void print_usage(std::FILE* out) const {
    std::string line = "usage: " + prog_;
    if (!positionals_.empty()) line += " " + positionals_;
    line += " [options] [--help] [--version]";
    std::fprintf(out, "%s\n", line.c_str());
  }

  void print_help(std::FILE* out) const {
    print_usage(out);
    std::size_t width = 0;
    const auto left_col = [](const Flag& f) {
      return f.metavar.empty() ? "--" + f.name
                               : "--" + f.name + "=" + f.metavar;
    };
    for (const Flag& f : flags_) {
      width = std::max(width, left_col(f).size());
    }
    std::fprintf(out, "options:\n");
    for (const Flag& f : flags_) {
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width),
                   left_col(f).c_str(), f.help.c_str());
    }
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), "--help",
                 "show this help and exit");
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width), "--version",
                 "print the tool version and exit");
  }

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for boolean flags
    std::string help;
    ValueFn fn;
  };

  std::string prog_;
  std::string positionals_;
  std::vector<Flag> flags_;
};

/// Declare --sched/--jobs once. Ranks run as fibers in greedy (cycle,
/// rank) order either way, so both modes produce byte-identical results;
/// parallel lets rank segments of different nodes run concurrently.
inline void add_sched_flags(FlagSet& fs, rt::MachineConfig& mc) {
  fs.value("sched", "MODE",
           "scheduler workers: 'serial' (one worker runs every rank fiber) "
           "or 'parallel' (--jobs workers run different nodes' rank fibers "
           "concurrently); byte-identical results",
           [&mc](const char* v) {
             if (std::strcmp(v, "serial") == 0) {
               mc.sched = rt::SchedMode::kSerial;
             } else if (std::strcmp(v, "parallel") == 0) {
               mc.sched = rt::SchedMode::kParallel;
             } else {
               throw std::invalid_argument(
                   strfmt("--sched must be serial or parallel, got '%s'", v));
             }
           });
  fs.unsigned_value("jobs", "N",
                    "parallel scheduler worker threads (0 = hardware "
                    "concurrency; never more than the node count)",
                    &mc.jobs);
}

/// Declare the flags every run-a-benchmark tool shares (bgpc_run,
/// bgpc_trace): partition, class, dump/trace directory, trace sampling,
/// fault seed and scheduler. The defaults shown in --help are the values
/// the caller pre-filled into `cfg`. --dumps sets the dump and the trace
/// directory. --fault-seed lands in `fault_seed`: the tool draws
/// `cfg.fault` from it after parsing, once --nodes is known.
inline void add_run_flags(FlagSet& fs, nas::RunConfig& cfg, u64& fault_seed) {
  rt::MachineConfig& mc = cfg.machine;
  fs.positive_value("nodes", "N",
                    strfmt("partition size (default %u)", mc.num_nodes),
                    &mc.num_nodes);
  fs.value("mode", "M", "smp1|smp4|dual|vnm (default vnm)",
           [&mc](const char* v) { mc.mode = sys::parse_mode(v); });
  fs.value("class", "C",
           strfmt("problem class S|W|A (default %s)",
                  std::string(nas::name(cfg.cls)).c_str()),
           [&cfg](const char* v) { cfg.cls = nas::parse_class(v); });
  fs.unsigned_value("ranks", "N", "use fewer ranks than the partition hosts",
                    &mc.num_ranks_override);
  fs.value("dumps", "DIR",
           strfmt("dump/trace directory (default %s)",
                  cfg.options.dump_dir.string().c_str()),
           [&cfg](const char* v) {
             cfg.options.dump_dir = v;
             cfg.options.trace.trace_dir = v;
           });
  trace::TraceConfig& tc = cfg.options.trace;
  fs.value("interval-cycles", "N",
           strfmt("trace sampling interval (default %llu)",
                  static_cast<unsigned long long>(tc.interval_cycles)),
           [&tc](const char* v) {
             tc.interval_cycles = parse_u64("--interval-cycles", v);
             if (tc.interval_cycles == 0) {
               throw std::invalid_argument(
                   "--interval-cycles must be positive");
             }
           });
  fs.value("interval", "DUR",
           "trace sampling interval as simulated time with a unit suffix "
           "(e.g. 12us); the duration twin of --interval-cycles",
           [&tc](const char* v) {
             tc.interval_cycles =
                 duration_to_cycles(parse_duration_ns("--interval", v));
             if (tc.interval_cycles == 0) {
               throw std::invalid_argument(
                   "--interval is shorter than one 850 MHz cycle");
             }
           });
  fs.value("events", "PRESET", "trace event preset (see --list)",
           [&tc](const char* v) {
             tc.preset = v;  // validated against the catalogue
             (void)trace::preset_trace_events(tc.preset, 0);
           });
  fs.u64_value("fault-seed", "S",
               "seed for the deterministic fault plan (default 1)",
               &fault_seed);
  add_sched_flags(fs, mc);
}

/// --list of the run-a-benchmark tools: benchmarks, modes, classes and
/// trace event presets.
inline int list_choices() {
  std::printf("benchmarks:");
  for (const nas::Benchmark b : nas::all_benchmarks()) {
    std::printf(" %s", std::string(nas::name(b)).c_str());
  }
  std::printf("\nmodes: smp1 smp4 dual vnm\nclasses: S W A\nevent presets:");
  for (const std::string& p : trace::trace_preset_names()) {
    std::printf(" %s", p.c_str());
  }
  std::printf("\n");
  return 0;
}

/// The observability surface shared by the run-a-Machine tools.
struct ObsArgs {
  obs::ObsConfig config;
  std::filesystem::path trace_file;    ///< Chrome trace-event JSON
  std::filesystem::path metrics_file;  ///< Prometheus text exposition
};

/// Declare the --obs-* flags once (bgpc_run, bgpc_trace, bgpc_mine all
/// accept the same set). Either output flag implies --obs.
inline void add_obs_flags(FlagSet& fs, ObsArgs& a) {
  fs.toggle("obs",
            "enable the flight recorder (spans + metrics; writes per-node "
            ".bgps span files next to the dumps)",
            &a.config.enabled);
  fs.value("obs-trace", "FILE",
           "write a Chrome trace-event JSON of the run (implies --obs); "
           "open in Perfetto or chrome://tracing",
           [&a](const char* v) {
             a.trace_file = v;
             a.config.enabled = true;
           });
  fs.value("obs-metrics", "FILE",
           "write the metrics registry in Prometheus text format "
           "(implies --obs)",
           [&a](const char* v) {
             a.metrics_file = v;
             a.config.enabled = true;
           });
  fs.value("obs-span-capacity", "N",
           "per-rank span ring capacity (oldest spans dropped beyond this)",
           [&a](const char* v) {
             a.config.span_capacity = parse_positive("--obs-span-capacity", v);
           });
}

/// Export the requested observability outputs after a run; returns 0, or
/// 1 when a file could not be written.
inline int write_obs_outputs(const ObsArgs& a, obs::FlightRecorder* fr,
                             const std::string& app, bool quiet = false) {
  if (fr == nullptr) return 0;
  fr->update_self_metrics();
  int rc = 0;
  if (!a.trace_file.empty()) {
    try {
      obs::write_chrome_trace_file(a.trace_file, *fr, app);
      if (!quiet) std::printf("wrote %s\n", a.trace_file.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 1;
    }
  }
  if (!a.metrics_file.empty()) {
    try {
      obs::write_prometheus_file(a.metrics_file, fr->metrics());
      if (!quiet) std::printf("wrote %s\n", a.metrics_file.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace bgp::cli

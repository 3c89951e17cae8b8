#include "daemon/jobspec.hpp"

#include <cctype>

#include "common/strfmt.hpp"
#include "trace/tracer.hpp"

namespace bgp::daemon {

namespace {

unsigned get_unsigned(const json::Value& v, const char* key) {
  const u64 n = v.as_u64();
  if (n > ~0u) {
    throw json::JsonError(strfmt("'%s' is out of range", key));
  }
  return static_cast<unsigned>(n);
}

/// The wire token parse_mode() accepts (sys::to_string's display form,
/// "SMP/1", is not parseable).
const char* mode_token(sys::OpMode m) {
  switch (m) {
    case sys::OpMode::kSmp1: return "smp1";
    case sys::OpMode::kSmp4: return "smp4";
    case sys::OpMode::kDual: return "dual";
    case sys::OpMode::kVnm: return "vnm";
  }
  return "?";
}

}  // namespace

JobSpec JobSpec::from_json(const json::Value& v) {
  if (!v.is_object()) {
    throw json::JsonError("job spec must be a JSON object");
  }
  JobSpec spec;
  for (const auto& [key, val] : v.members()) {
    try {
      if (key == "session") {
        spec.session = val.as_string();
        if (!valid_session_name(spec.session)) {
          throw json::JsonError(
              "session names are [A-Za-z0-9._-], no leading dot, <= 64 "
              "chars");
        }
      } else if (key == "bench") {
        spec.bench = nas::parse_benchmark(val.as_string());
      } else if (key == "class") {
        spec.cls = nas::parse_class(val.as_string());
      } else if (key == "nodes") {
        spec.nodes = get_unsigned(val, key.c_str());
        if (spec.nodes == 0) throw json::JsonError("'nodes' must be positive");
      } else if (key == "mode") {
        spec.mode = sys::parse_mode(val.as_string());
      } else if (key == "ranks") {
        spec.ranks = get_unsigned(val, key.c_str());
      } else if (key == "sched") {
        const std::string& s = val.as_string();
        if (s == "serial") {
          spec.sched = rt::SchedMode::kSerial;
        } else if (s == "parallel") {
          spec.sched = rt::SchedMode::kParallel;
        } else {
          throw json::JsonError("'sched' must be \"serial\" or \"parallel\"");
        }
      } else if (key == "jobs") {
        spec.jobs = get_unsigned(val, key.c_str());
      } else if (key == "deaths") {
        spec.deaths = get_unsigned(val, key.c_str());
      } else if (key == "fault_seed") {
        spec.fault_seed = val.as_u64();
      } else if (key == "ft") {
        spec.ftp.enabled = val.as_bool();
      } else if (key == "ft_detect_latency") {
        spec.ftp.detect_latency = val.as_u64();
      } else if (key == "trace") {
        spec.trace = val.as_bool();
      } else if (key == "interval_cycles") {
        spec.interval_cycles = val.as_u64();
        if (spec.interval_cycles == 0) {
          throw json::JsonError("'interval_cycles' must be positive");
        }
      } else if (key == "preset") {
        spec.preset = val.as_string();
        (void)trace::preset_trace_events(spec.preset, 0);
      } else if (key == "obs") {
        spec.obs = val.as_bool();
      } else if (key == "snapshot_period_cycles") {
        spec.snapshot_period_cycles = val.as_u64();
      } else {
        throw json::JsonError(strfmt("unknown key '%s'", key.c_str()));
      }
    } catch (const json::JsonError&) {
      throw;
    } catch (const std::exception& e) {
      // Normalize parse_benchmark/parse_mode/... failures into the
      // structured bad_request path with the key named.
      throw json::JsonError(strfmt("'%s': %s", key.c_str(), e.what()));
    }
  }
  if (spec.ranks != 0 &&
      spec.ranks > spec.nodes * sys::processes_per_node(spec.mode)) {
    throw json::JsonError(
        strfmt("'ranks' %u exceeds the partition capacity %u", spec.ranks,
               spec.nodes * sys::processes_per_node(spec.mode)));
  }
  return spec;
}

json::Value JobSpec::to_json() const {
  json::Value v = json::Value::object();
  if (!session.empty()) v.set("session", json::Value(session));
  v.set("bench", json::Value(std::string(nas::name(bench))));
  v.set("class", json::Value(std::string(nas::name(cls))));
  v.set("nodes", json::Value(u64{nodes}));
  v.set("mode", json::Value(mode_token(mode)));
  if (ranks != 0) v.set("ranks", json::Value(u64{ranks}));
  v.set("sched", json::Value(sched == rt::SchedMode::kParallel
                                 ? std::string("parallel")
                                 : std::string("serial")));
  if (jobs != 0) v.set("jobs", json::Value(u64{jobs}));
  if (deaths != 0) {
    v.set("deaths", json::Value(u64{deaths}));
    v.set("fault_seed", json::Value(fault_seed));
  }
  if (ftp.enabled) {
    v.set("ft", json::Value(true));
    v.set("ft_detect_latency", json::Value(ftp.detect_latency));
  }
  if (trace) {
    v.set("trace", json::Value(true));
    v.set("interval_cycles", json::Value(interval_cycles));
    v.set("preset", json::Value(preset));
  }
  if (obs) v.set("obs", json::Value(true));
  if (snapshot_period_cycles.has_value()) {
    v.set("snapshot_period_cycles", json::Value(*snapshot_period_cycles));
  }
  return v;
}

nas::RunConfig JobSpec::run_config(const std::filesystem::path& dir) const {
  nas::RunConfig rc;
  rc.bench = bench;
  rc.cls = cls;
  rc.machine.num_nodes = nodes;
  rc.machine.mode = mode;
  rc.machine.num_ranks_override = ranks;
  rc.machine.sched = sched;
  rc.machine.jobs = jobs;
  rc.options.dump_dir = dir;
  rc.options.write_dumps = true;
  rc.options.trace.enabled = trace;
  rc.options.trace.interval_cycles = interval_cycles;
  rc.options.trace.preset = preset;
  rc.options.trace.trace_dir = dir;
  rc.options.obs.enabled = obs;
  rc.fault = nas::node_deaths(fault_seed, nodes, deaths);
  rc.ft = ftp;
  return rc;
}

u64 estimate_resident_bytes(const JobSpec& spec) {
  // Per node: the modeled L3 array dominates (8 MiB default) plus DDR/
  // snoop/core structures; round to 10 MiB. Per rank: its fiber stack (a
  // 1 MiB mapping, resident only as far as it is touched) plus mailbox
  // slack; 1 MiB covers both. The snapshot mapping adds two full counter
  // slots per node plus the metrics text (~4.2 KiB + 128 KiB).
  const u64 per_node = 10 * MiB;
  const u64 per_rank = 1 * MiB;
  const u64 snapshot = u64{spec.nodes} * 4352 + 160 * 1024;
  return u64{spec.nodes} * per_node + u64{spec.effective_ranks()} * per_rank +
         snapshot;
}

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  for (const char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

}  // namespace bgp::daemon

#include "nas/runner.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "postproc/sanity.hpp"
#include "runtime/obs_scope.hpp"

namespace bgp::nas {

fault::FaultPlan node_deaths(u64 seed, unsigned nodes, unsigned deaths) {
  fault::FaultSpec spec;
  spec.node_deaths = deaths;
  return fault::FaultPlan::random(seed, nodes, spec);
}

Run::Run(RunConfig config)
    : config_(std::move(config)),
      injector_(config_.fault),
      machine_(config_.machine),
      session_(machine_, session_options()),
      kernel_(make_kernel(config_.bench, config_.cls)) {
  if (!config_.fault.empty()) machine_.set_fault_injector(&injector_);
  machine_.set_ft_params(config_.ft);
  session_.link_with_mpi();
}

pc::Options Run::session_options() {
  pc::Options opts = config_.options;
  opts.app_name = std::string(name(config_.bench));
  opts.fault = config_.fault.empty() ? nullptr : &injector_;
  return opts;
}

RunOutput Run::run() {
  const std::string region = "region." + std::string(name(config_.bench));
  RunOutput out;
  try {
    if (config_.ft.enabled) {
      machine_.run([&](rt::RankCtx& ctx) {
        ft::run_guarded(ctx, [&](rt::RankCtx& c) {
          c.mpi_init();
          rt::ObsScope span(c, region, obs::SpanCat::kRegion);
          kernel_->run(c);
        });
        ft::finalize_guarded(ctx);
      });
    } else {
      machine_.run([&](rt::RankCtx& ctx) {
        ctx.mpi_init();
        {
          rt::ObsScope span(ctx, region, obs::SpanCat::kRegion);
          kernel_->run(ctx);
        }
        ctx.mpi_finalize();
      });
    }
  } catch (const rt::RunStopped&) {
    // Interrupted: seal what was recording and checkpoint-dump every
    // initialized node so the partial run stays minable.
    session_.seal_all_traces();
    session_.checkpoint_dump();
    out.stopped = true;
  }
  out.dumps = session_.dumps();
  out.elapsed = machine_.elapsed();
  out.result = kernel_->result();
  out.dead_nodes = machine_.dead_nodes();
  out.recovery = machine_.recovery_log();
  return out;
}

bool Run::succeeded(const RunOutput& out) const {
  if (!config_.ft.enabled || out.dead_nodes.empty()) {
    return out.result.verified;
  }
  for (const pc::DumpWriteOutcome& o : session_.write_outcomes()) {
    if (!o.ok) return false;
  }
  return session_.dump_files().size() ==
         config_.machine.num_nodes - out.dead_nodes.size();
}

RunOutput run_benchmark(const RunConfig& config) {
  RunOutput out = Run(config).run();
  const std::string app(name(config.bench));
  if (!out.result.verified) {
    log_warn("%s class %s: verification FAILED: %s", app.c_str(),
             std::string(name(config.cls)).c_str(), out.result.detail.c_str());
  }
  const auto sanity = post::check(out.dumps);
  if (!sanity.ok()) {
    throw std::runtime_error("counter dump sanity check failed: " +
                             sanity.problems.front().text);
  }
  const post::Aggregate agg(out.dumps, 0);
  out.record = post::make_record(app, agg);
  out.record.nodes_expected = config.machine.num_nodes;
  out.record.nodes_mined = static_cast<unsigned>(out.dumps.size());
  out.record.nodes_failed = static_cast<unsigned>(out.dead_nodes.size());
  return out;
}

}  // namespace bgp::nas

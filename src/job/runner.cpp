#include "job/runner.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "beam/cross_section.hpp"
#include "fault/injector.hpp"
#include "job/serialize.hpp"

namespace gpurel::job {

namespace fs = std::filesystem;
using json::Value;

namespace {

/// Persist a checkpoint atomically. The file carries the job's cache key, so
/// a stale checkpoint from a different spec (or engine version) is never
/// resumed from.
void write_checkpoint(const std::string& path, const std::string& job_key,
                      const fault::CampaignCheckpoint& ck,
                      obs::TraceWriter* trace) {
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  Value v = Value::object();
  v.set("schema_version", kResultSchemaVersion);
  v.set("type", "campaign_checkpoint");
  v.set("job", job_key);
  v.set("trials_done", ck.trials_done);
  v.set("partial", campaign_result_to_json(ck.partial));
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open " + tmp);
      out << v.dump() << '\n';
      if (!out) throw std::runtime_error("write failed for " + tmp);
    }
    fs::rename(tmp, path);
    if (trace != nullptr)
      trace->complete("checkpoint write", "job", obs::kWallPid, 0, t0,
                      trace->now_us() - t0,
                      {{"trials_done", ck.trials_done}});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpurel: checkpoint write failed for %s: %s\n",
                 path.c_str(), e.what());
    std::error_code ec;
    fs::remove(tmp, ec);
  }
}

std::optional<fault::CampaignCheckpoint> load_checkpoint(
    const std::string& path, const std::string& job_key) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    std::ostringstream buf;
    buf << in.rdbuf();
    const Value doc = Value::parse(buf.str());
    check_schema_version(doc, "checkpoint");
    if (json::get_string(doc, "type") != "campaign_checkpoint")
      throw std::runtime_error("not a campaign checkpoint");
    if (json::get_string(doc, "job") != job_key)
      throw std::runtime_error("checkpoint belongs to a different job");
    fault::CampaignCheckpoint ck;
    ck.trials_done = json::get_uint(doc, "trials_done");
    ck.partial = campaign_result_from_json(doc.at("partial"));
    return ck;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "gpurel: ignoring checkpoint %s (%s); restarting shard\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

}  // namespace

JobResult run_job(const JobSpec& spec, const RunOptions& opts) {
  obs::TraceWriter* trace = opts.context.resolved_trace();
  const std::string key = cache_key(spec);
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  const ResultCache cache(opts.cache_dir);
  if (std::optional<JobResult> hit = cache.load(spec)) {
    if (trace != nullptr)
      trace->complete("job cache hit", "job", obs::kWallPid, 0, t0,
                      trace->now_us() - t0, {{"key", key}});
    return std::move(*hit);
  }
  if (trace != nullptr && cache.enabled())
    trace->instant("job cache miss", "job", obs::kWallPid, 0, trace->now_us(),
                   {{"key", key}});

  core::WorkloadConfig wc{spec.device, spec.profile, spec.input_seed,
                          spec.scale};
  const core::WorkloadFactory factory =
      kernels::workload_factory(spec.entry.base, spec.entry.precision, wc);

  JobResult out;
  out.spec = spec;
  if (spec.kind == JobKind::Campaign) {
    const std::unique_ptr<fault::Injector> injector =
        fault::make_injector(spec.injector);
    if (injector->profile() != spec.profile)
      throw std::runtime_error(
          "job: spec profile does not match injector " + spec.injector +
          " (" + std::string(isa::compiler_profile_name(injector->profile())) +
          ")");
    fault::CampaignConfig cc;
    cc.budget() = spec.budget;
    cc.context() = opts.context;
    cc.seed = spec.seed;
    cc.workers = opts.workers;
    cc.fork_epochs = opts.fork_epochs;
    cc.propagation = spec.propagation;
    cc.shard_index = spec.shard.index;
    cc.shard_count = spec.shard.count;

    fault::CampaignCheckpoint resume;
    const bool checkpointing = !opts.checkpoint_path.empty();
    if (checkpointing) {
      const std::string job_key = cache_key(spec);
      cc.checkpoint_every =
          opts.checkpoint_every != 0 ? opts.checkpoint_every : 64;
      cc.on_checkpoint = [path = opts.checkpoint_path, job_key,
                          trace](const fault::CampaignCheckpoint& ck) {
        write_checkpoint(path, job_key, ck, trace);
      };
      if (std::optional<fault::CampaignCheckpoint> loaded =
              load_checkpoint(opts.checkpoint_path, job_key)) {
        if (spec.propagation) {
          // A resumed prefix has no per-trial provenance, so the shard
          // restarts from scratch rather than producing a partial report.
          std::fprintf(stderr,
                       "gpurel: ignoring checkpoint %s (propagation jobs "
                       "cannot resume); restarting shard\n",
                       opts.checkpoint_path.c_str());
        } else {
          resume = std::move(*loaded);
          cc.resume = &resume;
        }
      }
    }

    out.campaign = fault::run_campaign(*injector, factory, cc);
    if (checkpointing) {
      std::error_code ec;
      fs::remove(opts.checkpoint_path, ec);  // job done; checkpoint is stale
    }
  } else {
    const beam::CrossSectionDb db =
        beam::CrossSectionDb::for_arch(spec.device.arch);
    beam::BeamConfig bc;
    bc.context() = opts.context;
    bc.runs = spec.runs;
    bc.mode = spec.mode;
    bc.flux_scale = spec.flux_scale;
    bc.ecc = spec.ecc;
    bc.seed = spec.seed;
    bc.workers = opts.workers;
    bc.shard_index = spec.shard.index;
    bc.shard_count = spec.shard.count;
    out.beam = beam::run_beam(db, factory, bc);
  }

  if (trace != nullptr)
    trace->complete("job run", "job", obs::kWallPid, 0, t0,
                    trace->now_us() - t0,
                    {{"key", key}, {"kind", job_kind_name(spec.kind)}});
  if (cache.store(out) && trace != nullptr)
    trace->instant("job cache store", "job", obs::kWallPid, 0, trace->now_us(),
                   {{"key", key}});
  return out;
}

JobSpec campaign_spec(const arch::GpuConfig& device,
                      const kernels::CatalogEntry& entry,
                      const std::string& injector,
                      const fault::InjectionBudget& budget, std::uint64_t seed,
                      std::uint64_t input_seed, double scale) {
  JobSpec spec;
  spec.kind = JobKind::Campaign;
  spec.device = device;
  spec.entry = entry;
  // Resolve the profile through the registry so an unknown name fails here,
  // with the list of registered injectors, rather than at run time.
  spec.profile = fault::make_injector(injector)->profile();
  spec.seed = seed;
  spec.input_seed = input_seed;
  spec.scale = scale;
  spec.injector = injector;
  spec.budget = budget;
  return spec;
}

JobSpec beam_spec(const arch::GpuConfig& device,
                  const kernels::CatalogEntry& entry, bool ecc,
                  beam::BeamMode mode, unsigned runs, double flux_scale,
                  std::uint64_t seed, std::uint64_t input_seed, double scale) {
  JobSpec spec;
  spec.kind = JobKind::Beam;
  spec.device = device;
  spec.entry = entry;
  spec.profile = isa::CompilerProfile::Cuda10;
  spec.seed = seed;
  spec.input_seed = input_seed;
  spec.scale = scale;
  spec.ecc = ecc;
  spec.mode = mode;
  spec.runs = runs;
  spec.flux_scale = flux_scale;
  return spec;
}

}  // namespace gpurel::job

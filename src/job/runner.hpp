// Executing a JobSpec. run_job() is the one entry point the CLI, the Study
// layer, and tests all share: cache lookup → engine execution → cache store,
// with optional crash-resumable checkpointing for campaign jobs.
//
// Execution knobs (workers, fork batching, observability, cache directory,
// checkpoint cadence) live in RunOptions, NOT in the spec: they cannot
// change results (per-trial seeding), so they must not change the content
// hash either.
#pragma once

#include <string>

#include "fault/campaign.hpp"
#include "job/cache.hpp"
#include "job/result.hpp"
#include "obs/run_context.hpp"

namespace gpurel::job {

struct RunOptions {
  unsigned workers = 1;
  /// Campaign jobs only: checkpoint-fork trial batching
  /// (fault::CampaignConfig::fork_epochs), on by default; 0 runs plain.
  /// Results are bit-identical at any value, so a forked run shares its
  /// plain twin's cache entry.
  unsigned fork_epochs = fault::kDefaultForkEpochs;
  /// Telemetry/trace/progress wiring forwarded to the engine config.
  obs::RunContext context;
  /// Result cache directory; empty → GPUREL_CACHE env var → cache disabled.
  std::string cache_dir;
  /// Campaign jobs only: periodically persist a resume checkpoint to this
  /// file. If the file already exists when the job starts (a previous run of
  /// the same spec was killed), execution resumes from it and still produces
  /// the uninterrupted result bit for bit; it is deleted once the job
  /// completes. Empty disables checkpointing.
  std::string checkpoint_path;
  /// Owned trials between checkpoints (campaign jobs; 0 with a non-empty
  /// checkpoint_path defaults to 64).
  unsigned checkpoint_every = 0;
};

/// Execute a spec (cache-aware) and return its result. Throws
/// std::runtime_error / std::invalid_argument on unknown injector names,
/// profile/injector mismatch, or invalid shard configuration.
JobResult run_job(const JobSpec& spec, const RunOptions& opts = {});

/// Spec builders mirroring how the Study layer parameterizes the engines.
JobSpec campaign_spec(const arch::GpuConfig& device,
                      const kernels::CatalogEntry& entry,
                      const std::string& injector,
                      const fault::InjectionBudget& budget, std::uint64_t seed,
                      std::uint64_t input_seed, double scale);
JobSpec beam_spec(const arch::GpuConfig& device,
                  const kernels::CatalogEntry& entry, bool ecc,
                  beam::BeamMode mode, unsigned runs, double flux_scale,
                  std::uint64_t seed, std::uint64_t input_seed, double scale);

}  // namespace gpurel::job

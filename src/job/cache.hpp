// Content-addressed result cache. Results are stored as canonical JobResult
// JSON under "<dir>/<cache_key(spec)>.json", where cache_key combines the
// spec's content hash with the engine version — so a cache survives process
// restarts and machine moves, but never serves results across an engine
// change that could alter outcomes.
//
// The directory comes from the constructor argument (--cache-dir /
// StudyConfig::cache_dir) or, when that is empty, the GPUREL_CACHE
// environment variable; with neither set the cache is disabled and every
// lookup misses. Writes are atomic (temp file + rename) so concurrent shard
// processes can share one directory. Lookups and stores bump the
// gpurel_job_cache_{hits,misses,stores}_total counters in the global metrics
// registry; I/O failures degrade to a miss or a dropped store — the cache
// must never fail a job.
#pragma once

#include <optional>
#include <string>

#include "job/result.hpp"

namespace gpurel::job {

class ResultCache {
 public:
  /// `dir` empty → GPUREL_CACHE env var → disabled.
  explicit ResultCache(std::string dir = {});

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// File a result for `spec` would live at (meaningful when enabled()).
  std::string path_for(const JobSpec& spec) const;

  /// Cached result for `spec`, or nullopt on a miss (also when disabled, or
  /// when the stored file fails to parse or embeds a different spec). Bumps
  /// hit/miss counters.
  std::optional<JobResult> load(const JobSpec& spec) const;

  /// Store a result under its spec's cache key; returns false (after a
  /// stderr warning) on I/O failure. No-op when disabled.
  bool store(const JobResult& result) const;

 private:
  std::string dir_;
};

}  // namespace gpurel::job

// gpurel::job — the serializable unit of work.
//
// A JobSpec names everything that determines a campaign or beam result:
// device, workload, injector/ECC, budget, seeds, scale, and the shard of the
// trial space this process owns. It canonically JSON-serializes (fixed field
// order, exact number round-trips — see common/json.hpp) and exposes a
// stable FNV-1a content hash over exactly those bytes, so a spec can be
// shipped to another process, deduplicated, or used as a cache address.
//
// The determinism contract the spec builds on: engine results depend only on
// spec fields (per-trial seeding makes them independent of worker count
// and observability), so identical specs have
// bit-identical results and shard results merge into the unsharded one.
#pragma once

#include <cstdint>
#include <string>

#include "arch/gpu_config.hpp"
#include "beam/experiment.hpp"
#include "common/json.hpp"
#include "fault/budget.hpp"
#include "isa/compiler_profile.hpp"
#include "kernels/registry.hpp"

namespace gpurel::job {

/// Version of the JobSpec JSON layout itself. Bump when a field is added,
/// removed, or re-encoded; parsers reject other versions.
inline constexpr std::int64_t kSpecVersion = 1;

/// Version of the serialized result schema (CampaignResult / BeamResult /
/// JobResult / report JSON all carry it as top-level `schema_version`).
inline constexpr std::int64_t kResultSchemaVersion = 1;

/// Identity of the simulation engine for cache addressing. The cache key is
/// content-hash ⊕ engine version, so cached results never survive an engine
/// change that could alter outcomes. Bump on ANY behavioral engine change
/// (new fault model semantics, RNG changes, FIT formula changes, ...).
inline constexpr const char* kEngineVersion = "gpurel-engine-6";

enum class JobKind : std::uint8_t { Campaign, Beam };

std::string_view job_kind_name(JobKind k);

/// Which slice of the trial space a process owns: trial t belongs to shard
/// `index` of `count` iff t % count == index.
struct Shard {
  unsigned index = 0;
  unsigned count = 1;

  friend bool operator==(const Shard&, const Shard&) = default;
};

struct JobSpec {
  JobKind kind = JobKind::Campaign;
  /// Full device description (not a registry name): specs built from any
  /// Study GPU — including scaled SM counts and the Kepler→Volta
  /// substitution device — stay self-contained.
  arch::GpuConfig device;
  kernels::CatalogEntry entry{"MXM", core::Precision::Single};
  /// Toolchain era of the simulated binary. For campaign jobs this must be
  /// the injector's profile (SASSIFI → cuda7, NVBitFI → cuda10).
  isa::CompilerProfile profile = isa::CompilerProfile::Cuda10;
  /// Engine seed (CampaignConfig::seed / BeamConfig::seed).
  std::uint64_t seed = 0;
  /// Workload input seed (WorkloadConfig::input_seed).
  std::uint64_t input_seed = 0x5eed;
  /// Workload size knob (WorkloadConfig::scale).
  double scale = 1.0;

  // --- campaign jobs -------------------------------------------------------
  std::string injector = "SASSIFI";  // "SASSIFI" | "NVBitFI"
  fault::InjectionBudget budget;
  /// Fault-propagation flight recorder (CampaignConfig::propagation). The
  /// observer is outcome-neutral but the flag is part of the spec so a cached
  /// result records whether it carries a propagation report; serialized only
  /// when true, so existing spec hashes are unchanged.
  bool propagation = false;

  // --- beam jobs -----------------------------------------------------------
  bool ecc = true;
  beam::BeamMode mode = beam::BeamMode::Accelerated;
  unsigned runs = 0;
  double flux_scale = 1.0;

  Shard shard;
};

/// Canonical JSON document of a spec (deterministic member order).
json::Value spec_to_json(const JobSpec& spec);
/// Parse a spec; throws std::runtime_error on malformed documents or a
/// spec_version this build does not understand.
JobSpec spec_from_json(const json::Value& doc);

/// The canonical serialized bytes — dump(spec_to_json(spec)).
std::string canonical_json(const JobSpec& spec);
/// Stable content hash: fnv1a64 over canonical_json(). Pinned by goldens in
/// tests/test_job.cpp — a drift means cache invalidation for every user, so
/// layout changes must bump kSpecVersion deliberately.
std::uint64_t content_hash(const JobSpec& spec);
/// 16-hex-digit rendering of a content hash.
std::string hash_hex(std::uint64_t h);
/// Cache address of a spec's result: "<hash_hex>-<kEngineVersion>".
std::string cache_key(const JobSpec& spec);

/// Copy of `spec` owning shard index/count (for fan-out planning).
JobSpec with_shard(JobSpec spec, unsigned index, unsigned count);

}  // namespace gpurel::job

// The beam-experiment simulator.
//
// A physical beam run exposes the executing device to a neutron flux; each
// strike lands on a resource with probability proportional to its
// cross-section x live exposure, flips state there, and the run's output is
// classified as Masked / SDC / DUE. FIT = errors / fluence.
//
// Two sampling modes are provided:
//
//   Accelerated (default): importance sampling — every run receives exactly
//   one strike drawn from the exposure-weighted distribution, and the
//   device-level rate Σ σ_r·E_r converts P(error|strike) into a FIT. This
//   is the estimator equivalent of the paper's "at most one corruption per
//   execution" experiment design (§III-C), with no wasted no-strike runs.
//
//   Natural: strikes arrive as a Poisson process at a configurable flux
//   (several strikes or none per run). Used to validate the accelerated
//   estimator (they must agree in the <=1-strike regime) and to study
//   multi-strike artifacts.
//
// ECC (SECDED) handling: with ECC on, single-bit memory strikes are
// corrected (Masked) and multi-bit upsets are detected-uncorrectable (DUE) —
// giving the paper's observations that ECC crushes the SDC rate while
// *raising* the DUE rate.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "beam/cross_section.hpp"
#include "common/stats.hpp"
#include "core/workload.hpp"
#include "fault/campaign.hpp"

namespace gpurel::beam {

enum class BeamMode : std::uint8_t { Accelerated, Natural };

/// Where a strike lands.
enum class StrikeTarget : std::uint8_t {
  FunctionalUnit, RegisterFile, SharedMem, GlobalMem, Hidden,
  kCount,
};

std::string_view strike_target_name(StrikeTarget t);

struct BeamConfig : obs::RunContext {
  unsigned runs = 200;
  BeamMode mode = BeamMode::Accelerated;
  /// Natural mode: expected strikes per run = flux_scale x Σ σ_r·E_r.
  double flux_scale = 1.0;
  bool ecc = true;
  std::uint64_t seed = 0xbea3;
  /// Runs pulled in guided chunks by this many workers; results are
  /// bit-identical at any worker count.
  unsigned workers = 1;
  /// Multi-process sharding: this process executes the runs r of the full
  /// per-run seed chain with r % shard_count == shard_index, and the result
  /// reports that subset (runs = owned count). BeamResult::merge over all
  /// shards is bit-identical to the unsharded experiment.
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  obs::RunContext& context() { return *this; }
  const obs::RunContext& context() const { return *this; }
};

struct BeamResult {
  std::string workload;
  std::string device;
  bool ecc = true;
  BeamMode mode = BeamMode::Accelerated;
  std::uint64_t runs = 0;

  /// Device-level strike rate Σ σ_r·E_r / T (arbitrary units): the
  /// conversion factor from conditional error probabilities to FITs.
  double device_sigma_rate = 0.0;

  /// Outcome tallies over runs (accelerated: over single-strike runs).
  fault::OutcomeCounts outcomes;
  /// Per-strike-target outcome breakdown (accelerated mode).
  std::array<fault::OutcomeCounts, static_cast<std::size_t>(StrikeTarget::kCount)>
      by_target{};
  /// Sampling weight share per target.
  std::array<double, static_cast<std::size_t>(StrikeTarget::kCount)> weight_share{};

  /// Measured FIT rates in arbitrary units, with 95% Poisson CIs.
  double fit_sdc = 0.0;
  double fit_due = 0.0;
  ConfidenceInterval fit_sdc_ci;
  ConfidenceInterval fit_due_ci;

  /// FIT contributed by a single observed event (fit_sdc == sdc_events *
  /// per_event_fit); lets callers attribute FIT to strike targets via
  /// by_target, e.g. the functional-unit-only SDC rate.
  double per_event_fit = 0.0;

  /// Conversion factor from P(error) to FIT before display normalization:
  /// Σw/T in accelerated mode, 1/(flux·T) in natural mode. A per-workload
  /// constant (identical across shards); kept so refresh_fits() can replay
  /// the exact FIT expression after a merge changes the counts.
  double fit_scale = 0.0;

  double fit_of(std::uint64_t events) const {
    return per_event_fit * static_cast<double>(events);
  }

  /// Recompute fit_sdc / fit_due / CIs / per_event_fit from the current
  /// outcome counts, runs, and fit_scale. run_beam and merge() share this
  /// exact expression tree, which is what makes a sharded merge reproduce
  /// the unsharded FITs byte for byte.
  void refresh_fits();

  /// Fold another shard of the same experiment into this result: sums runs
  /// and outcome tallies, then refreshes the FITs. Throws
  /// std::invalid_argument when workload/device/ecc/mode/fit_scale disagree
  /// (those are per-experiment constants).
  void merge(const BeamResult& other);
};

/// Run a beam experiment on a workload built by `factory`. Every run's
/// strikes are sampled first; when the workload is fork-safe and enough runs
/// reach the simulator, the runs fork from one shared fault-free prefix and
/// stop at a golden snapshot they match again (core/fork.hpp). The result is
/// bit-identical to running every run from cycle 0.
BeamResult run_beam(const CrossSectionDb& db, const core::WorkloadFactory& factory,
                    const BeamConfig& config);

/// Exposure integrals for a prepared workload (also used by tests and by the
/// FIT prediction's memory term).
struct ExposureBreakdown {
  std::array<double, static_cast<std::size_t>(isa::UnitKind::kCount)> unit_busy{};
  double rf_bit_cycles = 0.0;
  double shared_bit_cycles = 0.0;
  double global_bit_cycles = 0.0;
  double hidden_sm_cycles = 0.0;
  std::uint64_t trial_cycles = 0;
};

ExposureBreakdown compute_exposure(const core::Workload& w,
                                   std::uint64_t allocated_bits);

}  // namespace gpurel::beam

// Fault-injection campaigns: stratified single-bit-flip injections over the
// sites an injector can reach, producing per-instruction-kind AVFs (used by
// the Eq. 2 prediction) and the overall SDC/DUE/Masked AVF split of Fig. 4.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "core/fork.hpp"
#include "core/workload.hpp"
#include "fault/budget.hpp"
#include "fault/injector.hpp"
#include "obs/propagation.hpp"
#include "obs/run_context.hpp"

namespace gpurel::fault {

struct OutcomeCounts {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;

  std::uint64_t total() const { return masked + sdc + due; }
  double avf_sdc() const {
    return total() ? static_cast<double>(sdc) / total() : 0.0;
  }
  double avf_due() const {
    return total() ? static_cast<double>(due) / total() : 0.0;
  }
  double masked_fraction() const {
    return total() ? static_cast<double>(masked) / total() : 0.0;
  }
  ConfidenceInterval sdc_ci() const { return wilson_ci95(sdc, total()); }
  ConfidenceInterval due_ci() const { return wilson_ci95(due, total()); }

  void add(core::Outcome o);
  void merge(const OutcomeCounts& other);
};

/// Dynamic fault-site counts of one workload under one injector's
/// eligibility rules, measured by a fault-free counting run. Every campaign
/// performs this run itself and reports the counts in its CampaignResult;
/// count_sites() runs it alone.
struct SiteCounts {
  std::array<std::uint64_t, static_cast<std::size_t>(isa::UnitKind::kCount)>
      per_kind{};                  // eligible IOV sites by unit kind
  std::uint64_t pred = 0;          // predicate-writing lane executions
  std::uint64_t stores = 0;        // lane-level STG/STS executions
  std::uint64_t total_lane = 0;    // all lane executions (IA/RF anchor)
};

struct KindStats {
  OutcomeCounts counts;
  std::uint64_t dynamic_sites = 0;  // eligible lane-level executions
};

/// DUE outcomes split by core::DueCause (how the DUE manifested). Tallied
/// over every injected trial; all-zero — and skipped by the serializers —
/// when the campaign produced no DUEs.
struct DueCauseCounts {
  std::uint64_t hang = 0;
  std::uint64_t launch_failure = 0;
  std::uint64_t watchdog = 0;
  std::uint64_t barrier_deadlock = 0;
  std::uint64_t ecc = 0;

  std::uint64_t total() const {
    return hang + launch_failure + watchdog + barrier_deadlock + ecc;
  }
  void add(core::DueCause c);
  void merge(const DueCauseCounts& other);
};

struct CampaignResult {
  std::string injector;
  std::string workload;

  std::array<KindStats, static_cast<std::size_t>(isa::UnitKind::kCount)> per_kind{};
  OutcomeCounts rf, pred, ia, store_value, store_addr;
  std::uint64_t pred_sites = 0;
  std::uint64_t store_sites = 0;  // lane-level STG/STS executions
  std::uint64_t total_lane_sites = 0;  // all lane executions (IA/RF anchor)
  std::uint64_t eligible_output_sites = 0;

  /// Micro-architectural strata (MicroArch injector): outcome tallies and
  /// static site counts per reached class. All-zero on architectural
  /// campaigns and serialized only when exercised, keeping pre-existing
  /// results byte-identical.
  OutcomeCounts scheduler, scoreboard, cta, warp_control;
  std::uint64_t scheduler_sites = 0;
  std::uint64_t scoreboard_sites = 0;
  std::uint64_t cta_sites = 0;
  std::uint64_t warp_control_sites = 0;

  /// DUE-cause split over every injected trial of this shard.
  DueCauseCounts due_causes;

  /// Aggregate fault-propagation tables (CampaignConfig::propagation); absent
  /// on plain campaigns, so their serialized results are byte-identical to
  /// pre-propagation builds.
  std::optional<obs::PropagationReport> propagation;

  const KindStats& kind(isa::UnitKind k) const {
    return per_kind[static_cast<std::size_t>(k)];
  }
  /// Per-kind SDC AVF (AVF_INST_i in Eq. 2); 0 when the kind was not hit.
  double avf_sdc(isa::UnitKind k) const { return kind(k).counts.avf_sdc(); }
  double avf_due(isa::UnitKind k) const { return kind(k).counts.avf_due(); }

  /// Overall AVF: per-kind results weighted by each kind's dynamic site
  /// count (plus the predicate stratum when it was exercised), matching a
  /// uniform-over-reachable-sites campaign.
  double overall_avf_sdc() const;
  double overall_avf_due() const;
  /// 1 - overall_avf_sdc() - overall_avf_due() when at least one weighted
  /// stratum was exercised; 0 otherwise (mirroring the zero-denominator
  /// guard of the AVF accessors — an empty campaign masks nothing).
  double overall_masked() const;

  std::uint64_t total_injections() const;  // every mode, every kind

  /// Fold another shard (or resumed prefix) of the same campaign into this
  /// result. All outcome tallies are integer sums, so merging the shards of
  /// a campaign — in any order — reproduces the single-process result bit
  /// for bit (per-trial seeding makes trial outcomes independent of which
  /// process ran them). Throws std::invalid_argument when the two results
  /// disagree on injector, workload, or site counts: those are per-campaign
  /// constants, so a mismatch means the shards came from different
  /// campaigns.
  void merge(const CampaignResult& other);
};

/// One outcome stratum a campaign tallies besides the per-kind
/// instruction-output strata: a site class, where its tally and site count
/// live in CampaignResult, how it is named, and what funds it.
struct Stratum {
  SiteClass cls;
  std::string_view key;    ///< serialized CampaignResult key
  std::string_view label;  ///< metrics `model` label; budget key = label + "_injections"
  std::string_view level;  ///< injector-reach sweep level (micro-architectural rows)
  bool weighted;           ///< folds into overall_avf_* weighted by its site count
  OutcomeCounts CampaignResult::*counts;
  std::uint64_t CampaignResult::*site_count;
  unsigned InjectionBudget::*budget;
};

/// The strata table: one row per SiteClass after InstructionOutput, in
/// SiteClass order (the trial-planning, tally and serialization order).
/// Planning, tallying, merging, the AVF weighting, metrics, the job-layer
/// serializers, the Study budget and the reach sweep all iterate this
/// table, so a new site class is added here and nowhere else.
inline constexpr std::array<Stratum, kSiteClasses - 1> kStrata{{
    {SiteClass::RegisterFile, "rf", "rf", "", false, &CampaignResult::rf,
     &CampaignResult::total_lane_sites, &InjectionBudget::rf_injections},
    {SiteClass::Predicate, "pred", "pred", "", true, &CampaignResult::pred,
     &CampaignResult::pred_sites, &InjectionBudget::pred_injections},
    {SiteClass::InstructionAddress, "ia", "ia", "", false, &CampaignResult::ia,
     &CampaignResult::total_lane_sites, &InjectionBudget::ia_injections},
    {SiteClass::StoreValue, "store_value", "store_value", "", false,
     &CampaignResult::store_value, &CampaignResult::store_sites,
     &InjectionBudget::store_value_injections},
    {SiteClass::StoreAddress, "store_addr", "store_addr", "", false,
     &CampaignResult::store_addr, &CampaignResult::store_sites,
     &InjectionBudget::store_addr_injections},
    {SiteClass::Scheduler, "scheduler", "sched", "+scheduler", true,
     &CampaignResult::scheduler, &CampaignResult::scheduler_sites,
     &InjectionBudget::sched_injections},
    {SiteClass::Scoreboard, "scoreboard", "scoreboard", "+scoreboards", true,
     &CampaignResult::scoreboard, &CampaignResult::scoreboard_sites,
     &InjectionBudget::scoreboard_injections},
    {SiteClass::CtaBookkeeping, "cta", "cta", "+cta-bookkeeping", true,
     &CampaignResult::cta, &CampaignResult::cta_sites,
     &InjectionBudget::cta_injections},
    {SiteClass::WarpControl, "warp_control", "warp_control", "+warp-control",
     true, &CampaignResult::warp_control, &CampaignResult::warp_control_sites,
     &InjectionBudget::warp_control_injections},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kStrata.size(); ++i)
        if (static_cast<std::size_t>(kStrata[i].cls) != i + 1) return false;
      return true;
    }(),
    "kStrata needs one row per SiteClass after InstructionOutput");

/// The table row of a non-InstructionOutput site class.
constexpr const Stratum& stratum(SiteClass c) {
  return kStrata[static_cast<std::size_t>(c) - 1];
}

/// Snapshot of a partially executed shard: the tally of exactly the first
/// `trials_done` trials of this shard's deterministic trial order. A killed
/// shard relaunched with CampaignConfig::resume pointing at its last
/// checkpoint skips those trials and produces a bit-identical final result
/// (per-trial seeding means the skipped trials' outcomes are already fully
/// determined by `partial`).
struct CampaignCheckpoint {
  std::uint64_t trials_done = 0;
  CampaignResult partial;
};

/// The fork constants campaigns share with beams (core/fork.hpp): the
/// default epoch count, and the cap of one epoch per kTrialsPerForkEpoch
/// trials this process executes.
using core::kDefaultForkEpochs;
using core::kTrialsPerForkEpoch;

struct CampaignConfig : InjectionBudget, obs::RunContext {
  std::uint64_t seed = 0x1234;
  unsigned workers = 1;
  /// When set, receives the per-trial simulated-cycle cost, indexed by the
  /// campaign's (deterministic) internal trial order. Consumed by the
  /// repository benchmark's traced run and by tests; leave null otherwise.
  std::vector<std::uint64_t>* trial_cycles_out = nullptr;
  /// When set, receives the per-trial outcome, indexed like trial_cycles_out
  /// (trials not owned by this shard keep Outcome::Masked). Consumed by the
  /// fork-equivalence tests; leave null otherwise.
  std::vector<core::Outcome>* trial_outcomes_out = nullptr;

  /// Checkpoint-fork trial batching, on by default: when > 0 and the
  /// workload is fork-safe (core::Workload::fork_safe), the fault-free
  /// site-counting pass, run once before workers start, also snapshots
  /// device state at up to this many evenly spaced epochs (at most one per
  /// kTrialsPerForkEpoch trials this process executes, so a campaign with
  /// fewer trials than that runs plain); every worker reads that one
  /// snapshot set, and every trial whose injection fires after an epoch
  /// resumes from the deepest valid snapshot instead of re-simulating the
  /// prefix (delta restores: consecutive trials from one snapshot copy back
  /// only what the previous suffix touched). Per-trial RNG draws and
  /// outcomes are bit-identical to fork_epochs == 0, the plain reference
  /// that runs every trial from cycle 0; only wall-clock changes. Ignored
  /// (plain execution) for workloads that are not fork-safe.
  unsigned fork_epochs = kDefaultForkEpochs;
  /// Fault-propagation flight recorder: when true, every executed trial runs
  /// with an obs::PropagationObserver teed behind the injection observer,
  /// producing a per-trial provenance record (emitted as `propagation_record`
  /// telemetry events in trial order after the run) and the aggregate
  /// CampaignResult::propagation tables. Observer-only: outcome tallies are
  /// bit-identical to a plain campaign (the tee claims no hook family the
  /// injection observer does not already claim). Incompatible with `resume`
  /// (a resumed prefix has no records to aggregate).
  bool propagation = false;
  /// When set (with propagation), receives the per-trial records indexed by
  /// global trial id; trials not owned by this shard keep default records.
  std::vector<obs::PropagationRecord>* propagation_records_out = nullptr;

  /// Multi-process sharding: this process runs the trials t of the full
  /// deterministic trial list with t % shard_count == shard_index. Site
  /// counts (per-campaign constants) are reported in full by every shard;
  /// outcome tallies cover only the owned trials, so
  /// CampaignResult::merge over all shards equals the unsharded run.
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// Emit a CampaignCheckpoint through on_checkpoint every time this many
  /// additional owned trials form a completed contiguous prefix of the
  /// shard's trial order. 0 disables checkpointing. The callback runs
  /// under an internal lock — keep it brief.
  unsigned checkpoint_every = 0;
  std::function<void(const CampaignCheckpoint&)> on_checkpoint;
  /// Resume from a checkpoint previously emitted by this exact shard
  /// (same spec, same shard_index/shard_count): the covered trial prefix is
  /// skipped and its tallies merged back in, reproducing the uninterrupted
  /// result bit for bit.
  const CampaignCheckpoint* resume = nullptr;

  InjectionBudget& budget() { return *this; }
  const InjectionBudget& budget() const { return *this; }
  obs::RunContext& context() { return *this; }
  const obs::RunContext& context() const { return *this; }
};

using WorkloadFactory = std::function<std::unique_ptr<core::Workload>()>;

/// Width of the InstructionAddress fault model's flip range for a prepared
/// workload: the smallest b (>= 1) with 2^b covering every program's
/// instruction indices. The campaign samples the flip bit uniformly from
/// [0, ia_pc_bits) and the observer applies exactly the sampled bit, so all
/// sampled bits are reachable; flips into [size, 2^b) model the realistic
/// jump-past-the-end PC corruption (immediate DUE).
unsigned ia_pc_bits(const core::Workload& w);

/// Run only the fault-free counting pass of a campaign: the returned counts
/// equal the site counts run_campaign reports for the same pair. Performs
/// the same instrumentability checks as run_campaign (and throws the same
/// way when they fail).
SiteCounts count_sites(const Injector& injector, const WorkloadFactory& factory);

/// Run a full campaign (or one shard of it — see CampaignConfig::shard_*).
/// Throws std::invalid_argument when the injector cannot instrument the
/// workload on its device (the paper substitutes NVBitFI-on-Volta AVFs in
/// that case — a decision made by the Study layer), or when the shard /
/// checkpoint configuration is inconsistent.
CampaignResult run_campaign(const Injector& injector, const WorkloadFactory& factory,
                            const CampaignConfig& config);

}  // namespace gpurel::fault

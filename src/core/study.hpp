// Study: the paper's end-to-end methodology on one device.
//
//   stage 1  characterize the functional units and memories with beam
//            experiments on the synthetic microbenchmarks (§V / Fig. 3) and
//            measure each microbenchmark's own AVF by fault injection;
//   stage 2  for every code: profile it (Table I / Fig. 1), run the
//            applicable fault-injection campaigns (§VI / Fig. 4) — with the
//            paper's substitution of NVBitFI-on-Volta AVFs for Kepler
//            library codes — and measure its FIT under beam with ECC on and
//            off (Fig. 5);
//   stage 3  predict each code's FIT from stage 1 + profiling + AVFs
//            (Eqs. 1-4) and compare against the beam measurement (Fig. 6,
//            §VII-B DUE analysis).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "beam/experiment.hpp"
#include "fault/campaign.hpp"
#include "job/runner.hpp"
#include "kernels/registry.hpp"
#include "model/fit_model.hpp"
#include "profile/profiler.hpp"

namespace gpurel::core {

/// The injection budget (fault::InjectionBudget) and the observability
/// context (obs::RunContext: telemetry/trace/progress, propagated to every
/// campaign/beam run, with the usual GPUREL_TELEMETRY / GPUREL_TRACE env
/// fallbacks) are inherited — a Study's per-kind / aux-mode knobs are the
/// exact fields a CampaignConfig consumes, declared once.
struct StudyConfig : fault::InjectionBudget, obs::RunContext {
  StudyConfig() {
    // Study-scale defaults, smaller than a standalone campaign's.
    injections_per_kind = 60;
    rf_injections = 50;
    pred_injections = 30;
    ia_injections = 30;
    store_value_injections = 30;
    store_addr_injections = 30;
    // Micro-architectural strata (MicroArch injector only; run_injection
    // grants each stratum solely to injectors that reach its site class, so
    // SASSIFI/NVBitFI specs — and their cache hashes — are untouched).
    sched_injections = 24;
    scoreboard_injections = 24;
    cta_injections = 24;
    warp_control_injections = 24;
  }

  unsigned micro_beam_runs = 300;
  unsigned app_beam_runs = 150;
  unsigned micro_injections_per_kind = 40;
  unsigned workers = 1;
  std::uint64_t seed = 42;
  /// Size knob for the application workloads.
  double app_scale = 1.0;
  /// Size knob for the microbenchmarks (FIT estimates are size-invariant
  /// under conditional strike sampling, so these can be small).
  double micro_scale = 0.1;
  /// Content-addressed result cache directory for the injection campaigns
  /// and application beam runs (see job::ResultCache). Empty falls back to
  /// the GPUREL_CACHE=<dir> environment override; when neither is set,
  /// everything is recomputed. Results are bit-identical either way.
  std::string cache_dir;
  /// Attach the fault-propagation flight recorder to every injection
  /// campaign (obs::PropagationObserver). Outcomes and AVFs are unchanged;
  /// each CampaignResult additionally carries a PropagationReport, surfaced
  /// by core::report's propagation section. Note the flag is part of the
  /// JobSpec, so enabling it addresses a different cache entry.
  bool propagation = false;

  fault::InjectionBudget& budget() { return *this; }
  const fault::InjectionBudget& budget() const { return *this; }
  obs::RunContext& context() { return *this; }
  const obs::RunContext& context() const { return *this; }
};

/// Schema version of the injector-reach sweep section emitted by
/// core::code_report_json (independent of job::kResultSchemaVersion: the
/// sweep is a derived analysis, not an engine result).
inline constexpr int kReachSweepSchemaVersion = 1;

class Study {
 public:
  Study(arch::GpuConfig gpu, StudyConfig config);

  const arch::GpuConfig& gpu() const { return gpu_; }
  const StudyConfig& config() const { return config_; }

  // ---- Stage 1 -----------------------------------------------------------
  struct MicroCharacterization {
    kernels::CatalogEntry entry;
    std::string name;
    isa::UnitKind kind = isa::UnitKind::OTHER;  // OTHER for the RF benchmark
    bool is_rf = false;
    beam::BeamResult beam;   // ECC on for unit benches, off for RF
    double micro_avf = 1.0;  // injected AVF of the microbenchmark itself
    double exposed_bits = 0.0;  // RF: average resident register bits
  };

  /// Beam + injection characterization of every microbenchmark in the
  /// device's Fig. 3 catalog (cached after the first call).
  const std::vector<MicroCharacterization>& microbenchmarks();

  /// Eq. 1-4 inputs distilled from stage 1 (cached).
  const model::FitInputs& fit_inputs();

  // ---- Stage 2 + 3 -------------------------------------------------------
  /// One level of the injector-reach DUE sweep: the cumulative DUE-FIT
  /// prediction (ECC on) after granting the injector one more site class.
  struct ReachLevel {
    std::string name;  // "architectural", "+scheduler", ...
    /// Site class granted at this level; nullopt for the base level.
    std::optional<fault::SiteClass> granted;
    double predicted_due = 0.0;  // cumulative prediction, monotone in level
  };

  /// The §V DUE-gap analysis, quantified: level 0 is the architectural
  /// (SASSIFI/NVBitFI-class) Eq. 1-4 DUE prediction exactly as reported
  /// today; each further level adds the hidden-strike beam DUE FIT scaled by
  /// the granted class's static-site share and its MicroArch-measured DUE
  /// AVF. The prediction is non-decreasing in reach, closing toward the
  /// beam-measured DUE as the injector reaches more of the
  /// parallelism-management state.
  struct ReachSweep {
    std::string base;           // which prediction anchors level 0
    double beam_due = 0.0;      // measured DUE FIT, ECC on
    double hidden_due = 0.0;    // beam DUE FIT attributed to hidden strikes
    std::vector<ReachLevel> levels;
  };

  struct CodeEvaluation {
    kernels::CatalogEntry entry;
    std::string name;

    profile::CodeProfile profile;            // of the NVBitFI-era binary
    std::optional<profile::CodeProfile> profile_cuda7;  // SASSIFI-era binary

    std::optional<fault::CampaignResult> sassifi;
    std::optional<fault::CampaignResult> nvbitfi;
    /// Simulator-only MicroArch campaign over the scheduler / scoreboard /
    /// CTA-bookkeeping / warp-control site classes (§V DUE-gap analysis).
    std::optional<fault::CampaignResult> microarch;
    /// Kepler library code: the NVBitFI AVF was measured on Volta (§III-D).
    bool nvbitfi_substituted = false;
    /// Half-precision code: FP16 per-kind AVFs were grafted from the
    /// single-precision variant's campaign (NVBitFI cannot inject half
    /// instructions — the paper's §VII-A simplification, responsible for
    /// its HHotspot overestimation).
    bool half_avf_substituted = false;

    beam::BeamResult beam_ecc_on;
    beam::BeamResult beam_ecc_off;

    std::optional<model::FitPrediction> pred_sassifi_on, pred_sassifi_off;
    std::optional<model::FitPrediction> pred_nvbitfi_on, pred_nvbitfi_off;

    /// DUE-gap sweep over injector reach (see ReachSweep); present when the
    /// MicroArch campaign, an architectural prediction, and the ECC-on beam
    /// measurement are all available.
    std::optional<ReachSweep> reach;
  };

  /// Which stages of an evaluation to run (predictions need injections).
  struct EvalParts {
    bool injections = true;
    bool beam = true;
    bool predictions = true;
  };
  static constexpr EvalParts kAllParts{true, true, true};

  /// Full (or partial) evaluation of one catalog entry.
  CodeEvaluation evaluate(const kernels::CatalogEntry& entry,
                          EvalParts parts = kAllParts);

  /// Build the injector-reach sweep from an evaluation's MicroArch campaign,
  /// base architectural prediction, and ECC-on beam result; nullopt when any
  /// is missing. Pure function of the evaluation (exposed for tests and for
  /// callers assembling evaluations from cached job results).
  static std::optional<ReachSweep> reach_sweep(const CodeEvaluation& ev);

  /// The device's Table-I application catalog.
  std::vector<kernels::CatalogEntry> app_catalog() const;
  /// The device's Fig.-3 microbenchmark catalog.
  std::vector<kernels::CatalogEntry> micro_catalog() const;

 private:
  WorkloadConfig workload_config(double scale, isa::CompilerProfile profile) const;
  /// Execution knobs forwarded to job::run_job (workers, observability,
  /// cache directory) — never part of a spec's content hash.
  job::RunOptions run_options() const;
  std::optional<fault::CampaignResult> run_injection(
      const fault::Injector& injector, const kernels::CatalogEntry& entry,
      bool aux_modes, unsigned injections_per_kind, bool* substituted);
  /// Eqs. 1-4 for one injector and ECC setting. `obs` arrives with the
  /// code's instantiated memory bits (rf/shared/global_bits), measured once
  /// per code on the profiled beam binary.
  model::FitPrediction make_prediction(model::CodeObservables obs,
                                       const profile::CodeProfile& prof,
                                       const fault::CampaignResult& avf,
                                       bool ecc);

  arch::GpuConfig gpu_;
  StudyConfig config_;
  beam::CrossSectionDb db_;
  std::optional<std::vector<MicroCharacterization>> micro_;
  std::optional<model::FitInputs> inputs_;
};

}  // namespace gpurel::core

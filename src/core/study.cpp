#include "core/study.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/telemetry.hpp"
#include "job/runner.hpp"
#include "obs/trace.hpp"

namespace gpurel::core {

using isa::UnitKind;
using kernels::CatalogEntry;

namespace {

/// Trace track for Study stage spans, away from the worker tids (0..N).
constexpr int kStudyTid = 1000;

constexpr std::size_t kKinds = static_cast<std::size_t>(UnitKind::kCount);

/// Which functional unit a micro catalog entry characterizes.
UnitKind micro_unit_kind(const CatalogEntry& e) {
  const bool h = e.precision == Precision::Half;
  const bool f = e.precision == Precision::Single;
  const bool d = e.precision == Precision::Double;
  if (e.base == "ADD") return h ? UnitKind::HADD : f ? UnitKind::FADD
                               : d ? UnitKind::DADD : UnitKind::IADD;
  if (e.base == "MUL") return h ? UnitKind::HMUL : f ? UnitKind::FMUL
                               : d ? UnitKind::DMUL : UnitKind::IMUL;
  if (e.base == "FMA" || e.base == "MAD")
    return h ? UnitKind::HFMA : f ? UnitKind::FFMA
           : d ? UnitKind::DFMA : UnitKind::IMAD;
  if (e.base == "MMA") return h ? UnitKind::MMA_H : UnitKind::MMA_F;
  if (e.base == "LDST") return UnitKind::LDST;
  return UnitKind::OTHER;
}

/// Single-precision stand-in for kinds NVBitFI cannot inject (FP16 paths).
UnitKind injectable_counterpart(UnitKind k) {
  switch (k) {
    case UnitKind::HADD: return UnitKind::FADD;
    case UnitKind::HMUL: return UnitKind::FMUL;
    case UnitKind::HFMA: return UnitKind::FFMA;
    case UnitKind::MMA_H: return UnitKind::MMA_F;
    default: return k;
  }
}

}  // namespace

Study::Study(arch::GpuConfig gpu, StudyConfig config)
    : gpu_(std::move(gpu)),
      config_(config),
      db_(beam::CrossSectionDb::for_arch(gpu_.arch)) {}

WorkloadConfig Study::workload_config(double scale,
                                      isa::CompilerProfile profile) const {
  return {gpu_, profile, config_.seed ^ 0x5eed, scale};
}

job::RunOptions Study::run_options() const {
  job::RunOptions opts;
  opts.workers = config_.workers;
  opts.context = config_.context();
  opts.cache_dir = config_.cache_dir;
  return opts;
}

std::vector<CatalogEntry> Study::app_catalog() const {
  return gpu_.arch == arch::Architecture::Kepler ? kernels::kepler_app_catalog()
                                                 : kernels::volta_app_catalog();
}

std::vector<CatalogEntry> Study::micro_catalog() const {
  return gpu_.arch == arch::Architecture::Kepler
             ? kernels::kepler_micro_catalog()
             : kernels::volta_micro_catalog();
}

const std::vector<Study::MicroCharacterization>& Study::microbenchmarks() {
  if (micro_) return *micro_;
  micro_.emplace();

  telemetry::Sink* sink = telemetry::resolve(config_.telemetry);
  const telemetry::Timer stage_timer;

  auto catalog = micro_catalog();
  // The model needs the LDST unit even on devices whose Fig. 3 set omits it.
  bool has_ldst = false;
  for (const auto& e : catalog) has_ldst |= e.base == "LDST";
  if (!has_ldst) catalog.push_back({"LDST", Precision::Int32});

  auto nvbitfi = fault::make_injector("NVBitFI");

  for (const auto& entry : catalog) {
    MicroCharacterization mc;
    mc.entry = entry;
    mc.name = kernels::entry_name(entry);
    mc.kind = micro_unit_kind(entry);
    mc.is_rf = entry.base == "RF";
    if (config_.progress)
      std::fprintf(stderr, "[study] stage 1: characterizing %s\n",
                   mc.name.c_str());
    const telemetry::Timer micro_timer;

    const auto factory = kernels::workload_factory(
        entry.base, entry.precision, workload_config(config_.micro_scale,
                                                     isa::CompilerProfile::Cuda10));
    beam::BeamConfig bc;
    bc.runs = config_.micro_beam_runs;
    bc.seed = config_.seed * 7919 + std::hash<std::string>{}(mc.name);
    bc.workers = config_.workers;
    bc.telemetry = config_.telemetry;
    bc.trace = config_.trace;
    // The paper runs the arithmetic benches with ECC on (they use almost no
    // memory); the RF bench needs ECC off to observe storage upsets, and
    // LDST is additionally measured with ECC off to expose device memory.
    bc.ecc = !mc.is_rf;
    mc.beam = beam::run_beam(db_, factory, bc);

    if (mc.is_rf) {
      auto w = factory();
      sim::Device dev(gpu_);
      w->prepare(dev);
      const auto exp = beam::compute_exposure(*w, dev.memory().allocated_bits());
      mc.exposed_bits =
          exp.trial_cycles > 0 ? exp.rf_bit_cycles / exp.trial_cycles : 0.0;
    } else {
      // Microbenchmark AVF by injection into its own unit (NVBitFI; FP16
      // kinds borrow the single-precision result below, as the tool cannot
      // touch half instructions).
      const UnitKind inj_kind = injectable_counterpart(mc.kind);
      if (inj_kind == mc.kind) {
        fault::CampaignConfig cc;
        cc.injections_per_kind = config_.micro_injections_per_kind;
        cc.seed = config_.seed * 31 + std::hash<std::string>{}(mc.name);
        cc.workers = config_.workers;
        cc.telemetry = config_.telemetry;
        cc.trace = config_.trace;
        const auto r = fault::run_campaign(*nvbitfi, factory, cc);
        const auto& ks = r.kind(mc.kind);
        if (ks.counts.total() > 0)
          mc.micro_avf = ks.counts.avf_sdc() + ks.counts.avf_due();
      } else {
        mc.micro_avf = 0.0;  // filled from the counterpart when building inputs
      }
    }
    if (sink != nullptr)
      sink->emit("study_micro", {{"name", mc.name},
                                 {"wall_ms", micro_timer.elapsed_ms()}});
    micro_->push_back(std::move(mc));
  }
  if (sink != nullptr)
    sink->emit("study_stage", {{"stage", 1},
                               {"name", "micro_characterization"},
                               {"wall_ms", stage_timer.elapsed_ms()}});
  if (obs::TraceWriter* trace = obs::resolve_trace(config_.trace)) {
    const double ms = stage_timer.elapsed_ms();
    trace->name_process(obs::kWallPid, "gpurel runtime (wall clock)");
    trace->name_thread(obs::kWallPid, kStudyTid, "study stages");
    trace->complete("micro_characterization", "study", obs::kWallPid,
                    kStudyTid, trace->now_us() - ms * 1000.0, ms * 1000.0,
                    {{"stage", 1}});
  }
  return *micro_;
}

const model::FitInputs& Study::fit_inputs() {
  if (inputs_) return *inputs_;
  const auto& micro = microbenchmarks();  // stage 1 time billed separately

  telemetry::Sink* sink = telemetry::resolve(config_.telemetry);
  const telemetry::Timer stage_timer;
  inputs_.emplace();
  model::FitInputs& in = *inputs_;
  const MicroCharacterization* ldst = nullptr;

  for (const auto& mc : micro) {
    if (mc.is_rf) {
      if (mc.exposed_bits > 0) {
        in.sram_bit_fit_sdc = mc.beam.fit_sdc / mc.exposed_bits;
        in.sram_bit_fit_due = mc.beam.fit_due / mc.exposed_bits;
      }
      continue;
    }
    auto& uf = in.unit(mc.kind);
    uf.fit_sdc = mc.beam.fit_sdc;
    uf.fit_due = mc.beam.fit_due;
    uf.micro_avf = mc.micro_avf;
    uf.measured = true;
    if (mc.kind == UnitKind::LDST) ldst = &mc;
  }
  // FP16 kinds that NVBitFI cannot inject borrow the FP32 masking estimate.
  for (std::size_t i = 0; i < kKinds; ++i) {
    const auto half = static_cast<UnitKind>(i);
    const UnitKind single = injectable_counterpart(half);
    if (single == half) continue;
    auto& uf = in.unit(half);
    if (uf.measured && uf.micro_avf <= 0.0)
      uf.micro_avf = in.unit(single).micro_avf;
  }

  // Device-memory per-bit rate: LDST with ECC off, minus its ECC-on (logic
  // only) rate, spread over the exposed buffer bits.
  if (ldst != nullptr) {
    const auto factory = kernels::workload_factory(
        "LDST", Precision::Int32,
        workload_config(config_.micro_scale, isa::CompilerProfile::Cuda10));
    beam::BeamConfig bc;
    bc.runs = config_.micro_beam_runs;
    bc.seed = config_.seed * 104729;
    bc.workers = config_.workers;
    bc.telemetry = config_.telemetry;
    bc.trace = config_.trace;
    bc.ecc = false;
    const auto off = beam::run_beam(db_, factory, bc);
    auto w = factory();
    sim::Device dev(gpu_);
    w->prepare(dev);
    const double bits = static_cast<double>(dev.memory().allocated_bits());
    if (bits > 0) {
      in.dram_bit_fit_sdc =
          std::max(0.0, off.fit_sdc - ldst->beam.fit_sdc) / bits;
      in.dram_bit_fit_due =
          std::max(0.0, off.fit_due - ldst->beam.fit_due) / bits;
    }
  }
  if (sink != nullptr)
    sink->emit("study_stage", {{"stage", 1},
                               {"name", "fit_inputs"},
                               {"wall_ms", stage_timer.elapsed_ms()}});
  return *inputs_;
}

std::optional<fault::CampaignResult> Study::run_injection(
    const fault::Injector& injector, const CatalogEntry& entry, bool aux_modes,
    unsigned injections_per_kind, bool* substituted) {
  if (substituted != nullptr) *substituted = false;

  // Probe instrumentability on this device.
  auto probe = kernels::make_workload(
      entry.base, entry.precision,
      workload_config(config_.app_scale, injector.profile()));
  arch::GpuConfig target_gpu = gpu_;
  if (!injector.can_instrument(*probe, gpu_)) {
    // The paper's substitution: Kepler library codes take the NVBitFI AVF
    // measured on Volta. Anything else is genuinely not measurable.
    const bool library_on_kepler =
        probe->uses_library() && gpu_.arch == arch::Architecture::Kepler &&
        injector.name() == "NVBitFI";
    if (!library_on_kepler) return std::nullopt;
    target_gpu = arch::GpuConfig::volta_v100(gpu_.sm_count);
    if (substituted != nullptr) *substituted = true;
  }

  // Route through the job layer: an identical spec was possibly already
  // computed (by a previous Study, a sharded gpurel_jobs fan-out, or an
  // earlier run of this process) and is then served from the cache
  // bit-identically; per-trial seeding guarantees the recompute path matches.
  fault::InjectionBudget budget;
  budget.injections_per_kind = injections_per_kind;
  // Architectural aux strata go to injectors supporting the aux modes; a
  // micro-architectural stratum only to injectors that reach its class, so
  // architectural (SASSIFI/NVBitFI) specs keep their budgets — and cache
  // keys — byte-identical.
  const bool aux =
      aux_modes && injector.reaches(fault::SiteClass::RegisterFile);
  for (const fault::Stratum& s : fault::kStrata) {
    const bool granted =
        fault::is_microarch(s.cls) ? injector.reaches(s.cls) : aux;
    budget.*s.budget = granted ? config_.*s.budget : 0;
  }
  const std::uint64_t seed =
      config_.seed * 131071 +
      std::hash<std::string>{}(injector.name() + entry.base) +
      static_cast<std::uint64_t>(entry.precision);
  job::JobSpec spec =
      job::campaign_spec(target_gpu, entry, injector.name(), budget, seed,
                         config_.seed ^ 0x5eed, config_.app_scale);
  spec.propagation = config_.propagation;
  return std::move(job::run_job(spec, run_options()).campaign);
}

model::FitPrediction Study::make_prediction(model::CodeObservables obs,
                                            const profile::CodeProfile& prof,
                                            const fault::CampaignResult& avf,
                                            bool ecc) {
  obs.profile = prof;
  obs.avf = &avf;
  obs.ecc = ecc;
  if (avf.rf.total() > 0) {
    obs.mem_avf_sdc = avf.rf.avf_sdc();
    obs.mem_avf_due = avf.rf.avf_due();
  } else {
    obs.mem_avf_sdc = avf.overall_avf_sdc();
    obs.mem_avf_due = avf.overall_avf_due();
  }
  return model::predict_fit(fit_inputs(), obs);
}

Study::CodeEvaluation Study::evaluate(const CatalogEntry& entry, EvalParts parts) {
  CodeEvaluation ev;
  ev.entry = entry;
  ev.name = kernels::entry_name(entry);

  telemetry::Sink* sink = telemetry::resolve(config_.telemetry);
  obs::TraceWriter* trace = obs::resolve_trace(config_.trace);
  if (trace != nullptr) {
    trace->name_process(obs::kWallPid, "gpurel runtime (wall clock)");
    trace->name_thread(obs::kWallPid, kStudyTid, "study stages");
  }
  telemetry::Timer stage_timer;
  auto stage_done = [&](int stage, const char* name) {
    const double ms = stage_timer.elapsed_ms();
    if (config_.progress)
      std::fprintf(stderr, "[study] stage %d: %s done for %s\n", stage, name,
                   ev.name.c_str());
    if (sink != nullptr)
      sink->emit("study_stage", {{"stage", stage},
                                 {"name", name},
                                 {"code", ev.name},
                                 {"wall_ms", ms}});
    if (trace != nullptr)
      trace->complete(std::string(name) + " " + ev.name, "study",
                      obs::kWallPid, kStudyTid, trace->now_us() - ms * 1000.0,
                      ms * 1000.0, {{"stage", stage}, {"code", ev.name}});
    stage_timer.reset();
  };

  // Profiles per toolchain era. The deep-profiled trial also renders the
  // simulated-time timeline when tracing is on. The Cuda10 workload is also
  // the beam binary, so its memory exposure (the predictions' memory terms,
  // independent of injector and ECC) is read here, once per code.
  model::CodeObservables memory;
  {
    auto w = kernels::make_workload(
        entry.base, entry.precision,
        workload_config(config_.app_scale, isa::CompilerProfile::Cuda10));
    sim::Device dev(gpu_);
    ev.profile = profile::profile_workload(*w, dev, trace);
    const auto exp = beam::compute_exposure(*w, dev.memory().allocated_bits());
    if (exp.trial_cycles > 0) {
      memory.rf_bits = exp.rf_bit_cycles / exp.trial_cycles;
      memory.shared_bits = exp.shared_bit_cycles / exp.trial_cycles;
    }
    memory.global_bits = static_cast<double>(dev.memory().allocated_bits());
  }
  auto sassifi = fault::make_injector("SASSIFI");
  auto nvbitfi = fault::make_injector("NVBitFI");
  {
    auto probe = kernels::make_workload(
        entry.base, entry.precision,
        workload_config(config_.app_scale, isa::CompilerProfile::Cuda7));
    if (sassifi->can_instrument(*probe, gpu_)) {
      sim::Device dev(gpu_);
      ev.profile_cuda7 = profile::profile_workload(*probe, dev);
    }
  }
  stage_done(2, "profile");

  // Injection campaigns.
  if (parts.injections || parts.predictions) {
    ev.sassifi = run_injection(*sassifi, entry, /*aux_modes=*/true,
                               config_.injections_per_kind, nullptr);
    ev.nvbitfi = run_injection(*nvbitfi, entry, /*aux_modes=*/false,
                               config_.injections_per_kind,
                               &ev.nvbitfi_substituted);
    // NVBitFI cannot inject FP16 instructions: graft the single-precision
    // variant's per-kind AVFs onto the half kinds (paper §VII-A — "we use
    // the float functional units AVF also for the half precision").
    if (ev.nvbitfi && entry.precision == Precision::Half) {
      const CatalogEntry single{entry.base, Precision::Single};
      bool sub2 = false;
      const auto single_campaign = run_injection(
          *nvbitfi, single, /*aux_modes=*/false, config_.injections_per_kind,
          &sub2);
      if (single_campaign) {
        for (std::size_t i = 0; i < kKinds; ++i) {
          const auto half = static_cast<UnitKind>(i);
          const UnitKind single_kind = injectable_counterpart(half);
          if (single_kind == half) continue;
          auto& dst = ev.nvbitfi->per_kind[i];
          const auto& src =
              single_campaign->per_kind[static_cast<std::size_t>(single_kind)];
          // The tool saw no injectable FP16 sites at all (dynamic_sites is
          // 0 for half kinds); the graft feeds the Eq. 2 prediction only.
          if (dst.counts.total() == 0 && src.counts.total() > 0) {
            dst.counts = src.counts;
            ev.half_avf_substituted = true;
          }
        }
      }
    }
    // The MicroArch campaign strikes the scheduler / scoreboard /
    // CTA-bookkeeping / warp-control state neither tool reaches (§V). It has
    // no instruction-output sites, so the per-kind budget is zero; the four
    // micro-architectural strata come from the StudyConfig knobs above.
    auto march = fault::make_injector("MicroArch");
    ev.microarch = run_injection(*march, entry, /*aux_modes=*/false,
                                 /*injections_per_kind=*/0, nullptr);
    stage_done(2, "injections");
  }

  // Beam experiments, ECC on and off — through the cache-aware job layer
  // (bit-identical to a direct run_beam; see run_injection).
  if (parts.beam) {
    const std::uint64_t seed =
        config_.seed * 257 + std::hash<std::string>{}(ev.name);
    auto beam_job = [&](bool ecc, std::uint64_t s) {
      const job::JobSpec spec = job::beam_spec(
          gpu_, entry, ecc, beam::BeamMode::Accelerated, config_.app_beam_runs,
          /*flux_scale=*/1.0, s, config_.seed ^ 0x5eed, config_.app_scale);
      return *job::run_job(spec, run_options()).beam;
    };
    ev.beam_ecc_on = beam_job(true, seed);
    ev.beam_ecc_off = beam_job(false, seed + 1);
    stage_done(2, "beam");
  }

  // Predictions (Eq. 1-4) per injector and ECC setting.
  if (parts.predictions) {
    // The FIT inputs are built lazily and bill their own stage-1 events;
    // force them now and restart the clock so the stage-3 window below
    // covers only the predictions themselves.
    fit_inputs();
    stage_timer.reset();
    if (ev.sassifi) {
      const auto& prof = ev.profile_cuda7 ? *ev.profile_cuda7 : ev.profile;
      ev.pred_sassifi_on = make_prediction(memory, prof, *ev.sassifi, true);
      ev.pred_sassifi_off = make_prediction(memory, prof, *ev.sassifi, false);
    }
    if (ev.nvbitfi) {
      ev.pred_nvbitfi_on = make_prediction(memory, ev.profile, *ev.nvbitfi, true);
      ev.pred_nvbitfi_off =
          make_prediction(memory, ev.profile, *ev.nvbitfi, false);
    }
    if (parts.beam) ev.reach = reach_sweep(ev);
    stage_done(3, "predictions");
  }
  return ev;
}

std::optional<Study::ReachSweep> Study::reach_sweep(const CodeEvaluation& ev) {
  // Level 0 anchors on the best architectural prediction available (NVBitFI
  // era preferred: it matches the beam binary's compiler profile).
  const model::FitPrediction* base = nullptr;
  const char* base_name = nullptr;
  if (ev.pred_nvbitfi_on) {
    base = &*ev.pred_nvbitfi_on;
    base_name = "NVBitFI/ECC on";
  } else if (ev.pred_sassifi_on) {
    base = &*ev.pred_sassifi_on;
    base_name = "SASSIFI/ECC on";
  }
  if (base == nullptr || !ev.microarch) return std::nullopt;
  const fault::CampaignResult& ma = *ev.microarch;
  std::uint64_t total_sites = 0;
  for (const fault::Stratum& s : fault::kStrata)
    if (fault::is_microarch(s.cls)) total_sites += ma.*s.site_count;
  if (total_sites == 0) return std::nullopt;

  ReachSweep sweep;
  sweep.base = base_name;
  sweep.beam_due = ev.beam_ecc_on.fit_due;
  // The beam DUE FIT the architectural method cannot see: events whose
  // strike landed on a hidden (non-architectural) resource.
  const auto& hidden = ev.beam_ecc_on.by_target[static_cast<std::size_t>(
      beam::StrikeTarget::Hidden)];
  sweep.hidden_due = ev.beam_ecc_on.fit_of(hidden.due);

  double cum = base->due;
  sweep.levels.push_back({"architectural", std::nullopt, cum});
  // Each level grants one more class, in strata-table order: its
  // contribution is the hidden DUE rate, split over the classes by
  // static-site share, derated by the class's MicroArch-measured DUE AVF.
  // Non-negative terms keep the sweep monotone, and the full-reach level
  // stays <= base + hidden_due.
  for (const fault::Stratum& s : fault::kStrata) {
    if (!fault::is_microarch(s.cls)) continue;
    const double share = static_cast<double>(ma.*s.site_count) /
                         static_cast<double>(total_sites);
    cum += sweep.hidden_due * share * (ma.*s.counts).avf_due();
    sweep.levels.push_back({std::string(s.level), s.cls, cum});
  }
  return sweep;
}

}  // namespace gpurel::core

// bench_gpurel: the repository benchmark. One process runs one named
// workload against the gpurel library as a black box, through the same
// public entry points users call (core::Study, fault::run_campaign,
// beam::run_beam), and prints every metric by name with its unit.
//
//   bench_gpurel --workload study|fork-masked|due-tail|beam [--seed N]
//                [--seconds S] [--traced] [--tmp DIR] [--digests FILE]
//   bench_gpurel --smoke --digests FILE [--benchmark-json FILE]
//
// A run sets the workload up several times (setup_s is the median), runs one
// warm-up pass, then runs the number of passes that fills --seconds at the
// workload's nominal pass length, and reports medians over passes. A pass is
// a fixed list of ops; an op is one Study::fit_inputs / Study::evaluate,
// run_campaign or run_beam call. Pass k draws its inputs from
// pass_seed(--seed, k).
//
// Correctness: every op's result is serialized through the job layer and
// hashed (fnv1a64). Pass 1 must reproduce the warm-up pass op for op;
// campaign and beam ops must execute exactly their planned trials; nothing
// may be served from the result cache. At the seed pinned in --digests each
// pass digest must also equal the pinned one. An op that throws or fails a
// check counts as failed, and the process then exits 1.
//
// --traced runs every pass twice on the same inputs, plain then traced, and
// the traced pass must reproduce the plain one. Traced passes time each call
// into a layer's public functions and read the engine's own telemetry
// events and registry counters; a probe phase afterwards times the layer
// functions the ops reach only indirectly. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics on a
// plain run, the per-layer metrics on a traced run.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "beam/cross_section.hpp"
#include "beam/experiment.hpp"
#include "common/bits.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "job/cache.hpp"
#include "job/result.hpp"
#include "job/runner.hpp"
#include "job/serialize.hpp"
#include "kernels/registry.hpp"
#include "model/fit_model.hpp"
#include "obs/metrics.hpp"
#include "profile/profiler.hpp"
#include "sim/device.hpp"

namespace {

using namespace gpurel;
using Clock = std::chrono::steady_clock;
using core::Precision;
using isa::CompilerProfile;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units; the smoke
// test checks the two agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"trials_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.study.micro_s", "s"},
    {"core.study.profile_s", "s"},
    {"core.study.injections_s", "s"},
    {"core.study.beam_s", "s"},
    {"core.study.predictions_s", "s"},
    {"fault.campaign_s", "s"},
    {"fault.count_sites_ms", "ms"},
    {"fault.trials", "count"},
    {"fault.masked_frac", "frac"},
    {"fault.sdc_frac", "frac"},
    {"fault.due_frac", "frac"},
    {"fault.sim_cycles_per_trial", "cycles"},
    {"fault.due_watchdog_frac", "frac"},
    {"fault.trial_ms_p50", "ms"},
    {"fault.trial_ms_p99", "ms"},
    {"fault.restore_bytes_per_trial", "B"},
    {"fault.snapshots", "count"},
    {"fault.snapshot_pool_mb", "MB"},
    {"sim.golden_trial_ms", "ms"},
    {"sim.lane_instr_per_s", "1/s"},
    {"sim.capture_prefix_ms", "ms"},
    {"sim.forked_trial_ms.delta", "ms"},
    {"sim.forked_trial_ms.full", "ms"},
    {"sim.restore_bytes.delta", "B"},
    {"sim.restore_bytes.full", "B"},
    {"beam.run_beam_s", "s"},
    {"beam.runs_per_s", "1/s"},
    {"beam.compute_exposure_ms", "ms"},
    {"profile.profile_workload_ms", "ms"},
    {"model.predict_fit_us", "us"},
    {"kernels.prepare_ms", "ms"},
    {"job.serialize_ms", "ms"},
    {"job.parse_ms", "ms"},
    {"job.cache_store_ms", "ms"},
    {"job.cache_load_ms", "ms"},
    {"job.result_kb", "KB"},
    {"obs.trace_overhead_frac", "frac"},
};

/// A workload and the nominal seconds of one of its passes on a 4-vCPU
/// x86-64 host. A run of --seconds S makes round(S / pass_s) passes, at
/// least 3. The count depends on S alone, so two commits run the same
/// inputs, however fast each one is.
struct WorkloadInfo {
  const char* name;
  double pass_s;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"study", 4.0}, {"fork-masked", 2.0}, {"due-tail", 2.0}, {"beam", 2.0}};

constexpr unsigned kSetupReps = 5;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool traced = false;
  bool smoke = false;
  std::string digests;         // pinned digest file; empty = print only
  std::string benchmark_json;  // smoke: cross-check the metric catalogue
  std::string tmp = ".";       // scratch dir for the telemetry/cache probes
};

const WorkloadInfo* workload_info(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--seconds") o.seconds = std::stod(next());
    else if (arg == "--traced") o.traced = true;
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--digests") o.digests = next();
    else if (arg == "--benchmark-json") o.benchmark_json = next();
    else if (arg == "--tmp") o.tmp = next();
    else throw std::invalid_argument("unknown option " + arg);
  }
  if (!o.smoke && !workload_info(o.workload))
    throw std::invalid_argument("--workload must be study, fork-masked, due-tail or beam");
  return o;
}

/// Passes a run of `seconds` makes on `workload` (see WorkloadInfo).
std::size_t pass_count(const std::string& workload, double seconds) {
  const long n = std::lround(seconds / workload_info(workload)->pass_s);
  return static_cast<std::size_t>(std::max(3L, n));
}

unsigned worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Workload definitions

/// One workload instance the benchmark builds: a catalog entry on a device,
/// compiled for one toolchain era, at one size.
struct Code {
  arch::GpuConfig gpu;
  kernels::CatalogEntry entry;
  CompilerProfile profile = CompilerProfile::Cuda10;
  double scale = 1.0;
  std::uint64_t input_seed = 0;

  core::WorkloadConfig config() const { return {gpu, profile, input_seed, scale}; }
  fault::WorkloadFactory factory() const {
    return kernels::workload_factory(entry.base, entry.precision, config());
  }
  std::unique_ptr<core::Workload> make() const {
    return kernels::make_workload(entry.base, entry.precision, config());
  }
  std::string name() const { return gpu.name + "/" + kernels::entry_name(entry); }
};

/// What one op returned; serialized and hashed outside the timed call.
struct Produced {
  std::optional<core::Study::CodeEvaluation> eval;
  const std::vector<core::Study::MicroCharacterization>* micro = nullptr;
  std::vector<fault::CampaignResult> campaigns;
  std::vector<beam::BeamResult> beams;
  /// Trials plus beam runs the op must execute (0: not known up front).
  std::uint64_t planned = 0;
  /// Per-trial simulated cycles (traced direct campaigns only).
  std::vector<std::uint64_t> trial_cycles;
};

/// Per-pass context: traced passes carry a telemetry sink and collect
/// per-layer sums from spans around the calls the ops make.
struct PassCtx {
  telemetry::Sink* sink = nullptr;
  std::map<std::string, double> layer;

  bool traced() const { return sink != nullptr; }
  void add(const std::string& key, double v) {
    if (traced()) layer[key] += v;
  }
};

struct Op {
  std::string name;
  std::function<Produced(PassCtx&)> run;
};

struct WorkloadDef {
  std::vector<Code> codes;  // every code the ops build: setup prepares these
  std::vector<Op> ops;      // one pass
  std::vector<std::pair<std::string, Code>> site_pairs;  // (injector, code)
  std::vector<Code> fork_codes;  // fork-safe codes for the snapshot probe
  Code probe;                    // stand-in code for layers a pass skips
};

/// Sizes of one benchmark build: the full workloads, or the tiny --smoke set.
struct Sizes {
  std::size_t devices;  // K40c-sim, then V100-sim
  std::size_t codes;    // codes per catalog (0 = all)
  // study
  double study_scale;
  unsigned study_ipk, study_aux, study_strata;
  unsigned study_app_runs, study_micro_runs, study_micro_ipk;
  // fork-masked
  unsigned fork_ipk, fork_rf, fork_pred;
  // due-tail
  unsigned due_ia, due_sa, due_rf, due_strata;
  // beam
  unsigned beam_runs;
};

constexpr Sizes kFullSizes{2, 0, 0.25, 12, 6, 3, 16, 8, 2, 2, 100, 14, 60, 30, 30, 30, 14};
constexpr Sizes kSmokeSizes{1, 1, 0.25, 2, 2, 1, 4, 4, 2, 1, 8, 4, 8, 4, 4, 4, 4};

std::vector<kernels::CatalogEntry> truncate(std::vector<kernels::CatalogEntry> v,
                                            std::size_t n) {
  if (n > 0 && v.size() > n) v.resize(n);
  return v;
}

std::vector<arch::GpuConfig> devices(const Sizes& sz) {
  std::vector<arch::GpuConfig> d{arch::GpuConfig::kepler_k40c(2),
                                 arch::GpuConfig::volta_v100(2)};
  d.resize(std::min(d.size(), sz.devices));
  return d;
}

std::vector<kernels::CatalogEntry> app_catalog(const arch::GpuConfig& gpu) {
  return gpu.arch == arch::Architecture::Kepler ? kernels::kepler_app_catalog()
                                                : kernels::volta_app_catalog();
}

/// The Study evaluates one code of each family per device rather than the
/// whole Table-I catalog, whose fixed per-code cost would make one pass
/// longer than the run. Kepler covers graph, sort, N-body, the library GEMM
/// (NVBitFI-on-Volta substitution) and a CNN; Volta covers the FP16 AVF
/// graft, double precision, tensor cores and a half-precision CNN.
std::vector<kernels::CatalogEntry> study_catalog(const arch::GpuConfig& gpu) {
  if (gpu.arch == arch::Architecture::Kepler)
    return {{"CCL", Precision::Int32},  {"QUICKSORT", Precision::Int32},
            {"LAVA", Precision::Single}, {"GEMM", Precision::Single},
            {"YOLOV2", Precision::Single}};
  return {{"HOTSPOT", Precision::Half}, {"MXM", Precision::Double},
          {"GEMM-MMA", Precision::Single}, {"YOLOV3", Precision::Half}};
}

/// Trials a campaign must run: the per-kind budget for every unit kind with
/// dynamic sites plus each funded stratum the injector reaches (zero-site
/// strata are planned too and resolve as Masked).
std::uint64_t planned_trials(const fault::Injector& inj,
                             const fault::CampaignConfig& cc,
                             const fault::CampaignResult& r) {
  using fault::SiteClass;
  std::uint64_t n = 0;
  for (const auto& k : r.per_kind)
    if (k.dynamic_sites > 0) n += cc.injections_per_kind;
  const std::pair<SiteClass, unsigned> strata[] = {
      {SiteClass::RegisterFile, cc.rf_injections},
      {SiteClass::Predicate, cc.pred_injections},
      {SiteClass::InstructionAddress, cc.ia_injections},
      {SiteClass::StoreValue, cc.store_value_injections},
      {SiteClass::StoreAddress, cc.store_addr_injections},
      {SiteClass::Scheduler, cc.sched_injections},
      {SiteClass::Scoreboard, cc.scoreboard_injections},
      {SiteClass::CtaBookkeeping, cc.cta_injections},
      {SiteClass::WarpControl, cc.warp_control_injections},
  };
  for (const auto& [cls, budget] : strata)
    if (inj.reaches(cls)) n += budget;
  return n;
}

/// A campaign with an empty budget; callers fund the strata they want.
fault::CampaignConfig campaign_config(std::uint64_t seed, unsigned workers) {
  fault::CampaignConfig cc;
  cc.seed = seed;
  cc.workers = workers;
  cc.injections_per_kind = 0;
  return cc;
}

/// The fork-safe code whose snapshot capture and restores the sim probe
/// times on workloads that run no forked campaign (fork-masked's first code).
Code fork_stand_in(std::uint64_t seed) {
  return {arch::GpuConfig::kepler_k40c(2), {"MXM", Precision::Single},
          CompilerProfile::Cuda7, 1.0, seed ^ 0x5eed};
}

/// A direct run_campaign op: the span around the call is fault.campaign_s.
Op campaign_op(const std::string& injector, const Code& code,
               fault::CampaignConfig cc) {
  return {injector + "/" + code.name(), [=](PassCtx& ctx) {
            auto inj = fault::make_injector(injector);
            fault::CampaignConfig c = cc;
            Produced p;
            c.telemetry = ctx.sink;
            if (ctx.traced()) c.trial_cycles_out = &p.trial_cycles;
            const auto t0 = Clock::now();
            p.campaigns.push_back(fault::run_campaign(*inj, code.factory(), c));
            ctx.add("fault.campaign_s", since(t0));
            p.planned = planned_trials(*inj, c, p.campaigns.back());
            return p;
          }};
}

WorkloadDef study_workload(std::uint64_t seed, unsigned workers, const Sizes& sz) {
  core::StudyConfig cfg;
  cfg.workers = workers;
  cfg.seed = seed;
  cfg.app_scale = sz.study_scale;
  cfg.injections_per_kind = sz.study_ipk;
  cfg.rf_injections = cfg.pred_injections = cfg.ia_injections = sz.study_aux;
  cfg.store_value_injections = cfg.store_addr_injections = sz.study_aux;
  cfg.sched_injections = cfg.scoreboard_injections = sz.study_strata;
  cfg.cta_injections = cfg.warp_control_injections = sz.study_strata;
  cfg.app_beam_runs = sz.study_app_runs;
  cfg.micro_beam_runs = sz.study_micro_runs;
  cfg.micro_injections_per_kind = sz.study_micro_ipk;

  WorkloadDef def;
  for (const arch::GpuConfig& gpu : devices(sz)) {
    // Each pass starts a fresh Study per device, so stage 1 is recomputed.
    auto study = std::make_shared<std::unique_ptr<core::Study>>();
    def.ops.push_back({gpu.name + "/fit_inputs", [=](PassCtx& ctx) {
                         core::StudyConfig c = cfg;
                         c.telemetry = ctx.sink;
                         *study = std::make_unique<core::Study>(gpu, c);
                         const auto t0 = Clock::now();
                         (*study)->fit_inputs();
                         ctx.add("core.study.micro_s", since(t0));
                         Produced p;
                         p.micro = &(*study)->microbenchmarks();
                         return p;
                       }});
    const std::uint64_t input_seed = seed ^ 0x5eed;  // Study::workload_config
    for (const auto& e : truncate(study_catalog(gpu), sz.codes)) {
      const Code code{gpu, e, CompilerProfile::Cuda10, cfg.app_scale, input_seed};
      def.ops.push_back({code.name(), [=](PassCtx&) {
                           if (!*study) throw std::runtime_error("no Study (fit_inputs failed)");
                           Produced p;
                           p.eval = (*study)->evaluate(e);
                           return p;
                         }});
      def.codes.push_back(code);
      def.site_pairs.push_back({"SASSIFI", {gpu, e, CompilerProfile::Cuda7,
                                            cfg.app_scale, input_seed}});
      def.site_pairs.push_back({"NVBitFI", code});
      def.site_pairs.push_back({"MicroArch", code});
    }
    const auto micro = gpu.arch == arch::Architecture::Kepler
                           ? kernels::kepler_micro_catalog()
                           : kernels::volta_micro_catalog();
    for (const auto& e : truncate(micro, sz.codes))
      def.codes.push_back({gpu, e, CompilerProfile::Cuda10, cfg.micro_scale, input_seed});
  }
  def.probe = def.codes.front();
  def.fork_codes.push_back(fork_stand_in(seed));
  return def;
}

WorkloadDef fork_masked_workload(std::uint64_t seed, unsigned workers,
                                 const Sizes& sz) {
  // Mostly-masked SASSIFI mixes on codes that are fork-safe: almost every
  // trial runs its whole suffix, so prefix capture, snapshot restore and
  // suffix simulation dominate.
  const std::vector<kernels::CatalogEntry> entries = truncate(
      {{"MXM", Precision::Single}, {"LAVA", Precision::Single},
       {"HOTSPOT", Precision::Single}, {"LUD", Precision::Single},
       {"BFS-DEV", Precision::Int32}, {"CCL-DEV", Precision::Int32},
       {"QUICKSORT-DEV", Precision::Int32}},
      sz.codes);
  WorkloadDef def;
  std::uint64_t i = 0;
  for (const auto& e : entries) {
    const Code code{arch::GpuConfig::kepler_k40c(2), e, CompilerProfile::Cuda7, 1.0,
                    seed ^ 0x5eed};
    fault::CampaignConfig cc = campaign_config(seed * 131071 + i++, workers);
    cc.fork_epochs = 8;
    cc.injections_per_kind = sz.fork_ipk;
    cc.rf_injections = sz.fork_rf;
    cc.pred_injections = sz.fork_pred;
    def.ops.push_back(campaign_op("SASSIFI", code, cc));
    def.codes.push_back(code);
    def.fork_codes.push_back(code);
    def.site_pairs.push_back({"SASSIFI", code});
  }
  def.probe = def.codes.front();
  return def;
}

WorkloadDef due_tail_workload(std::uint64_t seed, unsigned workers, const Sizes& sz) {
  // Host-stepped codes under control-flow and machine-state strikes: about a
  // fifth of the trials end in a DUE, and watchdog/hang trials cost ~20x the
  // median, so the tail and dynamic scheduling dominate.
  const std::vector<kernels::CatalogEntry> entries = truncate(
      {{"QUICKSORT", Precision::Int32}, {"BFS", Precision::Int32},
       {"CCL", Precision::Int32}, {"MERGESORT", Precision::Int32}},
      sz.codes);
  WorkloadDef def;
  std::uint64_t i = 0;
  for (const auto& e : entries) {
    const auto k40 = arch::GpuConfig::kepler_k40c(2);
    const Code c7{k40, e, CompilerProfile::Cuda7, 0.5, seed ^ 0x5eed};
    const Code c10{k40, e, CompilerProfile::Cuda10, 0.5, seed ^ 0x5eed};
    fault::CampaignConfig sass = campaign_config(seed * 131071 + i++, workers);
    sass.ia_injections = sz.due_ia;
    sass.store_addr_injections = sz.due_sa;
    sass.rf_injections = sz.due_rf;
    fault::CampaignConfig march = campaign_config(seed * 131071 + i++, workers);
    march.sched_injections = march.scoreboard_injections = sz.due_strata;
    march.cta_injections = march.warp_control_injections = sz.due_strata;
    def.ops.push_back(campaign_op("SASSIFI", c7, sass));
    def.ops.push_back(campaign_op("MicroArch", c10, march));
    def.codes.push_back(c7);
    def.codes.push_back(c10);
    def.site_pairs.push_back({"SASSIFI", c7});
    def.site_pairs.push_back({"MicroArch", c10});
  }
  def.probe = def.codes.front();
  def.fork_codes.push_back(fork_stand_in(seed));
  return def;
}

WorkloadDef beam_workload(std::uint64_t seed, unsigned workers, const Sizes& sz) {
  WorkloadDef def;
  std::uint64_t i = 0;
  for (const arch::GpuConfig& gpu : devices(sz)) {
    auto db = std::make_shared<const beam::CrossSectionDb>(
        beam::CrossSectionDb::for_arch(gpu.arch));
    for (const auto& e : truncate(app_catalog(gpu), sz.codes)) {
      const Code code{gpu, e, CompilerProfile::Cuda10, 0.5, seed ^ 0x5eed};
      for (const bool ecc : {true, false}) {
        beam::BeamConfig bc;
        bc.runs = sz.beam_runs;
        bc.mode = beam::BeamMode::Accelerated;
        bc.ecc = ecc;
        bc.seed = seed * 257 + i++;
        bc.workers = workers;
        def.ops.push_back(
            {code.name() + (ecc ? "/ecc-on" : "/ecc-off"), [=](PassCtx& ctx) {
               beam::BeamConfig c = bc;
               c.telemetry = ctx.sink;
               Produced p;
               const auto t0 = Clock::now();
               p.beams.push_back(beam::run_beam(*db, code.factory(), c));
               ctx.add("beam.run_beam_s", since(t0));
               ctx.add("beam.runs", static_cast<double>(c.runs));
               p.planned = c.runs;
               return p;
             }});
      }
      def.codes.push_back(code);
      def.site_pairs.push_back({"NVBitFI", code});
    }
  }
  def.probe = def.codes.front();
  def.fork_codes.push_back(fork_stand_in(seed));
  return def;
}

WorkloadDef make_def(const std::string& name, std::uint64_t seed, unsigned workers,
                     const Sizes& sz) {
  if (name == "study") return study_workload(seed, workers, sz);
  if (name == "fork-masked") return fork_masked_workload(seed, workers, sz);
  if (name == "due-tail") return due_tail_workload(seed, workers, sz);
  return beam_workload(seed, workers, sz);
}

// ---------------------------------------------------------------------------
// Passes

fault::OutcomeCounts outcome_totals(const fault::CampaignResult& r) {
  fault::OutcomeCounts all;
  for (const auto& k : r.per_kind) all.merge(k.counts);
  for (const fault::OutcomeCounts* c :
       {&r.rf, &r.pred, &r.ia, &r.store_value, &r.store_addr, &r.scheduler,
        &r.scoreboard, &r.cta, &r.warp_control})
    all.merge(*c);
  return all;
}

/// Bucket counts of the trial-latency histogram (or of its increments).
struct Histo {
  std::vector<std::uint64_t> counts;
};

Histo histo_snapshot(const obs::Histogram& h) {
  Histo s;
  for (std::size_t i = 0; i <= h.buckets().size(); ++i) s.counts.push_back(h.bucket_count(i));
  return s;
}

Histo histo_delta(const Histo& before, const Histo& after) {
  Histo d;
  for (std::size_t i = 0; i < after.counts.size(); ++i)
    d.counts.push_back(after.counts[i] - before.counts[i]);
  return d;
}

/// Quantile of histogram increments, linearly interpolated inside the x2
/// bucket that holds the rank (the registry's own quantile reports bucket
/// bounds, which would read the same on every run).
double histo_quantile(const obs::Histogram& h, const Histo& delta, double q) {
  std::uint64_t n = 0;
  for (const auto c : delta.counts) n += c;
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n);
  const std::size_t finite = h.buckets().size();
  double cum = 0.0;
  for (std::size_t i = 0; i < delta.counts.size(); ++i) {
    const double c = static_cast<double>(delta.counts[i]);
    if (c > 0 && cum + c >= rank) {
      const double hi = h.buckets().bound(std::min(i, finite - 1));
      const double lo = i == 0 ? 0.0 : h.buckets().bound(std::min(i, finite) - 1);
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return h.buckets().bound(finite - 1);
}

struct OpRecord {
  std::string digest;  // 16 hex digits; empty when the op threw
  std::uint64_t trials = 0;
};

struct PassRecord {
  std::size_t index = 0;  // which inputs: pass k runs on pass_seed(seed, k)
  double wall_s = 0.0;  // sum of the op calls (serialization excluded)
  double rss_mb = 0.0;  // peak resident set during the pass
  std::uint64_t trials = 0;
  std::string digest;  // fnv1a64 over the op digests
  std::vector<OpRecord> ops;
  /// Traced passes: per-layer sums and counts, and the trial-latency
  /// histogram increments of this pass.
  std::map<std::string, double> layer;
  Histo latency;
  std::vector<fault::CampaignResult> campaigns;
  std::vector<beam::BeamResult> beams;
};

/// Canonical job-layer documents of one op's results. Study evaluations
/// embed their campaign and beam results; their copies are kept for the
/// guard counts and the cache probe.
std::vector<json::Value> serialize(Produced& p) {
  std::vector<json::Value> docs;
  if (p.micro != nullptr) docs.push_back(core::micro_report_json(*p.micro));
  if (p.eval) {
    docs.push_back(core::code_report_json(*p.eval));
    for (const auto* c : {&p.eval->sassifi, &p.eval->nvbitfi, &p.eval->microarch})
      if (*c) p.campaigns.push_back(**c);
    p.beams.push_back(p.eval->beam_ecc_on);
    p.beams.push_back(p.eval->beam_ecc_off);
  } else {
    for (const auto& c : p.campaigns) docs.push_back(job::campaign_result_to_json(c));
    for (const auto& b : p.beams) docs.push_back(job::beam_result_to_json(b));
  }
  return docs;
}

/// Parse every document back. The documents of a direct campaign or beam op
/// (campaigns first, then beams) must round-trip byte for byte through their
/// typed decoders; report documents have none and are re-dumped as JSON.
bool round_trips(const Produced& p, const std::vector<std::string>& dumps) {
  const bool typed = !p.eval && p.micro == nullptr;
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    const json::Value v = json::Value::parse(dumps[i]);
    std::string again;
    if (!typed)
      again = v.dump();
    else if (i < p.campaigns.size())
      again = job::campaign_result_to_json(job::campaign_result_from_json(v)).dump();
    else
      again = job::beam_result_to_json(job::beam_result_from_json(v)).dump();
    if (again != dumps[i]) return false;
  }
  return true;
}

/// Sum the wall_ms of the engine's own telemetry events by layer.
void read_telemetry(const std::string& path, std::map<std::string, double>& layer) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const json::Value ev = json::Value::parse(line);
    const std::string& kind = json::get_string(ev, "event");
    const json::Value* wall = ev.find("wall_ms");
    if (wall == nullptr) continue;
    const double s = wall->as_double() / 1000.0;
    if (kind == "study_stage") {
      const std::string& stage = json::get_string(ev, "name");
      if (stage == "profile" || stage == "injections" || stage == "beam" ||
          stage == "predictions")
        layer["core.study." + stage + "_s"] += s;
    } else if (kind == "campaign_end") {
      layer["fault.campaign_s.events"] += s;
    } else if (kind == "beam_end") {
      layer["beam.run_beam_s.events"] += s;
      layer["beam.runs.events"] += static_cast<double>(json::get_uint(ev, "runs"));
    }
  }
}

/// Guard counts of one traced pass: what the campaigns decided, which no
/// speed-up may change.
void count_guards(const PassRecord& rec, std::map<std::string, double>& m) {
  fault::OutcomeCounts all;
  fault::DueCauseCounts causes;
  std::uint64_t trials = 0;
  for (const auto& c : rec.campaigns) {
    all.merge(outcome_totals(c));
    causes.merge(c.due_causes);
    trials += c.total_injections();
  }
  m["fault.trials"] = static_cast<double>(trials);
  m["fault.masked_frac"] = all.masked_fraction();
  m["fault.sdc_frac"] = all.avf_sdc();
  m["fault.due_frac"] = all.avf_due();
  m["fault.due_watchdog_frac"] =
      causes.total() ? static_cast<double>(causes.watchdog) /
                           static_cast<double>(causes.total())
                     : 0.0;
}

/// Start a pass's peak-RSS window: hand freed heap memory back to the
/// kernel (how much an earlier pass left cached in the allocator depends on
/// thread interleaving), then reset the peak mark (Linux clear_refs "5").
/// Where the kernel refuses, VmHWM keeps reporting the process-wide peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

struct Runner {
  std::string tmp;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what, const std::string& why) {
    errors.push_back(what + ": " + why);
    std::fprintf(stderr, "bench_gpurel: %s: %s\n", what.c_str(), why.c_str());
  }

  /// Run every op of `def` once. `ref`, when set, is an earlier pass over
  /// the same inputs whose results this pass must reproduce op for op.
  PassRecord run_pass(const WorkloadDef& def, std::size_t index, bool traced,
                      const PassRecord* ref) {
    PassRecord rec;
    rec.index = index;
    PassCtx ctx;
    std::unique_ptr<telemetry::Sink> sink;
    const std::string tele = tmp + "/telemetry.jsonl";
    auto& histo = obs::Registry::global().histogram("gpurel_campaign_trial_latency_ms");
    const Histo histo0 = histo_snapshot(histo);
    const std::uint64_t snaps0 = counter("gpurel_campaign_snapshots_total");
    const std::uint64_t restore0 = counter("gpurel_campaign_snapshot_restore_bytes_total");
    if (traced) {
      std::filesystem::remove(tele);
      sink = std::make_unique<telemetry::Sink>(tele);
      ctx.sink = sink.get();
    } else {
      reset_peak_rss();
    }
    std::string all_digests;
    for (std::size_t i = 0; i < def.ops.size(); ++i) {
      const Op& op = def.ops[i];
      OpRecord orec;
      ++attempted;
      try {
        const std::uint64_t trials0 = counter("gpurel_campaign_trials_total") +
                                      counter("gpurel_beam_runs_total");
        const auto t0 = Clock::now();
        Produced p = op.run(ctx);
        rec.wall_s += since(t0);
        orec.trials = counter("gpurel_campaign_trials_total") +
                      counter("gpurel_beam_runs_total") - trials0;

        const auto s0 = Clock::now();
        std::vector<json::Value> docs = serialize(p);
        std::vector<std::string> dumps;
        std::string all;
        for (const auto& d : docs) {
          dumps.push_back(d.dump());
          all += dumps.back();
        }
        ctx.add("job.serialize_ms", since(s0) * 1e3);
        ctx.add("job.result_kb", static_cast<double>(all.size()) / 1024.0);
        orec.digest = job::hash_hex(fnv1a64(all));

        bool ok = true;
        if (traced) {
          const auto p0 = Clock::now();
          ok = round_trips(p, dumps);
          ctx.add("job.parse_ms", since(p0) * 1e3);
          if (!ok) fail(op.name, "job-layer JSON does not round-trip");
        }
        if (p.planned != 0 && orec.trials != p.planned) {
          fail(op.name, "executed " + std::to_string(orec.trials) +
                            " trials, planned " + std::to_string(p.planned));
          ok = false;
        }
        if (ref != nullptr && (ref->ops[i].digest != orec.digest ||
                               ref->ops[i].trials != orec.trials)) {
          fail(op.name, "pass " + std::to_string(index) +
                            " does not reproduce an earlier run of its inputs");
          ok = false;
        }
        if (!ok) ++failed;
        rec.trials += orec.trials;
        for (auto& c : p.campaigns) rec.campaigns.push_back(std::move(c));
        for (auto& b : p.beams) rec.beams.push_back(std::move(b));
        for (const auto c : p.trial_cycles) {
          ctx.layer["fault.cycles.sum"] += static_cast<double>(c);
          ctx.layer["fault.cycles.n"] += 1.0;
        }
      } catch (const std::exception& e) {
        fail(op.name, std::string("threw: ") + e.what());
        ++failed;
      }
      all_digests += orec.digest;
      rec.ops.push_back(orec);
    }
    rec.digest = job::hash_hex(fnv1a64(all_digests));
    rec.rss_mb = peak_rss_mb();
    if (traced) {
      sink.reset();  // flush and close before reading it back
      read_telemetry(tele, ctx.layer);
      std::filesystem::remove(tele);
      rec.layer = std::move(ctx.layer);
      count_guards(rec, rec.layer);
      const double n = rec.layer["fault.cycles.n"];
      rec.layer["fault.sim_cycles_per_trial"] = n > 0 ? rec.layer["fault.cycles.sum"] / n : 0.0;
      rec.layer["fault.snapshots"] =
          static_cast<double>(counter("gpurel_campaign_snapshots_total") - snaps0);
      rec.layer["fault.restore_bytes_per_trial"] =
          rec.trials ? static_cast<double>(
                           counter("gpurel_campaign_snapshot_restore_bytes_total") - restore0) /
                           static_cast<double>(rec.trials)
                     : 0.0;
      rec.latency = histo_delta(histo0, histo_snapshot(histo));
    }
    return rec;
  }
};

// ---------------------------------------------------------------------------
// Probes (traced runs): time the layer functions the ops reach only
// indirectly, on the workload's own codes.

/// Snapshot marks exactly as run_campaign places them for 8 fork epochs.
std::vector<std::uint64_t> fork_marks(std::uint64_t total, unsigned epochs) {
  std::vector<std::uint64_t> marks;
  for (unsigned i = 1; i <= epochs; ++i) {
    const std::uint64_t m =
        total / (epochs + 1) * i + total % (epochs + 1) * i / (epochs + 1);
    if (m == 0 || m >= total) continue;
    if (!marks.empty() && marks.back() == m) continue;
    marks.push_back(m);
  }
  return marks;
}

template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    v.push_back(since(t0) * 1e3);
  }
  return median(v);
}

void probe_sim(const WorkloadDef& def, std::map<std::string, double>& m) {
  double golden_ms = 0.0, lanes = 0.0, exposure_ms = 0.0, profile_ms = 0.0;
  for (const Code& code : def.codes) {
    auto w = code.make();
    sim::Device dev(code.gpu);
    w->prepare(dev);
    const double ms = median_ms(5, [&] { w->run_trial(dev); });
    golden_ms += ms;
    lanes += static_cast<double>(w->golden_stats().lane_instructions);
    exposure_ms += median_ms(1, [&] {
      beam::compute_exposure(*w, dev.memory().allocated_bits());
    });
    profile_ms += median_ms(1, [&] { profile::profile_workload(*w, dev); });
  }
  m["sim.golden_trial_ms"] = golden_ms;
  m["sim.lane_instr_per_s"] = golden_ms > 0 ? lanes / (golden_ms / 1e3) : 0.0;
  m["beam.compute_exposure_ms"] = exposure_ms;
  m["profile.profile_workload_ms"] = profile_ms;

  double capture = 0, delta = 0, full = 0, delta_b = 0, full_b = 0;
  for (const Code& code : def.fork_codes) {
    auto w = code.make();
    sim::Device dev(code.gpu);
    w->prepare(dev);
    if (!w->fork_safe()) continue;
    const auto marks = fork_marks(w->golden_stats().lane_instructions, 8);
    std::vector<sim::Snapshot> snaps;
    capture += median_ms(1, [&] { w->capture_prefix(dev, marks, snaps); });
    if (snaps.empty()) continue;
    const sim::Snapshot& mid = snaps[snaps.size() / 2];
    full += median_ms(5, [&] { w->run_trial_forked(dev, mid, nullptr, false); });
    full_b += static_cast<double>(w->last_restore_bytes());
    w->run_trial_forked(dev, mid, nullptr, true);  // arms dirty tracking
    delta += median_ms(5, [&] { w->run_trial_forked(dev, mid, nullptr, true); });
    delta_b += static_cast<double>(w->last_restore_bytes());
  }
  m["sim.capture_prefix_ms"] = capture;
  m["sim.forked_trial_ms.delta"] = delta;
  m["sim.forked_trial_ms.full"] = full;
  m["sim.restore_bytes.delta"] = delta_b;
  m["sim.restore_bytes.full"] = full_b;
}

void probe_count_sites(const WorkloadDef& def, std::map<std::string, double>& m) {
  std::vector<double> ms;
  for (const auto& [name, code] : def.site_pairs) {
    auto inj = fault::make_injector(name);
    const auto factory = code.factory();
    try {
      const auto t0 = Clock::now();
      fault::count_sites(*inj, factory);
      ms.push_back(since(t0) * 1e3);
    } catch (const std::invalid_argument&) {
      // The injector cannot instrument this code on this device (the Study
      // substitutes another measurement there); nothing to time.
    }
  }
  double sum = 0.0;
  for (const double v : ms) sum += v;
  m["fault.count_sites_ms"] = ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
}

/// Layer metrics a pass produced no span for (a workload that never calls
/// that layer) are timed on one small call on the workload's probe code.
void probe_missing_layers(const WorkloadDef& def, const Options& opt,
                          unsigned workers, const std::string& tmp,
                          std::map<std::string, double>& m) {
  const Code& code = def.probe;
  if (!m.count("core.study.micro_s")) {
    const std::string tele = tmp + "/probe-study.jsonl";
    std::filesystem::remove(tele);
    std::map<std::string, double> layer;
    {
      telemetry::Sink sink(tele);
      core::StudyConfig sc;
      sc.workers = workers;
      sc.seed = opt.seed;
      sc.app_scale = 0.25;
      sc.injections_per_kind = 2;
      sc.rf_injections = sc.pred_injections = sc.ia_injections = 2;
      sc.store_value_injections = sc.store_addr_injections = 2;
      sc.sched_injections = sc.scoreboard_injections = 1;
      sc.cta_injections = sc.warp_control_injections = 1;
      sc.app_beam_runs = 4;
      sc.micro_beam_runs = 4;
      sc.micro_injections_per_kind = 2;
      sc.telemetry = &sink;
      core::Study st(code.gpu, sc);
      const auto t0 = Clock::now();
      st.fit_inputs();
      layer["core.study.micro_s"] = since(t0);
      st.evaluate(code.entry);
    }
    read_telemetry(tele, layer);
    std::filesystem::remove(tele);
    for (const char* k : {"core.study.micro_s", "core.study.profile_s",
                          "core.study.injections_s", "core.study.beam_s",
                          "core.study.predictions_s"})
      m[k] = layer[k];
  }
  if (!m.count("fault.campaign_s")) {
    auto& h = obs::Registry::global().histogram("gpurel_campaign_trial_latency_ms");
    const Histo before = histo_snapshot(h);
    Code c10 = code;
    c10.profile = CompilerProfile::Cuda10;
    auto inj = fault::make_injector("NVBitFI");
    fault::CampaignConfig cc = campaign_config(opt.seed, workers);
    cc.injections_per_kind = 8;
    const auto t0 = Clock::now();
    fault::run_campaign(*inj, c10.factory(), cc);
    m["fault.campaign_s"] = since(t0);
    const Histo delta = histo_delta(before, histo_snapshot(h));
    m["fault.trial_ms_p50"] = histo_quantile(h, delta, 0.50);
    m["fault.trial_ms_p99"] = histo_quantile(h, delta, 0.99);
  }
  if (!m.count("beam.run_beam_s")) {
    beam::BeamConfig bc;
    bc.runs = 16;
    bc.seed = opt.seed;
    bc.workers = workers;
    const auto db = beam::CrossSectionDb::for_arch(code.gpu.arch);
    const auto t0 = Clock::now();
    beam::run_beam(db, code.factory(), bc);
    m["beam.run_beam_s"] = since(t0);
    m["beam.runs_per_s"] = bc.runs / m["beam.run_beam_s"];
  }
}

void probe_model(const WorkloadDef& def, const PassRecord& pass,
                 std::map<std::string, double>& m) {
  // Every unit measured, so the prediction walks its full per-kind path.
  model::FitInputs inputs;
  for (auto& u : inputs.units) {
    u.measured = true;
    u.fit_sdc = u.fit_due = 1.0;
    u.micro_avf = 0.5;
  }
  auto w = def.probe.make();
  sim::Device dev(def.probe.gpu);
  model::CodeObservables obs;
  obs.profile = profile::profile_workload(*w, dev);
  const fault::CampaignResult empty;
  obs.avf = pass.campaigns.empty() ? &empty : &pass.campaigns.front();
  obs.global_bits = static_cast<double>(dev.memory().allocated_bits());
  constexpr int kCalls = 2000;
  volatile double keep = 0.0;  // the calls must not be optimized away
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    obs.ecc = (i & 1) != 0;
    keep = keep + model::predict_fit(inputs, obs).sdc;
  }
  m["model.predict_fit_us"] = since(t0) * 1e6 / kCalls;
}

/// Store and reload every result of a traced pass through a ResultCache in
/// a scratch directory; loads must return the stored bytes.
bool probe_cache(const PassRecord& pass, const std::string& tmp,
                 std::map<std::string, double>& m) {
  const std::string dir = tmp + "/cache";
  std::filesystem::remove_all(dir);
  const job::ResultCache cache(dir);
  const auto k40 = arch::GpuConfig::kepler_k40c(2);
  const kernels::CatalogEntry entry{"MXM", Precision::Single};
  std::vector<job::JobResult> results;
  std::uint64_t seed = 1;
  for (const auto& c : pass.campaigns) {
    job::JobResult r;
    r.spec = job::campaign_spec(k40, entry, c.injector, {}, seed++, 0, 1.0);
    r.campaign = c;
    results.push_back(std::move(r));
  }
  for (const auto& b : pass.beams) {
    job::JobResult r;
    r.spec = job::beam_spec(k40, entry, b.ecc, b.mode, static_cast<unsigned>(b.runs),
                            1.0, seed++, 0, 1.0);
    r.beam = b;
    results.push_back(std::move(r));
  }
  bool ok = true;
  auto t0 = Clock::now();
  for (const auto& r : results) ok &= cache.store(r);
  m["job.cache_store_ms"] = since(t0) * 1e3;
  t0 = Clock::now();
  for (const auto& r : results) {
    const auto got = cache.load(r.spec);
    ok &= got.has_value() && job::result_dump(*got) == job::result_dump(r);
  }
  m["job.cache_load_ms"] = since(t0) * 1e3;
  std::filesystem::remove_all(dir);
  return ok;
}

// ---------------------------------------------------------------------------
// Reporting

struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::size_t, std::string>> digests;  // pass -> hex
};

/// Inputs of pass k: every pass of a run draws fresh inputs and fault
/// samples, so a run's medians average over several draws.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (pass + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Pinned pass digests for `label` ("pass-<k>" -> hex), or nullopt when no
/// digest file is given or `seed` is not the pinned seed.
std::optional<std::map<std::string, std::string>> pinned_digests(
    const std::string& path, const std::string& label, std::uint64_t seed) {
  if (path.empty()) return std::nullopt;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  if (json::get_uint(doc, "seed") != seed) return std::nullopt;
  std::map<std::string, std::string> out;
  if (const json::Value* sec = doc.at("digests").find(label))
    for (const auto& [k, v] : sec->members()) out[k] = v.as_string();
  return out;
}

template <class F>
double median_of(const std::vector<PassRecord>& passes, F&& f) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(f(p));
  return median(v);
}

Report run_workload(const Options& opt, const std::string& workload,
                    const Sizes& sizes, const std::string& label,
                    std::size_t passes, unsigned setup_reps) {
  const unsigned workers = worker_count();
  auto def_for = [&](std::size_t k) {
    return make_def(workload, pass_seed(opt.seed, k), workers, sizes);
  };
  std::filesystem::create_directories(opt.tmp);
  Runner run{opt.tmp, {}, 0, 0};
  const WorkloadDef first = def_for(1);

  // Set-up: build and prepare every code the ops use (compile kernels, run
  // the fault-free reference trial), several times; setup_s is the median.
  std::vector<double> setup, prepare_ms;
  for (unsigned r = 0; r < setup_reps; ++r) {
    const auto t0 = Clock::now();
    double prep = 0.0;
    for (const Code& code : first.codes) {
      auto w = code.make();
      sim::Device dev(code.gpu);
      const auto p0 = Clock::now();
      w->prepare(dev);
      prep += since(p0);
    }
    setup.push_back(since(t0));
    prepare_ms.push_back(prep * 1e3);
  }

  // Warm-up pass on pass 1's inputs: pass 1 must reproduce it. In a traced
  // run each traced pass repeats the plain pass before it and must match it.
  const std::uint64_t hits0 = counter("gpurel_job_cache_hits_total");
  const PassRecord warm = run.run_pass(first, 1, false, nullptr);
  std::vector<PassRecord> plain, traced;
  for (std::size_t k = 1; k <= passes; ++k) {
    const WorkloadDef def = def_for(k);
    plain.push_back(run.run_pass(def, k, false, k == 1 ? &warm : nullptr));
    if (opt.traced) traced.push_back(run.run_pass(def, k, true, &plain.back()));
    std::fprintf(stderr, "bench_gpurel: pass %zu: %.3f s, %llu trials, %.1f MB", k,
                 plain.back().wall_s,
                 static_cast<unsigned long long>(plain.back().trials),
                 plain.back().rss_mb);
    if (opt.traced) std::fprintf(stderr, "; traced %.3f s", traced.back().wall_s);
    std::fputc('\n', stderr);
  }
  if (counter("gpurel_job_cache_hits_total") != hits0)
    run.fail("cache", "a result was served from the job cache");

  Report rep;
  rep.e2e["wall_s"] = median_of(plain, [](const PassRecord& p) { return p.wall_s; });
  rep.e2e["trials_per_s"] = median_of(plain, [](const PassRecord& p) {
    return p.wall_s > 0 ? static_cast<double>(p.trials) / p.wall_s : 0.0;
  });
  rep.e2e["setup_s"] = median(setup);
  // The peak footprint differs by one device image from pass to pass,
  // depending on how worker threads interleave; the mean over passes is
  // steady where a single process-wide maximum is not.
  double rss = 0.0;
  for (const auto& p : plain) rss += p.rss_mb;
  rep.e2e["peak_rss_mb"] = rss / static_cast<double>(plain.size());

  if (opt.traced) {
    std::map<std::string, double>& m = rep.layer;
    // Times are medians over the traced passes; counts come from pass 1,
    // the one pass every run length makes.
    for (const auto& [k, v] : traced.front().layer) {
      (void)v;
      m[k] = median_of(traced, [&k](const PassRecord& p) {
        const auto it = p.layer.find(k);
        return it == p.layer.end() ? 0.0 : it->second;
      });
    }
    for (const char* k : {"fault.trials", "fault.masked_frac", "fault.sdc_frac",
                          "fault.due_frac", "fault.due_watchdog_frac",
                          "fault.sim_cycles_per_trial", "fault.snapshots",
                          "fault.restore_bytes_per_trial", "job.result_kb"})
      m[k] = traced.front().layer[k];
    // Inside the Study the engine's own events are the only view of the
    // campaign and beam layers; direct calls are timed by their spans.
    if (!m.count("fault.campaign_s") && m.count("fault.campaign_s.events"))
      m["fault.campaign_s"] = m["fault.campaign_s.events"];
    if (!m.count("beam.run_beam_s") && m.count("beam.run_beam_s.events")) {
      m["beam.run_beam_s"] = m["beam.run_beam_s.events"];
      m["beam.runs"] = m["beam.runs.events"];
    }
    if (m.count("beam.run_beam_s") && m["beam.run_beam_s"] > 0)
      m["beam.runs_per_s"] = m["beam.runs"] / m["beam.run_beam_s"];
    Histo latency = traced.front().latency;
    for (std::size_t p = 1; p < traced.size(); ++p)
      for (std::size_t i = 0; i < latency.counts.size(); ++i)
        latency.counts[i] += traced[p].latency.counts[i];
    const auto& histo = obs::Registry::global().histogram("gpurel_campaign_trial_latency_ms");
    if (std::any_of(latency.counts.begin(), latency.counts.end(),
                    [](std::uint64_t c) { return c > 0; })) {
      m["fault.trial_ms_p50"] = histo_quantile(histo, latency, 0.50);
      m["fault.trial_ms_p99"] = histo_quantile(histo, latency, 0.99);
    }
    m["fault.snapshot_pool_mb"] =
        obs::Registry::global().gauge("gpurel_campaign_snapshot_pool_bytes").value() /
        (1 << 20);
    m["kernels.prepare_ms"] = median(prepare_ms);
    std::vector<double> overhead;
    for (std::size_t p = 0; p < traced.size(); ++p)
      overhead.push_back(traced[p].wall_s / plain[p].wall_s - 1.0);
    m["obs.trace_overhead_frac"] = median(overhead);

    probe_count_sites(first, m);
    probe_sim(first, m);
    probe_missing_layers(first, opt, workers, run.tmp, m);
    probe_model(first, traced.front(), m);
    if (!probe_cache(traced.front(), run.tmp, m))
      run.fail("cache probe", "a reloaded result differs from the stored one");

    for (auto it = m.begin(); it != m.end();) {
      const bool known = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                     [&](const MetricDef& d) { return it->first == d.name; });
      it = known ? std::next(it) : m.erase(it);
    }
  }

  for (const auto& p : plain) rep.digests.push_back({p.index, p.digest});
  if (const auto pinned = pinned_digests(opt.digests, label, opt.seed)) {
    if (pinned->empty()) run.fail(label, "no digests pinned for this workload");
    for (const auto& [k, hex] : rep.digests) {
      const auto it = pinned->find("pass-" + std::to_string(k));
      if (it != pinned->end() && it->second != hex) {
        run.fail(label, "pass " + std::to_string(k) + " digest " + hex +
                            " does not match the pinned " + it->second);
        ++run.failed;
      }
    }
  }
  rep.attempted = run.attempted;
  rep.failed = run.failed;
  rep.correct = run.errors.empty();
  return rep;
}

void append_number(std::string& out, double v) { json::append_shortest_double(out, v); }

std::string result_line(const Report& rep, bool traced) {
  std::string out = "{\"correct\":";
  out += rep.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricDef& d, const std::map<std::string, double>& m) {
    const auto it = m.find(d.name);
    if (it == m.end()) return;
    if (!first) out += ",";
    first = false;
    out += '"';
    out += d.name;
    out += "\":{\"value\":";
    append_number(out, it->second);
    out += ",\"unit\":\"";
    out += d.unit;
    out += "\"}";
  };
  if (traced)
    for (const auto& d : kPerLayer) emit(d, rep.layer);
  else
    for (const auto& d : kEndToEnd) emit(d, rep.e2e);
  out += "}}";
  return out;
}

void print_report(const Report& rep, const std::string& label, bool traced) {
  for (const auto& [k, hex] : rep.digests)
    std::printf("digest %s pass-%zu %s\n", label.c_str(), k, hex.c_str());
  std::printf("metric ops %llu count\n", static_cast<unsigned long long>(rep.attempted));
  std::printf("metric ops_failed %llu count\n", static_cast<unsigned long long>(rep.failed));
  for (const auto& d : kEndToEnd)
    if (rep.e2e.count(d.name))
      std::printf("metric %s %.6g %s\n", d.name, rep.e2e.at(d.name), d.unit);
  if (traced)
    for (const auto& d : kPerLayer)
      if (rep.layer.count(d.name))
        std::printf("metric %s %.6g %s\n", d.name, rep.layer.at(d.name), d.unit);
}

/// Smoke test: every workload at tiny size, one plain and one traced pass
/// each; every metric must be emitted and the smoke digests must hold.
int run_smoke(Options opt) {
  opt.traced = true;
  std::vector<std::string> problems;
  if (!opt.benchmark_json.empty()) {
    std::ifstream in(opt.benchmark_json);
    if (!in) throw std::runtime_error("cannot read " + opt.benchmark_json);
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::Value::parse(ss.str());
    auto check = [&](const char* key, const auto& defs) {
      const auto& items = doc.at(key).items();
      if (items.size() != std::size(defs))
        problems.push_back(std::string("BENCHMARK.json ") + key + " count differs");
      for (std::size_t i = 0; i < items.size() && i < std::size(defs); ++i)
        if (json::get_string(items[i], "name") != defs[i].name ||
            json::get_string(items[i], "unit") != defs[i].unit)
          problems.push_back(std::string("BENCHMARK.json ") + key + " entry " +
                             json::get_string(items[i], "name") + " differs");
    };
    check("end_to_end", kEndToEnd);
    check("per_layer", kPerLayer);
  }
  bool all_correct = true;
  for (const WorkloadInfo& info : kWorkloads) {
    const char* w = info.name;
    const auto t0 = Clock::now();
    const std::string label = std::string("smoke/") + w;
    const Report rep = run_workload(opt, w, kSmokeSizes, label, 1, 1);
    print_report(rep, label, true);
    all_correct &= rep.correct;
    for (const auto& d : kEndToEnd)
      if (!rep.e2e.count(d.name)) problems.push_back(label + ": missing " + d.name);
    for (const auto& d : kPerLayer)
      if (!rep.layer.count(d.name)) problems.push_back(label + ": missing " + d.name);
    std::fprintf(stderr, "smoke %s: %.2f s\n", w, since(t0));
  }
  for (const auto& p : problems) std::fprintf(stderr, "bench_gpurel --smoke: %s\n", p.c_str());
  const bool ok = all_correct && problems.empty();
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Hermetic: an exported cache would serve results without simulating
  // them, and exported telemetry/trace/metrics paths would add I/O to every
  // pass. The GPUREL_RUNS/INJECTIONS/WORKERS overrides are never read.
  for (const char* v : {"GPUREL_CACHE", "GPUREL_TELEMETRY", "GPUREL_TRACE", "GPUREL_METRICS"})
    unsetenv(v);
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.smoke) return run_smoke(opt);
    std::printf("bench_gpurel workload=%s seed=%llu workers=%u traced=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                worker_count(), opt.traced ? 1 : 0);
    const Report rep = run_workload(opt, opt.workload, kFullSizes, opt.workload,
                                    pass_count(opt.workload, opt.seconds), kSetupReps);
    print_report(rep, opt.workload, opt.traced);
    std::printf("%s\n", result_line(rep, opt.traced).c_str());
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gpurel: %s\n", e.what());
    return 2;
  }
}

#include "fault/campaign.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "core/fork.hpp"
#include "fault/microarch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/instr_info.hpp"

namespace gpurel::fault {

using isa::UnitKind;

void OutcomeCounts::add(core::Outcome o) {
  switch (o) {
    case core::Outcome::Masked: ++masked; break;
    case core::Outcome::Sdc: ++sdc; break;
    case core::Outcome::Due: ++due; break;
  }
}

void OutcomeCounts::merge(const OutcomeCounts& other) {
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
}

void DueCauseCounts::add(core::DueCause c) {
  switch (c) {
    case core::DueCause::None: break;
    case core::DueCause::Hang: ++hang; break;
    case core::DueCause::LaunchFailure: ++launch_failure; break;
    case core::DueCause::Watchdog: ++watchdog; break;
    case core::DueCause::BarrierDeadlock: ++barrier_deadlock; break;
    case core::DueCause::Ecc: ++ecc; break;
    case core::DueCause::kCount: break;
  }
}

void DueCauseCounts::merge(const DueCauseCounts& other) {
  hang += other.hang;
  launch_failure += other.launch_failure;
  watchdog += other.watchdog;
  barrier_deadlock += other.barrier_deadlock;
  ecc += other.ecc;
}

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(UnitKind::kCount);

/// Fault-free pass: count the dynamic sites each mode can target. In a
/// capture run it also records the running counts at every snapshot: the
/// executor calls on_capture right after appending one, when every lane of
/// the captured state has reached after_exec and no later lane has.
class CountingObserver final : public sim::SimObserver {
 public:
  explicit CountingObserver(const Injector& inj) : inj_(inj) {}

  unsigned wants() const override { return kWantsAfterExec; }

  void after_exec(sim::ExecContext& ctx) override {
    ++sites.total_lane;
    if (isa::writes_predicate(ctx.instr->op)) ++sites.pred;
    if (ctx.instr->op == isa::Opcode::STG || ctx.instr->op == isa::Opcode::STS)
      ++sites.stores;
    if (inj_.eligible_output(*ctx.instr))
      ++sites.per_kind[static_cast<std::size_t>(isa::unit_kind(ctx.instr->op))];
  }

  void on_capture() override { at_capture.push_back(sites); }

  SiteCounts sites;
  std::vector<SiteCounts> at_capture;  // one per snapshot, in capture order

 private:
  const Injector& inj_;
};

/// One-shot single-fault observer.
class InjectionObserver final : public sim::SimObserver {
 public:
  SiteClass mode = SiteClass::InstructionOutput;
  const Injector* inj = nullptr;
  UnitKind target_kind = UnitKind::OTHER;
  std::uint64_t target_index = 0;   // among this mode's eligible sites
  unsigned bit = 0;                 // flip position within the destination
  unsigned rf_reg = 0;              // RegisterFile mode: which register
  unsigned ia_bit = 0;              // InstructionAddress mode: PC bit to flip
  /// Propagation flight recorder (teed behind this observer); notified the
  /// moment the fault fires so it can seed its taint state. May be null.
  obs::PropagationObserver* prop = nullptr;

  bool fired = false;

  // Only the store-operand modes corrupt operands pre-execution; every other
  // model's before_exec was a no-op, so claiming just after_exec lets the
  // executor skip the per-lane before hook entirely for those trials. Once
  // the one-shot fault has fired (and any store-operand latch is restored),
  // every remaining hook call would be a no-op, so all claims are dropped and
  // the executor re-polls the mask at the next cycle boundary — the rest of
  // the trial simulates on the executor's hook-free lane driver.
  unsigned wants() const override {
    if (fired && !restore_pending_) return 0u;
    const bool store_mode =
        mode == SiteClass::StoreValue || mode == SiteClass::StoreAddress;
    return store_mode ? (kWantsBeforeExec | kWantsAfterExec) : kWantsAfterExec;
  }

  // Store-operand modes corrupt the source register just before the store
  // executes and restore it afterwards (the strike hits the store unit's
  // operand latch, not the register file).
  void before_exec(sim::ExecContext& ctx) override {
    if (fired) return;
    if (mode != SiteClass::StoreValue && mode != SiteClass::StoreAddress)
      return;
    const bool is_store =
        ctx.instr->op == isa::Opcode::STG || ctx.instr->op == isa::Opcode::STS;
    if (!is_store) return;
    if (store_count_++ != target_index) return;
    const std::uint8_t reg =
        mode == SiteClass::StoreAddress ? ctx.instr->src[0] : ctx.instr->src[1];
    fired = true;
    if (prop != nullptr)
      prop->note_injection(ctx,
                           reg == isa::kRZ
                               ? obs::PropagationObserver::Seed::None
                               : obs::PropagationObserver::Seed::StoreBytes,
                           bit % 32, reg);
    if (reg == isa::kRZ) return;
    saved_reg_ = reg;
    saved_val_ = ctx.regs->get(reg);
    saved_regs_ = ctx.regs;
    ctx.regs->set(reg, flip_bit32(saved_val_, bit % 32));
    restore_pending_ = true;
  }

  void after_exec(sim::ExecContext& ctx) override {
    if (restore_pending_ && saved_regs_ == ctx.regs) {
      saved_regs_->set(saved_reg_, saved_val_);
      restore_pending_ = false;
    }
    if (fired) return;
    switch (mode) {
      case SiteClass::InstructionOutput: {
        if (!inj->eligible_output(*ctx.instr)) return;
        if (isa::unit_kind(ctx.instr->op) != target_kind) return;
        if (count_++ != target_index) return;
        const unsigned width = std::max(sim::dst_reg_width(*ctx.instr), 1u);
        const unsigned bsel = bit % (width * 32);  // uniform over the dest bits
        const unsigned reg = ctx.instr->dst + bsel / 32;
        ctx.regs->set(static_cast<std::uint8_t>(reg),
                      flip_bit32(ctx.regs->get(static_cast<std::uint8_t>(reg)),
                                 bsel % 32));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               reg >= isa::kRZ
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::GprWrite,
                               bsel, reg);
        break;
      }
      case SiteClass::Predicate: {
        if (!isa::writes_predicate(ctx.instr->op)) return;
        if (count_++ != target_index) return;
        const std::uint8_t p = ctx.instr->dst & 0x07;
        ctx.regs->set_pred(p, !ctx.regs->get_pred(p));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               p >= isa::kNumPredicates
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::PredWrite,
                               p, p);
        break;
      }
      case SiteClass::InstructionAddress: {
        if (count_++ != target_index) return;
        // ia_bit is sampled in [0, ia_pc_bits(workload)), so the flip is
        // applied verbatim — every sampled bit is reachable.
        *ctx.next_pc ^= (1u << (ia_bit & 31u));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(
              ctx, obs::PropagationObserver::Seed::ControlFlow, ia_bit, 0);
        break;
      }
      case SiteClass::RegisterFile: {
        if (count_++ != target_index) return;
        ctx.regs->set(static_cast<std::uint8_t>(rf_reg),
                      flip_bit32(ctx.regs->get(static_cast<std::uint8_t>(rf_reg)),
                                 bit % 32));
        fired = true;
        if (prop != nullptr)
          prop->note_injection(ctx,
                               rf_reg >= isa::kRZ
                                   ? obs::PropagationObserver::Seed::None
                                   : obs::PropagationObserver::Seed::GprWrite,
                               bit % 32, rf_reg);
        break;
      }
      case SiteClass::StoreValue:
      case SiteClass::StoreAddress:
        break;  // handled in before_exec
      default:
        break;  // micro-architectural classes strike via MicroArchObserver
    }
  }

  /// Forked trials resume after a prefix that already consumed `n` of this
  /// mode's sites; preloading the counters makes the target-index comparison
  /// see the same running count an unforked trial would at that point.
  void preset_counts(std::uint64_t n) {
    count_ = n;
    store_count_ = n;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t store_count_ = 0;
  bool restore_pending_ = false;
  std::uint8_t saved_reg_ = 0;
  std::uint32_t saved_val_ = 0;
  sim::ThreadRegs* saved_regs_ = nullptr;
};

struct TrialDesc {
  SiteClass cls;
  UnitKind kind;       // InstructionOutput only
  std::uint64_t seed;
};

/// Dynamic sites of an architectural class within a set of counting-run
/// counts — the single class→stratum mapping shared by trial planning,
/// fault sampling, and fork-epoch bucketing (which used to carry three
/// copies of the same per-mode switch). Micro-architectural classes have
/// static site spaces (SiteSpace), not dynamic counts, and return 0 here.
std::uint64_t class_sites(const SiteCounts& sc, SiteClass cls, UnitKind kind) {
  switch (cls) {
    case SiteClass::InstructionOutput:
      return sc.per_kind[static_cast<std::size_t>(kind)];
    case SiteClass::Predicate: return sc.pred;
    case SiteClass::RegisterFile:
    case SiteClass::InstructionAddress: return sc.total_lane;
    case SiteClass::StoreValue:
    case SiteClass::StoreAddress: return sc.stores;
    default: return 0;
  }
}

/// Shared preamble of run_campaign and count_sites: the injector must be
/// able to instrument this workload on its device and compiler profile.
void check_instrumentable(const Injector& injector, const core::Workload& w) {
  if (!injector.can_instrument(w, w.config().gpu))
    throw std::invalid_argument(injector.name() + " cannot instrument " +
                                w.name() + " on " + w.config().gpu.name);
  if (w.config().profile != injector.profile())
    throw std::invalid_argument(
        "run_campaign: workload was built with the wrong compiler profile for " +
        injector.name());
}

/// Fault-free counting run over an already prepared workload.
SiteCounts count_prepared(const Injector& injector, core::Workload& w,
                          sim::Device& dev) {
  CountingObserver counter(injector);
  const auto r = w.run_trial(dev, &counter);
  if (r.outcome != core::Outcome::Masked)
    throw std::logic_error("counting pass produced a non-masked outcome for " +
                           w.name());
  return counter.sites;
}

/// Per-trial fault sampling draws, shared verbatim by the fork planner and
/// the trial body so the RNG draw sequence stays byte-for-byte identical
/// whether or not a trial is forked.
struct TrialSample {
  unsigned bit = 0;
  unsigned ia_bit = 0;
  unsigned rf_reg = 0;
  std::uint64_t target_index = 0;
  std::uint64_t fire_cycle = 0;  // micro-architectural trials only
};

/// Everything a campaign fixes before its first trial runs.
struct CampaignPlan {
  SiteCounts site_counts;
  SiteSpace space;  // static site spaces of the micro-architectural classes
  MicroArchLayout layout;
  std::uint64_t golden_cycles = 0;
  unsigned pc_bits = 0;
  unsigned max_regs = 0;
  std::vector<TrialDesc> trials;  // the full campaign, in salt-chain order
  /// Requested and reached classes with no site in this workload: their
  /// trials resolve as Masked at plan time.
  std::array<bool, kSiteClasses> zero_site{};
  std::vector<std::size_t> owned;  // this shard's trial ids
  std::size_t skip = 0;            // owned positions the resume covers
  // Fork batching (empty when the campaign runs plain): the snapshot set
  // with each trial's epoch, and the site counts the prefix consumed up to
  // each snapshot.
  core::ForkSet fork;
  std::vector<SiteCounts> snap_sites;

  /// Positions [0, todo()) are the owned trials this process executes.
  std::size_t todo() const { return owned.size() - skip; }
  std::size_t trial_at(std::size_t p) const { return owned[skip + p]; }
  /// Trial ids by position.
  std::span<const std::size_t> todo_ids() const {
    return std::span(owned).subspan(skip);
  }
};

TrialSample sample_trial(const CampaignPlan& plan, const TrialDesc& desc) {
  Rng rng(desc.seed);
  TrialSample s;
  if (is_microarch(desc.cls)) {
    // Micro-architectural trials address a static site plus a fire cycle
    // drawn over the golden cycle count. Their seeds are fresh (the strata
    // append after every architectural one), so this draw order is free —
    // the architectural sequence below stays byte-for-byte fixed.
    s.target_index = rng.uniform_u64(plan.space.of(desc.cls).sites());
    s.fire_cycle =
        rng.uniform_u64(std::max<std::uint64_t>(1, plan.golden_cycles));
    return s;
  }
  s.bit = rng.next_u32();  // reduced modulo the destination width at fire time
  s.ia_bit = static_cast<unsigned>(rng.uniform_u64(plan.pc_bits));
  // max(1, regs): every trial draws rf_reg to keep the draw order fixed
  // across modes; RF-mode trials on a zero-register workload were already
  // rejected at plan time, so the clamp only ever pads non-RF draws.
  s.rf_reg =
      static_cast<unsigned>(rng.uniform_u64(std::max(1u, plan.max_regs)));
  s.target_index =
      rng.uniform_u64(class_sites(plan.site_counts, desc.cls, desc.kind));
  return s;
}

/// Fork epochs this process captures: config.fork_epochs under the shared
/// cap (core::fork_epoch_cap) for the trials it executes. The trial list
/// needs the site counts the capture pass itself produces, so the count is
/// bounded from the budget instead: injections_per_kind trials for every
/// kind the golden run executed, a stratum's budget for every reached
/// class, this shard's share of them, less what a resume already covers.
unsigned fork_epoch_count(const Injector& injector, const core::Workload& w,
                          const CampaignConfig& config) {
  std::uint64_t trials = 0;
  for (const std::uint64_t lanes : w.golden_stats().lane_per_unit)
    if (lanes > 0) trials += config.injections_per_kind;
  for (const Stratum& s : kStrata)
    if (injector.reaches(s.cls)) trials += config.*s.budget;
  std::uint64_t todo = trials > config.shard_index
                           ? (trials - config.shard_index - 1) /
                                     config.shard_count + 1
                           : 0;
  if (config.resume != nullptr)
    todo -= std::min<std::uint64_t>(todo, config.resume->trials_done);
  return core::fork_epoch_cap(w, config.fork_epochs, todo);
}

/// The trial list: stratified by instruction kind, then every other reached
/// class the budget funds, in kStrata order. The micro-architectural rows
/// come last, so the architectural salt chain — and with it every
/// pre-existing trial seed — is byte-for-byte untouched by them.
void plan_trials(const Injector& injector, const CampaignConfig& config,
                 CampaignPlan& plan) {
  std::uint64_t salt = config.seed;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (plan.site_counts.per_kind[k] == 0) continue;
    for (unsigned i = 0; i < config.injections_per_kind; ++i)
      plan.trials.push_back({SiteClass::InstructionOutput,
                             static_cast<UnitKind>(k), splitmix64(salt)});
  }
  for (const Stratum& s : kStrata) {
    const unsigned n = config.*s.budget;
    if (!injector.reaches(s.cls) || n == 0) continue;
    // A requested, reached class with zero sites in this workload resolves
    // as Masked at plan time (a strike on a unit the program never
    // exercises corrupts nothing) — sampling a target from an empty range
    // would reach Rng::uniform_u64(0), which is undefined.
    const std::uint64_t sites =
        is_microarch(s.cls)
            ? plan.space.of(s.cls).sites()
            : class_sites(plan.site_counts, s.cls, UnitKind::OTHER);
    if (sites == 0) plan.zero_site[static_cast<std::size_t>(s.cls)] = true;
    for (unsigned i = 0; i < n; ++i)
      plan.trials.push_back({s.cls, UnitKind::OTHER, splitmix64(salt)});
  }
}

/// Fork planning: bucket each owned trial by the deepest epoch whose prefix
/// consumes only sites strictly before the trial's target, so the injection
/// fires inside the resumed suffix. Micro-architectural trials are bucketed
/// by simulated-time position instead: an epoch is valid when its boundary
/// (prior launches' cycles plus the in-flight launch's cycle) is at or
/// before the fire cycle (advance windows are [from, to), so a fire exactly
/// on the boundary still lands in the resumed suffix).
void plan_fork_epochs(CampaignPlan& plan) {
  core::ForkSet& fork = plan.fork;
  fork.epoch.assign(plan.trials.size(), -1);
  for (const std::size_t t : plan.owned) {
    const TrialDesc& d = plan.trials[t];
    if (plan.zero_site[static_cast<std::size_t>(d.cls)]) continue;
    const TrialSample s = sample_trial(plan, d);
    fork.epoch[t] = core::deepest_epoch(fork.snaps.size(), [&](std::size_t i) {
      const sim::Snapshot& snap = fork.snaps[i];
      return is_microarch(d.cls)
                 ? snap.prior.cycles + snap.exec.cycle <= s.fire_cycle
                 : class_sites(plan.snap_sites[i], d.cls, d.kind) <=
                       s.target_index;
    });
  }
}

/// Plan step: validate the configuration against the prepared reference
/// instance, count sites (capturing the fork snapshots in the same pass when
/// forking), build the trial list, select this shard's trials and bucket
/// them by fork epoch.
CampaignPlan plan_campaign(const Injector& injector, core::Instance& ref,
                           const CampaignConfig& config) {
  core::Workload& w = *ref.w;
  check_instrumentable(injector, w);
  // RegisterFile trials flip one bit of a register sampled from
  // [0, max_regs). A workload whose kernels use no registers has no RF
  // state to strike; clamping the sample range to 1 would inject into a
  // register the program does not own — always masked, silently diluting
  // the reported RF AVF.
  if (config.rf_injections > 0 && injector.reaches(SiteClass::RegisterFile) &&
      w.max_regs_per_thread() == 0)
    throw std::invalid_argument(
        "run_campaign: RegisterFile injections requested but " + w.name() +
        " uses no architectural registers");

  if (config.shard_count == 0 || config.shard_index >= config.shard_count)
    throw std::invalid_argument(
        "run_campaign: shard_index must be < shard_count (>= 1)");

  CampaignPlan plan;
  // Site counts: one fault-free run. When forking it is also the capture
  // run, and the counter records the running counts at each snapshot.
  CountingObserver counter(injector);
  if (plan.fork.capture(ref, fork_epoch_count(injector, w, config),
                        &counter)) {
    plan.site_counts = counter.sites;
    plan.snap_sites = std::move(counter.at_capture);
  } else {
    plan.site_counts = count_prepared(injector, w, *ref.dev);
  }
  plan.space = injector.enumerate_sites(w, w.config().gpu);
  plan.layout = microarch_layout(w, w.config().gpu);
  plan.golden_cycles = w.golden_stats().cycles;
  plan.pc_bits = ia_pc_bits(w);
  plan.max_regs = w.max_regs_per_thread();
  plan_trials(injector, config, plan);

  // Shard selection: every shard builds the identical full trial list and
  // owns trials t with t % shard_count == shard_index. Outcome tallies
  // cover only owned trials (site counts are per-campaign constants
  // reported in full), so merging all shards reproduces the unsharded run.
  for (std::size_t t = config.shard_index; t < plan.trials.size();
       t += config.shard_count)
    plan.owned.push_back(t);
  if (config.resume != nullptr) {
    if (config.resume->trials_done > plan.owned.size())
      throw std::invalid_argument(
          "run_campaign: checkpoint covers more trials than this shard owns");
    if (config.propagation)
      throw std::invalid_argument(
          "run_campaign: propagation provenance cannot resume from a "
          "checkpoint (the skipped prefix has no per-trial records)");
    plan.skip = static_cast<std::size_t>(config.resume->trials_done);
  }
  if (!plan.fork.snaps.empty()) plan_fork_epochs(plan);
  return plan;
}

/// The per-campaign header of a result: identity and site counts, no
/// tallies yet.
CampaignResult result_header(const Injector& injector, const core::Workload& w,
                             const CampaignPlan& plan) {
  CampaignResult r;
  r.injector = injector.name();
  r.workload = w.name();
  r.pred_sites = plan.site_counts.pred;
  r.store_sites = plan.site_counts.stores;
  r.total_lane_sites = plan.site_counts.total_lane;
  for (std::size_t k = 0; k < kKinds; ++k) {
    r.per_kind[k].dynamic_sites = plan.site_counts.per_kind[k];
    r.eligible_output_sites += plan.site_counts.per_kind[k];
  }
  for (const Stratum& s : kStrata)
    if (is_microarch(s.cls)) r.*s.site_count = plan.space.of(s.cls).sites();
  return r;
}

/// Per-trial results, indexed by global trial id (sparse under sharding, so
/// trial_cycles_out keeps its documented indexing). Each slot is written by
/// whichever worker ran the trial and tallied serially afterwards, which is
/// what makes results bit-identical for any worker count.
struct TrialRecords {
  std::vector<core::Outcome> outcomes;
  std::vector<core::DueCause> causes;
  std::vector<std::uint64_t> cycles;           // with trial_cycles_out only
  std::vector<obs::PropagationRecord> props;   // with propagation only
  telemetry::Counter dropped;  // trials stopped at a golden snapshot
};

/// Tally step: fold the outcomes of owned positions [p_begin, p_end) into
/// `res`. Shared by the final result and the checkpoints, so both agree by
/// construction.
void tally(const CampaignPlan& plan, const TrialRecords& rec,
           CampaignResult& res, std::size_t p_begin, std::size_t p_end) {
  for (std::size_t p = p_begin; p < p_end; ++p) {
    const std::size_t t = plan.trial_at(p);
    const TrialDesc& d = plan.trials[t];
    OutcomeCounts& c =
        d.cls == SiteClass::InstructionOutput
            ? res.per_kind[static_cast<std::size_t>(d.kind)].counts
            : res.*stratum(d.cls).counts;
    c.add(rec.outcomes[t]);
    res.due_causes.add(rec.causes[t]);
  }
}

/// Stamp the terminal-event fields the workload owns (outcome, DUE cause,
/// SDC corruption geometry) onto a provenance record.
void stamp_terminal(obs::PropagationRecord& rec, const core::TrialResult& r,
                    core::Instance& inst) {
  rec.outcome = std::string(core::outcome_name(r.outcome));
  if (r.outcome == core::Outcome::Due) {
    rec.due = std::string(sim::due_kind_name(r.due));
    rec.due_cause = std::string(core::due_cause_name(r.cause));
  } else if (r.outcome == core::Outcome::Sdc) {
    // Outputs are still on the device here (the next trial resets it), so
    // the corruption footprint can be diffed against the golden copy.
    const core::Workload::OutputGeometry g = inst.w->output_geometry();
    const std::vector<std::uint64_t> bad =
        inst.w->corrupted_elements(*inst.dev);
    rec.output_rows = g.rows;
    rec.output_cols = g.cols;
    rec.corrupted_elems = bad.size();
    rec.geometry = std::string(obs::sdc_geometry_name(
        obs::classify_sdc_geometry(bad, g.rows, g.cols)));
  }
}

/// Execute step, one trial at a time: build the trial's observer, fork it
/// from its epoch snapshot or run it plain, then record the result.
struct TrialBody {
  const Injector& injector;
  const CampaignPlan& plan;
  bool propagation;
  TrialRecords& rec;
  obs::Counter& m_trials = obs::Registry::global().counter(
      "gpurel_campaign_trials_total");
  obs::Histogram& m_latency = obs::Registry::global().histogram(
      "gpurel_campaign_trial_latency_ms");
  obs::Counter& m_restore_bytes = obs::Registry::global().counter(
      "gpurel_campaign_snapshot_restore_bytes_total");
  obs::Counter& m_dropped = obs::Registry::global().counter(
      "gpurel_campaign_dropped_trials_total");
  obs::Counter& m_dropped_cycles = obs::Registry::global().counter(
      "gpurel_campaign_dropped_cycles_total");

  void run(core::Instance& inst, std::size_t t) const;
};

void TrialBody::run(core::Instance& inst, std::size_t t) const {
  const TrialDesc& desc = plan.trials[t];
  const std::string model(site_class_name(desc.cls));
  if (plan.zero_site[static_cast<std::size_t>(desc.cls)]) {
    // Resolved at plan time: no reachable site, so the fault is masked by
    // definition — no RNG draws, no simulation (the record slots already
    // hold Masked and zero cycles).
    if (propagation) {
      obs::PropagationRecord& r = rec.props[t];
      r.trial = t;
      r.model = model;
      r.fired = false;
      r.outcome = "Masked";
    }
    m_trials.add();
    return;
  }
  const TrialSample sample = sample_trial(plan, desc);
  const int epoch = plan.fork.epoch_of(t);
  const telemetry::Timer trial_wall;

  // The observer. A micro-architectural strike hits machine state, not an
  // instruction site, so it gets no taint tracker (there is no instruction
  // provenance to seed). An instruction-site injection may tee the tracker
  // behind it: injection first (so the tracker sees post-injection register
  // state), tracker second. Both claim only hooks the injection path
  // already claims, so the executor's dispatch — and every outcome — is
  // unchanged.
  std::optional<MicroArchObserver> march;
  InjectionObserver inj;
  obs::PropagationObserver prop;
  sim::TeeObserver tee(&inj, &prop);
  sim::SimObserver* observer = &inj;
  if (is_microarch(desc.cls)) {
    observer = &march.emplace(plan.layout, desc.cls, sample.target_index,
                              sample.fire_cycle);
  } else {
    inj.mode = desc.cls;
    inj.inj = &injector;
    inj.bit = sample.bit;
    inj.ia_bit = sample.ia_bit;
    inj.rf_reg = sample.rf_reg;
    inj.target_kind = desc.kind;  // meaningful for IOV; ignored otherwise
    inj.target_index = sample.target_index;
    if (propagation) {
      prop.begin_trial(t, model);
      inj.prop = &prop;
      observer = &tee;
    }
  }

  // Fork or run plain. A forked trial's observer is preset to the
  // fault-free prefix it skips: the site count (or, for a strike, the
  // cycle base) and the tracker's lane-instruction clock. Either way the
  // trial gets the snapshot set, and stops at the first later snapshot its
  // state matches once its observer claims no hook.
  if (epoch >= 0) {
    const auto e = static_cast<std::size_t>(epoch);
    if (march) {
      march->preset_cycle_base(plan.fork.snaps[e].prior.cycles);
    } else {
      const SiteCounts& at = plan.snap_sites[e];
      inj.preset_counts(class_sites(at, desc.cls, desc.kind));
      if (propagation) prop.preset_lane_count(at.total_lane);
    }
  }
  const core::TrialResult r = plan.fork.run(inst, epoch, observer);
  if (epoch >= 0) m_restore_bytes.add(inst.w->last_restore_bytes());
  m_latency.observe(trial_wall.elapsed_ms());
  m_trials.add();
  if (r.dropped) {
    rec.dropped.add();
    m_dropped.add();
    m_dropped_cycles.add(r.dropped_cycles);
  }

  // Record.
  rec.outcomes[t] = r.outcome;
  rec.causes[t] = r.cause;
  if (!rec.cycles.empty()) rec.cycles[t] = r.stats.cycles;
  if (!propagation) return;
  obs::PropagationRecord p;
  if (march) {
    p.trial = t;
    p.model = model;
    p.fired = march->fired();
    p.effect = march->effect();
    p.bit = march->site().bit;
    p.cycle = march->fired() ? sample.fire_cycle : 0;
  } else {
    p = prop.finish();
  }
  stamp_terminal(p, r, inst);
  rec.props[t] = std::move(p);
}

/// Checkpoint bookkeeping: chunks complete out of order, so completed
/// position ranges are coalesced into a contiguous frontier, and a
/// checkpoint covers exactly the frontier prefix. Thread-safe.
class CheckpointFrontier {
 public:
  CheckpointFrontier(const CampaignConfig& config, const CampaignPlan& plan,
                     const TrialRecords& rec, const CampaignResult& header)
      : config_(config), plan_(plan), rec_(rec), header_(header),
        emitted_at_(plan.skip) {}

  void complete(std::size_t begin, std::size_t end) {
    if (config_.checkpoint_every == 0 || !config_.on_checkpoint) return;
    const std::lock_guard<std::mutex> lock(mu_);
    ranges_[begin] = end;
    for (auto it = ranges_.find(frontier_); it != ranges_.end();
         it = ranges_.find(frontier_)) {
      frontier_ = it->second;
      ranges_.erase(it);
    }
    const std::uint64_t done = plan_.skip + frontier_;
    if (done < emitted_at_ + config_.checkpoint_every) return;
    if (done >= plan_.owned.size()) return;  // the final result supersedes it
    CampaignCheckpoint ck;
    ck.trials_done = done;
    ck.partial =
        config_.resume != nullptr ? config_.resume->partial : header_;
    tally(plan_, rec_, ck.partial, 0, frontier_);
    emitted_at_ = done;
    config_.on_checkpoint(ck);
  }

 private:
  const CampaignConfig& config_;
  const CampaignPlan& plan_;
  const TrialRecords& rec_;
  const CampaignResult& header_;
  std::mutex mu_;
  std::map<std::size_t, std::size_t> ranges_;  // completed [begin, end)
  std::size_t frontier_ = 0;
  std::uint64_t emitted_at_;
};

/// Registry snapshot of one campaign's outcomes and injection-site coverage
/// (counters accumulate across campaigns in one process).
void record_outcome_metrics(const CampaignResult& result) {
  auto& metrics = obs::Registry::global();
  auto count_outcomes = [&](std::string_view model, const std::string& kind,
                            const OutcomeCounts& c) {
    auto bump = [&](const char* outcome, std::uint64_t n) {
      if (n > 0)
        metrics
            .counter("gpurel_campaign_outcomes_total",
                     {{"model", std::string(model)},
                      {"kind", kind},
                      {"outcome", outcome}})
            .add(n);
    };
    bump("masked", c.masked);
    bump("sdc", c.sdc);
    bump("due", c.due);
  };
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindStats& ks = result.per_kind[k];
    const std::string kind(isa::unit_kind_name(static_cast<UnitKind>(k)));
    count_outcomes("output", kind, ks.counts);
    if (ks.dynamic_sites > 0) {
      metrics.gauge("gpurel_campaign_dynamic_sites", {{"kind", kind}})
          .set(static_cast<double>(ks.dynamic_sites));
      metrics.gauge("gpurel_campaign_site_coverage", {{"kind", kind}})
          .set(static_cast<double>(ks.counts.total()) /
               static_cast<double>(ks.dynamic_sites));
    }
  }
  for (const Stratum& s : kStrata)
    count_outcomes(s.label, "all", result.*s.counts);
}

/// Numerator and denominator of a site-weighted AVF over every exercised
/// weighted stratum: the per-kind instruction-output strata, then the
/// weighted kStrata rows. Micro-architectural strata carry exactly zero
/// mass on architectural campaigns, whose numbers are therefore unchanged
/// to the bit.
struct WeightedAvf {
  double num = 0;
  double den = 0;
};

WeightedAvf weighted_avf(const CampaignResult& r,
                         double (OutcomeCounts::*avf)() const) {
  WeightedAvf w;
  auto add = [&](const OutcomeCounts& c, std::uint64_t sites) {
    w.num += static_cast<double>(sites) * (c.*avf)();
    w.den += static_cast<double>(sites);
  };
  for (const KindStats& k : r.per_kind)
    if (k.counts.total() > 0) add(k.counts, k.dynamic_sites);
  for (const Stratum& s : kStrata)
    if (s.weighted && (r.*s.counts).total() > 0 && r.*s.site_count > 0)
      add(r.*s.counts, r.*s.site_count);
  return w;
}

}  // namespace

double CampaignResult::overall_avf_sdc() const {
  const WeightedAvf w = weighted_avf(*this, &OutcomeCounts::avf_sdc);
  return w.den > 0 ? w.num / w.den : 0.0;
}

double CampaignResult::overall_avf_due() const {
  const WeightedAvf w = weighted_avf(*this, &OutcomeCounts::avf_due);
  return w.den > 0 ? w.num / w.den : 0.0;
}

double CampaignResult::overall_masked() const {
  if (weighted_avf(*this, &OutcomeCounts::avf_sdc).den <= 0)
    return 0.0;  // nothing injected: no masked mass either
  return 1.0 - overall_avf_sdc() - overall_avf_due();
}

unsigned ia_pc_bits(const core::Workload& w) {
  std::uint32_t max_size = 2;  // even a 1-instruction program has PC bit 0
  for (const isa::Program* p : w.programs())
    max_size = std::max(max_size, p->size());
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < max_size) ++bits;
  return bits;
}

std::uint64_t CampaignResult::total_injections() const {
  std::uint64_t t = 0;
  for (const Stratum& s : kStrata) t += (this->*s.counts).total();
  for (const auto& k : per_kind) t += k.counts.total();
  return t;
}

void CampaignResult::merge(const CampaignResult& other) {
  auto mismatch = [](const char* what) {
    throw std::invalid_argument(std::string("CampaignResult::merge: ") + what +
                                " mismatch — results are not shards of the "
                                "same campaign");
  };
  if (injector != other.injector) mismatch("injector");
  if (workload != other.workload) mismatch("workload");
  if (eligible_output_sites != other.eligible_output_sites)
    mismatch("site count");
  for (const Stratum& s : kStrata)
    if (this->*s.site_count != other.*s.site_count) mismatch("site count");
  for (std::size_t k = 0; k < per_kind.size(); ++k)
    if (per_kind[k].dynamic_sites != other.per_kind[k].dynamic_sites)
      mismatch("per-kind dynamic sites");
  for (std::size_t k = 0; k < per_kind.size(); ++k)
    per_kind[k].counts.merge(other.per_kind[k].counts);
  for (const Stratum& s : kStrata) (this->*s.counts).merge(other.*s.counts);
  due_causes.merge(other.due_causes);
  if (other.propagation.has_value()) {
    if (propagation.has_value())
      propagation->merge(*other.propagation);
    else
      propagation = other.propagation;
  }
}

SiteCounts count_sites(const Injector& injector, const WorkloadFactory& factory) {
  core::Instance inst = core::make_instance(factory);
  check_instrumentable(injector, *inst.w);
  return count_prepared(injector, *inst.w, *inst.dev);
}

CampaignResult run_campaign(const Injector& injector, const WorkloadFactory& factory,
                            const CampaignConfig& config) {
  core::Instance ref = core::make_instance(factory);
  const CampaignPlan plan = plan_campaign(injector, ref, config);
  const CampaignResult header = result_header(injector, *ref.w, plan);
  const std::size_t todo = plan.todo();
  const unsigned workers = std::max(1u, config.workers);

  telemetry::Sink* sink = telemetry::resolve(config.telemetry);
  obs::TraceWriter* trace = obs::resolve_trace(config.trace);
  if (trace != nullptr)
    trace->name_process(obs::kWallPid, "gpurel runtime (wall clock)");
  telemetry::Timer wall;
  if (sink != nullptr) {
    sink->emit("campaign_start",
               {{"injector", header.injector},
                {"workload", header.workload},
                {"trials", todo},
                {"workers", workers},
                {"ia_pc_bits", plan.pc_bits},
                {"shard_index", config.shard_index},
                {"shard_count", config.shard_count},
                {"resumed_trials", std::uint64_t{plan.skip}},
                {"fork_epochs", plan.fork.snaps.size()}});
    for (std::size_t c = 0; c < kSiteClasses; ++c)
      if (plan.zero_site[c])
        sink->emit("campaign_zero_site_mode",
                   {{"injector", header.injector},
                    {"workload", header.workload},
                    {"model", site_class_name(static_cast<SiteClass>(c))},
                    {"resolution", "masked"}});
  }

  if (plan.fork.forking()) {
    obs::Registry::global().counter("gpurel_campaign_snapshots_total")
        .add(plan.fork.snaps.size());
    // One capture pass = one event; the ci.sh fork leg asserts exactly one
    // per campaign regardless of worker count.
    if (sink != nullptr) {
      std::uint64_t image_bytes = 0, bytes = 0;
      for (const sim::Snapshot& s : plan.fork.snaps) {
        image_bytes += s.memory.size();
        bytes += s.bytes();
      }
      sink->emit("campaign_snapshot_capture",
                 {{"workload", header.workload},
                  {"epochs", plan.fork.snaps.size()},
                  {"image_bytes", image_bytes},
                  {"bytes", bytes}});
    }
  }

  // Execute step.
  TrialRecords rec;
  rec.outcomes.assign(plan.trials.size(), core::Outcome::Masked);
  rec.causes.assign(plan.trials.size(), core::DueCause::None);
  if (config.trial_cycles_out != nullptr)
    rec.cycles.assign(plan.trials.size(), 0);
  if (config.propagation) rec.props.resize(plan.trials.size());
  const TrialBody body{injector, plan, config.propagation, rec};
  CheckpointFrontier frontier(config, plan, rec, header);
  telemetry::Progress progress(config.progress, "campaign " + header.workload,
                               todo);
  telemetry::Counter done;
  auto run_chunk = [&](core::Instance& inst, std::size_t worker,
                       std::size_t begin, std::size_t end) {
    const double t0 = trace != nullptr ? trace->now_us() : 0.0;
    for (const std::size_t p :
         plan.fork.chunk_order(plan.todo_ids(), begin, end))
      body.run(inst, plan.trial_at(p));
    if (trace != nullptr) {
      trace->name_thread(obs::kWallPid, static_cast<int>(worker),
                         "worker " + std::to_string(worker));
      trace->complete("campaign " + header.workload, "campaign", obs::kWallPid,
                      static_cast<int>(worker), t0, trace->now_us() - t0,
                      {{"begin", begin}, {"trials", end - begin}});
    }
    done.add(end - begin);
    progress.tick(end - begin);
    if (sink != nullptr)
      sink->emit("campaign_chunk", {{"begin", begin},
                                    {"end", end},
                                    {"done", done.value()},
                                    {"total", todo}});
    frontier.complete(begin, end);
  };
  // The other workers copy the reference instance's golden state instead of
  // re-running its fault-free trial.
  const core::Workload* reference = ref.w.get();
  const std::vector<core::Instance> instances = run_per_worker(
      workers, todo, std::move(ref),
      [&] { return core::make_instance(factory, reference); }, run_chunk);

  // High-water mark across campaigns in one process.
  if (plan.fork.forking())
    plan.fork.record_pool(
        obs::Registry::global().gauge("gpurel_campaign_snapshot_pool_bytes"),
        instances);

  // Tally step, serially in trial order; a resumed prefix contributes
  // through its checkpoint tallies (integer sums, so the combined result is
  // bit-identical to the uninterrupted run).
  CampaignResult result = header;
  tally(plan, rec, result, 0, todo);
  if (config.resume != nullptr) result.merge(config.resume->partial);
  if (config.trial_outcomes_out != nullptr)
    *config.trial_outcomes_out = rec.outcomes;
  if (config.trial_cycles_out != nullptr)
    *config.trial_cycles_out = std::move(rec.cycles);

  if (config.propagation) {
    // Aggregate and emit serially in owned-trial order, so the JSONL stream
    // (and the report's integer sums) are identical for any worker count.
    result.propagation.emplace();
    for (std::size_t p = 0; p < todo; ++p) {
      const obs::PropagationRecord& r = rec.props[plan.trial_at(p)];
      result.propagation->add(r);
      if (sink != nullptr) sink->emit("propagation_record", r.to_json());
    }
    if (config.propagation_records_out != nullptr)
      *config.propagation_records_out = std::move(rec.props);
  }

  record_outcome_metrics(result);
  if (sink != nullptr) {
    OutcomeCounts all;
    for (std::size_t p = 0; p < todo; ++p)
      all.add(rec.outcomes[plan.trial_at(p)]);
    const double ms = wall.elapsed_ms();
    sink->emit("campaign_end",
               {{"injector", result.injector},
                {"workload", result.workload},
                {"trials", todo},
                {"masked", all.masked},
                {"sdc", all.sdc},
                {"due", all.due},
                {"dropped", rec.dropped.value()},
                {"wall_ms", ms},
                {"trials_per_sec",
                 ms > 0 ? 1000.0 * static_cast<double>(todo) / ms : 0.0}});
  }
  return result;
}

}  // namespace gpurel::fault

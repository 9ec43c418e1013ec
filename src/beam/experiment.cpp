#include "beam/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "core/fork.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/instr_info.hpp"
#include "sim/timing.hpp"

namespace gpurel::beam {

using fault::OutcomeCounts;
using isa::Opcode;
using isa::UnitKind;

void BeamResult::refresh_fits() {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, runs));
  // Display normalization keeps typical values O(1..100).
  constexpr double kDisplay = 1.0e3;
  per_event_fit = fit_scale * kDisplay / n;
  auto to_fit = [&](std::uint64_t count, ConfidenceInterval& ci_out) {
    const ConfidenceInterval ci = poisson_ci95(count);
    const double fit = fit_scale * (static_cast<double>(count) / n) * kDisplay;
    ci_out.point = fit;
    ci_out.lower = fit_scale * (ci.lower / n) * kDisplay;
    ci_out.upper = fit_scale * (ci.upper / n) * kDisplay;
    return fit;
  };
  fit_sdc = to_fit(outcomes.sdc, fit_sdc_ci);
  fit_due = to_fit(outcomes.due, fit_due_ci);
}

void BeamResult::merge(const BeamResult& other) {
  auto mismatch = [](const char* what) {
    throw std::invalid_argument(std::string("BeamResult::merge: ") + what +
                                " mismatch — results are not shards of the "
                                "same experiment");
  };
  if (workload != other.workload) mismatch("workload");
  if (device != other.device) mismatch("device");
  if (ecc != other.ecc) mismatch("ecc");
  if (mode != other.mode) mismatch("mode");
  if (fit_scale != other.fit_scale) mismatch("fit_scale");
  if (device_sigma_rate != other.device_sigma_rate)
    mismatch("device_sigma_rate");
  runs += other.runs;
  outcomes.merge(other.outcomes);
  for (std::size_t t = 0; t < by_target.size(); ++t)
    by_target[t].merge(other.by_target[t]);
  refresh_fits();
}

std::string_view strike_target_name(StrikeTarget t) {
  switch (t) {
    case StrikeTarget::FunctionalUnit: return "functional-unit";
    case StrikeTarget::RegisterFile: return "register-file";
    case StrikeTarget::SharedMem: return "shared-memory";
    case StrikeTarget::GlobalMem: return "global-memory";
    case StrikeTarget::Hidden: return "hidden-resource";
    default: return "?";
  }
}

namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(UnitKind::kCount);
constexpr std::size_t kTargets = static_cast<std::size_t>(StrikeTarget::kCount);


/// One planned strike, fully determined before the trial starts so that
/// trials replay bit-identically.
struct StrikePlan {
  StrikeTarget target = StrikeTarget::FunctionalUnit;
  UnitKind unit = UnitKind::OTHER;
  std::uint64_t index = 0;        // FU: k-th lane-execution of `unit`
  double warp_pos = 0.0;          // RF: position along the warp-cycle integral
  double block_pos = 0.0;         // SH: position along the block-cycle integral
  std::uint64_t cycle_pos = 0;    // GL / Hidden: absolute trial cycle
  std::uint64_t rand = 0;         // entropy for fire-time choices
  bool mbu = false;
  bool addr_path = false;         // LDST address-generation strike
  bool addr_invalid = false;      // corrupted address escapes the VA layout
  bool hidden_sdc = false;        // Hidden: corrupt state (else handled outside)
};

/// Simulated-time state a beam run accumulates: the warp- and block-cycle
/// integrals register-file and shared-memory strikes are placed along, and
/// the cycles of the trial's finished launches. BeamObserver and the fork
/// capture pass (BeamCaptureObserver) both advance it through these two
/// members, fed by the same executor calls in the same order, so a forked
/// run preset with the capture pass's value at its snapshot holds the plain
/// run's doubles there bit for bit.
struct BeamClock {
  double warp = 0.0;
  double block = 0.0;
  std::uint64_t cycle_offset = 0;

  void advance(std::uint64_t from, std::uint64_t to, const sim::Machine& m) {
    const double delta = static_cast<double>(to - from);
    warp += delta * static_cast<double>(m.live_warp_count());
    block += delta * static_cast<double>(m.live_block_count());
  }
  void end_launch(const sim::LaunchStats& st) { cycle_offset += st.cycles; }
};

/// Applies planned strikes during a trial.
///
/// Claims are scoped to the strikes still to come. An unfired
/// functional-unit strike counts lane executions in before_exec and lands
/// in the after_exec of the same issue (the executor fixes the mask for a
/// whole cycle), so it claims both; every other target fires from
/// on_time_advance and claims only that. A pending latch restore or output
/// strike keeps after_exec. Once every strike has fired nothing is claimed,
/// and from the next cycle boundary the run simulates on the executor's
/// hook-free lane driver: the counters and integrals below only steer
/// unfired strikes, so no later hook call could change the result.
class BeamObserver final : public sim::SimObserver {
 public:
  BeamObserver(std::vector<StrikePlan> plans, unsigned max_regs)
      : plans_(std::move(plans)), max_regs_(std::max(1u, max_regs)) {}

  /// A forked run starts at a snapshot of the fault-free run: preset the
  /// per-unit lane counts and the clock the plain run would hold there.
  void preset(const std::array<std::uint64_t, kKinds>& fu_counts,
              const BeamClock& clock) {
    fu_counts_ = fu_counts;
    clock_ = clock;
  }

  unsigned wants() const override {
    unsigned w =
        restore_pending_ || pending_plan_ >= 0 ? kWantsAfterExec : 0u;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (fired_[i]) continue;
      w |= plans_[i].target == StrikeTarget::FunctionalUnit
               ? kWantsBeforeExec | kWantsAfterExec
               : kWantsTimeAdvance;
    }
    return w;
  }

  void on_launch_end(const sim::LaunchStats& st) override {
    clock_.end_launch(st);
  }

  // Lane-execution counting happens in before_exec (which the executor calls
  // exactly once per executed lane, before any lane of the instruction runs).
  // Output strikes are *scheduled* here and fired in the matching after_exec;
  // address / store-data strikes corrupt the source operand immediately and
  // restore it in the matching after_exec (the strike hits the unit's
  // operand latch, not the register file).
  void before_exec(sim::ExecContext& ctx) override {
    const auto kind_idx = static_cast<std::size_t>(isa::unit_kind(ctx.instr->op));
    const std::uint64_t my_index = fu_counts_[kind_idx]++;
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      StrikePlan& p = plans_[i];
      if (fired_[i] || p.target != StrikeTarget::FunctionalUnit) continue;
      if (static_cast<std::size_t>(p.unit) != kind_idx) continue;
      if (p.index != my_index) continue;
      fired_[i] = true;
      if (p.addr_path || store_value_path(*ctx.instr)) {
        const std::uint8_t reg =
            p.addr_path ? ctx.instr->src[0] : ctx.instr->src[1];
        if (reg == isa::kRZ) break;
        saved_reg_ = reg;
        saved_val_ = ctx.regs->get(reg);
        saved_lane_regs_ = ctx.regs;
        if (p.addr_path && p.addr_invalid) {
          // A flipped high virtual-address bit lands outside the sparse VA
          // layout: guaranteed device exception (paper §V-B: most corrupted
          // addresses are invalid because little of the VA space is mapped).
          ctx.regs->set(reg, 0xfff00000u | static_cast<std::uint32_t>(p.rand & 0xfffffu));
        } else if (p.addr_path) {
          // Low-bit flip: stays inside the mapped footprint (wrong data) or
          // breaks alignment.
          ctx.regs->set(reg, flip_bit32(saved_val_, p.rand % 18));
        } else {
          ctx.regs->set(reg, flip_bit32(saved_val_, p.rand % 32));
        }
        restore_pending_ = true;
      } else {
        pending_plan_ = static_cast<std::ptrdiff_t>(i);
        pending_regs_ = ctx.regs;
        pending_pc_ = ctx.pc;
      }
      break;
    }
  }

  void after_exec(sim::ExecContext& ctx) override {
    if (restore_pending_ && saved_lane_regs_ == ctx.regs) {
      saved_lane_regs_->set(saved_reg_, saved_val_);
      restore_pending_ = false;
    }
    if (pending_plan_ >= 0 && pending_regs_ == ctx.regs && pending_pc_ == ctx.pc) {
      fire_output_strike(plans_[static_cast<std::size_t>(pending_plan_)], ctx);
      pending_plan_ = -1;
    }
  }

  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    const double warp_before = clock_.warp;
    const double block_before = clock_.block;
    clock_.advance(from, to, m);
    const std::uint64_t cyc_before = clock_.cycle_offset + from;
    const std::uint64_t cyc_after = clock_.cycle_offset + to;

    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (fired_[i]) continue;
      StrikePlan& p = plans_[i];
      Rng rng(p.rand);
      switch (p.target) {
        case StrikeTarget::RegisterFile: {
          if (!(p.warp_pos >= warp_before && p.warp_pos < clock_.warp)) break;
          if (m.live_warp_count() == 0) break;
          const auto w = rng.uniform_u64(m.live_warp_count());
          const auto lane = static_cast<unsigned>(rng.uniform_u64(32));
          auto& regs = m.live_warp_lane(w, lane);
          const auto reg = static_cast<std::uint8_t>(rng.uniform_u64(max_regs_));
          const auto bit = static_cast<unsigned>(rng.uniform_u64(32));
          regs.set(reg, flip_bit32(regs.get(reg), bit));
          if (p.mbu) regs.set(reg, flip_bit32(regs.get(reg), (bit + 1) % 32));
          fired_[i] = true;
          break;
        }
        case StrikeTarget::SharedMem: {
          if (!(p.block_pos >= block_before && p.block_pos < clock_.block)) break;
          if (m.live_block_count() == 0) break;
          auto& sh = m.live_block_shared(rng.uniform_u64(m.live_block_count()));
          if (sh.bits() == 0) break;
          const auto bit = rng.uniform_u64(sh.bits());
          sh.flip_bit(bit);
          if (p.mbu) sh.flip_bit(bit ^ 1);
          fired_[i] = true;
          break;
        }
        case StrikeTarget::GlobalMem: {
          if (!(p.cycle_pos >= cyc_before && p.cycle_pos < cyc_after)) break;
          auto& g = m.global();
          if (g.allocated_bits() == 0) break;
          const auto bit = rng.uniform_u64(g.allocated_bits());
          g.flip_allocated_bit(bit);
          if (p.mbu) g.flip_allocated_bit(bit ^ 1);
          fired_[i] = true;
          break;
        }
        case StrikeTarget::Hidden: {
          if (!(p.cycle_pos >= cyc_before && p.cycle_pos < cyc_after)) break;
          if (p.hidden_sdc) {
            // Dropped/duplicated micro-op: corrupt an arbitrary live value.
            if (m.live_warp_count() > 0) {
              const auto w = rng.uniform_u64(m.live_warp_count());
              auto& regs = m.live_warp_lane(
                  w, static_cast<unsigned>(rng.uniform_u64(32)));
              const auto reg = static_cast<std::uint8_t>(rng.uniform_u64(max_regs_));
              regs.set(reg, flip_bit32(regs.get(reg),
                                       static_cast<unsigned>(rng.uniform_u64(32))));
            }
          } else {
            m.raise_due(sim::DueKind::HiddenResource);
          }
          fired_[i] = true;
          break;
        }
        default:
          break;
      }
    }
  }

 private:
  static bool store_value_path(const isa::Instr& in) {
    return in.op == Opcode::STG || in.op == Opcode::STS;
  }

  void fire_output_strike(StrikePlan& p, sim::ExecContext& ctx) {
    Rng rng(p.rand);
    const isa::Instr& in = *ctx.instr;
    if (isa::writes_gpr(in.op) && in.dst != isa::kRZ) {
      const unsigned width = std::max(sim::dst_reg_width(in), 1u);
      const auto bsel = static_cast<unsigned>(rng.uniform_u64(width * 32));
      const auto reg = static_cast<std::uint8_t>(in.dst + bsel / 32);
      ctx.regs->set(reg, flip_bit32(ctx.regs->get(reg), bsel % 32));
    } else if (isa::writes_predicate(in.op)) {
      const std::uint8_t pr = in.dst & 0x07;
      ctx.regs->set_pred(pr, !ctx.regs->get_pred(pr));
    } else if (isa::is_control(in.op)) {
      *ctx.next_pc ^= 1u << rng.uniform_u64(10);
    }
  }

  std::vector<StrikePlan> plans_;
  std::vector<bool> fired_ = std::vector<bool>(plans_.size(), false);
  unsigned max_regs_;
  std::array<std::uint64_t, kKinds> fu_counts_{};
  BeamClock clock_;
  // Operand save/restore for address/store-data strikes.
  bool restore_pending_ = false;
  std::uint8_t saved_reg_ = 0;
  std::uint32_t saved_val_ = 0;
  sim::ThreadRegs* saved_lane_regs_ = nullptr;
  // Scheduled output strike (fires in the matching after_exec).
  std::ptrdiff_t pending_plan_ = -1;
  sim::ThreadRegs* pending_regs_ = nullptr;
  std::uint32_t pending_pc_ = 0;
};

/// The fork capture pass's observer: records the BeamClock at every
/// snapshot. It claims only time advance, so the pass runs on the hook-free
/// lane driver.
class BeamCaptureObserver final : public sim::SimObserver {
 public:
  unsigned wants() const override { return kWantsTimeAdvance; }
  void on_launch_end(const sim::LaunchStats& st) override {
    clock_.end_launch(st);
  }
  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    clock_.advance(from, to, m);
  }
  void on_capture() override { at_capture.push_back(clock_); }

  std::vector<BeamClock> at_capture;  // one per snapshot, in capture order

 private:
  BeamClock clock_;
};

/// The lane executions of each unit kind the fault-free run had made at
/// snapshot `s`: the launches before it plus the one in flight.
std::array<std::uint64_t, kKinds> lanes_at(const sim::Snapshot& s) {
  std::array<std::uint64_t, kKinds> n{};
  for (std::size_t k = 0; k < kKinds; ++k)
    n[k] = s.prior.lane_per_unit[k] + s.exec.stats.lane_per_unit[k];
  return n;
}

/// Whether strike `p` fires after snapshot `s`, at which the capture pass's
/// clock read `c`: an FU strike whose unit had run at most `index` lanes, an
/// RF or shared-memory strike whose integral had reached at most its
/// position, a global-memory or hidden strike whose cycle the snapshot's
/// absolute cycle had reached at most. Time windows are [from, to), so a
/// strike placed exactly on the boundary fires in the resumed suffix.
bool fires_after(const StrikePlan& p, const sim::Snapshot& s,
                 const BeamClock& c) {
  switch (p.target) {
    case StrikeTarget::FunctionalUnit:
      return lanes_at(s)[static_cast<std::size_t>(p.unit)] <= p.index;
    case StrikeTarget::RegisterFile: return c.warp <= p.warp_pos;
    case StrikeTarget::SharedMem: return c.block <= p.block_pos;
    default: return s.prior.cycles + s.exec.cycle <= p.cycle_pos;
  }
}

/// One owned run, sampled before anything simulates: the strikes that reach
/// the simulator, or none when the run resolves when sampled.
struct RunPlan {
  std::vector<StrikePlan> strikes;
  core::Outcome outcome = core::Outcome::Masked;  // when `strikes` is empty
  std::uint8_t target = kTargets;  // accelerated mode: the strike's target
};

struct Weights {
  std::array<double, kKinds> unit{};
  double rf = 0, sh = 0, gl = 0, hidden = 0;
  double total() const {
    double t = rf + sh + gl + hidden;
    for (double u : unit) t += u;
    return t;
  }
};

Weights compute_weights(const CrossSectionDb& db, const ExposureBreakdown& e) {
  Weights w;
  for (std::size_t k = 0; k < kKinds; ++k)
    w.unit[k] = db.unit[k] * e.unit_busy[k];
  w.rf = db.rf_bit * e.rf_bit_cycles;
  w.sh = db.shared_bit * e.shared_bit_cycles;
  w.gl = db.global_bit * e.global_bit_cycles;
  w.hidden = db.hidden_per_sm * e.hidden_sm_cycles;
  return w;
}

}  // namespace

ExposureBreakdown compute_exposure(const core::Workload& w,
                                   std::uint64_t allocated_bits) {
  const sim::LaunchStats& st = w.golden_stats();
  ExposureBreakdown e;
  e.unit_busy = st.lane_busy_per_unit;  // lanes x actual opcode latency
  e.rf_bit_cycles = st.warp_cycles * 32.0 * w.max_regs_per_thread() * 32.0;
  e.shared_bit_cycles = st.block_cycles * w.max_shared_bytes() * 8.0;
  e.global_bit_cycles =
      static_cast<double>(st.cycles) * static_cast<double>(allocated_bits);
  e.hidden_sm_cycles = static_cast<double>(st.sm_active_cycles);
  e.trial_cycles = st.cycles;
  return e;
}

BeamResult run_beam(const CrossSectionDb& db, const core::WorkloadFactory& factory,
                    const BeamConfig& config) {
  core::Instance ref = core::make_instance(factory);
  const std::uint64_t allocated_bits = ref.dev->memory().allocated_bits();
  const ExposureBreakdown exposure = compute_exposure(*ref.w, allocated_bits);
  const Weights weights = compute_weights(db, exposure);
  const double total_weight = weights.total();
  const sim::LaunchStats& golden = ref.w->golden_stats();
  const unsigned max_regs = ref.w->max_regs_per_thread();

  BeamResult result;
  result.workload = ref.w->name();
  result.device = ref.w->config().gpu.name;
  result.ecc = config.ecc;
  result.mode = config.mode;
  result.device_sigma_rate =
      exposure.trial_cycles > 0 ? total_weight / exposure.trial_cycles : 0.0;

  // Shard selection: every shard derives the identical per-run seed chain
  // below and then owns the runs r with r % shard_count == shard_index. The
  // result reports the owned subset; BeamResult::merge over all shards
  // reproduces the unsharded experiment bit for bit.
  if (config.shard_count == 0 || config.shard_index >= config.shard_count)
    throw std::invalid_argument(
        "run_beam: shard_index must be < shard_count (>= 1)");
  std::vector<std::size_t> owned;
  owned.reserve(config.runs / config.shard_count + 1);
  for (std::size_t r = config.shard_index; r < config.runs;
       r += config.shard_count)
    owned.push_back(r);
  result.runs = owned.size();

  // Flat sampling vector: all unit kinds, then RF, SH, GL, Hidden.
  std::vector<double> flat(kKinds + 4);
  for (std::size_t k = 0; k < kKinds; ++k) flat[k] = weights.unit[k];
  flat[kKinds + 0] = weights.rf;
  flat[kKinds + 1] = weights.sh;
  flat[kKinds + 2] = weights.gl;
  flat[kKinds + 3] = weights.hidden;
  {
    const double t = weights.total();
    if (t > 0) {
      auto share = [&](StrikeTarget tg, double v) {
        result.weight_share[static_cast<std::size_t>(tg)] = v / t;
      };
      double fu = 0;
      for (std::size_t k = 0; k < kKinds; ++k) fu += weights.unit[k];
      share(StrikeTarget::FunctionalUnit, fu);
      share(StrikeTarget::RegisterFile, weights.rf);
      share(StrikeTarget::SharedMem, weights.sh);
      share(StrikeTarget::GlobalMem, weights.gl);
      share(StrikeTarget::Hidden, weights.hidden);
    }
  }
  telemetry::Sink* sink = telemetry::resolve(config.telemetry);
  obs::TraceWriter* trace = obs::resolve_trace(config.trace);
  if (trace != nullptr)
    trace->name_process(obs::kWallPid, "gpurel runtime (wall clock)");
  auto& metrics = obs::Registry::global();
  obs::Counter& m_runs = metrics.counter("gpurel_beam_runs_total");
  obs::Counter& m_simulated = metrics.counter("gpurel_beam_simulated_runs_total");
  obs::Counter& m_forked = metrics.counter("gpurel_beam_forked_runs_total");
  obs::Counter& m_dropped = metrics.counter("gpurel_beam_dropped_runs_total");
  obs::Histogram& m_latency = metrics.histogram("gpurel_beam_run_latency_ms");
  telemetry::Timer wall;
  const unsigned workers = std::max(1u, config.workers);
  if (sink != nullptr)
    sink->emit("beam_start",
               {{"workload", result.workload},
                {"device", result.device},
                {"runs", std::uint64_t{owned.size()}},
                {"workers", workers},
                {"mode", config.mode == BeamMode::Accelerated ? "accelerated"
                                                              : "natural"},
                {"ecc", config.ecc},
                {"shard_index", config.shard_index},
                {"shard_count", config.shard_count}});

  if (total_weight <= 0.0) {
    if (sink != nullptr)
      sink->emit("beam_end", {{"workload", result.workload},
                              {"runs", std::uint64_t{0}},
                              {"wall_ms", wall.elapsed_ms()}});
    return result;
  }

  // Samples one strike plan; returns nullopt-style flag via `immediate` when
  // the outcome is decided without simulation (ECC corrections/detections,
  // hidden strikes that hang or do nothing).
  struct Sampled {
    StrikePlan plan;
    bool immediate = false;
    core::Outcome immediate_outcome = core::Outcome::Masked;
  };
  auto sample_strike = [&](Rng& rng) {
    Sampled s;
    const std::size_t pick = rng.weighted_pick(flat);
    StrikePlan& p = s.plan;
    p.rand = rng.next_u64();
    if (pick < kKinds) {
      p.target = StrikeTarget::FunctionalUnit;
      p.unit = static_cast<UnitKind>(pick);
      p.index = rng.uniform_u64(std::max<std::uint64_t>(
          1, golden.lane_per_unit[pick]));
      p.addr_path =
          p.unit == UnitKind::LDST && rng.bernoulli(db.ldst_addr_fraction);
      p.addr_invalid = p.addr_path && rng.bernoulli(db.addr_invalid_fraction);
    } else {
      const std::size_t aux = pick - kKinds;
      p.mbu = rng.bernoulli(db.mbu_rate);
      if (aux == 0) {
        p.target = StrikeTarget::RegisterFile;
        p.warp_pos = rng.uniform() * golden.warp_cycles;
      } else if (aux == 1) {
        p.target = StrikeTarget::SharedMem;
        p.block_pos = rng.uniform() * golden.block_cycles;
      } else if (aux == 2) {
        p.target = StrikeTarget::GlobalMem;
        p.cycle_pos = rng.uniform_u64(std::max<std::uint64_t>(1, golden.cycles));
      } else {
        p.target = StrikeTarget::Hidden;
        p.cycle_pos = rng.uniform_u64(std::max<std::uint64_t>(1, golden.cycles));
        const double u = rng.uniform();
        if (u < db.hidden_due_fraction) {
          s.immediate = true;
          s.immediate_outcome = core::Outcome::Due;
        } else if (u < db.hidden_due_fraction + db.hidden_sdc_fraction) {
          p.hidden_sdc = true;
        } else {
          s.immediate = true;
          s.immediate_outcome = core::Outcome::Masked;
        }
      }
      // SECDED: with ECC on, memory strikes are corrected (single bit) or
      // detected-uncorrectable (multi-bit upset).
      if (config.ecc && p.target != StrikeTarget::Hidden) {
        s.immediate = true;
        s.immediate_outcome = p.mbu ? core::Outcome::Due : core::Outcome::Masked;
      }
    }
    return s;
  };

  // Every owned run is sampled up front from its own seed, derived by index:
  // runs replay bit-identically regardless of which worker executes them, in
  // any order, and the fork planner below sees every strike.
  std::vector<RunPlan> runs(config.runs);
  std::uint64_t simulated = 0;
  {
    std::uint64_t salt = config.seed;
    std::vector<std::uint64_t> seeds(config.runs);
    for (auto& sd : seeds) sd = splitmix64(salt);
    for (const std::size_t r : owned) {
      Rng rng(seeds[r]);
      RunPlan& run = runs[r];
      if (config.mode == BeamMode::Accelerated) {
        const Sampled s = sample_strike(rng);
        run.target = static_cast<std::uint8_t>(s.plan.target);
        if (s.immediate)
          run.outcome = s.immediate_outcome;
        else
          run.strikes.push_back(s.plan);
      } else {
        // Natural flux: Poisson number of strikes this run. All of them are
        // drawn, so the draw sequence never depends on how one resolves.
        const double lambda = config.flux_scale * total_weight;
        const std::uint64_t n = rng.poisson(lambda);
        bool immediate_due = false;
        for (std::uint64_t i = 0; i < n; ++i) {
          const Sampled s = sample_strike(rng);
          if (!s.immediate)
            run.strikes.push_back(s.plan);
          else if (s.immediate_outcome == core::Outcome::Due)
            immediate_due = true;
        }
        if (immediate_due) {
          run.outcome = core::Outcome::Due;
          run.strikes.clear();
        }
      }
      if (!run.strikes.empty()) ++simulated;
    }
  }

  // Fork planning (core/fork.hpp): one fault-free capture pass on the
  // reference instance records the snapshot set and the clock at each
  // snapshot; a simulated run resumes from the deepest snapshot after which
  // all of its strikes fire. Every simulated run gets the set as drop marks.
  core::ForkSet fork;
  std::vector<BeamClock> clocks;
  {
    BeamCaptureObserver capture;
    const unsigned epochs =
        core::fork_epoch_cap(*ref.w, core::kDefaultForkEpochs, simulated);
    if (fork.capture(ref, epochs, &capture)) {
      clocks = std::move(capture.at_capture);
      fork.epoch.assign(config.runs, -1);
      for (const std::size_t r : owned) {
        const std::vector<StrikePlan>& strikes = runs[r].strikes;
        if (strikes.empty()) continue;
        fork.epoch[r] =
            core::deepest_epoch(fork.snaps.size(), [&](std::size_t i) {
              return std::all_of(
                  strikes.begin(), strikes.end(), [&](const StrikePlan& p) {
                    return fires_after(p, fork.snaps[i], clocks[i]);
                  });
            });
      }
      metrics.counter("gpurel_beam_snapshots_total").add(fork.snaps.size());
    }
  }

  // Per-run records, tallied serially afterwards (bit-identical results for
  // any worker count).
  std::vector<core::Outcome> outcomes(config.runs, core::Outcome::Masked);
  telemetry::Counter forked, dropped;

  auto run_one = [&](core::Instance& inst, std::size_t r) {
    const telemetry::Timer run_wall;
    const RunPlan& run = runs[r];
    outcomes[r] = run.outcome;
    if (!run.strikes.empty()) {
      BeamObserver obs(run.strikes, max_regs);
      const int epoch = fork.epoch_of(r);
      if (epoch >= 0) {
        const auto e = static_cast<std::size_t>(epoch);
        obs.preset(lanes_at(fork.snaps[e]), clocks[e]);
        forked.add();
        m_forked.add();
      }
      const core::TrialResult tr = fork.run(inst, epoch, &obs);
      outcomes[r] = tr.outcome;
      if (tr.dropped) {
        dropped.add();
        m_dropped.add();
      }
      m_simulated.add();
    }
    m_latency.observe(run_wall.elapsed_ms());
    m_runs.add();
  };

  telemetry::Progress progress(config.progress, "beam " + result.workload,
                               owned.size());
  telemetry::Counter done;
  // Chunks are *positions* in the owned order (dense [0, owned.size()));
  // run_one maps them back to global run ids.
  auto run_chunk = [&](core::Instance& inst, std::size_t worker,
                       std::size_t begin, std::size_t end) {
    const double t0 = trace != nullptr ? trace->now_us() : 0.0;
    for (const std::size_t p : fork.chunk_order(owned, begin, end))
      run_one(inst, owned[p]);
    if (trace != nullptr) {
      trace->name_thread(obs::kWallPid, static_cast<int>(worker),
                         "worker " + std::to_string(worker));
      trace->complete("beam " + result.workload, "beam", obs::kWallPid,
                      static_cast<int>(worker), t0, trace->now_us() - t0,
                      {{"begin", begin}, {"runs", end - begin}});
    }
    done.add(end - begin);
    progress.tick(end - begin);
    if (sink != nullptr)
      sink->emit("beam_chunk", {{"begin", begin},
                                {"end", end},
                                {"done", done.value()},
                                {"total", std::uint64_t{owned.size()}}});
  };
  // The instances outlive the loop: `golden` refers into worker 0's, and the
  // other workers copy its golden state instead of re-running the
  // fault-free reference trial.
  const core::Workload* reference = ref.w.get();
  const std::vector<core::Instance> instances = run_per_worker(
      workers, owned.size(), std::move(ref),
      [&] { return core::make_instance(factory, reference); }, run_chunk);
  // High-water mark across beams in one process.
  if (fork.forking())
    fork.record_pool(metrics.gauge("gpurel_beam_snapshot_pool_bytes"),
                     instances);

  for (const std::size_t r : owned) {
    result.outcomes.add(outcomes[r]);
    if (runs[r].target < kTargets)
      result.by_target[runs[r].target].add(outcomes[r]);
  }

  // Registry snapshot: beam outcomes by strike target.
  for (std::size_t t = 0; t < kTargets; ++t) {
    const fault::OutcomeCounts& c = result.by_target[t];
    if (c.total() == 0) continue;
    const auto target =
        std::string(strike_target_name(static_cast<StrikeTarget>(t)));
    auto bump = [&](const char* outcome, std::uint64_t n) {
      if (n > 0)
        metrics
            .counter("gpurel_beam_outcomes_total",
                     {{"target", target}, {"outcome", outcome}})
            .add(n);
    };
    bump("masked", c.masked);
    bump("sdc", c.sdc);
    bump("due", c.due);
  }

  // Convert conditional probabilities to FIT (arbitrary units). The scale
  // factor is a per-workload constant; the expression tree itself lives in
  // refresh_fits() so shard merges reproduce it exactly.
  const double t_cycles = static_cast<double>(std::max<std::uint64_t>(1, golden.cycles));
  if (config.mode == BeamMode::Accelerated) {
    result.fit_scale = total_weight / t_cycles;  // FIT = Σw/T * P(X|strike)
  } else {
    // FIT = count/(runs*flux*T)
    result.fit_scale = 1.0 / (config.flux_scale * t_cycles);
  }
  result.refresh_fits();

  if (sink != nullptr) {
    const double ms = wall.elapsed_ms();
    sink->emit("beam_end",
               {{"workload", result.workload},
                {"runs", result.runs},
                {"masked", result.outcomes.masked},
                {"sdc", result.outcomes.sdc},
                {"due", result.outcomes.due},
                {"fit_sdc", result.fit_sdc},
                {"fit_due", result.fit_due},
                {"snapshots", fork.snaps.size()},
                {"forked", forked.value()},
                {"dropped", dropped.value()},
                {"wall_ms", ms},
                {"runs_per_sec",
                 ms > 0 ? 1000.0 * static_cast<double>(result.runs) / ms
                        : 0.0}});
  }
  return result;
}

}  // namespace gpurel::beam

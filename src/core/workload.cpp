#include "core/workload.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace gpurel::core {

std::string_view precision_prefix(Precision p) {
  switch (p) {
    case Precision::Int32: return "";
    case Precision::Half: return "H";
    case Precision::Single: return "F";
    case Precision::Double: return "D";
  }
  return "";
}

std::string_view precision_name(Precision p) {
  switch (p) {
    case Precision::Int32: return "INT32";
    case Precision::Half: return "FP16";
    case Precision::Single: return "FP32";
    case Precision::Double: return "FP64";
  }
  return "?";
}

unsigned precision_bytes(Precision p) {
  switch (p) {
    case Precision::Int32: return 4;
    case Precision::Half: return 2;
    case Precision::Single: return 4;
    case Precision::Double: return 8;
  }
  return 4;
}

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Masked: return "Masked";
    case Outcome::Sdc: return "SDC";
    case Outcome::Due: return "DUE";
  }
  return "?";
}

std::string_view due_cause_name(DueCause c) {
  switch (c) {
    case DueCause::None: return "none";
    case DueCause::Hang: return "hang";
    case DueCause::LaunchFailure: return "launch_failure";
    case DueCause::Watchdog: return "watchdog";
    case DueCause::BarrierDeadlock: return "barrier_deadlock";
    case DueCause::Ecc: return "ecc";
    case DueCause::kCount: break;
  }
  return "?";
}

DueCause due_cause_of(sim::DueKind k) {
  switch (k) {
    case sim::DueKind::None: return DueCause::None;
    // Device exceptions abort the launch at the API boundary.
    case sim::DueKind::InvalidAddress:
    case sim::DueKind::MisalignedAddress:
    case sim::DueKind::IllegalInstruction:
      return DueCause::LaunchFailure;
    case sim::DueKind::Watchdog: return DueCause::Watchdog;
    case sim::DueKind::BarrierDeadlock: return DueCause::BarrierDeadlock;
    case sim::DueKind::EccDoubleBit: return DueCause::Ecc;
    // Hidden-resource strikes stop the device without an exception.
    case sim::DueKind::HiddenResource: return DueCause::Hang;
  }
  return DueCause::None;
}

TrialRunner::TrialRunner(sim::Device& dev, sim::SimObserver* obs,
                         std::uint64_t cycle_budget)
    : dev_(dev), obs_(obs), cycle_budget_(cycle_budget) {}

bool TrialRunner::launch(const sim::KernelLaunch& kl) {
  if (due() || dropped_ != nullptr) return false;
  if (resume_ != nullptr && ordinal_ < resume_->launch_ordinal) {
    ++ordinal_;  // already part of the snapshot; stats preset via resume_from
    return true;
  }
  const std::uint64_t remaining =
      cycle_budget_ == 0 ? 0
                         : (stats_.cycles >= cycle_budget_
                                ? 1  // out of budget: next launch trips instantly
                                : cycle_budget_ - stats_.cycles);
  sim::ForkIO io;
  sim::ForkIO* fork = nullptr;
  if (resume_ != nullptr) {
    io.resume = resume_;
    io.delta = resume_delta_;
    fork = &io;
    resume_ = nullptr;  // suffix launches after this one run normally
  } else if (capture_marks_ != nullptr) {
    io.marks = capture_marks_;
    io.next_mark = capture_next_;
    io.lane_base = stats_.lane_instructions;
    io.out = capture_out_;
    fork = &io;
  }
  if (golden_ != nullptr) {
    io.golden = golden_;
    io.next_golden = golden_next_;
    io.lane_base = stats_.lane_instructions;
    io.prior_cycles = stats_.cycles;
    fork = &io;
  }
  const std::size_t before =
      io.out != nullptr ? capture_out_->size() : 0;
  const unsigned ordinal = ordinal_++;
  const sim::LaunchStats st = dev_.launch(kl, obs_, remaining, ordinal, fork);
  if (io.golden != nullptr) {
    golden_next_ = io.next_golden;
    dropped_ = io.dropped;
  }
  if (io.out != nullptr) {
    capture_next_ = io.next_mark;
    // Stamp trial-level context on the snapshots this launch appended:
    // which launch was in flight and the stats merged before it started.
    for (std::size_t i = before; i < capture_out_->size(); ++i) {
      (*capture_out_)[i].launch_ordinal = ordinal;
      (*capture_out_)[i].prior = stats_;
    }
  }
  stats_.merge(st);
  return stats_.due == sim::DueKind::None && dropped_ == nullptr;
}

void TrialRunner::enable_capture(const std::vector<std::uint64_t>* marks,
                                 std::vector<sim::Snapshot>* out) {
  capture_marks_ = marks;
  capture_out_ = out;
  capture_next_ = 0;
}

void TrialRunner::resume_from(const sim::Snapshot& snap, bool delta) {
  resume_ = &snap;
  resume_delta_ = delta;
  stats_ = snap.prior;
}

void TrialRunner::enable_drop(const std::vector<sim::Snapshot>* golden) {
  golden_ = golden;
  golden_next_ = 0;
  if (golden == nullptr || resume_ == nullptr) return;
  // A resumed trial starts at its own snapshot: only later marks count.
  auto position = [](const sim::Snapshot& s) {
    return std::pair{s.launch_ordinal, s.lane_mark};
  };
  while (golden_next_ < golden->size() &&
         position((*golden)[golden_next_]) <= position(*resume_))
    ++golden_next_;
}

void TrialRunner::force_due(sim::DueKind kind) {
  if (stats_.due == sim::DueKind::None) stats_.due = kind;
}

std::string Workload::name() const {
  return std::string(precision_prefix(precision())) + base_name();
}

void Workload::register_output(std::uint32_t addr, std::uint32_t bytes) {
  outputs_.push_back({addr, bytes});
}

void Workload::register_program(const isa::Program* prog) {
  programs_.push_back(prog);
}

unsigned Workload::max_regs_per_thread() const {
  unsigned m = 0;
  for (const auto* p : programs_) m = std::max<unsigned>(m, p->regs_per_thread());
  return m;
}

std::uint32_t Workload::max_shared_bytes() const {
  std::uint32_t m = max_dynamic_shared_;
  for (const auto* p : programs_) m = std::max(m, p->shared_bytes());
  return m;
}

const sim::LaunchStats& Workload::golden_stats() const {
  if (!prepared_) throw std::logic_error("Workload::golden_stats before prepare()");
  return golden_stats_;
}

Instance make_instance(const WorkloadFactory& factory,
                       const Workload* prepared) {
  Instance inst;
  inst.w = factory();
  if (!inst.w) throw std::invalid_argument("workload factory returned null");
  inst.dev = std::make_unique<sim::Device>(inst.w->config().gpu);
  if (prepared != nullptr)
    inst.w->adopt_golden(*prepared);
  else
    inst.w->prepare(*inst.dev);
  return inst;
}

void Workload::adopt_golden(const Workload& ref) {
  if (!ref.prepared_)
    throw std::logic_error(name() + ": golden source is not prepared");
  build_programs();
  golden_ = ref.golden_;
  golden_stats_ = ref.golden_stats_;
  watchdog_budget_ = ref.watchdog_budget_;
  prepared_ = true;
}

void Workload::prepare(sim::Device& dev) {
  if (prepared_) return;
  build_programs();
  if (programs_.empty())
    throw std::logic_error(name() + ": build_programs registered no kernels");

  static obs::Counter& m_reference =
      obs::Registry::global().counter("gpurel_reference_trials_total");
  m_reference.add();
  dev.reset();
  outputs_.clear();
  setup(dev);
  TrialRunner runner(dev, nullptr, /*cycle_budget=*/0);
  execute(dev, runner);
  if (runner.due())
    throw std::runtime_error(name() + ": fault-free reference trial raised DUE: " +
                             std::string(sim::due_kind_name(runner.stats().due)));
  golden_stats_ = runner.stats();
  golden_stats_.finalize(config_.gpu.max_warps_per_sm);
  capture_golden(dev);
  // Budget: generous multiple of the clean runtime so fault-lengthened but
  // converging runs finish, while true hangs trip quickly.
  watchdog_budget_ = golden_stats_.cycles * 20 + 100000;
  prepared_ = true;

  // The reference outputs must verify against themselves.
  if (!verify(dev))
    throw std::logic_error(name() + ": golden outputs fail self-verification");
}

void Workload::capture_golden(sim::Device& dev) {
  golden_.clear();
  golden_.reserve(outputs_.size());
  for (const auto& region : outputs_) {
    std::vector<std::uint8_t> bytes(region.bytes);
    dev.memory().read_bytes(region.addr, bytes);
    golden_.push_back(std::move(bytes));
  }
}

Workload::OutputGeometry Workload::output_geometry() const {
  OutputGeometry g;
  g.elem_bytes = precision_bytes(precision());
  std::uint64_t total = 0;
  for (const auto& region : outputs_) total += region.bytes;
  g.cols = total / g.elem_bytes;
  return g;
}

std::vector<std::uint64_t> Workload::corrupted_elements(sim::Device& dev) const {
  const unsigned elem = std::max(1u, output_geometry().elem_bytes);
  std::vector<std::uint64_t> bad;
  std::uint64_t base = 0;  // element offset of the current region
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    std::vector<std::uint8_t> bytes(outputs_[i].bytes);
    dev.memory().read_bytes(outputs_[i].addr, bytes);
    const std::vector<std::uint8_t>& gold = golden_[i];
    const std::size_t n = std::min(bytes.size(), gold.size());
    for (std::size_t b = 0; b < n; b += elem) {
      for (std::size_t k = b; k < std::min(n, b + elem); ++k) {
        if (bytes[k] != gold[k]) {
          bad.push_back(base + b / elem);
          break;
        }
      }
    }
    base += outputs_[i].bytes / elem;
  }
  return bad;
}

bool Workload::verify(sim::Device& dev) {
  if (outputs_.empty())
    throw std::logic_error(name() + ": no output regions registered and verify() "
                                    "not overridden");
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    std::vector<std::uint8_t> bytes(outputs_[i].bytes);
    dev.memory().read_bytes(outputs_[i].addr, bytes);
    if (bytes != golden_[i]) return false;
  }
  return true;
}

TrialResult Workload::run_trial(sim::Device& dev, sim::SimObserver* obs,
                                const std::vector<sim::Snapshot>* golden_snaps) {
  if (!prepared_) throw std::logic_error(name() + ": run_trial before prepare()");
  fork_resident_ = nullptr;  // reset() below disarms dirty tracking
  dev.reset();
  outputs_.clear();
  setup(dev);
  TrialRunner runner(dev, obs, watchdog_budget_);
  runner.enable_drop(golden_snaps);
  execute(dev, runner);
  return classify(dev, runner);
}

void Workload::capture_prefix(sim::Device& dev,
                              const std::vector<std::uint64_t>& marks,
                              std::vector<sim::Snapshot>& out,
                              sim::SimObserver* obs) {
  if (!prepared_)
    throw std::logic_error(name() + ": capture_prefix before prepare()");
  if (!fork_safe())
    throw std::logic_error(name() + ": capture_prefix on a workload that is "
                                    "not fork-safe");
  fork_resident_ = nullptr;
  dev.reset();
  outputs_.clear();
  setup(dev);
  TrialRunner runner(dev, obs, watchdog_budget_);
  runner.enable_capture(&marks, &out);
  execute(dev, runner);
  if (runner.due())
    throw std::runtime_error(name() + ": fault-free capture run raised DUE: " +
                             std::string(sim::due_kind_name(runner.stats().due)));
  if (out.size() != marks.size())
    throw std::logic_error(name() + ": capture run missed snapshot marks");
}

TrialResult Workload::run_trial_forked(
    sim::Device& dev, const sim::Snapshot& snap, sim::SimObserver* obs,
    bool delta, const std::vector<sim::Snapshot>* golden_snaps) {
  if (!prepared_)
    throw std::logic_error(name() + ": run_trial_forked before prepare()");
  if (!fork_safe())
    throw std::logic_error(name() + ": run_trial_forked on a workload that is "
                                    "not fork-safe");
  // Delta fast path: the previous trial on this device forked from this very
  // snapshot with tracking armed, so memory differs from the snapshot image
  // only on tracked dirty pages, layout included. Copy those back and skip
  // reset + setup entirely (registered outputs and member addresses are
  // unchanged — allocation is deterministic and nothing was reset).
  if (delta && fork_resident_ == &snap && dev.memory().dirty_tracking() &&
      dev.memory().allocated_top() == snap.memory_top) {
    last_restore_bytes_ =
        dev.memory().restore_allocated_delta(snap.memory_top, snap.memory);
  } else {
    fork_resident_ = nullptr;
    dev.reset();
    outputs_.clear();
    setup(dev);
    // Bump allocation is deterministic, so a fresh setup() reproduces the
    // capture run's layout; the snapshot then supplies the bytes.
    if (dev.memory().allocated_top() != snap.memory_top)
      throw std::logic_error(name() + ": snapshot memory layout mismatch");
    dev.memory().restore_allocated(snap.memory_top, snap.memory);
    last_restore_bytes_ = snap.memory.size();
    if (delta) {
      dev.memory().set_dirty_tracking(true);
      fork_resident_ = &snap;
    }
  }
  TrialRunner runner(dev, obs, watchdog_budget_);
  runner.resume_from(snap, delta);
  runner.enable_drop(golden_snaps);
  execute(dev, runner);
  return classify(dev, runner);
}

TrialResult Workload::classify(sim::Device& dev, TrialRunner& runner) {
  TrialResult result;
  if (const sim::Snapshot* at = runner.dropped_at()) {
    // The trial rejoined the fault-free run at `at`, whose suffix it would
    // have replayed: Masked, with the golden stats. Device memory holds a
    // mid-run image, so verify() must not look at it.
    result.stats = golden_stats_;
    result.dropped = true;
    result.dropped_cycles =
        golden_stats_.cycles - (at->prior.cycles + at->exec.cycle);
    return result;
  }
  result.stats = runner.stats();
  result.stats.finalize(config_.gpu.max_warps_per_sm);
  if (runner.due()) {
    result.outcome = Outcome::Due;
    result.due = result.stats.due;
    result.cause = due_cause_of(result.due);
  } else {
    result.outcome = verify(dev) ? Outcome::Masked : Outcome::Sdc;
  }
  return result;
}

}  // namespace gpurel::core

// Workload abstraction: one of the paper's codes (or microbenchmarks),
// instantiated for a device, compiler profile, and numeric precision.
//
// A workload owns its compiled kernels and its input generation; a *trial* is
// one complete execution against fresh device memory, optionally observed
// (profiled, fault-injected, or beam-irradiated), classified against the
// golden fault-free output as Masked / SDC / DUE — exactly the taxonomy of
// the paper (§II).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/gpu_config.hpp"
#include "isa/compiler_profile.hpp"
#include "isa/program.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/observer.hpp"
#include "sim/snapshot.hpp"

namespace gpurel::core {

enum class Precision : std::uint8_t { Int32, Half, Single, Double };

/// Paper naming convention: H/F/D prefix for floating point, none for INT32.
std::string_view precision_prefix(Precision p);
std::string_view precision_name(Precision p);
/// Bytes of one element of this precision.
unsigned precision_bytes(Precision p);

enum class Outcome : std::uint8_t { Masked, Sdc, Due };
std::string_view outcome_name(Outcome o);

/// Coarse DUE-cause taxonomy ("Sources of DUEs" / paper §V): how a
/// detected-unrecoverable outcome manifested at the API boundary. Derived
/// from the engine's sim::DueKind detail (due_cause_of), which
/// Workload::classify used to collapse into a bare Outcome::Due.
enum class DueCause : std::uint8_t {
  None,             // not a DUE
  Hang,             // device stopped making progress (hidden-resource strike)
  LaunchFailure,    // launch aborted with a device exception
  Watchdog,         // runtime watchdog expired (stalled but live scheduler)
  BarrierDeadlock,  // blocked forever at a synchronization point
  Ecc,              // uncorrectable-ECC abort
  kCount,
};
std::string_view due_cause_name(DueCause c);
DueCause due_cause_of(sim::DueKind k);

/// How an iterative workload drives its convergence loop. Host stepping
/// reads the convergence flag from device memory between launches (simple,
/// but not fork-safe); device stepping chains per-iteration convergence
/// flags through device memory and issues a fixed launch sequence, leaving
/// only a post-loop host read — which is fork-safe.
enum class Stepping : std::uint8_t { Host, Device };

struct TrialResult {
  Outcome outcome = Outcome::Masked;
  sim::DueKind due = sim::DueKind::None;
  DueCause cause = DueCause::None;  // = due_cause_of(due) on a DUE
  sim::LaunchStats stats;  // merged over all launches of the trial
  /// The trial stopped at a golden snapshot its state matched (see
  /// Workload::run_trial): Masked, with the fault-free run's stats.
  bool dropped = false;
  /// Golden cycles a dropped trial did not simulate: the golden run's
  /// cycles minus the drop point. 0 unless dropped.
  std::uint64_t dropped_cycles = 0;
};

class Workload;
struct Instance;

/// Constructs fresh workload instances (campaign workers each own one).
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Drives the launches of one trial: applies the observer and the watchdog,
/// accumulates statistics, and latches the first DUE.
class TrialRunner {
 public:
  TrialRunner(sim::Device& dev, sim::SimObserver* obs, std::uint64_t cycle_budget);

  /// Launch a kernel; returns false once a DUE has occurred or the trial
  /// was dropped (callers must stop driving the trial). Safe to call after
  /// either (no-op, false).
  bool launch(const sim::KernelLaunch& kl);

  /// Force a DUE from host-side logic (e.g. an iterative workload whose
  /// convergence loop exceeds its bound because device data was corrupted).
  void force_due(sim::DueKind kind);

  /// Capture mode: while driving the trial, append a sim::Snapshot to `out`
  /// at each cumulative lane-instruction mark (sorted, strictly increasing;
  /// counted across all launches of the trial). Both pointers must outlive
  /// the trial.
  void enable_capture(const std::vector<std::uint64_t>* marks,
                      std::vector<sim::Snapshot>* out);
  /// Resume mode: launches before the snapshot's ordinal are skipped (their
  /// effects are part of the snapshot), the in-flight launch resumes from
  /// the saved executor state, and merged stats are preset with the
  /// snapshot's prior launches so watchdog arithmetic matches an unforked
  /// trial bit for bit. The snapshot must outlive the trial. `delta` permits
  /// the executor's dirty-flag delta restore when it is still resident on
  /// this snapshot (bit-identical either way).
  void resume_from(const sim::Snapshot& snap, bool delta = false);
  /// Drop mode (call after resume_from, if resuming): `golden` is the
  /// fault-free snapshot set of a capture run of this trial. At each of its
  /// marks past the trial's start point, the trial stops when its state
  /// equals the mark's (sim::ForkIO's drop role); launch() then returns
  /// false. The set must outlive the trial.
  void enable_drop(const std::vector<sim::Snapshot>* golden);

  bool due() const { return stats_.due != sim::DueKind::None; }
  /// The golden snapshot the trial stopped at, or null.
  const sim::Snapshot* dropped_at() const { return dropped_; }
  const sim::LaunchStats& stats() const { return stats_; }

 private:
  sim::Device& dev_;
  sim::SimObserver* obs_;
  std::uint64_t cycle_budget_;
  unsigned ordinal_ = 0;
  sim::LaunchStats stats_;
  const std::vector<std::uint64_t>* capture_marks_ = nullptr;
  std::vector<sim::Snapshot>* capture_out_ = nullptr;
  std::size_t capture_next_ = 0;
  const sim::Snapshot* resume_ = nullptr;
  bool resume_delta_ = false;
  const std::vector<sim::Snapshot>* golden_ = nullptr;
  std::size_t golden_next_ = 0;
  const sim::Snapshot* dropped_ = nullptr;
};

struct WorkloadConfig {
  arch::GpuConfig gpu;
  isa::CompilerProfile profile = isa::CompilerProfile::Cuda10;
  std::uint64_t input_seed = 0x5eed;
  /// Global scale knob for workload sizes (1 = default paper-sim sizes).
  double scale = 1.0;
};

class Workload {
 public:
  explicit Workload(WorkloadConfig config) : config_(std::move(config)) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Paper-style short name without precision prefix, e.g. "MxM".
  virtual std::string base_name() const = 0;
  virtual Precision precision() const = 0;
  /// Full display name, e.g. "FMXM" / "QUICKSORT".
  virtual std::string name() const;
  /// Whether the kernels model a precompiled vendor library (cuBLAS-like);
  /// SASSIFI cannot instrument such kernels on Kepler (paper §III-D).
  virtual bool uses_library() const { return false; }
  /// Whether execute() only drives launches — it never reads device memory
  /// host-side mid-trial (convergence checks, pivot reads) nor writes inputs
  /// between launches — so any point of the trial is reachable from a device
  /// snapshot alone and trials may be forked from a shared prefix.
  virtual bool fork_safe() const { return false; }

  const WorkloadConfig& config() const { return config_; }

  /// Build programs and run the fault-free reference trial: captures golden
  /// outputs, baseline statistics, and the watchdog budget. Must be called
  /// once before run_trial. Each reference trial bumps
  /// gpurel_reference_trials_total.
  void prepare(sim::Device& dev);
  bool prepared() const { return prepared_; }

  /// Statistics of the fault-free reference trial.
  const sim::LaunchStats& golden_stats() const;
  /// All compiled kernels of this workload.
  const std::vector<const isa::Program*>& programs() const { return programs_; }
  /// Maximum architectural registers per thread over all kernels.
  unsigned max_regs_per_thread() const;
  /// Maximum shared bytes per block over all kernels (static + dynamic).
  std::uint32_t max_shared_bytes() const;
  /// Cycle budget used as the trial watchdog.
  std::uint64_t watchdog_budget() const { return watchdog_budget_; }

  /// Logical shape of the verified output, for SDC corruption-geometry
  /// classification (obs::classify_sdc_geometry). Default: one row of
  /// precision-sized elements spanning the registered output regions (in
  /// registration order); matrix workloads override with their real shape.
  struct OutputGeometry {
    std::uint64_t rows = 1;
    std::uint64_t cols = 0;
    unsigned elem_bytes = 4;
  };
  virtual OutputGeometry output_geometry() const;

  /// Flattened (row-major over output_geometry) indices of output elements
  /// whose bytes differ from golden. Reads live device memory, so call it
  /// right after a trial classified as SDC, before the next reset.
  std::vector<std::uint64_t> corrupted_elements(sim::Device& dev) const;

  /// Execute one trial against fresh device memory and classify the result.
  /// Given `golden_snaps`, the snapshot set capture_prefix produced for this
  /// workload and inputs, the trial stops at the first of its marks where it
  /// has rejoined the fault-free run: the observer claims no hook and the
  /// simulated state equals the snapshot. It is then classified Masked with
  /// the golden stats and reports `dropped` and the golden cycles it
  /// skipped; the calling layer counts drops. By determinism the result is
  /// the one the whole trial would produce.
  TrialResult run_trial(sim::Device& dev, sim::SimObserver* obs = nullptr,
                        const std::vector<sim::Snapshot>* golden_snaps = nullptr);

  /// Run one fault-free trial, capturing a snapshot at each cumulative
  /// lane-instruction mark (sorted, strictly increasing, all below the
  /// trial's total). `obs` (may be null) observes the whole run and gets
  /// on_capture after each snapshot. Requires prepare() and fork_safe();
  /// throws if the capture run raises a DUE or misses a mark.
  void capture_prefix(sim::Device& dev, const std::vector<std::uint64_t>& marks,
                      std::vector<sim::Snapshot>& out,
                      sim::SimObserver* obs = nullptr);

  /// Re-run the suffix of a trial from `snap`: device memory is rebuilt via
  /// setup() (bump allocation is deterministic, so addresses match), the
  /// allocated image is restored from the snapshot, and execution resumes at
  /// the saved cycle. With an observer whose side effects begin only after
  /// the snapshot's lane mark, the classification and merged stats are
  /// bit-identical to run_trial on the same fault.
  ///
  /// With `delta` set, dirty tracking is armed after the restore; when the
  /// next forked trial resumes from the *same* snapshot on the same device,
  /// the reset + setup + full image copy are replaced by a copy of only the
  /// pages/warps the previous suffix touched (O(footprint) instead of
  /// O(device image)). Any intervening plain trial, capture, or different
  /// snapshot falls back to the full path. Results are bit-identical.
  /// `golden_snaps` is run_trial's; marks at or before `snap` are skipped.
  TrialResult run_trial_forked(
      sim::Device& dev, const sim::Snapshot& snap,
      sim::SimObserver* obs = nullptr, bool delta = false,
      const std::vector<sim::Snapshot>* golden_snaps = nullptr);

  /// Bytes of snapshot image copied back by the most recent
  /// run_trial_forked restore (full image size, or the dirty subset on the
  /// delta fast path) — feeds gpurel_campaign_snapshot_restore_bytes_total.
  std::uint64_t last_restore_bytes() const { return last_restore_bytes_; }

 protected:
  // --- subclass interface -------------------------------------------------
  /// Compile kernels; call register_program for each.
  virtual void build_programs() = 0;
  /// Allocate and initialize inputs/outputs on a fresh device.
  virtual void setup(sim::Device& dev) = 0;
  /// Drive the launches of one trial (check runner.launch return values).
  virtual void execute(sim::Device& dev, TrialRunner& runner) = 0;
  /// Compare device outputs to golden. Default: byte-compare every region
  /// registered via register_output.
  virtual bool verify(sim::Device& dev);
  /// Capture golden data after the clean run into golden(). Default:
  /// snapshot registered output regions, one entry each.
  virtual void capture_golden(sim::Device& dev);
  /// The golden reference bytes. An override of capture_golden/verify keeps
  /// its reference here too, so make_instance's copy covers it.
  std::vector<std::vector<std::uint8_t>>& golden() { return golden_; }

  /// Register an output region for the default golden capture/verify.
  void register_output(std::uint32_t addr, std::uint32_t bytes);
  void register_program(const isa::Program* prog);
  std::uint32_t max_dynamic_shared_ = 0;  // subclasses set if they use it

  WorkloadConfig config_;

 private:
  struct OutputRegion {
    std::uint32_t addr;
    std::uint32_t bytes;
  };

  TrialResult classify(sim::Device& dev, TrialRunner& runner);
  /// prepare() without the reference trial: build programs and copy the
  /// golden state of `ref`, a prepared workload of the same factory.
  void adopt_golden(const Workload& ref);
  friend Instance make_instance(const WorkloadFactory& factory,
                                const Workload* prepared);

  std::vector<const isa::Program*> programs_;
  std::vector<OutputRegion> outputs_;
  std::vector<std::vector<std::uint8_t>> golden_;
  sim::LaunchStats golden_stats_;
  std::uint64_t watchdog_budget_ = 0;
  bool prepared_ = false;
  // Delta-restore residency: the snapshot whose image the device's dirty
  // tracking is diffing against (nullptr when the last trial was plain or
  // tracking was disarmed). Guarded by pointer identity plus the memory
  // watermark and the armed-tracking check in run_trial_forked.
  const sim::Snapshot* fork_resident_ = nullptr;
  std::uint64_t last_restore_bytes_ = 0;
};

/// A prepared workload and the device it runs on: what one campaign or beam
/// worker owns (see gpurel::run_per_worker).
struct Instance {
  std::unique_ptr<Workload> w;
  std::unique_ptr<sim::Device> dev;
};

/// Build a workload with `factory` and prepare it on a fresh device of its
/// configured GPU. Given `prepared`, an already prepared workload built by
/// the same factory, the new workload builds its programs and copies that
/// one's golden outputs, statistics and watchdog budget instead of running
/// the fault-free reference trial again; `prepared` is only read, so other
/// threads may run trials on it meanwhile. Throws std::invalid_argument
/// when the factory returns null.
Instance make_instance(const WorkloadFactory& factory,
                       const Workload* prepared = nullptr);

}  // namespace gpurel::core

// Observation and intervention interface used by the profiler, the fault
// injectors, and the beam simulator. The executor invokes the observer around
// every lane-level instruction execution and across every simulated-time
// advance; the Machine view gives controlled access to live architectural
// state (registers, shared memories, global memory) and a way to raise DUEs,
// which is how hidden-resource strikes manifest.
#pragma once

#include <cstdint>

#include "isa/instruction.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/registers.hpp"

namespace gpurel::sim {

struct WarpRt;
struct BlockRt;

/// Access to the live machine, valid during a launch.
class Machine {
 public:
  virtual ~Machine() = default;

  virtual GlobalMemory& global() = 0;
  /// Number of currently resident (not exited) warps.
  virtual std::size_t live_warp_count() const = 0;
  /// Architectural registers of a lane of a live warp (indices are dense over
  /// the live set and stable only until the next placement event).
  virtual ThreadRegs& live_warp_lane(std::size_t live_index, unsigned lane) = 0;
  /// Number of currently resident blocks.
  virtual std::size_t live_block_count() const = 0;
  /// Shared memory of a resident block.
  virtual SharedMemory& live_block_shared(std::size_t live_index) = 0;
  /// Abort the launch with the given DUE (takes effect at the next step).
  virtual void raise_due(DueKind kind) = 0;

  // Micro-architectural state access (per-SM scheduler caches, warp
  // scoreboards, CTA bookkeeping), used by the MicroArch injector. The
  // defaults expose nothing — a machine that models none of this state is
  // simply out of every micro-architectural injector's reach. Indices are
  // per-SM resident positions, stable only until the next placement event;
  // accessors return nullptr past the resident count (a strike on an
  // unoccupied slot corrupts nothing).
  virtual std::size_t sched_sm_count() const { return 0; }
  /// Round-robin cursor of one scheduler of one SM.
  virtual unsigned* sched_rr_cursor(std::size_t /*sm*/, unsigned /*scheduler*/) {
    return nullptr;
  }
  /// The SM's cached earliest-wake cycle.
  virtual std::uint64_t* sched_next_wake(std::size_t /*sm*/) { return nullptr; }
  /// Mark the SM's wake cache stale so the engine re-derives it at the next
  /// cycle boundary (call after mutating a warp's timing state).
  virtual void sched_touch(std::size_t /*sm*/) {}
  virtual std::size_t sm_warp_count(std::size_t /*sm*/) const { return 0; }
  /// Mutable per-warp state (PC, divergence stack, scoreboard ready times).
  /// Implementations flag the warp for full state restoration under
  /// delta-tracked snapshot resume.
  virtual WarpRt* sm_warp_state(std::size_t /*sm*/, std::size_t /*index*/) {
    return nullptr;
  }
  virtual std::size_t sm_block_count(std::size_t /*sm*/) const { return 0; }
  /// Mutable per-resident-block bookkeeping (retire/barrier counts).
  virtual BlockRt* sm_block_state(std::size_t /*sm*/, std::size_t /*index*/) {
    return nullptr;
  }
};

struct LaunchInfo {
  const KernelLaunch* launch = nullptr;
  unsigned ordinal = 0;  // launch index within the trial
};

/// Per-lane execution context handed to before_exec / after_exec.
/// before_exec runs after operand registers exist but before the instruction
/// executes (mutating sources changes the executed operation — used for
/// address-generation faults); after_exec runs after writeback (mutating the
/// destination models an output fault; mutating *next_pc models an
/// instruction-address fault).
struct ExecContext {
  std::uint64_t cycle = 0;
  unsigned sm = 0;
  unsigned lane = 0;
  unsigned warp_id = 0;          // launch-unique warp ordinal
  std::uint32_t pc = 0;
  const isa::Instr* instr = nullptr;
  ThreadRegs* regs = nullptr;
  std::uint32_t* next_pc = nullptr;
  std::uint32_t eff_addr = 0;    // effective address for memory ops (post-exec)
  unsigned cta = 0;              // linear CTA id within the grid
};

/// One issued warp instruction (all guard-true lanes together), handed to
/// on_warp_issue before the per-lane before_exec/after_exec pair. Read-only:
/// issue observers profile and trace; they never mutate state.
struct WarpIssue {
  std::uint64_t cycle = 0;
  unsigned sm = 0;
  unsigned warp_id = 0;          // launch-unique warp ordinal
  std::uint32_t pc = 0;
  const isa::Instr* instr = nullptr;
  std::uint32_t exec_mask = 0;   // guard-true lanes participating this issue
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// Capability bits for wants(): which hook families this observer actually
  /// implements. The executor reads the mask at launch start and re-reads it
  /// at every cycle boundary, skipping dispatch (including per-lane
  /// ExecContext construction) for unclaimed hooks, so bare and
  /// sparsely-instrumented runs pay nothing for the hooks they don't use.
  /// on_launch_begin/on_launch_end and on_capture are always delivered (a
  /// few calls per launch — not worth a bit). Overriding wants() is a pure
  /// optimization: the
  /// default claims everything, and because default hook bodies are no-ops,
  /// skipping an unclaimed hook never changes behaviour. An observer that
  /// overrides a hook MUST claim its bit while calls to it could do
  /// anything; it may drop a bit mid-launch once every later call would be a
  /// no-op (a fired one-shot injection). Dropping kWantsAfterExec switches
  /// the remainder of the launch onto the executor's hook-free lane driver.
  static constexpr unsigned kWantsBeforeExec = 1u << 0;
  static constexpr unsigned kWantsAfterExec = 1u << 1;
  static constexpr unsigned kWantsWarpIssue = 1u << 2;
  static constexpr unsigned kWantsTimeAdvance = 1u << 3;
  static constexpr unsigned kWantsBlocks = 1u << 4;  // placed + retired
  static constexpr unsigned kWantsAll = 0x1f;
  virtual unsigned wants() const { return kWantsAll; }

  virtual void on_launch_begin(const LaunchInfo&, Machine&) {}
  virtual void on_launch_end(const LaunchStats&) {}
  /// A capture run (sim::ForkIO::marks) just appended one snapshot. Every
  /// hook of the captured state has been delivered and none after it, so
  /// state an observer accumulates here matches that snapshot exactly; the
  /// site-counting pass records its per-class counts this way.
  virtual void on_capture() {}
  /// Simulated time advanced from `from` (exclusive) to `to` (inclusive).
  virtual void on_time_advance(std::uint64_t /*from*/, std::uint64_t /*to*/,
                               Machine&) {}
  /// Once per issued warp instruction (see WarpIssue); for deep profiling
  /// and tracing. Initial placement fires before on_launch_begin.
  virtual void on_warp_issue(const WarpIssue&) {}
  /// Block lifecycle on its SM (cta is the linear CTA id within the grid);
  /// drives per-SM residency tracks in the timeline trace. Blocks still
  /// resident when a launch aborts (DUE) see no on_block_retired.
  virtual void on_block_placed(unsigned /*sm*/, unsigned /*cta*/,
                               std::uint64_t /*cycle*/) {}
  virtual void on_block_retired(unsigned /*sm*/, unsigned /*cta*/,
                                std::uint64_t /*cycle*/) {}
  virtual void before_exec(ExecContext&) {}
  virtual void after_exec(ExecContext&) {}
};

/// Fans every hook out to two observers in order (a, then b). Used by the
/// profiler to run deep profiling and timeline tracing over a single trial.
/// Either may be null.
class TeeObserver final : public SimObserver {
 public:
  TeeObserver(SimObserver* a, SimObserver* b) : a_(a), b_(b) {}

  unsigned wants() const override {
    return (a_ != nullptr ? a_->wants() : 0u) |
           (b_ != nullptr ? b_->wants() : 0u);
  }

  void on_launch_begin(const LaunchInfo& li, Machine& m) override {
    if (a_ != nullptr) a_->on_launch_begin(li, m);
    if (b_ != nullptr) b_->on_launch_begin(li, m);
  }
  void on_launch_end(const LaunchStats& s) override {
    if (a_ != nullptr) a_->on_launch_end(s);
    if (b_ != nullptr) b_->on_launch_end(s);
  }
  void on_capture() override {
    if (a_ != nullptr) a_->on_capture();
    if (b_ != nullptr) b_->on_capture();
  }
  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       Machine& m) override {
    if (a_ != nullptr) a_->on_time_advance(from, to, m);
    if (b_ != nullptr) b_->on_time_advance(from, to, m);
  }
  void on_warp_issue(const WarpIssue& wi) override {
    if (a_ != nullptr) a_->on_warp_issue(wi);
    if (b_ != nullptr) b_->on_warp_issue(wi);
  }
  void on_block_placed(unsigned sm, unsigned cta, std::uint64_t cycle) override {
    if (a_ != nullptr) a_->on_block_placed(sm, cta, cycle);
    if (b_ != nullptr) b_->on_block_placed(sm, cta, cycle);
  }
  void on_block_retired(unsigned sm, unsigned cta,
                        std::uint64_t cycle) override {
    if (a_ != nullptr) a_->on_block_retired(sm, cta, cycle);
    if (b_ != nullptr) b_->on_block_retired(sm, cta, cycle);
  }
  void before_exec(ExecContext& ctx) override {
    if (a_ != nullptr) a_->before_exec(ctx);
    if (b_ != nullptr) b_->before_exec(ctx);
  }
  void after_exec(ExecContext& ctx) override {
    if (a_ != nullptr) a_->after_exec(ctx);
    if (b_ != nullptr) b_->after_exec(ctx);
  }

 private:
  SimObserver* a_;
  SimObserver* b_;
};

}  // namespace gpurel::sim

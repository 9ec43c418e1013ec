// The SIMT execution engine: places blocks on SMs up to the occupancy limit,
// schedules warps through per-SM dual-issue schedulers with a register
// scoreboard and per-port throughput limits, executes instructions
// functionally at issue time, and advances simulated time event-to-event
// (skipping stall gaps). It is simultaneously the functional model (producing
// outputs and fault effects) and the timing model (producing cycles, IPC and
// achieved occupancy for the paper's Eq. 4).
//
// The engine is event-driven and allocation-free after warm-up:
//   - each SM caches `next_wake`, the earliest cycle any of its warps can
//     issue, so finding the next event is an O(sm_count) scan and SMs with
//     nothing to do are skipped entirely;
//   - a per-launch decode table (sim/decode.hpp) replaces per-issue opcode
//     switch dispatch in the scoreboard/issue/retire path;
//   - BlockRt/WarpRt/SharedMemory come from watermark pools owned by the
//     executor and are reused across run() calls, so repeated trials (fault
//     campaigns, beam experiments) stop exercising the allocator;
//   - each lane-level warp instruction dispatches on its opcode once:
//     exec_lanes' one switch states every opcode's lane semantics and runs
//     them under one of two lane drivers (hook-free, or calling after_exec
//     after each lane), so hooked and hook-free runs share one definition
//     of the ISA;
//   - the observer's wants() mask is read at launch start and re-read at
//     cycle boundaries; unclaimed hook families are skipped without
//     constructing their contexts, so an observer that drops its claims
//     mid-launch (a fired one-shot injection) runs the rest on the
//     hook-free driver.
// All of this is behaviour-preserving: scheduling order, stats, outcomes and
// memory images are bit-identical to the straightforward engine
// (tests/test_sched_equivalence.cpp pins this against recorded goldens).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/gpu_config.hpp"
#include "sim/decode.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/observer.hpp"
#include "sim/snapshot.hpp"
#include "sim/timing.hpp"
#include "sim/warp.hpp"

namespace gpurel::sim {

class Executor final : public Machine {
 public:
  Executor(const arch::GpuConfig& gpu, GlobalMemory& global);

  /// Run one kernel launch to completion (or DUE). `max_cycles` is the
  /// watchdog budget (0 = no watchdog). The observer may be null. The
  /// executor is reusable: state is re-initialised at the start of each run
  /// while pooled block/warp storage is retained across calls. `fork` (may
  /// be null) selects snapshot capture, mid-launch resume and/or the
  /// reconvergence drop — see sim/snapshot.hpp; either way the simulated
  /// schedule, stats, and memory effects are bit-identical to a plain run
  /// reaching the same state (a dropped run stops early at a state the
  /// plain run reaches).
  LaunchStats run(const KernelLaunch& launch, SimObserver* observer,
                  std::uint64_t max_cycles, unsigned launch_ordinal = 0,
                  ForkIO* fork = nullptr);

  // Machine interface ------------------------------------------------------
  GlobalMemory& global() override { return global_; }
  std::size_t live_warp_count() const override { return live_warps_.size(); }
  ThreadRegs& live_warp_lane(std::size_t live_index, unsigned lane) override;
  std::size_t live_block_count() const override { return live_blocks_.size(); }
  SharedMemory& live_block_shared(std::size_t live_index) override;
  void raise_due(DueKind kind) override;

  // Micro-architectural state (fault/microarch.hpp strikes through these).
  std::size_t sched_sm_count() const override { return sms_.size(); }
  unsigned* sched_rr_cursor(std::size_t sm, unsigned scheduler) override {
    auto& rr = sms_[sm].rr;
    return scheduler < rr.size() ? &rr[scheduler] : nullptr;
  }
  std::uint64_t* sched_next_wake(std::size_t sm) override {
    return &sms_[sm].next_wake;
  }
  void sched_touch(std::size_t sm) override { sms_[sm].touched = true; }
  std::size_t sm_warp_count(std::size_t sm) const override {
    return sms_[sm].warps.size();
  }
  WarpRt* sm_warp_state(std::size_t sm, std::size_t index) override {
    auto& warps = sms_[sm].warps;
    if (index >= warps.size()) return nullptr;
    // Scoreboard arrays are only copied back for dirty slots under a
    // delta-tracked snapshot restore; handing out mutable access must flag
    // the warp or a forked follow-up trial would resume on corrupted state.
    warps[index]->dirty = true;
    return warps[index];
  }
  std::size_t sm_block_count(std::size_t sm) const override {
    return sms_[sm].blocks.size();
  }
  BlockRt* sm_block_state(std::size_t sm, std::size_t index) override {
    auto& blocks = sms_[sm].blocks;
    return index < blocks.size() ? blocks[index] : nullptr;
  }

 private:
  struct SmState {
    std::vector<BlockRt*> blocks;
    std::vector<WarpRt*> warps;           // all resident warps (stable order)
    std::vector<unsigned> rr;             // round-robin cursor per scheduler
    unsigned resident_warps = 0;
    // Earliest next_try over schedulable (not exited, not at-barrier) warps;
    // uint64 max when none. Recomputed only after events that touched the SM.
    std::uint64_t next_wake = 0;
    bool touched = false;
  };

  BlockRt* acquire_block();
  /// Takes the next pool slot and clears it for a fresh warp of the
  /// current launch: registers and scoreboard entries below program_regs()
  /// and every predicate.
  WarpRt* acquire_warp();
  /// Registers per thread of the current launch's program: the range warps
  /// clear on placement and snapshots keep.
  unsigned program_regs() const;
  /// Snapshot the live executor + allocated global memory at end-of-cycle.
  Snapshot make_snapshot(std::uint64_t cycle, std::uint64_t lane_mark) const;
  /// Rebuild pools, SM lists, and counters from a snapshot (global memory is
  /// restored by the caller — see Workload::run_trial_forked). Pool slot i
  /// takes snapshot entity i. `delta` is valid only while the executor is
  /// resident on the same snapshot (slot i still holds entity i, and every
  /// architectural mutation since the last restore set a dirty flag): clean
  /// slots then keep their registers, scoreboards and shared memory, while
  /// scalars, SM lists and counters are always rewritten. Bit-identical
  /// either way.
  void restore_snapshot(const ExecutorSnapshot& snap, bool delta);
  /// Whether the live state at end-of-cycle `cycle` equals `snap`: executor
  /// scalars, SM lists and cursors, every resident block and warp (compared
  /// in place, in make_snapshot's order, with the entity of the same index)
  /// and the allocated global memory. Allocates nothing. Registers and
  /// scoreboard entries at or above the program's regs_per_thread, which no
  /// instruction reads and the snapshot does not keep, and the LaunchStats
  /// accumulators, which no scheduling decision reads, are not compared.
  bool matches(const Snapshot& snap, std::uint64_t cycle) const;
  void refresh_wake(SmState& s);
  void place_block(unsigned sm, unsigned linear_block, std::uint64_t cycle);
  void remove_block(BlockRt* block, std::uint64_t cycle);
  void rebuild_live_lists();
  void schedule_sm(unsigned sm, std::uint64_t cycle);
  /// Returns true if an instruction was issued (false: warp was re-timed).
  bool try_issue(WarpRt& w, std::uint64_t cycle,
                 std::array<unsigned,
                            static_cast<std::size_t>(UnitGroup::kCount)>& used);
  std::uint64_t dependency_ready(const WarpRt& w, const DecodedInstr& d) const;
  void issue_instr(WarpRt& w, std::uint64_t cycle);
  /// Executes one lane-level (not control, not MMA) instruction. Its one
  /// switch states each opcode's lane semantics once, as a callable
  /// op(regs, lane, eff_addr) that writes a memory op's effective address
  /// into `eff_addr`, and hands it to `for_lanes(op)`, which applies it to
  /// the lanes. issue_instr passes one of two drivers: a hook-free one and
  /// one that calls after_exec after each lane.
  template <typename ForLanes>
  void exec_lanes(WarpRt& w, const isa::Instr& in, ForLanes&& for_lanes);
  void exec_mma(WarpRt& w, const isa::Instr& in, std::uint64_t cycle,
                std::uint32_t pc);
  void exec_control(WarpRt& w, const isa::Instr& in, std::uint32_t pc,
                    std::uint32_t guard_mask, std::uint64_t cycle);
  void release_barrier_if_complete(BlockRt& block, std::uint64_t cycle);
  void retire_writeback(WarpRt& w, const DecodedInstr& d, std::uint64_t cycle);
  std::uint32_t guard_true_mask(const WarpRt& w, const isa::Instr& in) const;
  /// Linear CTA id of the warp's block (matches the block lifecycle hooks).
  unsigned linear_cta(const WarpRt& w) const {
    return w.block->cta_y * launch_->grid.x + w.block->cta_x;
  }

  const arch::GpuConfig& gpu_;
  GlobalMemory& global_;
  SimObserver* obs_ = nullptr;
  unsigned hooks_ = 0;            // obs_->wants(), cached per launch

  const KernelLaunch* launch_ = nullptr;
  const isa::Instr* code_ = nullptr;   // launch_->program's code, cached
  std::vector<DecodedInstr> decode_;   // rebuilt per run (per program x GPU)
  std::vector<SmState> sms_;
  std::vector<std::vector<std::uint32_t>> rings_;  // per-scheduler candidates
  std::vector<BlockRt*> live_blocks_;
  std::vector<WarpRt*> live_warps_;
  // Watermark pools: slots [0, *_used_) are live this run; capacity persists
  // across runs so steady-state trials perform no allocation.
  std::vector<std::unique_ptr<BlockRt>> block_pool_;
  std::vector<std::unique_ptr<WarpRt>> warp_pool_;
  std::size_t blocks_used_ = 0;
  std::size_t warps_used_ = 0;
  unsigned next_block_ = 0;       // next linear block to place
  unsigned total_blocks_ = 0;
  unsigned completed_blocks_ = 0;
  unsigned next_warp_id_ = 0;
  unsigned max_blocks_per_sm_ = 0;
  DueKind due_ = DueKind::None;
  LaunchStats stats_;
  // Snapshot this executor's pools were last restored from with delta
  // tracking requested; nullptr after any plain (non-resume) run. While set,
  // pool slot i mirrors snapshot entity i up to the dirty flags.
  const Snapshot* resident_ = nullptr;
};

}  // namespace gpurel::sim

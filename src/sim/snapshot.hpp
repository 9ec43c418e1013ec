// Device-state snapshots for checkpoint-fork trial batching.
//
// The trials of one fault campaign, and the runs of one beam experiment,
// are bit-identical until their fault fires, so the fault-free prefix can be
// simulated once and every trial forked from the saved state (core/fork.hpp
// holds the machinery both layers share). A Snapshot captures everything a
// trial resumed mid-launch needs: the allocated global-memory image, every
// resident block's shared memory and warp state (the registers the launch
// program uses, predicates, divergence stacks, scoreboards), the per-SM
// scheduler state (warp order, round-robin cursors, next_wake caches), and
// the in-progress LaunchStats accumulators. The executor's watermark pools
// keep the copies bounded: only live blocks and warps are captured, and
// retired pool slots are never touched again.
//
// Snapshots are taken at the end of a simulated cycle, keyed by the
// cumulative lane-instruction count of the trial (the issue-domain counter
// stats_.lane_instructions accumulates). The executor reports each capture
// to its observer (SimObserver::on_capture) right after appending the
// snapshot. That is how a layer records its own running state at each
// snapshot while it captures, in one fault-free run with one boundary: the
// campaign's site-counting pass its per-class site counts
// (fault/campaign.cpp), the beam's capture pass its time integrals
// (beam/experiment.cpp). The same set is the fault-free reference every
// trial is checked against at those boundaries: a trial whose state equals
// a snapshot again stops there (ForkIO's drop role).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/warp.hpp"

namespace gpurel::sim {

/// One resident warp, with its BlockRt pointer replaced by an index into
/// ExecutorSnapshot::blocks. Exited warps of still-resident blocks are
/// included: they stay in the SM's warp list until their block retires.
/// Registers and their scoreboard entries are kept only below the launch
/// program's regs_per_thread (ExecutorSnapshot::regs): no instruction names
/// a register at or above it, operand widths included
/// (EveryProgram.OperandsStayBelowRegsPerThread), and warps do not outlive
/// their launch. Executor::acquire_warp clears the same range, so that is
/// all the register state a warp's execution can read.
struct WarpSnap {
  std::size_t block_index = 0;
  unsigned sm = 0;
  unsigned scheduler = 0;
  unsigned warp_id = 0;
  unsigned warp_in_block = 0;
  std::uint32_t pc = 0;
  std::uint32_t active = 0;
  std::vector<StackEntry> stack;
  bool exited = false;
  bool at_barrier = false;
  std::uint64_t next_try = 0;
  std::array<std::uint64_t, 8> pred_ready{};
  std::array<std::uint8_t, 32> preds{};  // ThreadRegs::preds by lane
  std::vector<std::uint64_t> reg_ready;  // registers [0, regs)
  /// Lane-major: register r of lane l at regs[l * ExecutorSnapshot::regs + r].
  std::vector<std::uint32_t> regs;
};

/// One resident block; `warps` indexes into ExecutorSnapshot::warps in the
/// same order as the live BlockRt::warps list.
struct BlockSnap {
  unsigned cta_x = 0;
  unsigned cta_y = 0;
  unsigned sm = 0;
  unsigned threads = 0;
  unsigned warps_total = 0;
  unsigned warps_exited = 0;
  unsigned warps_at_barrier = 0;
  SharedMemory shared{0};
  std::vector<std::size_t> warps;
};

/// Per-SM scheduler state: block/warp lists as index sequences (order is
/// scheduling-relevant), round-robin cursors, and the cached wake cycle.
struct SmSnap {
  std::vector<std::size_t> blocks;
  std::vector<std::size_t> warps;
  std::vector<unsigned> rr;
  unsigned resident_warps = 0;
  std::uint64_t next_wake = 0;
};

/// Full executor state at the end of one simulated cycle of one launch.
struct ExecutorSnapshot {
  std::uint64_t cycle = 0;
  /// Registers per lane each WarpSnap keeps: the launch program's
  /// regs_per_thread.
  unsigned regs = 0;
  LaunchStats stats;  // in-progress accumulators (not finalized)
  std::vector<BlockSnap> blocks;
  std::vector<WarpSnap> warps;
  std::vector<SmSnap> sms;
  unsigned next_block = 0;
  unsigned total_blocks = 0;
  unsigned completed_blocks = 0;
  unsigned next_warp_id = 0;
  unsigned max_blocks_per_sm = 0;
};

/// A trial-level fork point: executor state plus the global-memory image and
/// the position within the trial's launch sequence.
struct Snapshot {
  /// Cumulative lane instructions of the trial at the capture boundary
  /// (issue-domain: sum of exec-mask popcounts over all launches so far).
  std::uint64_t lane_mark = 0;
  /// Which launch of the trial was in flight (TrialRunner ordinal).
  unsigned launch_ordinal = 0;
  /// TrialRunner stats accumulated over the launches *before* the one in
  /// flight; resuming presets the runner with these so watchdog arithmetic
  /// and merged trial stats match the unforked run bit for bit.
  LaunchStats prior;
  std::uint32_t memory_top = 0;
  std::vector<std::uint8_t> memory;  // bytes [GlobalMemory::kNullGuard, top)
  ExecutorSnapshot exec;

  /// Bytes this snapshot retains: the memory image, every captured warp
  /// (its fixed part and stack, plus 32 lanes x 4 bytes and one 8-byte
  /// scoreboard entry per register the program uses: 4.6 KB per warp at 32
  /// registers) and every block's shared memory.
  std::uint64_t bytes() const {
    std::uint64_t n = memory.size();
    for (const WarpSnap& w : exec.warps)
      n += sizeof(WarpSnap) + w.stack.size() * sizeof(StackEntry) +
           w.reg_ready.size() * sizeof(std::uint64_t) +
           w.regs.size() * sizeof(std::uint32_t);
    for (const BlockSnap& b : exec.blocks) n += b.shared.size();
    return n;
  }
};

/// Capture/resume/drop channel of Executor::run. Capture excludes the other
/// two roles; resume and drop may share a launch:
///  - capture: `marks` names cumulative lane-instruction thresholds (sorted,
///    strictly increasing); at the end of the first cycle whose cumulative
///    count (lane_base + this launch's lane_instructions) reaches each
///    remaining mark, a Snapshot is appended to `out`, next_mark advances and
///    the observer's on_capture runs. The caller threads next_mark/lane_base
///    across the trial's launches and stamps launch_ordinal/prior on the
///    appended snapshots.
///  - resume: `resume` points at a previously captured Snapshot; the run
///    restores executor state from it (the caller restores global memory)
///    and continues from the saved cycle instead of placing blocks afresh.
///  - drop: `golden` is the fault-free snapshot set a capture run of the
///    same trial produced, and `next_golden` the first of its marks this
///    trial has not passed. At the cycle boundaries where capture runs, every
///    mark the trial has reached (an earlier launch ordinal, or this one at a
///    cumulative lane count at or past the mark's lane_mark) is used up, and
///    the last one checked: when it is this launch's, sits at exactly this
///    lane count and cycle, `prior_cycles` (the caller's cycles before this
///    launch) equals its prior.cycles, the observer claims no hook, and the
///    live executor state and global memory equal it, the run stops there and
///    sets `dropped`. By determinism the rest of the trial would replay the
///    fault-free suffix, so the caller reports the fault-free result.
struct ForkIO {
  const std::vector<std::uint64_t>* marks = nullptr;
  std::size_t next_mark = 0;
  std::uint64_t lane_base = 0;
  std::vector<Snapshot>* out = nullptr;
  const Snapshot* resume = nullptr;
  /// Resume-only: permit a delta restore. When the executor is still
  /// resident on `resume` (same snapshot, every mutation since the last
  /// restore flagged by the dirty bits), the registers, scoreboards and
  /// shared memory of clean warp/block slots are not copied back; otherwise
  /// every slot is copied. Either way the restored state is bit-identical.
  bool delta = false;
  const std::vector<Snapshot>* golden = nullptr;
  std::size_t next_golden = 0;
  std::uint64_t prior_cycles = 0;
  /// Drop output: the golden snapshot the run stopped at, or null.
  const Snapshot* dropped = nullptr;
};

}  // namespace gpurel::sim

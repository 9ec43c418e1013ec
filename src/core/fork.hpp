// Checkpoint-fork batching, shared by fault campaigns and beam experiments.
//
// Both layers run many trials of one prepared workload that stay identical
// to the fault-free run until their fault fires. When the workload is
// fork-safe and enough trials reach the simulator, one fault-free capture
// pass on the reference instance records a snapshot set (sim/snapshot.hpp)
// at evenly spaced lane-instruction marks. Every trial then resumes from the
// deepest snapshot that lies before its fire point, and stops at the first
// later snapshot its state matches again (the reconvergence drop). Two
// things stay with each layer: how a trial's fire point compares with a
// snapshot, and the observer state a forked trial starts from. This piece
// holds the rest: the epoch cap, the marks, the bucketing, the execution
// order, the fork-or-plain trial call and the pool gauge. See
// docs/ARCHITECTURE.md §10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "sim/snapshot.hpp"

namespace gpurel::core {

/// Default fork epoch count: CampaignConfig::fork_epochs,
/// job::RunOptions::fork_epochs and every beam experiment.
inline constexpr unsigned kDefaultForkEpochs = 8;
/// A snapshot pays for its capture and full restores only when several
/// trials resume from it: a layer captures at most one epoch per this many
/// trials it simulates, and runs plain below that.
inline constexpr unsigned kTrialsPerForkEpoch = 4;

/// Epochs to capture for `trials` simulated trials of `w`: `requested`,
/// capped at one per kTrialsPerForkEpoch trials; 0 (run plain) when the
/// workload is not fork-safe.
unsigned fork_epoch_cap(const Workload& w, unsigned requested,
                        std::uint64_t trials);

/// Up to `epochs` snapshot marks evenly spaced over `total` cumulative lane
/// instructions, each strictly inside (0, total).
std::vector<std::uint64_t> fork_marks(std::uint64_t total, unsigned epochs);

/// The deepest snapshot a trial may resume from: the largest e such that
/// fires_after(i) holds for every i <= e, or -1 when it fails for the first.
/// fires_after(i) says whether the trial's fault fires at or after snapshot
/// i; snapshots are in capture order, so it holds for a prefix of them.
template <class FiresAfter>
int deepest_epoch(std::size_t snapshots, FiresAfter&& fires_after) {
  int e = -1;
  while (static_cast<std::size_t>(e + 1) < snapshots &&
         fires_after(static_cast<std::size_t>(e + 1)))
    ++e;
  return e;
}

/// One layer's fork state: the snapshot set, captured once on the reference
/// instance before workers start and only read by them, and the snapshot
/// each trial resumes from. Empty when the layer runs plain.
struct ForkSet {
  std::vector<sim::Snapshot> snaps;
  /// By trial id: the snapshot the trial resumes from, -1 for cycle 0.
  /// Empty (plain) until the layer buckets its trials.
  std::vector<int> epoch;

  bool forking() const { return !epoch.empty(); }
  /// The snapshot trial `id` resumes from; -1 when it starts at cycle 0.
  int epoch_of(std::size_t id) const { return forking() ? epoch[id] : -1; }

  /// Capture the snapshot set at fork_marks(golden lane instructions,
  /// epochs) over one fault-free trial of the reference instance, with
  /// `obs` (may be null) observing the whole pass and told of each
  /// snapshot (SimObserver::on_capture). Returns false, capturing nothing,
  /// when there is no mark. The layer then sizes `epoch` to its trial list
  /// (-1 each) and buckets its trials with deepest_epoch.
  bool capture(Instance& ref, unsigned epochs, sim::SimObserver* obs);

  /// Positions [begin, end) in execution order, where position p runs trial
  /// ids[p]. Under forking they are grouped by epoch, stably, so that
  /// consecutive trials resume from the same snapshot and its delta restore
  /// applies. Per-trial seeding makes every result independent of order.
  std::vector<std::size_t> chunk_order(std::span<const std::size_t> ids,
                                       std::size_t begin,
                                       std::size_t end) const;

  /// Run one trial on `inst`: resume from snapshot `epoch` (delta restore)
  /// or, when it is -1, from cycle 0. Under forking either way with the
  /// snapshot set as drop marks.
  TrialResult run(Instance& inst, int epoch, sim::SimObserver* obs) const;

  /// Raise `gauge` to the bytes retained for forking, if more: the snapshot
  /// set plus every instance's dirty-tracking scratch.
  void record_pool(obs::Gauge& gauge,
                   const std::vector<Instance>& instances) const;
};

}  // namespace gpurel::core

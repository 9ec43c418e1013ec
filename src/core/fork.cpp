#include "core/fork.hpp"

#include <algorithm>
#include <numeric>

namespace gpurel::core {

unsigned fork_epoch_cap(const Workload& w, unsigned requested,
                        std::uint64_t trials) {
  if (!w.fork_safe()) return 0;
  return static_cast<unsigned>(
      std::min<std::uint64_t>(requested, trials / kTrialsPerForkEpoch));
}

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

bool ForkSet::capture(Instance& ref, unsigned epochs, sim::SimObserver* obs) {
  if (epochs == 0) return false;
  const std::vector<std::uint64_t> marks =
      fork_marks(ref.w->golden_stats().lane_instructions, epochs);
  if (marks.empty()) return false;
  ref.w->capture_prefix(*ref.dev, marks, snaps, obs);
  return true;
}

std::vector<std::size_t> ForkSet::chunk_order(std::span<const std::size_t> ids,
                                              std::size_t begin,
                                              std::size_t end) const {
  std::vector<std::size_t> ps(end - begin);
  std::iota(ps.begin(), ps.end(), begin);
  if (forking())
    std::stable_sort(ps.begin(), ps.end(), [&](std::size_t a, std::size_t b) {
      return epoch[ids[a]] < epoch[ids[b]];
    });
  return ps;
}

TrialResult ForkSet::run(Instance& inst, int epoch_index,
                         sim::SimObserver* obs) const {
  const std::vector<sim::Snapshot>* golden = forking() ? &snaps : nullptr;
  if (epoch_index < 0) return inst.w->run_trial(*inst.dev, obs, golden);
  return inst.w->run_trial_forked(
      *inst.dev, snaps[static_cast<std::size_t>(epoch_index)], obs,
      /*delta=*/true, golden);
}

void ForkSet::record_pool(obs::Gauge& gauge,
                          const std::vector<Instance>& instances) const {
  std::uint64_t bytes = 0;
  for (const sim::Snapshot& s : snaps) bytes += s.bytes();
  for (const Instance& inst : instances)
    if (inst.dev) bytes += inst.dev->memory().dirty_scratch_bytes();
  gauge.set_max(static_cast<double>(bytes));
}

}  // namespace gpurel::core

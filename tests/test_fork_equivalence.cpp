// Checkpoint-fork equivalence: campaigns executed with fork batching
// (CampaignConfig::fork_epochs > 0) must reproduce the unforked campaign bit
// for bit — per-trial outcomes, per-trial simulated cycles, and every
// aggregate tally — across worker counts and epoch bucketings.
// Also pins the Workload-level snapshot contract directly: a trial resumed
// from a captured prefix with no fault behaves exactly like a fresh trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "beam/experiment.hpp"
#include "common/bits.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "isa/kernel_builder.hpp"
#include "job/runner.hpp"
#include "job/serialize.hpp"
#include "kernels/graph.hpp"
#include "kernels/matmul.hpp"
#include "kernels/microbench.hpp"
#include "kernels/registry.hpp"
#include "kernels/sort.hpp"
#include "obs/metrics.hpp"
#include "sim/device.hpp"

namespace gpurel::fault {
namespace {

using core::Outcome;
using core::Precision;
using core::Stepping;
using core::WorkloadConfig;
using kernels::ArithMicro;
using kernels::Bfs;
using kernels::Ccl;
using kernels::Mergesort;
using kernels::MicroOp;
using kernels::MxM;
using kernels::Quicksort;

struct RunOut {
  CampaignResult result;
  std::vector<Outcome> outcomes;
  std::vector<std::uint64_t> cycles;
};

RunOut run(const Injector& inj, const WorkloadFactory& factory,
           const InjectionBudget& budget, unsigned workers,
           unsigned fork_epochs) {
  CampaignConfig cc;
  cc.budget() = budget;
  cc.seed = 0xf0f0;
  cc.workers = workers;
  cc.fork_epochs = fork_epochs;
  RunOut out;
  cc.trial_outcomes_out = &out.outcomes;
  cc.trial_cycles_out = &out.cycles;
  out.result = run_campaign(inj, factory, cc);
  return out;
}

void expect_same_counts(const OutcomeCounts& a, const OutcomeCounts& b,
                        const char* what) {
  EXPECT_EQ(a.masked, b.masked) << what;
  EXPECT_EQ(a.sdc, b.sdc) << what;
  EXPECT_EQ(a.due, b.due) << what;
}

void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  for (std::size_t k = 0; k < a.per_kind.size(); ++k) {
    expect_same_counts(a.per_kind[k].counts, b.per_kind[k].counts, "per_kind");
    EXPECT_EQ(a.per_kind[k].dynamic_sites, b.per_kind[k].dynamic_sites);
  }
  for (const Stratum& s : kStrata) {
    const std::string what(s.key);
    expect_same_counts(a.*s.counts, b.*s.counts, what.c_str());
    EXPECT_EQ(a.*s.site_count, b.*s.site_count) << what;
  }
}

void expect_same_trials(const RunOut& a, const RunOut& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    EXPECT_EQ(a.outcomes[t], b.outcomes[t]) << "trial " << t;
    EXPECT_EQ(a.cycles[t], b.cycles[t]) << "trial " << t;
  }
  expect_same_result(a.result, b.result);
}

TEST(ForkEquivalence, MxmAllModesAcrossWorkersAndEpochs) {
  auto inj = make_injector("SASSIFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] {
    return std::make_unique<MxM>(wc, Precision::Single, 16);
  };
  InjectionBudget budget;
  budget.injections_per_kind = 6;
  budget.rf_injections = 6;
  budget.pred_injections = 4;
  budget.ia_injections = 6;
  budget.store_value_injections = 4;
  budget.store_addr_injections = 4;

  const RunOut base =
      run(*inj, factory, budget, 1, /*fork_epochs=*/0);
  ASSERT_GT(base.result.total_injections(), 0u);
  // A mix of outcomes, otherwise the equivalence below is vacuous.
  OutcomeCounts all;
  for (const Outcome o : base.outcomes) all.add(o);
  EXPECT_GT(all.masked, 0u);
  EXPECT_GT(all.sdc + all.due, 0u);

  for (const unsigned workers : {1u, 2u, 4u}) {
    const RunOut forked =
        run(*inj, factory, budget, workers, 4);
    expect_same_trials(base, forked);
  }
  for (const unsigned epochs : {1u, 9u}) {
    const RunOut forked =
        run(*inj, factory, budget, 2, epochs);
    expect_same_trials(base, forked);
  }
}

TEST(ForkEquivalence, MultiLaunchWorkloadForksMidSequence) {
  // Mergesort runs one launch per merge pass, so epochs land at nonzero
  // launch ordinals and exercise the skip/resume path of TrialRunner.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] { return std::make_unique<Mergesort>(wc); };
  InjectionBudget budget;
  budget.injections_per_kind = 4;

  const RunOut base = run(*inj, factory, budget, 1, 0);
  ASSERT_GT(base.result.total_injections(), 0u);
  for (const unsigned epochs : {3u, 7u}) {
    const RunOut forked = run(*inj, factory, budget, 2, epochs);
    expect_same_trials(base, forked);
  }
}

TEST(ForkEquivalence, MicroArchStrataForkAcrossLaunches) {
  // Micro-architectural strikes are bucketed by fire cycle, not site index;
  // on a multi-launch workload the epochs straddle launch boundaries.
  auto inj = make_injector("MicroArch");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] { return std::make_unique<Mergesort>(wc); };
  InjectionBudget budget;
  budget.injections_per_kind = 0;
  budget.sched_injections = 4;
  budget.scoreboard_injections = 4;
  budget.cta_injections = 4;
  budget.warp_control_injections = 4;

  const RunOut base = run(*inj, factory, budget, 1, 0);
  ASSERT_EQ(base.result.total_injections(), 16u);
  expect_same_trials(base, run(*inj, factory, budget, 2, 4));
}

TEST(ForkEquivalence, HighAvfMicrobenchKeepsSdcProfile) {
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] {
    return std::make_unique<ArithMicro>(wc, Precision::Int32, MicroOp::Fma);
  };
  InjectionBudget budget;
  budget.injections_per_kind = 12;

  const RunOut base = run(*inj, factory, budget, 1, 0);
  OutcomeCounts all;
  for (const Outcome o : base.outcomes) all.add(o);
  EXPECT_GT(all.sdc, 0u);  // integer chains: flips survive to the output
  const RunOut forked = run(*inj, factory, budget, 4, 5);
  expect_same_trials(base, forked);
}

TEST(ForkEquivalence, DeviceSteppedWorkloadsForkAcrossWorkersAndEpochs) {
  // The device-stepped variants of the iterative codes (BFS-DEV, CCL-DEV,
  // QUICKSORT-DEV) chain their convergence through device memory, so — unlike
  // their host-stepped shapes — they fork. Equivalence must hold across
  // worker counts and epoch bucketings for each.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  const std::vector<WorkloadFactory> factories{
      [&] { return std::make_unique<Bfs>(wc, 0, 4, Stepping::Device); },
      [&] { return std::make_unique<Ccl>(wc, 16, Stepping::Device); },
      [&] { return std::make_unique<Quicksort>(wc, 0, Stepping::Device); },
  };
  InjectionBudget budget;
  budget.injections_per_kind = 3;

  for (const auto& factory : factories) {
    ASSERT_TRUE(factory()->fork_safe());
    const RunOut base = run(*inj, factory, budget, 1, 0);
    ASSERT_GT(base.result.total_injections(), 0u);
    for (const unsigned workers : {1u, 2u, 4u}) {
      const RunOut forked =
          run(*inj, factory, budget, workers, 4);
      expect_same_trials(base, forked);
    }
    for (const unsigned epochs : {1u, 6u}) {
      const RunOut forked =
          run(*inj, factory, budget, 2, epochs);
      expect_same_trials(base, forked);
    }
  }
}

TEST(ForkEquivalence, DeltaFastPathRestoresFewerBytesSameResult) {
  // Workload level: the second consecutive fault-free resume from the same
  // snapshot takes the dirty-tracking fast path — fewer bytes copied, same
  // outcome and stats as the full restore.
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
  MxM w(wc, Precision::Single, 16);
  sim::Device dev(wc.gpu);
  w.prepare(dev);
  const core::TrialResult fresh = w.run_trial(dev);

  const std::uint64_t total = w.golden_stats().lane_instructions;
  std::vector<sim::Snapshot> snaps;
  w.capture_prefix(dev, {total / 2}, snaps);
  ASSERT_EQ(snaps.size(), 1u);

  const core::TrialResult full =
      w.run_trial_forked(dev, snaps[0], nullptr, /*delta=*/false);
  const std::uint64_t full_bytes = w.last_restore_bytes();
  // First delta call arms tracking (full restore), second takes the fast path.
  w.run_trial_forked(dev, snaps[0], nullptr, /*delta=*/true);
  const core::TrialResult fast =
      w.run_trial_forked(dev, snaps[0], nullptr, /*delta=*/true);
  const std::uint64_t fast_bytes = w.last_restore_bytes();

  EXPECT_EQ(full.outcome, core::Outcome::Masked);
  EXPECT_EQ(fast.outcome, core::Outcome::Masked);
  EXPECT_EQ(fast.stats.cycles, fresh.stats.cycles);
  EXPECT_EQ(fast.stats.lane_instructions, fresh.stats.lane_instructions);
  EXPECT_EQ(full.stats.cycles, fresh.stats.cycles);
  EXPECT_GT(fast_bytes, 0u);
  EXPECT_LT(fast_bytes, full_bytes);
}

TEST(ForkEquivalence, SharedSnapshotPoolServesEveryWorker) {
  // One capture pass on the reference instance serves all three workers'
  // forked trials, bit for bit equal to the unforked campaign.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] { return std::make_unique<Mergesort>(wc); };
  InjectionBudget budget;
  budget.injections_per_kind = 4;

  const RunOut base = run(*inj, factory, budget, 1, 0);
  ASSERT_GT(base.result.total_injections(), 0u);
  expect_same_trials(base, run(*inj, factory, budget, 3, 4));
}

TEST(ForkEquivalence, NonForkSafeWorkloadFallsBackUnchanged) {
  // Quicksort reads pivots/counters back to the host mid-trial, so it is not
  // fork-safe: fork_epochs must be silently ignored, not break the campaign.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] { return std::make_unique<Quicksort>(wc) ; };
  ASSERT_FALSE(factory()->fork_safe());
  InjectionBudget budget;
  budget.injections_per_kind = 2;

  const RunOut base = run(*inj, factory, budget, 1, 0);
  const RunOut forked = run(*inj, factory, budget, 2, 4);
  expect_same_trials(base, forked);
}

TEST(ForkEquivalence, CapturePrefixAndFaultFreeResume) {
  // Workload-level contract: a trial resumed from any captured epoch with no
  // fault attached finishes Masked with exactly the fresh trial's stats.
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
  MxM w(wc, Precision::Single, 16);
  sim::Device dev(wc.gpu);
  w.prepare(dev);
  ASSERT_TRUE(w.fork_safe());

  const core::TrialResult fresh = w.run_trial(dev);
  EXPECT_EQ(fresh.outcome, core::Outcome::Masked);

  const std::uint64_t total = w.golden_stats().lane_instructions;
  ASSERT_GT(total, 4u);
  const std::vector<std::uint64_t> marks{total / 4, total / 2, 3 * total / 4};
  std::vector<sim::Snapshot> snaps;
  w.capture_prefix(dev, marks, snaps);
  ASSERT_EQ(snaps.size(), marks.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].lane_mark, marks[i]);
    const core::TrialResult resumed = w.run_trial_forked(dev, snaps[i]);
    EXPECT_EQ(resumed.outcome, core::Outcome::Masked) << "epoch " << i;
    EXPECT_EQ(resumed.stats.cycles, fresh.stats.cycles) << "epoch " << i;
    EXPECT_EQ(resumed.stats.lane_instructions, fresh.stats.lane_instructions)
        << "epoch " << i;
    EXPECT_EQ(resumed.stats.warp_instructions, fresh.stats.warp_instructions)
        << "epoch " << i;
  }

  // Given the snapshot set, a fault-free trial stops at the first mark after
  // its start: Masked, the golden cycle count, dropped, and the golden
  // cycles past that mark left unsimulated. From the last mark there is none
  // to stop at, and the trial runs to its end.
  auto expect_stops_at = [&](auto&& trial, std::size_t next,
                             const std::string& what) {
    const core::TrialResult r = trial();
    EXPECT_EQ(r.outcome, core::Outcome::Masked) << what;
    EXPECT_EQ(r.stats.cycles, fresh.stats.cycles) << what;
    const bool stops = next < snaps.size();
    EXPECT_EQ(r.dropped, stops) << what;
    EXPECT_EQ(r.dropped_cycles,
              stops ? fresh.stats.cycles - (snaps[next].prior.cycles +
                                            snaps[next].exec.cycle)
                    : 0u)
        << what;
  };
  expect_stops_at([&] { return w.run_trial(dev, nullptr, &snaps); }, 0,
                  "from cycle 0");
  for (std::size_t i = 0; i < snaps.size(); ++i)
    expect_stops_at(
        [&] { return w.run_trial_forked(dev, snaps[i], nullptr, true, &snaps); },
        i + 1, "from epoch " + std::to_string(i));
}

TEST(ForkEquivalence, StateCompareSeesEverySingleChange) {
  // The drop compares the whole live state with the snapshot, in place. A
  // fault-free trial resumed from one snapshot stops at the next one; with
  // any single part of that snapshot changed, it must not stop, and runs to
  // its end with the same result.
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
  MxM w(wc, Precision::Single, 16);
  sim::Device dev(wc.gpu);
  w.prepare(dev);
  const std::uint64_t total = w.golden_stats().lane_instructions;
  std::vector<sim::Snapshot> snaps;
  w.capture_prefix(dev, {total / 3, 2 * total / 3}, snaps);
  ASSERT_EQ(snaps.size(), 2u);
  ASSERT_FALSE(snaps[1].exec.warps.empty());
  ASSERT_FALSE(snaps[1].memory.empty());

  auto stops = [&](const sim::Snapshot& mark) {
    const std::vector<sim::Snapshot> golden{mark};
    const core::TrialResult r =
        w.run_trial_forked(dev, snaps[0], nullptr, true, &golden);
    EXPECT_EQ(r.outcome, core::Outcome::Masked);
    EXPECT_EQ(r.stats.cycles, w.golden_stats().cycles);
    return r.dropped;
  };
  EXPECT_TRUE(stops(snaps[1]));

  using Change = std::function<void(sim::Snapshot&)>;
  auto warp = [](sim::Snapshot& s) -> sim::WarpSnap& { return s.exec.warps[0]; };
  auto sm = [&](sim::Snapshot& s) -> sim::SmSnap& {
    return s.exec.sms[warp(s).sm];
  };
  // The snapshot keeps registers [0, regs_per_thread) of each lane, so the
  // highest one kept is the last a change must reach.
  const unsigned regs = snaps[1].exec.regs;
  ASSERT_EQ(regs, w.max_regs_per_thread());
  ASSERT_GT(regs, 1u);
  const std::vector<std::pair<std::string, Change>> changes{
      {"register bit", [&](sim::Snapshot& s) { warp(s).regs[0] ^= 1u; }},
      {"last register",
       [&](sim::Snapshot& s) { warp(s).regs[regs - 1] ^= 1u; }},
      {"last lane's last register",
       [&](sim::Snapshot& s) { warp(s).regs.back() ^= 1u; }},
      {"predicate", [&](sim::Snapshot& s) { warp(s).preds[31] ^= 1u; }},
      {"reg_ready", [&](sim::Snapshot& s) { warp(s).reg_ready[0] += 1; }},
      {"last reg_ready",
       [&](sim::Snapshot& s) { warp(s).reg_ready[regs - 1] += 1; }},
      {"pc", [&](sim::Snapshot& s) { warp(s).pc ^= 1u; }},
      {"active", [&](sim::Snapshot& s) { warp(s).active ^= 1u; }},
      {"stack",
       [&](sim::Snapshot& s) {
         warp(s).stack.push_back({sim::StackEntry::Kind::Ssy, 0, 0});
       }},
      {"next_try", [&](sim::Snapshot& s) { warp(s).next_try += 1; }},
      {"rr", [&](sim::Snapshot& s) { sm(s).rr[0] += 1; }},
      {"next_wake", [&](sim::Snapshot& s) { sm(s).next_wake += 1; }},
      {"warps_at_barrier",
       [](sim::Snapshot& s) { s.exec.blocks[0].warps_at_barrier += 1; }},
      {"shared byte",
       [](sim::Snapshot& s) { s.exec.blocks[0].shared.flip_bit(0); }},
      {"global byte", [](sim::Snapshot& s) { s.memory[0] ^= 1u; }},
      {"cycle", [](sim::Snapshot& s) { s.exec.cycle += 1; }},
      {"prior cycles", [](sim::Snapshot& s) { s.prior.cycles += 1; }},
  };
  for (const auto& [what, change] : changes) {
    sim::Snapshot mark = snaps[1];
    change(mark);
    EXPECT_FALSE(stops(mark)) << what;
  }
}

TEST(ForkEquivalence, ReconvergedTrialsStopAtAGoldenMark) {
  // An RF flip into a register that is overwritten before it is read leaves
  // the trial back on the fault-free run, and it stops at the next snapshot
  // its state equals. That changes no outcome or trial cycle count, drops
  // the same trials at any worker count, and never happens without a
  // snapshot set or under the propagation tracker, which claims after_exec
  // throughout.
  auto inj = make_injector("SASSIFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 0.05};
  auto factory = [&] {
    return std::make_unique<MxM>(wc, Precision::Single, 16);
  };
  InjectionBudget budget;
  budget.injections_per_kind = 2;
  budget.rf_injections = 24;
  obs::Counter& dropped =
      obs::Registry::global().counter("gpurel_campaign_dropped_trials_total");
  auto counted = [&](auto&& campaign, std::uint64_t& drops) {
    const std::uint64_t before = dropped.value();
    auto out = campaign();
    drops = dropped.value() - before;
    return out;
  };

  std::uint64_t plain = 0, one = 0, four = 0;
  const RunOut base =
      counted([&] { return run(*inj, factory, budget, 1, 0); }, plain);
  expect_same_trials(
      base, counted([&] { return run(*inj, factory, budget, 1, 4); }, one));
  expect_same_trials(
      base, counted([&] { return run(*inj, factory, budget, 4, 4); }, four));
  EXPECT_EQ(plain, 0u);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(four, one);

  auto records = [&](unsigned epochs) {
    CampaignConfig cc;
    cc.budget() = budget;
    cc.seed = 0xf0f0;
    cc.fork_epochs = epochs;
    cc.propagation = true;
    std::vector<obs::PropagationRecord> recs;
    cc.propagation_records_out = &recs;
    run_campaign(*inj, factory, cc);
    std::vector<std::string> dumps;
    for (const obs::PropagationRecord& r : recs) dumps.push_back(r.to_json().dump());
    return dumps;
  };
  std::uint64_t traced = 0;
  const std::vector<std::string> want = records(0);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(counted([&] { return records(4); }, traced), want);
  EXPECT_EQ(traced, 0u);
}

/// A fork-safe single-launch workload: one block of kWarps warps running a
/// dependent add chain, so every warp stays resident at every epoch. Counts
/// its execute() calls (the fault-free passes plus one per trial) through
/// `executes`, which must outlive the workload; instances on different
/// workers share it.
class AddChainWorkload final : public core::Workload {
 public:
  static constexpr unsigned kWarps = 4;

  AddChainWorkload(WorkloadConfig cfg, std::atomic<unsigned>* executes)
      : Workload(std::move(cfg)), executes_(executes) {}
  std::string base_name() const override { return "ADDCHAIN"; }
  Precision precision() const override { return Precision::Int32; }
  bool fork_safe() const override { return true; }

 protected:
  void build_programs() override {
    isa::KernelBuilder b("addchain", config_.profile);
    isa::Reg acc = b.reg();
    b.movi(acc, 1);
    for (int i = 0; i < 32; ++i) b.iaddi(acc, acc, 3);
    program_ = b.build();
    register_program(&program_);
  }
  void setup(sim::Device&) override {}
  void execute(sim::Device&, core::TrialRunner& runner) override {
    executes_->fetch_add(1, std::memory_order_relaxed);
    runner.launch({&program_, {1, 1}, {32 * kWarps, 1}, 0, {}});
  }
  bool verify(sim::Device&) override { return true; }

 private:
  std::atomic<unsigned>* executes_;
  isa::Program program_;
};

TEST(ForkEquivalence, ForkedCampaignSimulatesItsPrefixOnce) {
  // The site-counting pass is also the capture pass: besides prepare()'s
  // reference run, a forked campaign runs one fault-free pass, then one
  // (forked or plain) run per trial.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  auto factory = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  CampaignConfig cc;
  cc.injections_per_kind = 8;  // 16 trials: enough for 4 epochs
  cc.fork_epochs = 4;
  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  const std::uint64_t snapshots_before = snapshots.value();
  const CampaignResult r = run_campaign(*inj, factory, cc);
  ASSERT_EQ(snapshots.value() - snapshots_before, 4u);  // it did fork
  const std::uint64_t trials = r.total_injections();
  ASSERT_GT(trials, 0u);
  EXPECT_EQ(executes.load(), 1u + 1u + trials);
}

TEST(ForkEquivalence, DefaultCampaignForksOnlyForkSafeWorkloads) {
  // A campaign that sets nothing forks a fork-safe workload at the default
  // epoch count, and runs a host-stepped one plain.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  const WorkloadFactory fork_safe = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  const WorkloadFactory host_stepped = [&] {
    return std::make_unique<Quicksort>(wc);
  };
  ASSERT_FALSE(host_stepped()->fork_safe());
  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  // AddChain executes two kinds (IADD, OTHER): 2 * 16 trials fund every
  // default epoch.
  for (const auto& [factory, ipk, expected] :
       {std::tuple{fork_safe, 16u, std::uint64_t{kDefaultForkEpochs}},
        std::tuple{host_stepped, 2u, std::uint64_t{0}}}) {
    CampaignConfig cc;
    cc.injections_per_kind = ipk;
    const std::uint64_t before = snapshots.value();
    run_campaign(*inj, factory, cc);
    EXPECT_EQ(snapshots.value() - before, expected);
  }
}

TEST(ForkEquivalence, FewTrialCampaignsCaptureFewerEpochs) {
  // At most one epoch per kTrialsPerForkEpoch trials the process executes:
  // a campaign with too few trials runs plain, and a shard or a resume
  // counts only the trials it runs. Results match plain throughout.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  auto factory = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  auto expect_epochs = [&](const CampaignConfig& cc, std::uint64_t expected,
                           const std::string& what) {
    CampaignConfig plain = cc;
    plain.fork_epochs = 0;
    const CampaignResult want = run_campaign(*inj, factory, plain);
    const std::uint64_t before = snapshots.value();
    const CampaignResult got = run_campaign(*inj, factory, cc);
    EXPECT_EQ(snapshots.value() - before, expected) << what;
    expect_same_result(want, got);
  };
  // AddChain executes two kinds, so a campaign runs 2 * ipk trials.
  static_assert(kTrialsPerForkEpoch == 4, "cases below assume 4");
  struct Case {
    unsigned ipk, shard_count;
    std::uint64_t expected;
  };
  for (const Case c : {Case{1, 1, 0},     // 2 trials: plain
                       Case{2, 1, 1},     // 4 trials: one epoch
                       Case{8, 1, 4},     // 16 trials
                       Case{16, 2, 4}}) {  // 32 trials, 16 on this shard
    CampaignConfig cc;
    cc.injections_per_kind = c.ipk;
    cc.shard_count = c.shard_count;
    expect_epochs(cc, c.expected,
                  std::to_string(c.ipk) + " per kind, " +
                      std::to_string(c.shard_count) + " shards");
  }

  // 32 trials resumed from a checkpoint: only the trials left count.
  CampaignConfig cc;
  cc.injections_per_kind = 16;
  std::vector<CampaignCheckpoint> checkpoints;
  {
    CampaignConfig producer = cc;  // one worker: the checkpoints are fixed
    producer.checkpoint_every = 1;
    producer.on_checkpoint = [&](const CampaignCheckpoint& ck) {
      checkpoints.push_back(ck);
    };
    run_campaign(*inj, factory, producer);
  }
  ASSERT_FALSE(checkpoints.empty());
  const CampaignCheckpoint& first = checkpoints.front();
  ASSERT_GT(first.trials_done, 0u);
  cc.resume = &first;
  expect_epochs(cc, (32 - first.trials_done) / kTrialsPerForkEpoch,
                "resumed at " + std::to_string(first.trials_done));
}

TEST(ForkEquivalence, DefaultJobRunForks) {
  // job::run_job with default run options forks a fork-safe campaign too
  // (8 per kind funds every default epoch on MXM).
  fault::InjectionBudget budget;
  budget.injections_per_kind = 8;
  const job::JobSpec spec = job::campaign_spec(
      arch::GpuConfig::kepler_k40c(2), {"MXM", Precision::Single}, "NVBitFI",
      budget, /*seed=*/7, /*input_seed=*/0x5eed, /*scale=*/0.05);
  obs::Counter& snapshots =
      obs::Registry::global().counter("gpurel_campaign_snapshots_total");
  const std::uint64_t before = snapshots.value();
  job::run_job(spec);
  EXPECT_EQ(snapshots.value() - before, std::uint64_t{kDefaultForkEpochs});
}

TEST(ForkEquivalence, OneReferenceTrialPerCampaignAtAnyWorkerCount) {
  // Extra workers copy the reference instance's golden state, so a campaign
  // runs prepare()'s fault-free trial once at any worker count: plain and
  // forked, 4 workers execute exactly as often as 1. At least 32 trials, so
  // every worker pulls a chunk (each used to prepare its own instance).
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  auto factory = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  obs::Counter& reference =
      obs::Registry::global().counter("gpurel_reference_trials_total");
  for (const unsigned epochs : {0u, 4u}) {
    for (const unsigned workers : {1u, 4u}) {
      CampaignConfig cc;
      cc.injections_per_kind = 32;
      cc.fork_epochs = epochs;
      cc.workers = workers;
      executes = 0;
      const std::uint64_t reference_before = reference.value();
      const CampaignResult r = run_campaign(*inj, factory, cc);
      const std::uint64_t trials = r.total_injections();
      ASSERT_GE(trials, 32u);
      // prepare()'s reference trial, the site-counting pass (also the
      // capture pass when forking), then one run per trial.
      EXPECT_EQ(executes.load(), 2u + trials)
          << workers << " workers, " << epochs << " epochs";
      EXPECT_EQ(reference.value() - reference_before, 1u)
          << workers << " workers, " << epochs << " epochs";
    }
  }
}

TEST(ForkEquivalence, OneReferenceTrialPerBeamAtAnyWorkerCount) {
  // The same for beams: 4 workers execute the reference trial once, then
  // one capture pass (this fork-safe workload forks), plus one run per
  // strike that reaches the simulator (the rest resolve when sampled).
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  auto factory = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  obs::Registry& metrics = obs::Registry::global();
  obs::Counter& simulated = metrics.counter("gpurel_beam_simulated_runs_total");
  obs::Counter& reference = metrics.counter("gpurel_reference_trials_total");
  obs::Counter& snapshots = metrics.counter("gpurel_beam_snapshots_total");
  beam::BeamConfig bc;
  bc.runs = 48;
  bc.ecc = false;
  bc.workers = 4;
  const std::uint64_t simulated_before = simulated.value();
  const std::uint64_t reference_before = reference.value();
  const std::uint64_t snapshots_before = snapshots.value();
  beam::run_beam(beam::CrossSectionDb::kepler(), factory, bc);
  const std::uint64_t runs = simulated.value() - simulated_before;
  ASSERT_GE(runs, 32u);
  ASSERT_GT(snapshots.value() - snapshots_before, 0u);  // it did fork
  EXPECT_EQ(executes.load(), 1u + 1u + runs);
  EXPECT_EQ(reference.value() - reference_before, 1u);
}

TEST(ForkEquivalence, ForkedBeamsMatchPlainDigests) {
  // run_beam forks every fork-safe workload whose simulated runs fund an
  // epoch. The digests were recorded by a run_beam that never forked, so
  // each case is a fork == plain check of the serialized result at 1, 3 and
  // 4 workers and of a 3-way shard merge, with ECC on, with ECC off, and
  // under natural flux at about 2 strikes per run. The codes are fork-safe:
  // multi-launch MERGESORT, a tensor-core MMA code and a stencil. Every
  // case captures snapshots and forks runs, and some runs drop.
  struct Case {
    bool volta;
    kernels::CatalogEntry entry;
    std::array<std::uint64_t, 3> digest;  // ECC on, ECC off, natural
  };
  const std::vector<Case> cases = {
      {false,
       {"MERGESORT", Precision::Int32},
       {0xbe61446d7c98e90bull, 0xbb22833c6eb0b2e8ull, 0x05da5c73e3605cf2ull}},
      {true,
       {"GEMM-MMA", Precision::Half},
       {0xb0541c19313f31cfull, 0x3f84dd2ff77c1b07ull, 0x7a50c3a74dafecb8ull}},
      {false,
       {"HOTSPOT", Precision::Single},
       {0x2f15a0142cb0ab83ull, 0x2e45bdb43edb4c05ull, 0x54c8343ea9f8cbe9ull}},
  };
  obs::Registry& metrics = obs::Registry::global();
  obs::Counter& snapshots = metrics.counter("gpurel_beam_snapshots_total");
  obs::Counter& forked = metrics.counter("gpurel_beam_forked_runs_total");
  obs::Counter& dropped = metrics.counter("gpurel_beam_dropped_runs_total");
  const std::uint64_t dropped_before = dropped.value();
  for (const Case& c : cases) {
    const arch::GpuConfig gpu = c.volta ? arch::GpuConfig::volta_v100(2)
                                        : arch::GpuConfig::kepler_k40c(2);
    const auto db = beam::CrossSectionDb::for_arch(gpu.arch);
    const auto factory = kernels::workload_factory(
        c.entry.base, c.entry.precision,
        {gpu, isa::CompilerProfile::Cuda10, 0x5eed, 0.05});
    const std::string name = kernels::entry_name(c.entry);
    ASSERT_TRUE(factory()->fork_safe()) << name;

    beam::BeamConfig on;
    on.runs = 64;
    on.seed = 0xf02c;
    beam::BeamConfig off = on;
    off.ecc = false;
    off.runs = 48;
    beam::BeamConfig natural = off;
    natural.mode = beam::BeamMode::Natural;
    natural.runs = 24;
    {
      // Σw = device_sigma_rate * T; aim for 2 strikes per run.
      beam::BeamConfig probe = on;
      probe.runs = 0;
      const double rate = beam::run_beam(db, factory, probe).device_sigma_rate;
      const auto w = factory();
      sim::Device dev(gpu);
      w->prepare(dev);
      natural.flux_scale =
          2.0 / (rate * static_cast<double>(w->golden_stats().cycles));
    }
    const std::array<const beam::BeamConfig*, 3> modes = {&on, &off, &natural};
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const std::string what = name + " mode " + std::to_string(m);
      auto digest = [](const beam::BeamResult& r) {
        return fnv1a64(job::beam_result_to_json(r).dump());
      };
      const std::uint64_t snapshots_before = snapshots.value();
      const std::uint64_t forked_before = forked.value();
      for (const unsigned workers : {1u, 3u, 4u}) {
        beam::BeamConfig bc = *modes[m];
        bc.workers = workers;
        EXPECT_EQ(digest(beam::run_beam(db, factory, bc)), c.digest[m])
            << what << " at " << workers << " workers";
      }
      std::optional<beam::BeamResult> merged;
      for (unsigned shard = 0; shard < 3; ++shard) {
        beam::BeamConfig bc = *modes[m];
        bc.workers = 2;
        bc.shard_index = shard;
        bc.shard_count = 3;
        const beam::BeamResult r = beam::run_beam(db, factory, bc);
        if (merged) merged->merge(r); else merged = r;
      }
      EXPECT_EQ(digest(*merged), c.digest[m]) << what << ", 3 shards merged";
      EXPECT_GT(snapshots.value() - snapshots_before, 0u) << what;
      EXPECT_GT(forked.value() - forked_before, 0u) << what;
    }
  }
  EXPECT_GT(dropped.value() - dropped_before, 0u);
}

TEST(ForkEquivalence, SnapshotPoolGaugeCountsWarpState) {
  // The pool gauge counts what the snapshot set retains, executor state
  // included: every one of the 4 snapshots holds all kWarps warps, each with
  // 32 lanes of the registers the program uses and their scoreboard
  // entries, far more than this workload's empty memory image.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj->profile(),
                          0x5eed, 1.0};
  std::atomic<unsigned> executes{0};
  auto factory = [&] {
    return std::make_unique<AddChainWorkload>(wc, &executes);
  };
  CampaignConfig cc;
  cc.injections_per_kind = 8;  // 16 trials: enough for 4 epochs
  cc.fork_epochs = 4;
  run_campaign(*inj, factory, cc);
  const unsigned regs = core::make_instance(factory).w->max_regs_per_thread();
  ASSERT_GT(regs, 0u);
  const double per_warp =
      sizeof(sim::WarpSnap) +
      regs * (32.0 * sizeof(std::uint32_t) + sizeof(std::uint64_t));
  EXPECT_GE(obs::Registry::global()
                .gauge("gpurel_campaign_snapshot_pool_bytes")
                .value(),
            4.0 * AddChainWorkload::kWarps * per_warp);
}

/// Flips bit 0 of one register of the first live warp's lane 0 when the
/// trial's simulated time reaches `cycle` (launch cycles are offset by the
/// launches before, `base` of them already behind a forked trial), then
/// claims nothing.
class FlipAtCycle final : public sim::SimObserver {
 public:
  FlipAtCycle(std::uint64_t cycle, unsigned reg, std::uint64_t base)
      : cycle_(cycle), reg_(static_cast<std::uint8_t>(reg)), base_(base) {}
  unsigned wants() const override { return fired_ ? 0u : kWantsTimeAdvance; }
  void on_launch_end(const sim::LaunchStats& st) override {
    base_ += st.cycles;
  }
  void on_time_advance(std::uint64_t from, std::uint64_t to,
                       sim::Machine& m) override {
    if (fired_ || cycle_ < base_ + from || cycle_ >= base_ + to) return;
    fired_ = true;
    if (m.live_warp_count() == 0) return;
    sim::ThreadRegs& r = m.live_warp_lane(0, 0);
    r.set(reg_, r.get(reg_) ^ 1u);
  }

 private:
  std::uint64_t cycle_;
  std::uint8_t reg_;
  std::uint64_t base_;
  bool fired_ = false;
};

TEST(ForkEquivalence, PoisonedHighRegistersChangeNoResult) {
  // Executor pool slots are reused across launches, and a placed warp is
  // cleared, like a forked trial's warp is restored, only below its
  // program's regs_per_thread. What an earlier launch left above that must
  // not reach a result: after a kernel that writes every register of 256
  // slots, the same trials, plain and forked, with a register strike at
  // eight points of the run, end exactly as on a fresh device.
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
  isa::KernelBuilder pb("poison", wc.profile);
  for (unsigned r = 0; r < isa::kRZ; ++r)
    pb.movi(pb.reg(), static_cast<std::int32_t>(0x5a5a0000u | r));
  const isa::Program poison = pb.build();
  ASSERT_EQ(poison.regs_per_thread(), isa::kRZ);

  using Result = std::tuple<Outcome, std::uint64_t, std::uint64_t, bool>;
  auto trials = [&](bool poisoned) {
    sim::Device dev(wc.gpu);
    if (poisoned) {
      const sim::LaunchStats st =
          dev.launch({&poison, {256, 1}, {32, 1}, 0, {}});
      EXPECT_EQ(st.due, sim::DueKind::None);
    }
    MxM w(wc, Precision::Single, 16);
    w.prepare(dev);
    EXPECT_LT(w.max_regs_per_thread(), isa::kRZ);
    const sim::LaunchStats& golden = w.golden_stats();
    std::vector<Result> out{{Outcome::Masked, golden.cycles,
                             golden.lane_instructions, false}};
    std::vector<sim::Snapshot> snaps;
    w.capture_prefix(dev,
                     {golden.lane_instructions / 3,
                      2 * golden.lane_instructions / 3},
                     snaps);
    for (unsigned k = 0; k < 8; ++k) {
      const std::uint64_t cycle = golden.cycles * k / 8;
      const unsigned reg = k % w.max_regs_per_thread();
      for (int e = -1; e < static_cast<int>(snaps.size()); ++e) {
        const sim::Snapshot* from =
            e < 0 ? nullptr : &snaps[static_cast<std::size_t>(e)];
        if (from != nullptr && from->prior.cycles + from->exec.cycle > cycle)
          continue;
        FlipAtCycle strike(cycle, reg, from ? from->prior.cycles : 0);
        const core::TrialResult r =
            from ? w.run_trial_forked(dev, *from, &strike, true, &snaps)
                 : w.run_trial(dev, &strike, &snaps);
        out.emplace_back(r.outcome, r.stats.cycles, r.stats.lane_instructions,
                         r.dropped);
      }
    }
    return out;
  };
  const std::vector<Result> fresh = trials(false);
  EXPECT_EQ(trials(true), fresh);
  // The strikes must matter somewhere, or nothing above is tested.
  EXPECT_TRUE(std::any_of(fresh.begin(), fresh.end(), [](const Result& r) {
    return std::get<0>(r) != Outcome::Masked || std::get<3>(r);
  }));
}

TEST(ForkEquivalence, CapturePrefixRejectsNonForkSafe) {
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                          isa::CompilerProfile::Cuda10, 0x5eed, 0.05};
  Quicksort w(wc);
  sim::Device dev(wc.gpu);
  w.prepare(dev);
  std::vector<sim::Snapshot> snaps;
  EXPECT_THROW(w.capture_prefix(dev, {1}, snaps), std::logic_error);
}

}  // namespace
}  // namespace gpurel::fault

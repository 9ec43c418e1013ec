// Scheduling-determinism regression tests: fault-injection campaigns and
// beam experiments must be bit-identical for any worker count. The runtime
// guarantees this by seeding every trial/run from its index and tallying
// per-index outcome vectors serially, so these tests pin the whole contract:
// if a refactor makes results depend on which worker ran a trial, they fail.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "beam/experiment.hpp"
#include "common/bits.hpp"
#include "common/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "job/serialize.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "obs/trace.hpp"

namespace gpurel {
namespace {

using core::Precision;
using kernels::MxM;

core::WorkloadConfig cfg(isa::CompilerProfile profile) {
  return {arch::GpuConfig::kepler_k40c(2), profile, 0x5eed, 0.05};
}

void expect_same_campaign(const fault::CampaignResult& a,
                          const fault::CampaignResult& b, const char* what) {
  EXPECT_EQ(a.total_injections(), b.total_injections()) << what;
  EXPECT_EQ(a.overall_avf_sdc(), b.overall_avf_sdc()) << what;
  EXPECT_EQ(a.overall_avf_due(), b.overall_avf_due()) << what;
  EXPECT_EQ(a.overall_masked(), b.overall_masked()) << what;
  for (std::size_t k = 0; k < a.per_kind.size(); ++k) {
    const auto& ka = a.per_kind[k].counts;
    const auto& kb = b.per_kind[k].counts;
    EXPECT_EQ(ka.masked, kb.masked) << what << " kind " << k;
    EXPECT_EQ(ka.sdc, kb.sdc) << what << " kind " << k;
    EXPECT_EQ(ka.due, kb.due) << what << " kind " << k;
  }
  for (const fault::Stratum& s : fault::kStrata) {
    EXPECT_EQ((a.*s.counts).masked, (b.*s.counts).masked) << what << s.key;
    EXPECT_EQ((a.*s.counts).sdc, (b.*s.counts).sdc) << what << s.key;
    EXPECT_EQ((a.*s.counts).due, (b.*s.counts).due) << what << s.key;
  }
}

TEST(Determinism, CampaignBitIdenticalAcrossWorkerCounts) {
  auto inj = fault::make_injector("SASSIFI");
  fault::CampaignConfig base;
  base.injections_per_kind = 8;
  base.ia_injections = 12;
  base.rf_injections = 12;
  base.store_addr_injections = 6;
  base.seed = 1234;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg(inj->profile()), Precision::Single, 16);
  };

  // Per-trial cycle costs (trial_cycles_out) are worker-count-independent
  // too.
  std::vector<std::uint64_t> cycles1;
  fault::CampaignConfig cc1 = base;
  cc1.workers = 1;
  cc1.trial_cycles_out = &cycles1;
  const auto r1 = fault::run_campaign(*inj, factory, cc1);
  for (const unsigned workers : {2u, 3u, 4u}) {
    std::vector<std::uint64_t> cycles;
    fault::CampaignConfig cc = base;
    cc.workers = workers;
    cc.trial_cycles_out = &cycles;
    const auto r = fault::run_campaign(*inj, factory, cc);
    expect_same_campaign(r1, r, "workers");
    EXPECT_EQ(cycles, cycles1) << workers << " workers";
  }
}

TEST(Determinism, CountSitesMatchesCampaignSiteCounts) {
  // fault::count_sites runs exactly the fault-free counting pass of a
  // campaign, so its counts equal the ones run_campaign reports — plain, and
  // forking (where the pass also records the per-epoch counts).
  for (const char* name : {"SASSIFI", "NVBitFI"}) {
    auto inj = fault::make_injector(name);
    const arch::GpuConfig gpu = inj->name() == "SASSIFI"
                                    ? arch::GpuConfig::kepler_k40c(2)
                                    : arch::GpuConfig::volta_v100(2);
    auto factory = [&] {
      return std::make_unique<MxM>(
          core::WorkloadConfig{gpu, inj->profile(), 0x5eed, 0.05},
          Precision::Single, 16);
    };
    const fault::SiteCounts sites = fault::count_sites(*inj, factory);
    EXPECT_GT(sites.total_lane, 0u) << name;
    for (const unsigned epochs : {0u, 4u}) {
      fault::CampaignConfig cc;
      cc.injections_per_kind = 2;
      cc.store_value_injections = 2;
      cc.fork_epochs = epochs;
      const auto r = fault::run_campaign(*inj, factory, cc);
      const std::string what =
          std::string(name) + " fork_epochs=" + std::to_string(epochs);
      for (std::size_t k = 0; k < sites.per_kind.size(); ++k)
        EXPECT_EQ(r.per_kind[k].dynamic_sites, sites.per_kind[k])
            << what << " kind " << k;
      EXPECT_EQ(r.pred_sites, sites.pred) << what;
      EXPECT_EQ(r.store_sites, sites.stores) << what;
      EXPECT_EQ(r.total_lane_sites, sites.total_lane) << what;
    }
  }
}

TEST(Determinism, ObservabilityDoesNotPerturbResults) {
  // The full observability stack — JSONL telemetry, the metrics registry
  // (always on), and Chrome-trace output — reads timestamps and counters but
  // must never feed back into seeding, scheduling decisions, or tallies:
  // an instrumented campaign is bit-identical to a bare one.
  auto inj = fault::make_injector("SASSIFI");
  fault::CampaignConfig base;
  base.injections_per_kind = 8;
  base.ia_injections = 10;
  base.store_addr_injections = 6;
  base.seed = 99;
  base.workers = 3;
  auto factory = [&] {
    return std::make_unique<MxM>(cfg(inj->profile()), Precision::Single, 16);
  };

  const auto bare = fault::run_campaign(*inj, factory, base);

  const std::string tele_path = testing::TempDir() + "gpurel_det_tele.jsonl";
  const std::string trace_path = testing::TempDir() + "gpurel_det_trace.json";
  {
    telemetry::Sink sink(tele_path);
    obs::TraceWriter trace(trace_path);
    fault::CampaignConfig instrumented = base;
    instrumented.telemetry = &sink;
    instrumented.trace = &trace;
    expect_same_campaign(bare,
                         fault::run_campaign(*inj, factory, instrumented),
                         "instrumented campaign");
    EXPECT_GT(sink.events_emitted(), 0u);
    EXPECT_GT(trace.events_emitted(), 0u);
  }
  std::remove(tele_path.c_str());
  std::remove(trace_path.c_str());

  // Same contract for beam experiments.
  const auto db = beam::CrossSectionDb::kepler();
  const auto beam_factory = [] {
    return std::make_unique<MxM>(cfg(isa::CompilerProfile::Cuda10),
                                 Precision::Single, 16);
  };
  beam::BeamConfig bb;
  bb.runs = 40;
  bb.seed = 7;
  bb.workers = 2;
  const auto beam_bare = beam::run_beam(db, beam_factory, bb);
  {
    obs::TraceWriter trace(testing::TempDir() + "gpurel_det_beam.json");
    beam::BeamConfig bi = bb;
    bi.trace = &trace;
    const auto beam_instr = beam::run_beam(db, beam_factory, bi);
    EXPECT_EQ(beam_instr.outcomes.sdc, beam_bare.outcomes.sdc);
    EXPECT_EQ(beam_instr.outcomes.due, beam_bare.outcomes.due);
    EXPECT_EQ(beam_instr.fit_sdc, beam_bare.fit_sdc);
    EXPECT_EQ(beam_instr.fit_due, beam_bare.fit_due);
  }
  std::remove((testing::TempDir() + "gpurel_det_beam.json").c_str());
}

TEST(Determinism, BeamBitIdenticalAcrossWorkerCounts) {
  beam::BeamConfig base;
  base.runs = 60;
  base.seed = 4321;
  const auto db = beam::CrossSectionDb::kepler();
  const auto factory = [] {
    return std::make_unique<MxM>(cfg(isa::CompilerProfile::Cuda10),
                                 Precision::Single, 16);
  };

  beam::BeamConfig one = base;
  one.workers = 1;
  const auto r1 = beam::run_beam(db, factory, one);

  auto check = [&](const beam::BeamConfig& bc, const char* what) {
    const auto r = beam::run_beam(db, factory, bc);
    EXPECT_EQ(r.outcomes.masked, r1.outcomes.masked) << what;
    EXPECT_EQ(r.outcomes.sdc, r1.outcomes.sdc) << what;
    EXPECT_EQ(r.outcomes.due, r1.outcomes.due) << what;
    EXPECT_EQ(r.fit_sdc, r1.fit_sdc) << what;
    EXPECT_EQ(r.fit_due, r1.fit_due) << what;
    for (std::size_t t = 0; t < r.by_target.size(); ++t) {
      EXPECT_EQ(r.by_target[t].sdc, r1.by_target[t].sdc) << what << " t" << t;
      EXPECT_EQ(r.by_target[t].due, r1.by_target[t].due) << what << " t" << t;
    }
  };

  for (const unsigned workers : {2u, 3u, 4u}) {
    beam::BeamConfig bc = base;
    bc.workers = workers;
    check(bc, "workers");
  }
}

TEST(Determinism, BeamResultsMatchPinnedDigests) {
  // Serialized run_beam results, pinned at 1 and 4 workers in the three
  // regimes whose observer claims differ: one strike per run with ECC on
  // (functional-unit and hidden strikes reach the simulator), one with ECC
  // off (memory strikes too), and natural flux at about 2 strikes per run
  // with ECC off (several strikes in flight, latch restores among them).
  // The codes span both catalogs, with multi-launch codes (MERGESORT, the
  // YOLO nets) and a tensor-core MMA code. The digests predate beam
  // observers that drop their hooks once their strikes fire: dropping them
  // must not move any result.
  struct Case {
    bool volta;
    kernels::CatalogEntry entry;
    std::array<std::uint64_t, 3> digest;  // ECC on, ECC off, natural
  };
  const std::vector<Case> cases = {
      {false,
       {"MERGESORT", Precision::Int32},
       {0xfed3ba72f681b5dcull, 0x0c05332473b07817ull, 0x3eca3db47b5bf748ull}},
      {false,
       {"YOLOV2", Precision::Single},
       {0x3beea98f96cc0124ull, 0x0ba731b0ae8b2dc3ull, 0xa807e2d5eb88b233ull}},
      {true,
       {"GEMM-MMA", Precision::Half},
       {0x1e4d78b0c8ba5472ull, 0xb83e336730633b5dull, 0x756dbaac60083c88ull}},
      {true,
       {"HOTSPOT", Precision::Double},
       {0x6b6fe4e1bd7097b0ull, 0xd5def6de0858d975ull, 0x402226b8f57188ecull}},
  };
  for (const Case& c : cases) {
    const arch::GpuConfig gpu = c.volta ? arch::GpuConfig::volta_v100(2)
                                        : arch::GpuConfig::kepler_k40c(2);
    const auto db = beam::CrossSectionDb::for_arch(gpu.arch);
    const auto factory = kernels::workload_factory(
        c.entry.base, c.entry.precision,
        {gpu, isa::CompilerProfile::Cuda10, 0x5eed, 0.05});
    const std::string name = kernels::entry_name(c.entry);

    beam::BeamConfig on;
    on.runs = 40;
    on.seed = 0xbea3;
    beam::BeamConfig off = on;
    off.ecc = false;
    beam::BeamConfig natural = off;
    natural.mode = beam::BeamMode::Natural;
    natural.runs = 20;
    // Σw = device_sigma_rate * T; aim for 2 strikes per run.
    {
      const auto probe = beam::run_beam(db, factory, on);
      const auto w = factory();
      sim::Device dev(gpu);
      w->prepare(dev);
      natural.flux_scale =
          2.0 / (probe.device_sigma_rate *
                 static_cast<double>(w->golden_stats().cycles));
    }
    const std::array<const beam::BeamConfig*, 3> modes = {&on, &off, &natural};
    for (std::size_t m = 0; m < modes.size(); ++m) {
      for (const unsigned workers : {1u, 4u}) {
        beam::BeamConfig bc = *modes[m];
        bc.workers = workers;
        const std::uint64_t digest = fnv1a64(
            job::beam_result_to_json(beam::run_beam(db, factory, bc)).dump());
        EXPECT_EQ(digest, c.digest[m])
            << name << " mode " << m << " at " << workers << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace gpurel

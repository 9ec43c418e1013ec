// Fault-propagation flight recorder (obs/propagation.*): per-trial
// provenance records must be byte-identical across worker counts and
// fork-epoch bucketings, enabling the observer must not change any outcome,
// shard reports must merge into the unsharded report, and the SDC-geometry
// classifier must implement the documented taxonomy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/gpu_config.hpp"
#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "kernels/matmul.hpp"
#include "obs/propagation.hpp"

namespace gpurel::fault {
namespace {

using core::Outcome;
using core::Precision;
using core::WorkloadConfig;
using kernels::GemmMma;
using kernels::MxM;
using obs::PropagationRecord;
using obs::PropagationReport;
using obs::SdcGeometry;

InjectionBudget small_budget() {
  InjectionBudget budget;
  budget.injections_per_kind = 6;
  budget.rf_injections = 6;
  budget.pred_injections = 4;
  budget.ia_injections = 6;
  budget.store_value_injections = 4;
  budget.store_addr_injections = 4;
  return budget;
}

struct RunOut {
  CampaignResult result;
  std::vector<Outcome> outcomes;
  std::vector<PropagationRecord> records;
};

RunOut run(const Injector& inj, const WorkloadFactory& factory,
           const InjectionBudget& budget, unsigned workers,
           unsigned fork_epochs, bool propagation) {
  CampaignConfig cc;
  cc.budget() = budget;
  cc.seed = 0xf0f0;
  cc.workers = workers;
  cc.fork_epochs = fork_epochs;
  cc.propagation = propagation;
  RunOut out;
  cc.trial_outcomes_out = &out.outcomes;
  if (propagation) cc.propagation_records_out = &out.records;
  out.result = run_campaign(inj, factory, cc);
  return out;
}

WorkloadFactory mxm_factory(const Injector& inj) {
  const WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2), inj.profile(),
                          0x5eed, 0.05};
  return [wc] { return std::make_unique<MxM>(wc, Precision::Single, 16); };
}

TEST(Propagation, RecordsByteIdenticalAcrossWorkersAndForkEpochs) {
  auto inj = make_injector("SASSIFI");
  const WorkloadFactory factory = mxm_factory(*inj);
  const InjectionBudget budget = small_budget();

  const RunOut base = run(*inj, factory, budget, 1, /*fork_epochs=*/0, true);
  ASSERT_FALSE(base.records.empty());
  ASSERT_EQ(base.records.size(), base.outcomes.size());

  std::vector<std::string> base_lines;
  base_lines.reserve(base.records.size());
  for (const PropagationRecord& r : base.records)
    base_lines.push_back(r.to_json().dump());

  struct Variant {
    unsigned workers, fork_epochs;
  };
  for (const Variant v : {Variant{2, 0}, Variant{4, 0}, Variant{1, 4},
                          Variant{2, 4}, Variant{2, 9}}) {
    const RunOut other = run(*inj, factory, budget, v.workers, v.fork_epochs,
                             true);
    ASSERT_EQ(other.records.size(), base.records.size())
        << v.workers << "w/" << v.fork_epochs << "e";
    for (std::size_t t = 0; t < base.records.size(); ++t)
      EXPECT_EQ(other.records[t].to_json().dump(), base_lines[t])
          << "trial " << t << " at " << v.workers << " workers, "
          << v.fork_epochs << " fork epochs";
  }
}

TEST(Propagation, TelemetryRecordsAreTheRecordDocuments) {
  // Each propagation_record JSONL line, minus the sink's own event/t_ms
  // head, is byte-for-byte the record's to_json() document, in trial order.
  auto inj = make_injector("SASSIFI");
  const std::string path = testing::TempDir() + "gpurel_prop_records.jsonl";
  std::remove(path.c_str());
  std::vector<PropagationRecord> records;
  {
    telemetry::Sink sink(path);
    CampaignConfig cc;
    cc.budget() = small_budget();
    cc.seed = 0xf0f0;
    cc.workers = 2;
    cc.propagation = true;
    cc.propagation_records_out = &records;
    cc.telemetry = &sink;
    run_campaign(*inj, mxm_factory(*inj), cc);
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
      if (line.find("\"event\":\"propagation_record\"") != std::string::npos)
        lines.push_back(line);
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), records.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const json::Value event = json::Value::parse(lines[i]);
    json::Value body = json::Value::object();
    for (const auto& [key, value] : event.members())
      if (key != "event" && key != "t_ms") body.set(key, value);
    EXPECT_EQ(body.dump(), records[i].to_json().dump()) << "record " << i;
  }
}

TEST(Propagation, EnabledCampaignKeepsEveryOutcome) {
  auto inj = make_injector("SASSIFI");
  const WorkloadFactory factory = mxm_factory(*inj);
  const InjectionBudget budget = small_budget();

  const RunOut plain = run(*inj, factory, budget, 2, 0, false);
  const RunOut traced = run(*inj, factory, budget, 2, 0, true);
  ASSERT_EQ(plain.outcomes.size(), traced.outcomes.size());
  for (std::size_t t = 0; t < plain.outcomes.size(); ++t)
    EXPECT_EQ(plain.outcomes[t], traced.outcomes[t]) << "trial " << t;

  // Aggregate tallies agree field by field; only the optional report differs.
  EXPECT_FALSE(plain.result.propagation.has_value());
  ASSERT_TRUE(traced.result.propagation.has_value());
  for (std::size_t k = 0; k < plain.result.per_kind.size(); ++k) {
    EXPECT_EQ(plain.result.per_kind[k].counts.sdc,
              traced.result.per_kind[k].counts.sdc);
    EXPECT_EQ(plain.result.per_kind[k].counts.due,
              traced.result.per_kind[k].counts.due);
    EXPECT_EQ(plain.result.per_kind[k].counts.masked,
              traced.result.per_kind[k].counts.masked);
  }
  EXPECT_EQ(plain.result.rf.sdc, traced.result.rf.sdc);
  EXPECT_EQ(plain.result.ia.due, traced.result.ia.due);

  // The report covers every trial and its terminal splits match the tallies.
  const PropagationReport& rep = *traced.result.propagation;
  EXPECT_EQ(rep.trials, traced.outcomes.size());
  std::uint64_t rep_sdc = 0, rep_due = 0, rep_masked = 0;
  for (const auto& row : rep.cells)
    for (const auto& c : row) {
      rep_sdc += c.sdc;
      rep_due += c.due;
      rep_masked += c.masked;
    }
  std::uint64_t sdc = 0, due = 0, masked = 0;
  for (const Outcome o : traced.outcomes) {
    if (o == Outcome::Sdc) ++sdc;
    if (o == Outcome::Due) ++due;
    if (o == Outcome::Masked) ++masked;
  }
  EXPECT_EQ(rep_sdc, sdc);
  EXPECT_EQ(rep_due, due);
  EXPECT_EQ(rep_masked, masked);
}

TEST(Propagation, MmaWorkloadRecordsTensorSites) {
  // The tensor-core path: NVBitFI on Volta FGEMM-MMA must classify fired MMA
  // strikes under the MMA mix class and still leave outcomes untouched.
  auto inj = make_injector("NVBitFI");
  const WorkloadConfig wc{arch::GpuConfig::volta_v100(2), inj->profile(),
                          0x5eed, 0.1};
  const WorkloadFactory factory = [wc] {
    return std::make_unique<GemmMma>(wc, Precision::Single);
  };
  InjectionBudget budget;
  budget.injections_per_kind = 6;

  const RunOut plain = run(*inj, factory, budget, 2, 0, false);
  const RunOut traced = run(*inj, factory, budget, 2, 0, true);
  ASSERT_EQ(plain.outcomes.size(), traced.outcomes.size());
  for (std::size_t t = 0; t < plain.outcomes.size(); ++t)
    EXPECT_EQ(plain.outcomes[t], traced.outcomes[t]) << "trial " << t;

  ASSERT_TRUE(traced.result.propagation.has_value());
  std::uint64_t mma_trials = 0;
  for (std::size_t k = 0; k < traced.result.propagation->cells.size(); ++k)
    mma_trials += traced.result.propagation
                      ->cell(static_cast<isa::UnitKind>(k), isa::MixClass::MMA)
                      .trials;
  EXPECT_GT(mma_trials, 0u);

  // Fired records carry a plausible injection site and footprint.
  for (const PropagationRecord& r : traced.records) {
    if (!r.fired) continue;
    EXPECT_FALSE(r.model.empty());
    EXPECT_GT(r.cycle, 0u);
    if (r.outcome == "SDC") {
      EXPECT_GT(r.corrupted_elems, 0u);
      EXPECT_FALSE(r.geometry.empty());
    }
  }
}

TEST(Propagation, ShardReportsMergeIntoUnsharded) {
  auto inj = make_injector("SASSIFI");
  const WorkloadFactory factory = mxm_factory(*inj);
  const InjectionBudget budget = small_budget();

  CampaignConfig cc;
  cc.budget() = budget;
  cc.seed = 0xf0f0;
  cc.propagation = true;
  const CampaignResult whole = run_campaign(*inj, factory, cc);
  ASSERT_TRUE(whole.propagation.has_value());

  cc.shard_count = 2;
  cc.shard_index = 0;
  CampaignResult merged = run_campaign(*inj, factory, cc);
  cc.shard_index = 1;
  merged.merge(run_campaign(*inj, factory, cc));
  ASSERT_TRUE(merged.propagation.has_value());
  EXPECT_EQ(merged.propagation->to_json().dump(),
            whole.propagation->to_json().dump());

  // Serialization round trip is exact.
  const PropagationReport back =
      PropagationReport::from_json(whole.propagation->to_json());
  EXPECT_EQ(back.to_json().dump(), whole.propagation->to_json().dump());
}

TEST(Propagation, ResumeIsRejected) {
  auto inj = make_injector("SASSIFI");
  const WorkloadFactory factory = mxm_factory(*inj);
  CampaignConfig cc;
  cc.budget() = small_budget();
  cc.propagation = true;
  CampaignCheckpoint ck;
  cc.resume = &ck;
  EXPECT_THROW(run_campaign(*inj, factory, cc), std::invalid_argument);
}

TEST(Propagation, SdcGeometryTaxonomy) {
  using obs::classify_sdc_geometry;
  // 4x4 row-major output.
  EXPECT_EQ(classify_sdc_geometry({5}, 4, 4), SdcGeometry::SingleValue);
  EXPECT_EQ(classify_sdc_geometry({4, 5, 7}, 4, 4), SdcGeometry::SameRow);
  EXPECT_EQ(classify_sdc_geometry({1, 5, 13}, 4, 4), SdcGeometry::SameColumn);
  // Dense 2x2 bounding box spanning two rows and two columns.
  EXPECT_EQ(classify_sdc_geometry({5, 6, 9, 10}, 4, 4), SdcGeometry::Block);
  // Corners of the matrix: bbox area 16 vs 2*3 corrupted — scattered.
  EXPECT_EQ(classify_sdc_geometry({0, 3, 15}, 4, 4), SdcGeometry::Random);
  // Degenerate geometry (vector output): rows=1 makes multi-element
  // corruption a row pattern.
  EXPECT_EQ(classify_sdc_geometry({0, 9}, 1, 16), SdcGeometry::SameRow);
  EXPECT_EQ(obs::sdc_geometry_name(SdcGeometry::Block), "block");
}

TEST(Propagation, SpreadBuckets) {
  EXPECT_EQ(obs::spread_bucket(0), 0u);
  EXPECT_EQ(obs::spread_bucket(1), 1u);
  EXPECT_EQ(obs::spread_bucket(2), 2u);
  EXPECT_EQ(obs::spread_bucket(3), 2u);
  EXPECT_EQ(obs::spread_bucket(4), 3u);
  EXPECT_EQ(obs::spread_bucket(511), PropagationReport::kSpreadBuckets - 2);
  EXPECT_EQ(obs::spread_bucket(512), PropagationReport::kSpreadBuckets - 1);
  EXPECT_EQ(obs::spread_bucket(1u << 20), PropagationReport::kSpreadBuckets - 1);
  for (std::size_t b = 0; b + 1 < PropagationReport::kSpreadBuckets; ++b)
    EXPECT_LT(obs::spread_bucket_floor(b), obs::spread_bucket_floor(b + 1));
}

}  // namespace
}  // namespace gpurel::fault

// gpurel::job — spec hashing, serialization round-trips, sharded execution,
// the content-addressed cache, and checkpoint/resume. The byte-comparison
// assertions here are the PR's acceptance criteria: shard merges and cache
// hits must reproduce the single-process result *byte for byte*.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"
#include "job/cache.hpp"
#include "job/result.hpp"
#include "job/runner.hpp"
#include "job/serialize.hpp"
#include "obs/metrics.hpp"

namespace gpurel::job {
namespace {

namespace fs = std::filesystem;

/// The reference campaign job used throughout: small but exercising every
/// fault mode, on a fully pinned device.
JobSpec reference_campaign_spec() {
  fault::InjectionBudget budget;
  budget.injections_per_kind = 8;
  budget.rf_injections = 6;
  budget.pred_injections = 4;
  budget.ia_injections = 4;
  budget.store_value_injections = 4;
  budget.store_addr_injections = 4;
  JobSpec spec = campaign_spec(arch::GpuConfig::kepler_k40c(2),
                               {"ADD", core::Precision::Single}, "NVBitFI",
                               budget, /*seed=*/7, /*input_seed=*/0x5eed,
                               /*scale=*/0.1);
  return spec;
}

JobSpec reference_beam_spec() {
  return beam_spec(arch::GpuConfig::kepler_k40c(2),
                   {"ADD", core::Precision::Single}, /*ecc=*/false,
                   beam::BeamMode::Accelerated, /*runs=*/40, /*flux_scale=*/1.0,
                   /*seed=*/9, /*input_seed=*/0x5eed, /*scale=*/0.1);
}

/// A scratch directory removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("gpurel_job_test_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// ---- spec serialization and hashing ---------------------------------------

TEST(JobSpecTest, CanonicalJsonIsCompactAndVersioned) {
  const std::string bytes = canonical_json(reference_campaign_spec());
  EXPECT_EQ(bytes.rfind("{\"spec_version\":1,\"kind\":\"campaign\"", 0), 0u)
      << bytes;
  EXPECT_EQ(bytes.find(' '), std::string::npos);
  EXPECT_EQ(bytes.find('\n'), std::string::npos);
}

// Golden content hashes. These pin the canonical JSON layout: if one of
// these changes, every user's cache is invalidated, so a failure here means
// either an accidental layout change (fix it) or a deliberate one (bump
// kSpecVersion and re-pin).
TEST(JobSpecTest, ContentHashGoldens) {
  EXPECT_EQ(hash_hex(content_hash(reference_campaign_spec())),
            "2f8e2c8a0876b1f3");
  EXPECT_EQ(hash_hex(content_hash(reference_beam_spec())),
            "27398f971aaa48e0");
  EXPECT_EQ(cache_key(reference_campaign_spec()),
            std::string("2f8e2c8a0876b1f3") + "-" + kEngineVersion);
}

TEST(JobSpecTest, HashCoversEveryResultDeterminingField) {
  const JobSpec base = reference_campaign_spec();
  auto differs = [&](JobSpec changed) {
    return content_hash(changed) != content_hash(base);
  };
  JobSpec s = base;
  s.seed += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.input_seed += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.scale = 0.2;
  EXPECT_TRUE(differs(s));
  s = base;
  s.budget.rf_injections += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.entry.precision = core::Precision::Double;
  EXPECT_TRUE(differs(s));
  s = base;
  s.device.sm_count += 1;
  EXPECT_TRUE(differs(s));
  s = base;
  s.shard = {1, 2};
  EXPECT_TRUE(differs(s));
}

// fork_epochs is execution batching (RunOptions::fork_epochs), not a
// result-determining field, so it stays out of the spec and its hash. Spec
// files planned when it was a spec field may still carry it: the key is
// accepted and ignored, so such a spec hashes like its plain twin and is
// served from the same cache entry.
TEST(JobSpecTest, LegacyForkEpochsKeyHashesLikePlainSpec) {
  const JobSpec plain = reference_campaign_spec();
  json::Value doc = spec_to_json(plain);
  json::Value campaign = doc.at("campaign");
  campaign.set("fork_epochs", 8);
  doc.set("campaign", std::move(campaign));
  const JobSpec legacy = spec_from_json(doc);
  EXPECT_EQ(canonical_json(legacy), canonical_json(plain));
  EXPECT_EQ(content_hash(legacy), content_hash(plain));
  EXPECT_EQ(cache_key(legacy), cache_key(plain));
}

// Fork batching only changes wall-clock: a fork-batched job's whole result
// document, embedded spec included, is byte-identical to the plain job's.
TEST(JobShardTest, ForkBatchedJobReproducesPlainResult) {
  const JobSpec spec = reference_campaign_spec();
  RunOptions plain;
  plain.fork_epochs = 0;
  RunOptions forked;
  forked.fork_epochs = 6;
  const JobResult a = run_job(spec, plain);
  const JobResult b = run_job(spec, forked);
  ASSERT_TRUE(a.campaign && b.campaign);
  EXPECT_EQ(result_dump(a), result_dump(b));
}

// Delta snapshot restores used to be a spec field, serialized only when
// disabled. Spec files written with it still decode, the key is ignored
// (restores are always delta now), and the job produces the same bytes.
TEST(JobSpecTest, LegacyForkDeltaKeyIsAcceptedAndIgnored) {
  const JobSpec spec = reference_campaign_spec();
  json::Value doc = spec_to_json(spec);
  json::Value campaign = doc.at("campaign");
  campaign.set("fork_delta", false);
  doc.set("campaign", std::move(campaign));
  const JobSpec legacy = spec_from_json(doc);
  EXPECT_EQ(canonical_json(legacy), canonical_json(spec));
  RunOptions forked;
  forked.fork_epochs = 4;
  EXPECT_EQ(result_dump(run_job(legacy, forked)),
            result_dump(run_job(spec, forked)));
}

TEST(JobSpecTest, RoundTripsThroughJson) {
  for (const JobSpec& spec :
       {reference_campaign_spec(), with_shard(reference_beam_spec(), 2, 5)}) {
    const JobSpec back = spec_from_json(json::Value::parse(canonical_json(spec)));
    EXPECT_EQ(canonical_json(back), canonical_json(spec));
    EXPECT_EQ(content_hash(back), content_hash(spec));
  }
}

TEST(JobSpecTest, RejectsUnknownVersionsAndNames) {
  json::Value doc = spec_to_json(reference_campaign_spec());
  doc.set("spec_version", 999);
  EXPECT_THROW(spec_from_json(doc), std::runtime_error);
  json::Value doc2 = spec_to_json(reference_campaign_spec());
  doc2.set("kind", "mystery");
  EXPECT_THROW(spec_from_json(doc2), std::runtime_error);
}

/// `doc` with the member at `path` (object keys, outermost first) set to `v`.
json::Value with_member(json::Value doc, std::vector<std::string> path,
                        json::Value v) {
  const std::string head = path.front();
  if (path.size() > 1) {
    path.erase(path.begin());
    v = with_member(doc.at(head), std::move(path), std::move(v));
  }
  doc.set(head, std::move(v));
  return doc;
}

// A 32-bit spec field past UINT32_MAX is rejected, naming its key, instead of
// wrapping: "runs": 2^32 + 1 used to decode as 1 run, and shard index 2^32
// as shard 0 (the whole job, cached under a different key).
TEST(JobSpecTest, RejectsIntegersPast32Bits) {
  const json::Value campaign = spec_to_json(reference_campaign_spec());
  const json::Value beam = spec_to_json(reference_beam_spec());
  const std::uint64_t big = std::uint64_t{1} << 32;
  auto rejected_naming = [](const json::Value& doc, const std::string& key) {
    try {
      spec_from_json(doc);
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find(key) != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejected_naming(with_member(beam, {"beam", "runs"}, big + 1),
                              "runs"));
  EXPECT_TRUE(rejected_naming(with_member(beam, {"shard", "index"}, big),
                              "index"));
  EXPECT_TRUE(rejected_naming(
      with_member(campaign, {"campaign", "budget", "rf_injections"}, big),
      "rf_injections"));
  EXPECT_TRUE(rejected_naming(
      with_member(campaign, {"device", "sm_count"}, big), "sm_count"));
  // UINT32_MAX itself still fits.
  EXPECT_EQ(spec_from_json(with_member(beam, {"beam", "runs"}, big - 1)).runs,
            0xffffffffu);
}

// ---- sharded execution ----------------------------------------------------

TEST(JobShardTest, CampaignMergeMatchesSingleProcessAcrossShardCounts) {
  const JobSpec base = reference_campaign_spec();
  const JobResult whole = run_job(base);
  const std::string golden = result_dump(whole);

  for (const unsigned n : {1u, 2u, 4u, 7u}) {
    std::vector<JobResult> shards;
    for (unsigned i = 0; i < n; ++i)
      shards.push_back(run_job(with_shard(base, i, n)));
    const JobResult merged = merge_results(shards);
    EXPECT_EQ(result_dump(merged), golden) << n << " shards";
  }
}

TEST(JobShardTest, BeamMergeMatchesSingleProcess) {
  const JobSpec base = reference_beam_spec();
  const std::string golden = result_dump(run_job(base));

  for (const unsigned n : {2u, 3u}) {
    std::vector<JobResult> shards;
    for (unsigned i = 0; i < n; ++i)
      shards.push_back(run_job(with_shard(base, i, n)));
    EXPECT_EQ(result_dump(merge_results(shards)), golden) << n << " shards";
  }
}

TEST(JobShardTest, ShardResultsAreWorkerCountInvariant) {
  const JobSpec spec = with_shard(reference_campaign_spec(), 1, 3);
  RunOptions four_workers;
  four_workers.workers = 4;
  EXPECT_EQ(result_dump(run_job(spec)),
            result_dump(run_job(spec, four_workers)));
}

TEST(JobMergeTest, ValidatesShardSets) {
  const JobSpec base = reference_campaign_spec();
  const JobResult s0 = run_job(with_shard(base, 0, 2));
  const JobResult s1 = run_job(with_shard(base, 1, 2));

  EXPECT_THROW(merge_results({}), std::invalid_argument);
  // Missing shard (count says 2, only one given).
  EXPECT_THROW(merge_results({s0}), std::invalid_argument);
  // Duplicate shard index.
  EXPECT_THROW(merge_results({s0, s0}), std::invalid_argument);
  // Shards of different jobs.
  JobSpec other = base;
  other.seed += 1;
  const JobResult o1 = run_job(with_shard(other, 1, 2));
  EXPECT_THROW(merge_results({s0, o1}), std::invalid_argument);
  // Order-independence: any permutation merges to the same bytes.
  EXPECT_EQ(result_dump(merge_results({s1, s0})),
            result_dump(merge_results({s0, s1})));
}

// ---- result serialization -------------------------------------------------

TEST(JobResultTest, RoundTripsAreByteIdentical) {
  for (const JobSpec& spec :
       {reference_campaign_spec(), reference_beam_spec()}) {
    const JobResult r = run_job(spec);
    const std::string bytes = result_dump(r);
    const JobResult back = result_from_json(json::Value::parse(bytes));
    EXPECT_EQ(result_dump(back), bytes);
  }
}

// The per_kind array carries one entry per unit kind in kind order; a
// document with a duplicate, missing or reordered kind is corrupt and must
// be rejected, not silently decoded with zeroed or overwritten strata.
TEST(JobResultTest, CampaignPerKindMustListEveryKindInOrder) {
  const JobResult r = run_job(reference_campaign_spec());
  const json::Value good = campaign_result_to_json(*r.campaign);
  ASSERT_NO_THROW(campaign_result_from_json(good));
  const std::vector<json::Value> kinds = good.at("per_kind").items();
  ASSERT_GE(kinds.size(), 2u);

  auto with_kinds = [&](const std::vector<json::Value>& entries) {
    json::Value doc = good;
    json::Value arr = json::Value::array();
    for (const json::Value& e : entries) arr.push_back(e);
    doc.set("per_kind", std::move(arr));
    return doc;
  };
  std::vector<json::Value> duplicate = kinds;
  duplicate[1] = kinds[0];
  std::vector<json::Value> missing = kinds;
  missing.pop_back();
  std::vector<json::Value> swapped = kinds;
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(campaign_result_from_json(with_kinds(duplicate)),
               std::runtime_error);
  EXPECT_THROW(campaign_result_from_json(with_kinds(missing)),
               std::runtime_error);
  EXPECT_THROW(campaign_result_from_json(with_kinds(swapped)),
               std::runtime_error);
}

TEST(JobResultTest, RejectsVersionAndTypeMismatches) {
  const JobResult r = run_job(reference_campaign_spec());
  json::Value doc = result_to_json(r);
  doc.set("schema_version", 2);
  EXPECT_THROW(result_from_json(doc), std::runtime_error);

  // A beam spec paired with a campaign result body must not parse.
  json::Value mixed = result_to_json(r);
  mixed.set("spec", spec_to_json(reference_beam_spec()));
  EXPECT_THROW(result_from_json(mixed), std::runtime_error);
}

// ---- content-addressed cache ----------------------------------------------

std::uint64_t campaign_trials_counter() {
  return obs::Registry::global()
      .counter("gpurel_campaign_trials_total")
      .value();
}

TEST(JobCacheTest, HitIsByteIdenticalAndSimulatesNothing) {
  const TempDir dir("cache");
  const JobSpec spec = reference_campaign_spec();
  RunOptions opts;
  opts.cache_dir = dir.path.string();

  const std::uint64_t hits0 =
      obs::Registry::global().counter("gpurel_job_cache_hits_total").value();
  const JobResult first = run_job(spec, opts);
  ASSERT_TRUE(fs::exists(dir.path / (cache_key(spec) + ".json")));

  // Second run: served from cache — zero simulated trials, same bytes.
  const std::uint64_t trials_before = campaign_trials_counter();
  const JobResult second = run_job(spec, opts);
  EXPECT_EQ(campaign_trials_counter(), trials_before);
  EXPECT_EQ(result_dump(second), result_dump(first));
  EXPECT_EQ(
      obs::Registry::global().counter("gpurel_job_cache_hits_total").value(),
      hits0 + 1);
}

TEST(JobCacheTest, DisabledCacheAlwaysRecomputes) {
  // No directory and no GPUREL_CACHE ⇒ disabled (the test environment must
  // not leak a cache into every unrelated run).
  ASSERT_EQ(std::getenv("GPUREL_CACHE"), nullptr);
  const ResultCache cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.load(reference_campaign_spec()).has_value());
}

TEST(JobCacheTest, CorruptEntryDegradesToMiss) {
  const TempDir dir("corrupt");
  const JobSpec spec = reference_campaign_spec();
  const ResultCache cache(dir.path.string());
  {
    std::ofstream out(cache.path_for(spec));
    out << "not json";
  }
  EXPECT_FALSE(cache.load(spec).has_value());
  // A run over the corrupt entry recomputes and repairs it.
  RunOptions opts;
  opts.cache_dir = dir.path.string();
  const JobResult r = run_job(spec, opts);
  EXPECT_TRUE(cache.load(spec).has_value());
  EXPECT_EQ(result_dump(*cache.load(spec)), result_dump(r));
}

TEST(JobCacheTest, ForeignEntryDegradesToMiss) {
  // A well-formed entry stored under another spec's key (a copied or
  // misnamed file) holds that spec's numbers: it is a miss, and a run of the
  // requested spec recomputes and overwrites it.
  const TempDir dir("foreign");
  const JobSpec a = reference_campaign_spec();
  JobSpec b = a;
  b.seed += 1;
  const ResultCache cache(dir.path.string());
  RunOptions opts;
  opts.cache_dir = dir.path.string();
  run_job(a, opts);
  fs::copy_file(cache.path_for(a), cache.path_for(b));

  obs::Counter& misses =
      obs::Registry::global().counter("gpurel_job_cache_misses_total");
  const std::uint64_t misses_before = misses.value();
  EXPECT_FALSE(cache.load(b).has_value());
  EXPECT_EQ(misses.value(), misses_before + 1);

  const JobResult r = run_job(b, opts);
  EXPECT_EQ(result_dump(r), result_dump(run_job(b)));  // B's own numbers
  ASSERT_TRUE(cache.load(b).has_value());
  EXPECT_EQ(result_dump(*cache.load(b)), result_dump(r));
}

TEST(JobCacheTest, KeyedByEngineVersionAndShard) {
  const JobSpec spec = reference_campaign_spec();
  EXPECT_NE(cache_key(spec), cache_key(with_shard(spec, 0, 2)));
  EXPECT_NE(cache_key(spec).find(kEngineVersion), std::string::npos);
}

// ---- checkpoint / resume --------------------------------------------------

// Both execution paths resume: plain (every trial from cycle 0, as host-
// stepped codes and fork_epochs = 0 run) and checkpoint-fork batching (the
// default for fork-safe workloads such as ADD).
constexpr unsigned kResumeForkEpochs[] = {0, fault::kDefaultForkEpochs};

TEST(JobCheckpointTest, ResumeFromMidCheckpointReproducesUninterruptedRun) {
  const JobSpec spec = reference_campaign_spec();
  for (const unsigned fork : kResumeForkEpochs) {
    SCOPED_TRACE("fork_epochs=" + std::to_string(fork));
    RunOptions base;
    base.fork_epochs = fork;
    const std::string golden = result_dump(run_job(spec, base));

    // Capture genuine mid-run checkpoints from an uninterrupted campaign.
    std::vector<fault::CampaignCheckpoint> checkpoints;
    {
      const auto injector = fault::make_injector("NVBitFI");
      const auto factory = kernels::workload_factory(
          spec.entry.base, spec.entry.precision,
          {spec.device, spec.profile, spec.input_seed, spec.scale});
      fault::CampaignConfig cc;
      cc.budget() = spec.budget;
      cc.seed = spec.seed;
      cc.fork_epochs = fork;
      cc.checkpoint_every = 16;
      cc.on_checkpoint = [&](const fault::CampaignCheckpoint& ck) {
        checkpoints.push_back(ck);
      };
      fault::run_campaign(*injector, factory, cc);
    }
    ASSERT_GE(checkpoints.size(), 2u) << "campaign too small to checkpoint";

    // "Kill" the shard after each checkpoint in turn: write the checkpoint
    // file the runner would have left behind, then re-run the job. The
    // resumed run must reproduce the uninterrupted bytes exactly.
    const TempDir dir("ckpt");
    const fs::path ckpt = dir.path / "shard.ckpt";
    obs::Counter& snapshots =
        obs::Registry::global().counter("gpurel_campaign_snapshots_total");
    const std::uint64_t snapshots_before = snapshots.value();
    for (const fault::CampaignCheckpoint& ck : checkpoints) {
      json::Value doc = json::Value::object();
      doc.set("schema_version", kResultSchemaVersion);
      doc.set("type", "campaign_checkpoint");
      doc.set("job", cache_key(spec));
      doc.set("trials_done", ck.trials_done);
      doc.set("partial", campaign_result_to_json(ck.partial));
      {
        std::ofstream out(ckpt);
        out << doc.dump() << "\n";
      }
      RunOptions opts = base;
      opts.checkpoint_path = ckpt.string();
      opts.checkpoint_every = 16;
      const JobResult resumed = run_job(spec, opts);
      EXPECT_EQ(result_dump(resumed), golden)
          << "resumed from trials_done=" << ck.trials_done;
      // A completed job must clean up its checkpoint.
      EXPECT_FALSE(fs::exists(ckpt));
    }
    // The resumed runs took the path under test.
    if (fork == 0)
      EXPECT_EQ(snapshots.value(), snapshots_before);
    else
      EXPECT_GT(snapshots.value(), snapshots_before);
  }
}

TEST(JobCheckpointTest, ForeignCheckpointIsIgnored) {
  const JobSpec spec = reference_campaign_spec();
  for (const unsigned fork : kResumeForkEpochs) {
    SCOPED_TRACE("fork_epochs=" + std::to_string(fork));
    RunOptions opts;
    opts.fork_epochs = fork;
    const std::string golden = result_dump(run_job(spec, opts));

    const TempDir dir("ckpt_foreign");
    const fs::path ckpt = dir.path / "shard.ckpt";
    {
      std::ofstream out(ckpt);
      out << "{\"schema_version\":1,\"type\":\"campaign_checkpoint\","
             "\"job\":\"somebody-else\",\"trials_done\":3}\n";
    }
    opts.checkpoint_path = ckpt.string();
    EXPECT_EQ(result_dump(run_job(spec, opts)), golden);
  }
}

// ---- runner validation ----------------------------------------------------

TEST(JobRunnerTest, RejectsUnknownInjectorAndProfileMismatch) {
  JobSpec spec = reference_campaign_spec();
  spec.injector = "FaultFairy";
  // The registry's unknown-name error must list the registered injectors.
  try {
    run_job(spec);
    FAIL() << "run_job accepted an unknown injector";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("registered:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("SASSIFI"), std::string::npos)
        << e.what();
  }
  spec = reference_campaign_spec();
  spec.profile = isa::CompilerProfile::Cuda7;  // NVBitFI is a Cuda10 tool
  EXPECT_THROW(run_job(spec), std::runtime_error);
}

TEST(JobRunnerTest, RejectsInvalidShards) {
  EXPECT_THROW(run_job(with_shard(reference_campaign_spec(), 3, 3)),
               std::invalid_argument);
  EXPECT_THROW(run_job(with_shard(reference_beam_spec(), 0, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpurel::job

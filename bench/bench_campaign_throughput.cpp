// bench_campaign_throughput: campaign-runtime throughput benchmark.
//
// Runs fault-injection campaigns under the runtime's guided dynamic
// scheduler on two trial mixes:
//
//   balanced   IOV-only injections on MXM — every trial costs roughly the
//              golden runtime, so any schedule balances well;
//   due-heavy  instruction-address + store-address heavy injections on
//              QUICKSORT — control-flow corruption in its data-dependent
//              loops produces a heavy-tailed cost distribution (a fraction
//              of trials burn the full watchdog budget, ~20x the median),
//              the load profile that stalls static shards.
//
// For each mix it reports wall-clock trials/sec and, because wall clock on
// a loaded/oversubscribed CI box is noisy, also a deterministic *model
// makespan*: the per-trial simulated-cycle costs (trial_cycles_out)
// replayed through guided dynamic scheduling and through static
// round-robin sharding. `model_x` is the modelled speedup of the dynamic
// scheduler over static sharding at the requested worker count; it is the
// scheduling-limited bound a parallel host converges to. The fork-heavy and
// graph-heavy mixes then compare plain execution against checkpoint-fork
// batching.
//
//   ./bench_campaign_throughput --workers=4 --ia=160 --injections=40
//   GPUREL_TELEMETRY=out.jsonl ./bench_campaign_throughput --progress
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "kernels/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace gpurel;

namespace {

struct Mix {
  std::string name;
  std::string code;  ///< kernel catalog code the mix runs on
  fault::CampaignConfig config;
};

/// Replay per-trial costs through static round-robin sharding: the makespan
/// is the heaviest shard.
std::uint64_t static_makespan(const std::vector<std::uint64_t>& cost,
                              unsigned workers) {
  std::uint64_t worst = 0;
  for (unsigned s = 0; s < workers; ++s) {
    std::uint64_t shard = 0;
    for (std::size_t t = s; t < cost.size(); t += workers) shard += cost[t];
    worst = std::max(worst, shard);
  }
  return worst;
}

/// Replay per-trial costs through guided dynamic self-scheduling: each free
/// worker pulls the next guided_chunk, exactly like the campaign runtime;
/// the makespan is the last worker to finish.
std::uint64_t dynamic_makespan(const std::vector<std::uint64_t>& cost,
                               unsigned workers) {
  std::vector<std::uint64_t> busy_until(workers, 0);
  for (std::size_t begin = 0; begin < cost.size();) {
    const std::size_t end = std::min(
        cost.size(), begin + guided_chunk(cost.size() - begin, workers));
    std::uint64_t chunk_cost = 0;
    for (std::size_t t = begin; t < end; ++t) chunk_cost += cost[t];
    auto next = std::min_element(busy_until.begin(), busy_until.end());
    *next += chunk_cost;
    begin = end;
  }
  return *std::max_element(busy_until.begin(), busy_until.end());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const unsigned workers = std::max<unsigned>(
      1, static_cast<unsigned>(cli.get_int_env("workers", "GPUREL_WORKERS", 4)));
  const unsigned iov = static_cast<unsigned>(
      cli.get_int_env("injections", "GPUREL_INJECTIONS", 16));
  const unsigned ia = static_cast<unsigned>(cli.get_int("ia", 4 * iov));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const double scale = cli.get_double("scale", 0.05);
  const bool csv = cli.get_bool("csv");
  const bool progress = cli.get_bool_env("progress", "GPUREL_PROGRESS", false);
  const std::string bench_json = cli.get("bench-json");
  obs::Exporter exporter(cli.get("metrics-out"), cli.get("trace-out"));
  std::vector<std::pair<std::string, double>> json_entries;

  auto injector = fault::make_injector("SASSIFI");
  const core::WorkloadConfig wc{arch::GpuConfig::kepler_k40c(2),
                                injector->profile(), 0x5eed, scale};

  fault::CampaignConfig base;
  base.injections_per_kind = iov;
  base.seed = seed;
  base.workers = workers;
  base.progress = progress;

  std::vector<Mix> mixes;
  {
    Mix balanced{"balanced", "MXM", base};
    mixes.push_back(balanced);
    Mix heavy{"due-heavy", "QUICKSORT", base};
    heavy.config.injections_per_kind = std::max(1u, iov / 4);
    heavy.config.ia_injections = ia;  // control-flow corruption: hangs
    heavy.config.rf_injections = ia;  // loop-state corruption: hangs
    heavy.config.store_addr_injections = ia / 2;  // invalid-address DUEs
    mixes.push_back(heavy);
  }

  Table table({"mix", "schedule", "trials", "wall_ms", "trials/s",
               "model_Mcyc", "model_x"});
  table.set_align(1, Align::Left);

  for (const Mix& mix : mixes) {
    const auto factory =
        kernels::workload_factory(mix.code, core::Precision::Single, wc);
    std::vector<std::uint64_t> cost;
    fault::CampaignConfig cc = mix.config;
    cc.trial_cycles_out = &cost;
    cc.trace = exporter.trace();
    telemetry::Timer wall;
    fault::run_campaign(*injector, factory, cc);
    const double ms = wall.elapsed_ms();
    const double tps =
        ms > 0 ? 1000.0 * static_cast<double>(cost.size()) / ms : 0.0;
    const obs::Labels labels{{"bench", "campaign_throughput"},
                             {"mix", mix.name},
                             {"schedule", "dynamic"}};
    auto& metrics = obs::Registry::global();
    metrics.gauge("gpurel_bench_wall_ms", labels).set(ms);
    metrics.gauge("gpurel_bench_trials_per_sec", labels).set(tps);
    json_entries.emplace_back("campaign/" + mix.name + "/dynamic.trials_per_s",
                              tps);

    const std::uint64_t makespan = dynamic_makespan(cost, workers);
    table.row()
        .cell(mix.name)
        .cell("dynamic")
        .cell_int(static_cast<long long>(cost.size()))
        .cell(ms, 1)
        .cell(tps, 1)
        .cell(static_cast<double>(makespan) / 1e6, 2)
        .cell(static_cast<double>(static_makespan(cost, workers)) /
                  static_cast<double>(std::max<std::uint64_t>(1, makespan)),
              2);
  }

  // Checkpoint-fork batching: the same injection-heavy profile as due-heavy,
  // but on MXM, which is fork-safe (host-stepped QUICKSORT reads host state
  // mid-trial and falls back to plain execution). Two series: plain
  // execution, and forked (delta restores from the shared snapshot set).
  // Results are bit-identical across both; only wall-clock moves.
  {
    const unsigned fork_epochs =
        std::max<unsigned>(1, static_cast<unsigned>(cli.get_int("fork-epochs", 8)));
    fault::CampaignConfig fc = base;
    fc.injections_per_kind = std::max(1u, iov / 4);
    // IA-skewed: instruction-address trials usually DUE at the fault itself,
    // so a plain run pays the whole prefix for nothing while a forked run
    // pays only the snapshot-to-fault gap -- the profile fork batching is for.
    fc.ia_injections = 2 * ia;
    fc.rf_injections = ia / 2;
    fc.store_addr_injections = ia / 2;
    const auto factory =
        kernels::workload_factory("MXM", core::Precision::Single, wc);
    fault::CampaignResult reference;
    double plain_tps = 0.0;
    for (const std::string mode : {"plain", "delta"}) {
      fault::CampaignConfig cc = fc;
      cc.fork_epochs = mode == "plain" ? 0 : fork_epochs;
      std::vector<std::uint64_t> cost;
      cc.trial_cycles_out = &cost;
      cc.trace = exporter.trace();
      telemetry::Timer wall;
      const auto result = fault::run_campaign(*injector, factory, cc);
      const double ms = wall.elapsed_ms();
      const double tps =
          ms > 0 ? 1000.0 * static_cast<double>(cost.size()) / ms : 0.0;
      const obs::Labels labels{{"bench", "campaign_throughput"},
                               {"mix", "fork-heavy"},
                               {"schedule", mode}};
      auto& metrics = obs::Registry::global();
      metrics.gauge("gpurel_bench_wall_ms", labels).set(ms);
      metrics.gauge("gpurel_bench_trials_per_sec", labels).set(tps);
      json_entries.emplace_back(
          std::string("campaign/fork-heavy/") + mode + ".trials_per_s", tps);
      if (mode == "plain") {
        reference = result;
        plain_tps = tps;
      } else {
        if (result.total_injections() != reference.total_injections() ||
            result.overall_avf_sdc() != reference.overall_avf_sdc() ||
            result.overall_avf_due() != reference.overall_avf_due()) {
          std::fprintf(stderr, "FATAL: fork batching changed fork-heavy results\n");
          return 1;
        }
        json_entries.emplace_back(
            "campaign/fork-heavy/" + mode + ".speedup_x",
            plain_tps > 0 ? tps / plain_tps : 0.0);
      }
      table.row()
          .cell("fork-heavy")
          .cell(mode)
          .cell_int(static_cast<long long>(cost.size()))
          .cell(ms, 1)
          .cell(tps, 1)
          .cell(0.0, 2)
          .cell(mode != "plain" && plain_tps > 0 ? tps / plain_tps : 1.0, 2);
    }
  }

  // Graph-heavy mix: the device-stepped graph/sort workloads (BFS-DEV,
  // CCL-DEV, QUICKSORT-DEV) whose fixed launch sequences made the iterative
  // third of the catalog fork-safe. Plain and forked series are interleaved
  // over `reps` rounds so load noise on a shared CI box hits both equally;
  // trials and wall time accumulate per series and the reported trials/s is
  // the aggregate over every workload and round.
  {
    const unsigned fork_epochs =
        std::max<unsigned>(1, static_cast<unsigned>(cli.get_int("fork-epochs", 8)));
    const unsigned reps =
        std::max<unsigned>(1, static_cast<unsigned>(cli.get_int("reps", 3)));
    const std::vector<std::string> codes{"BFS-DEV", "CCL-DEV", "QUICKSORT-DEV"};
    fault::CampaignConfig gc = base;
    gc.injections_per_kind = std::max(1u, iov / 4);
    gc.ia_injections = ia;
    gc.rf_injections = ia / 2;
    gc.store_addr_injections = ia / 4;

    std::vector<core::WorkloadFactory> factories;
    std::vector<fault::SiteCounts> site_counts;
    std::vector<fault::CampaignResult> references(codes.size());
    for (const std::string& code : codes) {
      factories.push_back(
          kernels::workload_factory(code, core::Precision::Int32, wc));
      site_counts.push_back(fault::count_sites(*injector, factories.back()));
    }

    double wall_ms[2] = {0.0, 0.0};
    std::uint64_t trials[2] = {0, 0};
    for (unsigned rep = 0; rep < reps; ++rep) {
      for (const bool forked : {false, true}) {
        for (std::size_t i = 0; i < codes.size(); ++i) {
          fault::CampaignConfig cc = gc;
          cc.fork_epochs = forked ? fork_epochs : 0;
          cc.sites = &site_counts[i];
          std::vector<std::uint64_t> cost;
          cc.trial_cycles_out = &cost;
          cc.trace = exporter.trace();
          telemetry::Timer wall;
          const auto result = fault::run_campaign(*injector, factories[i], cc);
          const std::size_t k = forked ? 1 : 0;
          wall_ms[k] += wall.elapsed_ms();
          trials[k] += cost.size();
          if (rep == 0 && !forked) {
            references[i] = result;
          } else if (result.total_injections() !=
                         references[i].total_injections() ||
                     result.overall_avf_sdc() !=
                         references[i].overall_avf_sdc() ||
                     result.overall_avf_due() !=
                         references[i].overall_avf_due()) {
            std::fprintf(stderr, "FATAL: fork batching changed %s results\n",
                         codes[i].c_str());
            return 1;
          }
        }
      }
    }
    auto& metrics = obs::Registry::global();
    double tps[2] = {0.0, 0.0};
    for (const bool forked : {false, true}) {
      const std::size_t k = forked ? 1 : 0;
      tps[k] = wall_ms[k] > 0
                   ? 1000.0 * static_cast<double>(trials[k]) / wall_ms[k]
                   : 0.0;
      const obs::Labels labels{{"bench", "campaign_throughput"},
                               {"mix", "graph-heavy"},
                               {"schedule", forked ? "forked" : "plain"}};
      metrics.gauge("gpurel_bench_wall_ms", labels).set(wall_ms[k]);
      metrics.gauge("gpurel_bench_trials_per_sec", labels).set(tps[k]);
      json_entries.emplace_back(std::string("campaign/graph-heavy/") +
                                    (forked ? "forked" : "plain") +
                                    ".trials_per_s",
                                tps[k]);
      table.row()
          .cell("graph-heavy")
          .cell(forked ? "forked" : "plain")
          .cell_int(static_cast<long long>(trials[k]))
          .cell(wall_ms[k], 1)
          .cell(tps[k], 1)
          .cell(0.0, 2)
          .cell(forked && tps[0] > 0 ? tps[1] / tps[0] : 1.0, 2);
    }
    json_entries.emplace_back("campaign/graph-heavy/forked.speedup_x",
                              tps[0] > 0 ? tps[1] / tps[0] : 0.0);
  }

  if (csv) std::fputs(table.to_csv().c_str(), stdout);
  else std::fputs(table.to_text().c_str(), stdout);
  std::fputc('\n', stdout);
  std::printf("workers=%u; model_x = modelled dynamic-vs-static speedup from "
              "per-trial simulated cycles\n", workers);
  bench::write_bench_json(bench_json, json_entries);
  return 0;
}

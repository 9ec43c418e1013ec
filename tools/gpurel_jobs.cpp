// gpurel_jobs: plan, execute, and merge serialized jobs — the multi-process
// face of the gpurel::job layer.
//
//   plan   build a JobSpec from flags and write one spec file per shard:
//            gpurel_jobs plan --kind=campaign --arch=kepler --code=MXM
//              --injector=SASSIFI --injections=40 --seed=7 --shards=3
//              --out=specs/mxm
//          writes specs/mxm.shard0of3.json ... and prints the cache key.
//
//   run    execute one spec file (cache-aware, resumable):
//            gpurel_jobs run --spec=specs/mxm.shard0of3.json
//              --out=out/mxm.0.json --workers=4 --cache-dir=$GPUREL_CACHE
//              --checkpoint=out/mxm.0.ckpt --checkpoint-every=64
//              --fork-epochs=8 --metrics-out=out/metrics.json
//
//   merge  fold per-shard result files into the unsharded result:
//            gpurel_jobs merge --out=out/mxm.json out/mxm.*.json
//          The merged file is byte-identical to running the job unsharded
//          (integer tallies + replayed FIT expressions; see job/result.hpp).
//
//   report render a campaign result's fault-propagation tables (requires
//          a job planned with --propagation):
//            gpurel_jobs report out/mxm.json
//
// Exit status: 0 on success, 1 on bad usage, 2 on execution/validation
// failure.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "job/runner.hpp"
#include "job/serialize.hpp"
#include "obs/export.hpp"

using namespace gpurel;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gpurel_jobs <plan|run|merge|report> [--flags]\n"
               "  plan  --kind=campaign|beam --arch=kepler|volta [--sm=N]\n"
               "        --code=NAME --precision=int|half|single|double\n"
               "        [--injector=SASSIFI|NVBitFI|MicroArch --injections=N\n"
               "         --rf=N --pred=N --ia=N --store-value=N --store-addr=N\n"
               "         --sched=N --scoreboard=N --cta=N --warp-control=N\n"
               "         --propagation]\n"
               "        [--ecc[=false] --mode=accelerated|natural --runs=N\n"
               "         --flux-scale=X]\n"
               "        [--seed=N --input-seed=N --scale=X]\n"
               "        --shards=N --out=PREFIX\n"
               "  run   --spec=FILE --out=FILE [--workers=N --fork-epochs=N\n"
               "        --cache-dir=DIR --checkpoint=FILE --checkpoint-every=N\n"
               "        --metrics-out=FILE --trace-out=FILE --progress]\n"
               "        (--fork-epochs defaults to %u, at most one per %u trials"
               " run;\n"
               "        0 runs every trial from cycle 0)\n"
               "  merge --out=FILE SHARD_RESULT.json...\n"
               "  report RESULT.json\n",
               fault::kDefaultForkEpochs, fault::kTrialsPerForkEpoch);
  return 1;
}

/// A flag value the command cannot use; main() reports it with the
/// bad-usage exit status 1. A silently substituted default, or a wrapped
/// integer, would plan (and cache) a different job.
struct BadValue : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Rejects a flag value outside its documented spellings or range.
[[noreturn]] void bad_value(const std::string& flag, const std::string& value,
                            const std::string& allowed) {
  throw BadValue("--" + flag + "=" + value + " is not one of " + allowed);
}

/// An integer flag that fills a 32-bit spec or run field (`env`, when set,
/// names its environment fallback); rejects values outside 0..UINT32_MAX.
unsigned u32_flag(const Cli& cli, const std::string& flag, std::int64_t def,
                  const char* env = nullptr) {
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t v =
      env != nullptr ? cli.get_int_env(flag, env, def) : cli.get_int(flag, def);
  if (v < 0 || v > kMax)
    bad_value(flag, std::to_string(v), "0.." + std::to_string(kMax));
  return static_cast<unsigned>(v);
}

std::optional<core::Precision> parse_precision(const std::string& s) {
  if (s == "int" || s == "int32") return core::Precision::Int32;
  if (s == "half" || s == "fp16") return core::Precision::Half;
  if (s == "single") return core::Precision::Single;
  if (s == "double" || s == "fp64") return core::Precision::Double;
  return std::nullopt;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// All result/spec files are written through here: canonical dump + '\n',
/// so sharded-merge outputs and unsharded runs compare byte for byte.
void write_doc(const std::string& path, const json::Value& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << doc.dump() << '\n';
  if (!out) throw std::runtime_error("write failed for " + path);
}

int cmd_plan(const Cli& cli) {
  job::JobSpec spec;
  const std::string kind = cli.get("kind", "campaign");
  if (kind != "campaign" && kind != "beam")
    bad_value("kind", kind, "campaign|beam");
  const std::string arch = cli.get("arch", "kepler");
  if (arch != "kepler" && arch != "volta")
    bad_value("arch", arch, "kepler|volta");
  const std::string precision = cli.get("precision", "single");
  const std::optional<core::Precision> prec = parse_precision(precision);
  if (!prec)
    bad_value("precision", precision,
              "int|half|single|double (aliases int32|fp16|fp64)");

  const unsigned sm = u32_flag(cli, "sm", 2);
  spec.device = arch == "volta" ? arch::GpuConfig::volta_v100(sm)
                                : arch::GpuConfig::kepler_k40c(sm);
  spec.entry = {cli.get("code", "MXM"), *prec};
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  spec.input_seed =
      static_cast<std::uint64_t>(cli.get_int("input-seed", 0x5eed));
  spec.scale = cli.get_double("scale", 1.0);

  if (kind == "campaign") {
    spec.kind = job::JobKind::Campaign;
    spec.injector = cli.get("injector", "SASSIFI");
    // The registry resolves the compiler profile (and rejects unknown names
    // with the list of registered injectors).
    spec.profile = fault::make_injector(spec.injector)->profile();
    spec.budget.injections_per_kind = u32_flag(cli, "injections", 120);
    // One budget flag per stratum, named after its label: --rf, --store-value,
    // --sched, --warp-control, ...
    for (const fault::Stratum& s : fault::kStrata) {
      std::string flag(s.label);
      std::replace(flag.begin(), flag.end(), '_', '-');
      spec.budget.*s.budget = u32_flag(cli, flag, 0);
    }
    spec.propagation = cli.get_bool("propagation", false);
  } else {
    spec.kind = job::JobKind::Beam;
    spec.profile = isa::CompilerProfile::Cuda10;
    spec.ecc = cli.get_bool("ecc", true);
    const std::string mode = cli.get("mode", "accelerated");
    if (mode != "accelerated" && mode != "natural")
      bad_value("mode", mode, "accelerated|natural");
    spec.mode = mode == "natural" ? beam::BeamMode::Natural
                                  : beam::BeamMode::Accelerated;
    spec.runs = u32_flag(cli, "runs", 200);
    spec.flux_scale = cli.get_double("flux-scale", 1.0);
  }

  const unsigned shards = u32_flag(cli, "shards", 1);
  const std::string prefix = cli.get("out");
  if (shards == 0 || prefix.empty()) return usage();

  obs::TraceWriter* trace = obs::env_trace();
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  for (unsigned i = 0; i < shards; ++i) {
    const job::JobSpec shard = job::with_shard(spec, i, shards);
    const std::string path = prefix + ".shard" + std::to_string(i) + "of" +
                             std::to_string(shards) + ".json";
    write_doc(path, job::spec_to_json(shard));
    std::printf("%s\t%s\n", path.c_str(), job::cache_key(shard).c_str());
  }
  std::printf("unsharded cache key: %s\n",
              job::cache_key(job::with_shard(spec, 0, 1)).c_str());
  if (trace != nullptr)
    trace->complete("jobs plan", "cli", obs::kWallPid, 0, t0,
                    trace->now_us() - t0, {{"shards", shards}});
  return 0;
}

int cmd_run(const Cli& cli) {
  const std::string spec_path = cli.get("spec");
  const std::string out_path = cli.get("out");
  if (spec_path.empty() || out_path.empty()) return usage();

  const job::JobSpec spec =
      job::spec_from_json(json::Value::parse(slurp(spec_path)));

  obs::Exporter exporter(cli.get("metrics-out"), cli.get("trace-out"));
  job::RunOptions opts;
  opts.workers = u32_flag(cli, "workers", 1, "GPUREL_WORKERS");
  opts.context.trace = exporter.trace();
  opts.context.progress = cli.get_bool_env("progress", "GPUREL_PROGRESS", false);
  opts.cache_dir = cli.get("cache-dir");  // empty → GPUREL_CACHE → disabled
  opts.checkpoint_path = cli.get("checkpoint");
  opts.checkpoint_every = u32_flag(cli, "checkpoint-every", 0);
  opts.fork_epochs = u32_flag(cli, "fork-epochs", opts.fork_epochs);

  const job::JobResult result = job::run_job(spec, opts);
  write_doc(out_path, job::result_to_json(result));
  std::printf("%s\t%s\n", out_path.c_str(), job::cache_key(spec).c_str());
  return 0;
}

int cmd_report(const std::vector<std::string>& inputs) {
  if (inputs.empty()) return usage();
  for (const std::string& path : inputs) {
    const job::JobResult result =
        job::result_from_json(json::Value::parse(slurp(path)));
    if (inputs.size() > 1) std::printf("== %s ==\n", path.c_str());
    if (!result.campaign.has_value()) {
      std::fprintf(stderr, "gpurel_jobs: %s is not a campaign result\n",
                   path.c_str());
      return 2;
    }
    if (!result.campaign->propagation.has_value()) {
      std::fprintf(stderr,
                   "gpurel_jobs: %s carries no propagation report (plan the "
                   "job with --propagation)\n",
                   path.c_str());
      return 2;
    }
    std::string text;
    obs::write_propagation_report(text, *result.campaign->propagation);
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

int cmd_merge(const Cli& cli, const std::vector<std::string>& inputs) {
  const std::string out_path = cli.get("out");
  if (out_path.empty() || inputs.empty()) return usage();

  obs::TraceWriter* trace = obs::env_trace();
  const double t0 = trace != nullptr ? trace->now_us() : 0.0;
  std::vector<job::JobResult> shards;
  shards.reserve(inputs.size());
  for (const std::string& path : inputs)
    shards.push_back(job::result_from_json(json::Value::parse(slurp(path))));

  const job::JobResult merged = job::merge_results(shards);
  write_doc(out_path, job::result_to_json(merged));
  if (trace != nullptr)
    trace->complete("jobs merge", "cli", obs::kWallPid, 0, t0,
                    trace->now_us() - t0, {{"shards", inputs.size()}});
  std::printf("%s\t%s\n", out_path.c_str(),
              job::cache_key(merged.spec).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  // Cli parses --flags; bare arguments (merge's shard files) are gathered
  // here since the flag parser ignores positionals.
  std::vector<std::string> positionals;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // Skip "--name value" pairs: a bare token following a valueless flag
      // is that flag's value, not a positional.
      if (i > 2 && std::string(argv[i - 1]).rfind("--", 0) == 0 &&
          std::string(argv[i - 1]).find('=') == std::string::npos)
        continue;
      positionals.push_back(arg);
    }
  }
  const Cli cli(argc - 1, argv + 1);

  try {
    if (cmd == "plan") return cmd_plan(cli);
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "merge") return cmd_merge(cli, positionals);
    if (cmd == "report") return cmd_report(positionals);
  } catch (const BadValue& e) {
    std::fprintf(stderr, "gpurel_jobs: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpurel_jobs: %s\n", e.what());
    return 2;
  }
  return usage();
}

#!/usr/bin/env bash
# CI entry point: determinism lint gate, strict-warnings build + tier-1 test
# suite, clang-tidy (when installed), a quick ThreadSanitizer leg, a quick
# UBSan leg, the repository benchmark's smoke check in a Release build, and
# (optionally) the full sanitizer subsets.
#
#   scripts/ci.sh          # lint + werror build + full ctest + obs smoke
#                          # + clang-tidy (or skip) + tsan/ubsan quick legs
#                          # + Release perfbench smoke
#   scripts/ci.sh tsan     # additionally build + run the full TSan test subset
#   scripts/ci.sh asan     # additionally build + run the ASan test subset
#   scripts/ci.sh ubsan    # additionally build + run the full UBSan test subset
#
# GPUREL_RUNS / GPUREL_INJECTIONS trim the statistical test sizes so the
# suite stays fast on small CI runners; the tests' assertions are written to
# hold at these reduced sizes.
set -euo pipefail
cd "$(dirname "$0")/.."

export GPUREL_RUNS="${GPUREL_RUNS:-80}"
export GPUREL_INJECTIONS="${GPUREL_INJECTIONS:-30}"
JOBS="$(nproc)"

echo "==> determinism lint (gpurel_lint: fails on any new finding)"
# Gate before the full build: only the core library + the lint tool are
# compiled here, so a contract violation fails CI in the first minutes. The
# baseline (tools/lint/baseline.json) is kept empty on purpose — fix findings
# or annotate them with a rationale, don't grandfather them.
cmake --preset werror
cmake --build --preset werror -j "${JOBS}" --target gpurel_lint
./build-werror/tools/gpurel_lint src tools tests

echo "==> build (werror preset: -Wall -Wextra -Wshadow -Wsign-conversion -Werror)"
cmake --build --preset werror -j "${JOBS}"

echo "==> tier-1 tests (GPUREL_RUNS=${GPUREL_RUNS} GPUREL_INJECTIONS=${GPUREL_INJECTIONS})"
ctest --preset werror -j "${JOBS}"

echo "==> clang-tidy (curated .clang-tidy profile; skipped when not installed)"
if command -v clang-tidy >/dev/null 2>&1; then
  # The werror preset exports compile_commands.json; run over the library and
  # tool sources (tests are covered by the widened -W set and sanitizers).
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build-werror --quiet
  echo "clang-tidy OK"
else
  echo "clang-tidy not installed; skipping (CI runners without LLVM still pass)"
fi

echo "==> observability smoke (telemetry JSONL + metrics JSON/Prometheus + trace)"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "${OBS_DIR}"' EXIT
GPUREL_TELEMETRY="${OBS_DIR}/telemetry.jsonl" \
  ./build-werror/examples/quickstart \
  --metrics-out="${OBS_DIR}/metrics.json" \
  --trace-out="${OBS_DIR}/trace.json" >/dev/null
# Every artifact must parse: the JSONL sink line-by-line, the metrics
# snapshot and Chrome trace as whole documents, and the Prometheus text
# exposition's sample lines must scan.
python3 - "${OBS_DIR}" <<'EOF'
import json, re, sys
d = sys.argv[1]
lines = open(f"{d}/telemetry.jsonl").read().splitlines()
assert lines, "telemetry JSONL is empty"
for line in lines:
    json.loads(line)
metrics = json.load(open(f"{d}/metrics.json"))
names = {m["name"] for m in metrics["metrics"]}
assert any(n.startswith("gpurel_campaign_") for n in names), names
assert any(n.startswith("gpurel_beam_") for n in names), names
trace = json.load(open(f"{d}/trace.json"))
assert isinstance(trace, list) and trace, "trace is not a non-empty JSON array"
phases = {ev.get("ph") for ev in trace}
assert "X" in phases and "M" in phases, phases
sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$')
prom = [l for l in open(f"{d}/metrics.prom").read().splitlines() if l]
assert prom, "Prometheus exposition is empty"
for line in prom:
    assert line.startswith(("# TYPE ", "# HELP ")) or sample.match(line), line
assert any(l.startswith("# HELP gpurel_campaign_") for l in prom), \
    "no HELP line for campaign metrics"
print(f"observability smoke OK: {len(lines)} telemetry events, "
      f"{len(names)} metric names, {len(trace)} trace events, "
      f"{len(prom)} exposition lines")
EOF

echo "==> job layer smoke (3-way shard + merge vs unsharded + cache hits)"
JOBS_BIN=./build-werror/tools/gpurel_jobs
JOB_DIR="${OBS_DIR}/jobs"
mkdir -p "${JOB_DIR}"
# Plan a small campaign both 3-way-sharded and unsharded.
"${JOBS_BIN}" plan --kind=campaign --arch=kepler --code=ADD --precision=single \
  --injector=NVBitFI --injections=10 --rf=6 --ia=4 --seed=7 --scale=0.1 \
  --shards=3 --out="${JOB_DIR}/add" >/dev/null
"${JOBS_BIN}" plan --kind=campaign --arch=kepler --code=ADD --precision=single \
  --injector=NVBitFI --injections=10 --rf=6 --ia=4 --seed=7 --scale=0.1 \
  --shards=1 --out="${JOB_DIR}/add1" >/dev/null
# Run every shard (sharing one cache) and the unsharded reference.
for i in 0 1 2; do
  "${JOBS_BIN}" run --spec="${JOB_DIR}/add.shard${i}of3.json" \
    --out="${JOB_DIR}/out.${i}.json" --cache-dir="${JOB_DIR}/cache" >/dev/null
done
"${JOBS_BIN}" run --spec="${JOB_DIR}/add1.shard0of1.json" \
  --out="${JOB_DIR}/unsharded.json" --cache-dir="${JOB_DIR}/cache" >/dev/null
# The merged shards must be byte-identical to the unsharded run.
"${JOBS_BIN}" merge --out="${JOB_DIR}/merged.json" \
  "${JOB_DIR}"/out.[0-2].json >/dev/null
cmp "${JOB_DIR}/merged.json" "${JOB_DIR}/unsharded.json"
# Re-run everything against the warm cache in a fresh process: every job
# must be served from the cache (4 hits, 0 misses) with zero simulated
# trials and zero fault-free reference trials (a cache hit prepares
# nothing), and still write byte-identical outputs.
for i in 0 1 2; do
  "${JOBS_BIN}" run --spec="${JOB_DIR}/add.shard${i}of3.json" \
    --out="${JOB_DIR}/rerun.${i}.json" --cache-dir="${JOB_DIR}/cache" \
    --metrics-out="${JOB_DIR}/metrics.${i}.json" >/dev/null
  cmp "${JOB_DIR}/out.${i}.json" "${JOB_DIR}/rerun.${i}.json"
done
"${JOBS_BIN}" run --spec="${JOB_DIR}/add1.shard0of1.json" \
  --out="${JOB_DIR}/rerun.u.json" --cache-dir="${JOB_DIR}/cache" \
  --metrics-out="${JOB_DIR}/metrics.u.json" >/dev/null
cmp "${JOB_DIR}/unsharded.json" "${JOB_DIR}/rerun.u.json"
python3 - "${JOB_DIR}" <<'EOF'
import glob, json, sys
d = sys.argv[1]
hits = misses = trials = refs = 0
for path in glob.glob(f"{d}/metrics.*.json"):
    for m in json.load(open(path))["metrics"]:
        if m["name"] == "gpurel_job_cache_hits_total": hits += m["value"]
        if m["name"] == "gpurel_job_cache_misses_total": misses += m["value"]
        if m["name"] == "gpurel_campaign_trials_total": trials += m["value"]
        if m["name"] == "gpurel_reference_trials_total": refs += m["value"]
assert hits == 4, f"expected 4 cache hits, got {hits}"
assert misses == 0, f"expected 0 cache misses, got {misses}"
assert trials == 0, f"cache-served reruns simulated {trials} trials"
assert refs == 0, f"cache-served reruns ran {refs} reference trials"
print(f"job smoke OK: 3-way merge byte-identical, {hits} cache hits, "
      f"0 misses, 0 simulated or reference trials on rerun")
EOF

echo "==> fork-equivalence smoke (checkpoint-fork batching is bit-identical)"
# One campaign spec run plain and with checkpoint-fork batching must produce
# byte-identical result documents. Fork batching is a run option, not a
# spec field, so both runs also print the same cache key.
"${JOBS_BIN}" plan --kind=campaign --arch=kepler --code=MXM \
  --precision=single --injector=SASSIFI --injections=4 --rf=8 --ia=12 \
  --seed=13 --scale=0.05 --out="${JOB_DIR}/mxm" >/dev/null
for fork in 0 4; do
  "${JOBS_BIN}" run --spec="${JOB_DIR}/mxm.shard0of1.json" \
    --fork-epochs="${fork}" --out="${JOB_DIR}/mxm.fork${fork}.out.json" |
    cut -f2 >"${JOB_DIR}/mxm.fork${fork}.key"
done
cmp "${JOB_DIR}/mxm.fork0.out.json" "${JOB_DIR}/mxm.fork4.out.json"
cmp "${JOB_DIR}/mxm.fork0.key" "${JOB_DIR}/mxm.fork4.key"
# With no --fork-epochs flag the run forks at the default epoch count (one
# capture event with 8 epochs, checked below) and still matches plain.
GPUREL_TELEMETRY="${JOB_DIR}/fork.default.jsonl" \
  "${JOBS_BIN}" run --spec="${JOB_DIR}/mxm.shard0of1.json" \
  --out="${JOB_DIR}/mxm.default.out.json" >/dev/null
cmp "${JOB_DIR}/mxm.fork0.out.json" "${JOB_DIR}/mxm.default.out.json"
# Shared snapshot pool: one capture pass serves every worker, so a forked
# multi-worker run must emit exactly one campaign_snapshot_capture event,
# whose retained bytes (executor state included) exceed its memory images.
# The second worker copies the reference instance's golden state, so the run
# makes exactly one fault-free reference trial. At least one of its trials
# stops early at a snapshot its state matches again.
GPUREL_TELEMETRY="${JOB_DIR}/fork.jsonl" \
  "${JOBS_BIN}" run --spec="${JOB_DIR}/mxm.shard0of1.json" --fork-epochs=4 \
  --out="${JOB_DIR}/mxm.fork4.warm.json" --workers=2 \
  --metrics-out="${JOB_DIR}/fork.metrics.json" >/dev/null
cmp "${JOB_DIR}/mxm.fork4.out.json" "${JOB_DIR}/mxm.fork4.warm.json"
python3 - "${JOB_DIR}" <<'EOF'
import json, sys
d = sys.argv[1]
def captures(name):
    evs = [json.loads(l) for l in open(f"{d}/{name}") if l.strip()]
    caps = [e for e in evs if e.get("event") == "campaign_snapshot_capture"]
    assert len(caps) == 1, f"{name}: expected 1 capture event, got {len(caps)}"
    return caps[0]
cap = captures("fork.jsonl")
assert cap["epochs"] == 4 and cap["image_bytes"] > 0, cap
assert cap["bytes"] > cap["image_bytes"], cap
default = captures("fork.default.jsonl")
assert default["epochs"] == 8, f"default run did not fork at 8 epochs: {default}"
metrics = json.load(open(f"{d}/fork.metrics.json"))["metrics"]
def total(name):
    return sum(m["value"] for m in metrics if m["name"] == name)
refs = total("gpurel_reference_trials_total")
assert refs == 1, f"expected exactly 1 reference trial, got {refs}"
# Reconvergence drop: some trials rejoin the fault-free run and stop at a
# snapshot, and the cmp legs above show that changes no result byte.
dropped = total("gpurel_campaign_dropped_trials_total")
assert dropped >= 1, f"expected at least 1 dropped trial, got {dropped}"
print("fork-equivalence smoke OK: forked results byte-identical, "
      "one shared snapshot capture and one reference trial across 2 workers, "
      f"{dropped:g} dropped trial(s), 8 epochs by default")
EOF
# Beams fork too: a fork-safe code with ECC off (most strikes reach the
# simulator) captures one snapshot set and resumes runs from it. The result
# document is the same at 1 and 4 workers, and the beam counts its snapshots
# and forked runs in its own counters, none in the campaign ones.
"${JOBS_BIN}" plan --kind=beam --arch=kepler --code=MXM --precision=single \
  --ecc=false --runs=48 --seed=13 --scale=0.05 \
  --out="${JOB_DIR}/beam" >/dev/null
for workers in 1 4; do
  "${JOBS_BIN}" run --spec="${JOB_DIR}/beam.shard0of1.json" \
    --workers="${workers}" --out="${JOB_DIR}/beam.w${workers}.out.json" \
    --metrics-out="${JOB_DIR}/beam.w${workers}.metrics.json" >/dev/null
done
cmp "${JOB_DIR}/beam.w1.out.json" "${JOB_DIR}/beam.w4.out.json"
python3 - "${JOB_DIR}" <<'EOF'
import json, sys
d = sys.argv[1]
for workers in (1, 4):
    metrics = json.load(open(f"{d}/beam.w{workers}.metrics.json"))["metrics"]
    def total(name):
        return sum(m["value"] for m in metrics if m["name"] == name)
    snaps = total("gpurel_beam_snapshots_total")
    forked = total("gpurel_beam_forked_runs_total")
    assert snaps >= 1, f"{workers} workers: expected beam snapshots, got {snaps}"
    assert forked >= 1, f"{workers} workers: expected forked runs, got {forked}"
    for name in ("gpurel_campaign_snapshots_total",
                 "gpurel_campaign_dropped_trials_total",
                 "gpurel_campaign_dropped_cycles_total"):
        assert total(name) == 0, f"beam run counted {name}: {total(name)}"
    print(f"beam fork smoke OK at {workers} worker(s): {snaps:g} snapshots, "
          f"{forked:g} forked runs, "
          f"{total('gpurel_beam_dropped_runs_total'):g} dropped")
EOF

echo "==> propagation smoke (provenance JSONL + outcome-identical to plain)"
# The same campaign planned plain and with the propagation flight recorder:
# the instrumented run must emit schema-versioned per-trial records and an
# aggregate report while leaving every outcome tally byte-identical.
for prop in off on; do
  FLAG=""; [[ "${prop}" == "on" ]] && FLAG="--propagation"
  "${JOBS_BIN}" plan --kind=campaign --arch=kepler --code=MXM \
    --precision=single --injector=SASSIFI --injections=4 --rf=6 --pred=4 \
    --ia=6 --store-value=4 --store-addr=4 --seed=13 --scale=0.05 ${FLAG} \
    --out="${JOB_DIR}/prop.${prop}" >/dev/null
done
"${JOBS_BIN}" run --spec="${JOB_DIR}/prop.off.shard0of1.json" \
  --out="${JOB_DIR}/prop.off.out.json" >/dev/null
GPUREL_TELEMETRY="${JOB_DIR}/prop.jsonl" \
  "${JOBS_BIN}" run --spec="${JOB_DIR}/prop.on.shard0of1.json" \
  --out="${JOB_DIR}/prop.on.out.json" >/dev/null
"${JOBS_BIN}" report "${JOB_DIR}/prop.on.out.json" |
  grep -q "Fault propagation" || { echo "report subcommand failed"; exit 1; }
python3 - "${JOB_DIR}" <<'EOF'
import json, sys
d = sys.argv[1]
REQUIRED = {
    "schema_version", "trial", "model", "fired", "effect", "kind", "mix",
    "opcode", "bit", "pc", "sm", "warp", "lane", "cta", "cycle", "lane_instr",
    "regs_touched", "preds_touched", "shared_bytes", "global_bytes",
    "warps_reached", "blocks_reached", "control_divergences",
    "overwrite_kills", "masking_depth", "taint_live_at_end", "outcome", "due",
    "geometry", "corrupted_elems", "output_rows", "output_cols",
}
recs = [json.loads(l) for l in open(f"{d}/prop.jsonl") if l.strip()]
recs = [r for r in recs if r.get("event") == "propagation_record"]
assert recs, "no propagation_record telemetry events"
for r in recs:
    missing = REQUIRED - set(r)
    assert not missing, f"record missing {missing}"
    assert r["schema_version"] == 1, r
    assert r["outcome"] in ("Masked", "SDC", "DUE"), r
trials = [r["trial"] for r in recs]
assert trials == sorted(trials), "records not in trial order"
on = json.load(open(f"{d}/prop.on.out.json"))["result"]
off = json.load(open(f"{d}/prop.off.out.json"))["result"]
rep = on.pop("propagation")
assert rep["schema_version"] == 1 and rep["trials"] == len(recs), rep
assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True), \
    "propagation changed outcome tallies"
fired = sum(r["fired"] for r in recs)
print(f"propagation smoke OK: {len(recs)} records ({fired} fired), "
      f"outcome tallies identical to plain run")
EOF

echo "==> microarch smoke (MicroArch campaign: strata, DUE causes, arch purity)"
# A MicroArch job through the job layer: the result must carry the four
# micro-architectural strata with their static site counts and a DUE-cause
# split accounting for every DUE — and an architectural job planned next to
# it must carry none of that (the serialized layout of pre-redesign results
# is unchanged).
"${JOBS_BIN}" plan --kind=campaign --arch=kepler --code=MXM \
  --precision=single --injector=MicroArch --injections=0 --sched=10 \
  --scoreboard=10 --cta=10 --warp-control=10 --seed=13 --scale=0.05 \
  --out="${JOB_DIR}/march" >/dev/null
"${JOBS_BIN}" run --spec="${JOB_DIR}/march.shard0of1.json" --fork-epochs=4 \
  --out="${JOB_DIR}/march.out.json" --workers=2 >/dev/null
python3 - "${JOB_DIR}" <<'EOF'
import json, sys
d = sys.argv[1]
r = json.load(open(f"{d}/march.out.json"))["result"]
ma = r["microarch"]
strata = ["scheduler", "scoreboard", "cta", "warp_control"]
for s in strata:
    assert ma[f"{s}_sites"] > 0, (s, ma)
    assert sum(ma[s][k] for k in ("masked", "sdc", "due")) == 10, (s, ma)
dues = sum(ma[s]["due"] for s in strata)
causes = r["due_causes"]
assert sum(causes.values()) == dues, (causes, dues)
assert causes["ecc"] == 0, causes
arch = json.load(open(f"{d}/prop.off.out.json"))["result"]
assert "microarch" not in arch, "architectural result grew a microarch section"
print(f"microarch smoke OK: 40 strikes over 4 classes, {dues} DUEs "
      f"({causes})")
EOF

echo "==> ThreadSanitizer quick leg (thread pool + campaign determinism + fork)"
# Always-on subset of the full tsan preset: the tests that exercise the
# worker pool, the cross-worker bit-identity contract, the shared snapshot
# pool (read-only snapshot set + per-worker delta restores and reconvergence
# drops across workers, for campaigns and for beams), and the multi-worker
# MicroArch campaigns (machine-state strikes from worker threads). The
# preset's ctest filter covers more binaries; build and run just these four
# here.
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}" --target \
  test_thread_pool test_determinism test_fork_equivalence test_microarch
ctest --test-dir build-tsan -R '^test_(thread_pool|determinism|fork_equivalence|microarch)$' \
  -j "${JOBS}" --output-on-failure

echo "==> UBSan quick leg (executor arithmetic + serializers + snapshots)"
# Always-on subset of the full ubsan preset: the RNG/JSON/fault/executor and
# arithmetic-fuzz tests, where conversion and float-divide UB would corrupt
# results silently, and the sched goldens, which drive every registered
# workload through both lane drivers; and the snapshot restores campaigns
# and beams fork from (test_fork_equivalence, test_beam, test_memory).
# -fno-sanitize-recover turns any hit into a test failure.
cmake --preset ubsan
cmake --build --preset ubsan -j "${JOBS}" --target \
  test_rng test_json test_fault test_executor test_fuzz_arith \
  test_sched_equivalence test_fork_equivalence test_beam test_memory
ctest --test-dir build-ubsan \
  -R '^test_(rng|json|fault|executor|fuzz_arith|sched_equivalence|fork_equivalence|beam|memory)$' \
  -j "${JOBS}" --output-on-failure

echo "==> Release perfbench smoke (pinned digests + BENCHMARK.json catalogue)"
# The tier-1 suite runs this check in the werror (RelWithDebInfo) build; run
# it once more optimized, the configuration the repository benchmark uses.
cmake --preset release
cmake --build --preset release -j "${JOBS}" --target bench_gpurel
./build-release/bench/bench_gpurel --smoke --digests perfbench/digests.json \
  --benchmark-json BENCHMARK.json >/dev/null

if [[ "${1:-}" == "asan" ]]; then
  echo "==> AddressSanitizer pass (serializers / observability / profiler / memory)"
  cmake --preset asan
  cmake --build --preset asan -j "${JOBS}" --target \
    test_telemetry test_obs test_profiler test_stats test_table test_determinism \
    test_memory
  ctest --preset asan -j "${JOBS}"
fi

if [[ "${1:-}" == "tsan" ]]; then
  echo "==> ThreadSanitizer pass (campaign runtime / thread pool / telemetry)"
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" --target \
    test_thread_pool test_fault test_beam test_determinism test_telemetry \
    test_obs
  ctest --preset tsan -j "${JOBS}"
fi

if [[ "${1:-}" == "ubsan" ]]; then
  echo "==> UBSan pass (executor arithmetic / fuzzers / ISA semantics)"
  cmake --preset ubsan
  cmake --build --preset ubsan -j "${JOBS}" --target \
    test_rng test_json test_fault test_executor test_fuzz_arith \
    test_fuzz_control test_isa_semantics test_sched_equivalence \
    test_fork_equivalence test_beam test_memory
  ctest --preset ubsan -j "${JOBS}"
fi

echo "==> CI OK"

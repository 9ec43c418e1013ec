#!/usr/bin/env python3
"""Re-pin perfbench/digests.json: the result digests of every workload (and
of the --smoke set) at the pinned seed.

    python3 perfbench/pin_digests.py

Each workload runs for BENCHMARK.json's run_seconds, so the pins cover
exactly the passes a benchmark run makes. Only an intentional change of
results (a new engine version) should need this; a change that claims a
speed-up must leave the digests as they are.
"""
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 42


def digests(cmd):
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "digest":
            found.setdefault(parts[1], {})[parts[2]] = parts[3]
    return found


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    out = run.build_dir()
    binary = run.build(out)
    tmp = os.path.join(out, "tmp", "pin")
    os.makedirs(tmp, exist_ok=True)
    pinned = {}
    for w in run.WORKLOADS:
        pinned.update(digests([binary, "--workload", w, "--seed", str(SEED),
                               "--seconds", str(seconds), "--tmp", tmp]))
    pinned.update(digests([binary, "--smoke", "--tmp", tmp]))
    shutil.rmtree(tmp, ignore_errors=True)
    path = os.path.join(run.HERE, "digests.json")
    with open(path, "w") as f:
        json.dump({"seed": SEED, "digests": pinned}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pinned {sum(len(v) for v in pinned.values())} digests in {path}")


if __name__ == "__main__":
    main()

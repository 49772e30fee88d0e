#!/usr/bin/env python3
"""Run one workload of the rrp benchmark.

    python3 perfbench/run.py --workload detnet_loop --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository.  Each call:

1. builds perfbench/ (which compiles ../src) into .bench_build/perfbench —
   a no-op after the first call;
2. provisions the model cache in .bench_build/model_cache when the training
   recipe changed or the cache is new (minutes the first time, never inside
   a timed run);
3. runs the workload in its own process and checks its result line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones, and also writes
the traced run's spans to .bench_build/spans_<workload>_<seed>.csv.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
CACHE_DIR = BUILD_ROOT / "model_cache"
BINARY = BUILD_DIR / "rrp_perfbench"
# The files whose content decides which trained models the cache must hold.
RECIPE_FILES = ("src/models/trained_cache.h", "src/models/trained_cache.cpp",
                "src/models/zoo.cpp")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout, env=None):
    """Runs a set-up step with its output on stderr; stdout stays clean."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    return done.returncode == 0


def build():
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not run_quiet(configure, 300):
        # A cache written for another source path: start the build over.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if not run_quiet(configure, 300):
            fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", JOBS], 800):
        fail("build failed")


def provision():
    digest = hashlib.sha256()
    for name in RECIPE_FILES:
        digest.update((ROOT / name).read_bytes())
    stamp = CACHE_DIR / "recipe.sha256"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, RRP_THREADS=JOBS)
    if not run_quiet([str(BINARY), "provision", "--cache", str(CACHE_DIR)],
                     800, env):
        fail("model provisioning failed")
    stamp.write_text(digest.hexdigest())


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt",) + RECIPE_FILES:
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a full checkout of the repository")
    expected = expected_metrics(args.trace)

    build()
    provision()

    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", str(CACHE_DIR)]
    if args.trace:
        cmd += ["--spans",
                str(BUILD_ROOT / f"spans_{args.workload}_{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload exited with {done.returncode}")
    result = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got.keys() != expected.keys():
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}")
    wrong_units = sorted(n for n in got if got[n] != expected[n])
    if wrong_units:
        fail(f"units differ from BENCHMARK.json for {wrong_units}")
    if result["attempted"] < 1:
        fail("no frame attempted")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

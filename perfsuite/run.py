#!/usr/bin/env python3
"""Benchmark entry point: build the suite from the checkout, make sure the
trained-monitor fixture exists, then run one workload.

    python3 perfsuite/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Run it from the root of a checkout. Everything it builds or writes goes under
.bench_build/ in that checkout. The last line of standard output is the JSON
result that bench_suite prints; build and fixture messages go to standard
error. A traced run (--trace 1) also writes its spans as Chrome trace-event
JSON under .bench_build/perfsuite/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent
BUILD = ROOT / ".bench_build" / "perfsuite"
FIXTURE = BUILD / "fixture"

BUILD_TIMEOUT_S = 800
FIXTURE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout, env):
    """Run cmd with its output appended to log; on failure show the tail."""
    with open(log, "ab") as out:
        try:
            code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{' '.join(map(str, cmd))} failed ({code}); log: {log}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args()

    manifest = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no cpsguard source tree to build")
    workloads = [w["name"] for w in json.loads(manifest.read_text())["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative")

    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = BUILD / "build.log"

    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(SUITE_DIR), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, BUILD_TIMEOUT_S,
                   env)
    run_logged(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                "--parallel", "4"], log, BUILD_TIMEOUT_S, env)
    suite = BUILD / "bench_suite"

    # A no-op when the fixture already matches the current configuration.
    run_logged([str(suite), "--make-fixture", str(FIXTURE)],
               BUILD / "fixture.log", FIXTURE_TIMEOUT_S, env)

    cmd = [str(suite), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--fixture", str(FIXTURE),
           "--manifest", str(manifest)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.out:
        cmd += ["--out", args.out]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        fail(f"bench_suite did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

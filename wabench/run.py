#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 wabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wabench/run.py --self-test

The program is built from source into .bench_build/wabench (the first run
in a checkout builds; later runs only relink what changed). The runner
prints the workload's header and ledger, then, as its last line, one JSON
object with exactly the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json when untraced, every per-layer metric
when traced. A per-layer metric of a layer the workload does not reach
reads 0 and is named on the line before the result. Exits non-zero,
without a result line, when the build or the run fails, and non-zero with
a result line when an output check failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wabench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("wabench: the program's sources (CMakeLists.txt, src/) are not in this checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"wabench: {' '.join(cmd[:2])} failed: {e}")
            return False
        if r.returncode != 0:
            log(f"wabench: {' '.join(cmd[:2])} exited {r.returncode}")
            return False
    return True


def source_identity():
    """The commit when this is a git checkout, and always a digest of the
    sources the benchmark builds, so runs of a non-git checkout are tied to
    the code they measured."""
    commit = "unknown"
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "wabench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return commit, h.hexdigest()[:16]


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        if not build("wabench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "wabench_tests")]).returncode

    spec = load_contract()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"wabench: unknown workload {args.workload!r}")
        return 2
    if not build("wabench"):
        return 1

    commit, digest = source_identity()
    cmd = [
        os.path.join(BUILD_DIR, "wabench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(BUILD_DIR, "run"),
        "--commit", commit,
        "--source-digest", digest,
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"wabench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"wabench: {args.workload} exited {r.returncode} without a result")
        return 1
    for line in lines[:-1]:
        print(line)

    # Hold the run to the contract: exactly the declared metrics, in their units.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result.get("metrics", {})
    metrics = {}
    missing = []
    for m in declared:
        got = measured.pop(m["name"], None)
        if got is None:
            if not args.trace:
                log(f"wabench: end-to-end metric {m['name']} was not measured")
                return 1
            missing.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"wabench: {m['name']} measured in {got['unit']}, declared in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if measured:
        log(f"wabench: undeclared metrics {sorted(measured)}")
        return 1
    if result.get("failures"):
        print(f"failed checks: {json.dumps(result['failures'])}")
    if missing:
        print(f"not exercised by {args.workload} (reported as 0): {', '.join(missing)}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]) and r.returncode == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if r.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

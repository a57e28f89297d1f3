#!/usr/bin/env python3
"""TurboFNO benchmark: builds tfno_perfbench from this source tree and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fno1d_burgers, fno2d_vorticity_real, serve_open_mixed (see
perfbench/README.md).  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root; the first run
configures and compiles, later runs rebuild incrementally.  Everything the
program prints is forwarded; the last line of standard output is the JSON
result, holding exactly the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

Exit status: 0 on success; 1 when a correctness check failed; 2 when the
build or the program failed (no result line); 3 when the measurement was
invalid (no result line).  --fault output|reference corrupts one output
before its check (used by perfbench/selftest.py).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds tfno_perfbench; returns its path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            log("configure failed")
            shutil.rmtree(bdir, ignore_errors=True)  # retry from scratch next time
            return None
    cmd = ["cmake", "--build", bdir, "--target", "tfno_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        log("build failed")
        return None
    exe = os.path.join(bdir, "tfno_perfbench")
    return exe if os.path.exists(exe) else None


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds (library, build file, benchmark)."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    top_cmake = os.path.join(ROOT, "CMakeLists.txt")
    if os.path.exists(top_cmake):
        with open(top_cmake, "rb") as f:
            h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def child_env():
    # Library knobs come from the environment; the benchmark measures the
    # defaults, so no inherited TURBOFNO_*/OpenMP setting may change them.
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("TURBOFNO_", "OMP_", "GOMP_", "KMP_"))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("output", "reference"), default=None)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read {spec_path}: {e}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2
    span_dir = os.path.join(bdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir, "--source-id", source_id()]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=child_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tfno_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        log(f"tfno_perfbench exited with status {proc.returncode}")
        return 2 if proc.returncode != 3 else 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        log("no JSON result line")
        return 2
    print("\n".join(lines[:-1]), flush=True)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            log(f"metric {m['name']} missing or not a number")
            return 2
        if got["unit"] != m["unit"]:
            log(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    out = {"correct": bool(result["correct"]) and proc.returncode == 0,
           "attempted": int(result["attempted"]), "failed": int(result["failed"]),
           "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

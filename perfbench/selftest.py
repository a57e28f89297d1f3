#!/usr/bin/env python3
"""Self-test of the benchmark itself (run from the checkout root):

    python3 perfbench/selftest.py [--seconds 2]

1. A short run of every workload, untraced and traced, must exit 0, print
   every metric BENCHMARK.json names for the mode on a "metric <name>
   <value> <unit>" line with the listed unit, and end with a JSON result of
   exactly {correct, attempted, failed, metrics} holding those metrics.
2. Corrupting one output must trip the correctness gate (exit 1,
   "correct": false): a timed or served output on every workload, and an
   fft/gemm probe output in the traced mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def check_normal(workload, seconds, trace, spec):
    code, lines = run(workload, seconds, trace)
    where = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{where}: exit {code}"]
    errors = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"attempted={result.get('attempted')}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        errors.append(f"{where}: result metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} result {got}")
        if printed.get(m["name"]) != m["unit"]:
            errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    return errors


def check_fault(workload, seconds, trace, fault):
    code, lines = run(workload, seconds, trace, fault)
    where = f"{workload} --trace {trace} --fault {fault}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"{where}: no result line (exit {code})"]
    if code != 1 or result.get("correct") is not False or result.get("failed", 0) < 1:
        return [f"{where}: exit {code}, correct={result.get('correct')}, "
                f"failed={result.get('failed')} (the gate did not trip)"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_normal(w["name"], args.seconds, trace, spec)
        errors += check_fault(w["name"], args.seconds, 0, "output")
    errors += check_fault(spec["workloads"][0]["name"], args.seconds, 1, "reference")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size (--scale tiny, one
second), untraced and traced, and checks that:
  * each run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  * the untraced run emits every end_to_end metric, the traced run every
    per_layer metric, each with the unit BENCHMARK.json names;
  * traced and untraced runs of one seed agree on the outcome digest and
    sim_rounds_mean (the timing wrapper measures the same program);
  * the layer-sum checks hold (no problems reported; no layer busier than
    the task wall time that contains it);
  * a deliberately wrong expected digest is reported as failures.
Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_metrics(workload, result, wanted):
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          f"{workload}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        check(got[m["name"]]["unit"] == m["unit"], f"{workload}: unit of {m['name']}")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        report0, result0 = run(w, 0)
        check(set(result0) == {"correct", "attempted", "failed", "metrics"},
              f"{w}: result keys {sorted(result0)}")
        check(result0["correct"] and result0["failed"] == 0 and result0["attempted"] > 0,
              f"{w}: untraced run not correct: {report0['problems']}")
        check_metrics(w, result0, SPEC["end_to_end"])

        report1, result1 = run(w, 1)
        check(result1["correct"], f"{w}: traced run not correct: {report1['problems']}")
        check_metrics(w, result1, SPEC["per_layer"])
        check(report1["digest"] == report0["digest"]
              and report1["sim_rounds_mean"] == report0["sim_rounds_mean"],
              f"{w}: traced and untraced outcomes differ")
        m = {k: v["value"] for k, v in result1["metrics"].items()}
        check(m["radio.step_ms"] + m["exp.journal_ms"] <= m["exp.task_wall_ms"]
              and m["exp.unattributed_ms"] >= 0 and m["core.propagation_ms"] >= 0,
              f"{w}: layer busy times exceed task wall time: {m}")

        report2, result2 = run(w, 0, extra=["--expect-digest", "0" * 16])
        check(not result2["correct"] and result2["failed"] == result2["attempted"],
              f"{w}: a wrong expected digest was not reported as failures")
        print(f"ok: {w} (digest {report0['digest']})")
    print("selftest passed")


if __name__ == "__main__":
    main()

"""Self-test of the benchmark at a tiny horizon. It has no timing thresholds.

    python3 perfbench/selftest.py      (from the repository root)

It checks three things:

* every metric that BENCHMARK.json names is printed with its unit, for every
  workload in both modes, and the result line has exactly the contract's keys;
* the deterministic per-layer counts repeat exactly between two traced runs;
* a tampered impact fails the closed-form gate, and changed output bytes fail
  the byte-identity gate.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
T_FINAL = 3.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--t-final", repr(T_FINAL)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(contract: dict, failures: list):
    from metrics import LAYER_METRICS
    kinds = {name: kind for name, (_, kind) in LAYER_METRICS.items()}
    for wl in contract["workloads"]:
        name = wl["name"]
        e2e = bench(name, 0)
        traced = [bench(name, 1), bench(name, 1)]
        for trace, result in [(0, e2e)] + [(1, r) for r in traced]:
            listed = contract["per_layer" if trace else "end_to_end"]
            if set(result) != RESULT_KEYS:
                failures.append(f"{name} trace {trace}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append(f"{name} trace {trace}: not correct: {result}")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                failures.append(f"{name} trace {trace}: metrics {got} != {want}")
        first, second = (r["metrics"] for r in traced)
        for metric, kind in kinds.items():
            if kind != "time" and first[metric] != second[metric]:
                failures.append(f"{name}: {metric} did not repeat: "
                                f"{first[metric]} vs {second[metric]}")
        if first["core.rhs_calls"]["value"] < 1:
            failures.append(f"{name}: the traced run saw no RHS evaluation")
        print(f"ok: {name} emits every metric; counts repeat", flush=True)


def check_gates(failures: list):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from worker import run_rep

    for name in workloads.CLI_WORKLOADS:
        work = os.path.join(HERE, "_work", f"selftest-{name}-{os.getpid()}")
        os.makedirs(work)
        try:
            wl = workloads.make(name, 3, ROOT, work, T_FINAL)
            wl.setup()
            rec, digest = run_rep(wl, 0, None, None)
            if not rec["ok"]:
                failures.append(f"{name}: untampered rep failed: {rec['reason']}")
            summary_path = os.path.join(wl.starts[0]["out"], "summary.json")
            with open(summary_path) as fh:
                summary = json.load(fh)
            summary["events"][0]["q"][0] += 1e-6
            with open(summary_path, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            reason, tampered = wl.gate(0, (0, 0, ""))
            if reason is None or "closed form" not in reason:
                failures.append(f"{name}: tampered impact passed the gate ({reason})")
            rec, _ = run_rep(wl, 0, None, tampered)
            if rec["ok"] or "bytes differ" not in rec["reason"]:
                failures.append(f"{name}: changed bytes passed the gate ({rec})")
            rec, _ = run_rep(wl, 0, None, digest)
            if not rec["ok"]:
                failures.append(f"{name}: a second clean rep failed ({rec})")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"ok: {name} gates reject a tampered impact and changed bytes",
              flush=True)


def main() -> int:
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    failures: list = []
    check_outputs(contract, failures)
    check_gates(failures)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

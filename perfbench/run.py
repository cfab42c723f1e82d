"""contactsim benchmark: one workload and one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Every process it starts is fresh and single-threaded (BLAS threads pinned to
1 through that process's environment only).

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``, the median
set-up time over several fresh processes; ``run_s`` and ``simulate_s``, the
time of one pipeline rep and of the ``simulate`` call inside it (for each of
the seed's start states the median over its reps, after a warm-up rep, and
then the mean over the starts); and ``peak_rss_mb`` of the process that ran
the reps. Times are scaled to a fixed machine speed (see worker.SpeedProbe).
With ``--trace 1`` it reports the per-layer metrics of ``tracer.py`` and the
tracing overhead. Earlier lines give sample counts, high percentiles, the
seeded starts and the machine; the same record, with every rep, goes to
``perfbench/results/``. The last line is ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from metrics import (END_TO_END, LAYER_METRICS, OVERHEAD, PROBE_NOMINAL_S,
                     SETUP_PROBE_NOMINAL_S)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("circle_lagrangian", "ellipse_hamiltonian", "quartic_newton")
SETUP_PROBES = 5          # timed; one untimed probe runs first
DEADLINE_S = 170.0        # the whole run, every child included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--t-final", type=float, default=None,
                   help="override the workload's horizon (self-test only)")
    return p.parse_args(argv)


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": os.getloadavg()}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker_args(args, root: str, work: str) -> list:
    out = ["--workload", args.workload, "--seed", str(args.seed),
           "--root", root, "--work", work]
    if args.t_final is not None:
        out += ["--t-final", repr(args.t_final)]
    return out


def run_child(argv, env, deadline) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def high_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in (99, 95, 90, 75):
        if sum(v > cuts[p - 1] for v in values) >= 10:
            return {"p": p, "value": cuts[p - 1]}
    return None


def scaled(rec, key, probe_key, nominal=PROBE_NOMINAL_S):
    """A measured time scaled to the machine speed at which one speed-probe
    sample takes ``nominal`` seconds (see worker.SpeedProbe)."""
    return rec[key] * nominal / rec[probe_key]


def over_starts(reps, value) -> dict:
    """``value(rep)`` summarised as the mean over starts of each start's
    median, with the per-start medians, the sample count and the high
    percentile of all samples."""
    by_start = defaultdict(list)
    for r in reps:
        v = value(r)
        if v is not None:
            by_start[r["start"]].append(v)
    medians = [statistics.median(v) for _, v in sorted(by_start.items())]
    pooled = [v for vs in by_start.values() for v in vs]
    return {"value": statistics.fmean(medians), "per_start": medians,
            "n": len(pooled), "high": high_percentile(pooled)}


def end_to_end(res: dict, setups: list) -> dict:
    timed = [r for r in res["reps"] if "run_s" in r and not r.get("warmup")]
    setup_s = [scaled(r, "setup_s", "probe_s", SETUP_PROBE_NOMINAL_S) for r in setups]
    return {
        "setup_s": {"value": statistics.median(setup_s), "n": len(setup_s),
                    "high": high_percentile(setup_s)},
        "run_s": over_starts(timed, lambda r: scaled(r, "run_s", "probe_s")),
        "simulate_s": over_starts(
            timed, lambda r: r["simulate_s"] and scaled(r, "simulate_s",
                                                        "simulate_probe_s")),
        "peak_rss_mb": {"value": res["peak_rss_mb"], "n": 1, "high": None},
        # not metrics: the wall times before scaling, and the probe samples
        "raw.run_s": over_starts(timed, lambda r: r["run_s"]),
        "raw.simulate_s": over_starts(timed, lambda r: r["simulate_s"]),
        "raw.probe_s": over_starts(timed, lambda r: r["probe_s"]),
        "raw.setup_s": {"value": statistics.median(r["setup_s"] for r in setups),
                        "n": len(setups), "high": None},
    }


def per_layer(res: dict):
    """(metric -> stats, traced reps whose deterministic counts differ from
    those of the first traced rep of the same start)."""
    traced = [r for r in res["reps"] if r.get("layers")]
    untraced = [r for r in res["reps"]
                if not r["traced"] and "run_s" in r and not r.get("warmup")]
    first = {}
    for r in traced:
        first.setdefault(r["start"], r)
    stats, mismatched = {}, []
    for name, (_, kind) in LAYER_METRICS.items():
        if kind == "time":
            stats[name] = over_starts(traced, lambda r: r["layers"][name])
        else:
            mismatched += [r for r in traced if r["layers"][name]
                           != first[r["start"]]["layers"][name]]
            stats[name] = over_starts(first.values(), lambda r: r["layers"][name])
    tr = over_starts(traced, lambda r: scaled(r, "run_s", "probe_s"))
    un = over_starts(untraced, lambda r: scaled(r, "run_s", "probe_s"))
    stats[OVERHEAD] = {"value": tr["value"] - un["value"], "n": tr["n"] + un["n"],
                       "high": None}
    return stats, mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "contactsim", "__init__.py")):
        print("run.py: src/contactsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    machine = machine_record()
    env = child_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                setups.append(run_child(["setup"] + worker_args(
                    args, root, os.path.join(work, f"setup{i}")), env, deadline))
            setups = setups[1:]   # the first also compiles bytecode
        run = ["run"] + worker_args(args, root, os.path.join(work, "run")) + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run += ["--spans", os.path.join(results, f"{tag}-spans.csv")]
        res = run_child(run, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = res["reps"]
    try:
        if args.trace:
            stats, mismatched = per_layer(res)
            for r in mismatched:
                if r["ok"]:
                    r["ok"], r["reason"] = False, "counts differ from the first traced rep"
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
            units[OVERHEAD] = "s"
        else:
            stats = end_to_end(res, setups)
            units = END_TO_END
    except (statistics.StatisticsError, KeyError):
        print("run.py: no rep completed; " + "; ".join(
            str(r["reason"]) for r in reps), file=sys.stderr)
        return 1
    failures = [r["reason"] for r in reps if not r["ok"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": dict(machine, numpy=res["numpy"]),
              "starts": res["starts"], "n_events": res["n_events"],
              "failures": failures, "stats": stats, "setups": setups, "reps": reps}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# " + json.dumps({k: record[k] for k in
                             ("workload", "seed", "machine", "starts", "n_events")}))
    for name, s in stats.items():
        high = (f", p{s['high']['p']} {s['high']['value']:.6g}" if s["high"]
                else "")
        starts = (" per start " + " ".join(f"{v:.6g}" for v in s["per_start"])
                  if "per_start" in s else "")
        print(f"# {name}: {s['value']:.6g} {units.get(name, 's')} "
              f"(n={s['n']}{high}){starts}")
    for reason in failures:
        print(f"# FAILED: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": len(failures),
        "metrics": {name: {"value": stats[name]["value"], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

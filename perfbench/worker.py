"""One fresh, single-threaded process of the benchmark; started by run.py.

``setup`` mode times what a user pays before the first call into
``simulate``: importing contactsim (mostly numpy), parsing the workload's
config, and building the system and the initial state. It prints that time.

``run`` mode does the same set-up, one warm-up rep, and then cycles of one
rep per start state until ``--seconds`` have passed. With ``--trace 1``
every other cycle runs under the tracer, so tracing overhead is the traced
minus the untraced rep time. Every rep passes the workload's gates, and its
output bytes must equal those of the first rep of the same start. The last
line printed is a JSON record of every rep.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

# Speed probes as (kernel iterations, sampling interval): about 0.5 ms every
# 20 ms of a rep, and 0.5 ms every 20 ms of set-up, on a 2-core Xeon VM.
REP_PROBE = (10, 0.02)
SETUP_PROBE = (2000, 0.02)
# Stop starting reps after this long, whatever --seconds says, so that a run
# always ends within three minutes.
MAX_LOOP_S = 120.0


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", default=None, help="CSV for the first traced rep")
    p.add_argument("--t-final", type=float, default=None)
    return p.parse_args(argv)


@dataclass(frozen=True)
class _State:
    """A validated, read-only state value, built the way the program builds
    its own states."""

    q: object
    v: object

    def __post_init__(self):
        import numpy as np
        for name in ("q", "v"):
            x = np.array(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} is not finite")
            x.flags.writeable = False
            object.__setattr__(self, name, x)


def rep_kernel(iters: int):
    """Fixed work that touches no contactsim code but has the mix of the
    program's inner loops: small-array numpy calls, state objects, float
    conversion and formatting."""
    import numpy as np   # not at module level: set-up timing covers the import
    M = np.array([[2.0, 0.1], [0.1, 1.0]])
    s = _State([0.1, 0.2], [0.3, 0.4])
    acc = 0.0
    for _ in range(iters):
        a = np.linalg.solve(M, -0.01 * s.v)
        y = (np.concatenate([s.q, s.v, [acc]])
             + 1e-3 * np.concatenate([s.v, a, [float(s.v @ s.v)]]))
        s = _State(y[:2], y[2:4])
        acc += float(y[4]) + len(",".join(format(float(x), ".17g") for x in y))
    return acc


def python_kernel(iters: int):
    """Fixed pure-interpreter work, for timing set-up before numpy is loaded."""
    acc = 0.0
    for i in range(iters):
        acc += (i * 0.5) ** 2 % 7.0
    return acc


class SpeedProbe:
    """Samples how fast the machine runs while a measurement runs.

    The cores of a shared machine can swing in speed by up to 2x over
    seconds, which would swamp a change to the program. Every ``interval``
    seconds a SIGALRM handler times ``kernel(iters)``, and once more at entry
    and exit. A measurement is divided by the mean sample over its own
    window, and the handler's time is subtracted from it.
    """

    def __init__(self, kernel, iters: int, interval: float):
        self.kernel, self.iters, self.interval = kernel, iters, interval
        self.samples = []   # (start, duration)

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel(self.iters)
        self.samples.append((t0, time.perf_counter() - t0))

    def mean(self) -> float:
        return statistics.fmean(d for _, d in self.samples)

    def __enter__(self):
        self.samples = []
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def window(self, t0: float, t1: float):
        """(wall time in [t0, t1] minus the handler's share, mean sample in it)"""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        return (t1 - t0 - sum(inside),
                statistics.fmean(inside) if inside else None)


def run_rep(wl, k, tracer, reference):
    """One timed rep from start k. Returns its record and its output digest;
    the rep fails if the digest differs from ``reference``."""
    gc.collect()
    n_sim = len(wl.simulate.windows)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with SpeedProbe(rep_kernel, *REP_PROBE) as probe:
            t0 = time.perf_counter()
            output = wl.rep(k)
            t1 = time.perf_counter()
    except Exception as e:  # a failed rep is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return {"start": k, "traced": tracer is not None, "ok": False,
                "reason": f"{type(e).__name__}: {e}"}, None
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        reason, digest = wl.gate(k, output)
    except Exception as e:  # a gate that cannot judge the output fails the rep
        traceback.print_exc(file=sys.stderr)
        reason, digest = f"gate raised {type(e).__name__}: {e}", None
    if reason is None and reference is not None and digest != reference:
        reason = "output bytes differ from the first rep of this start"
    run_s, _ = probe.window(t0, t1)
    rec = {"start": k, "traced": tracer is not None, "ok": reason is None,
           "reason": reason,
           "run_s": run_s, "probe_s": probe.mean(),
           "simulate_s": None, "simulate_probe_s": None}
    if len(wl.simulate.windows) > n_sim:
        rec["simulate_s"], sim_probe = probe.window(*wl.simulate.windows[n_sim])
        rec["simulate_probe_s"] = sim_probe or rec["probe_s"]
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics()
    return rec, digest


def main(argv=None) -> int:
    args = parse_args(argv)
    with SpeedProbe(python_kernel, *SETUP_PROBE) as probe:
        t0 = time.perf_counter()
        import workloads   # imports numpy and contactsim
        t1 = time.perf_counter()
        wl = workloads.make(args.workload, args.seed, args.root, args.work,
                            args.t_final)
        t2 = time.perf_counter()
        wl.setup()
        t3 = time.perf_counter()
    setup_s = probe.window(t0, t1)[0] + probe.window(t2, t3)[0]
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(workloads.contactsim.__file__).startswith(src + os.sep):
        print(f"contactsim was imported from {workloads.contactsim.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "probe_s": probe.mean()}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        # built after the workload, whose simulate timer it must leave in place
        tracer = Tracer()
    # One warm-up rep, then whole cycles of one rep per start until --seconds
    # have passed. Each start's first rep gives the bytes its later reps must
    # reproduce, so there are at least two cycles. A traced run alternates
    # traced and untraced cycles and needs two traced ones to compare counts.
    rec, digest = run_rep(wl, 0, None, None)
    rec["warmup"] = True
    reps, references = [rec], {0: digest}
    min_cycles = 3 if tracer is not None else 2
    start = time.perf_counter()
    for cycle in itertools.count():
        traced = tracer is not None and cycle % 2 == 0
        for k in range(len(wl.starts)):
            rec, digest = run_rep(wl, k, tracer if traced else None,
                                  references.get(k))
            references.setdefault(k, digest)
            reps.append(rec)
            if traced and cycle == 0 and k == 0 and args.spans:
                tracer.write_spans(args.spans)
            if time.perf_counter() - start >= MAX_LOOP_S:
                break
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and cycle + 1 >= min_cycles) or elapsed >= MAX_LOOP_S:
            break
    print(json.dumps({
        "numpy": workloads.np.__version__,
        "starts": [s["record"] for s in wl.starts],
        "n_events": wl.n_events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

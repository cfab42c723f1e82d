"""Per-layer tracing by wrapping the program's public functions from outside.

The program itself carries no instrumentation. ``Tracer.install`` rebinds
each wrapped function in every ``contactsim`` module that imported it (the
modules call each other through module globals, so the rebinding reaches
every internal call site) and ``uninstall`` puts the originals back.

A span records (name, start, end, parent) and is kept in memory; a layer's
self time is its spans' duration minus the time covered by their child
spans. Hot helpers that would cost more to time than they do (state
construction, dense evaluation, surface evaluation) are counted only.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import contactsim
from contactsim import checks, cli, core, hybrid, impact, integrate
from contactsim import io as cio

MODULES = (contactsim, core, integrate, impact, hybrid, checks, cli, cio)

RHS = ("core.herglotz_rhs", "core.hamiltonian_rhs")
RESOLVERS = ("impact.resolve_impact_natural", "impact.resolve_impact_newton",
             "impact.resolve_impact_hamiltonian")
INTEGRATE = ("integrate.integrate_until_event", "integrate.locate_event")
CHECKS = ("checks.check_energy_decay", "checks.check_dissipated_quantity",
          "checks.check_impact_conditions")
WRITERS = {"io.write_trajectory_csv": "io.csv_bytes",
           "io.write_summary_json": "io.json_bytes",
           "io.write_svg": "io.svg_bytes"}

# Public functions that get a span, as (module, function).
SPANNED = (
    (core, "herglotz_rhs"), (core, "hamiltonian_rhs"),
    (core, "evaluate_partials"), (core, "finite_difference_partials"),
    (core, "lagrangian_energy"),
    (integrate, "step"), (integrate, "integrate_until_event"),
    (integrate, "locate_event"),
    (impact, "resolve_impact_natural"), (impact, "resolve_impact_newton"),
    (impact, "resolve_impact_hamiltonian"),
    (hybrid, "simulate"), (hybrid, "sample"),
    (checks, "check_energy_decay"), (checks, "check_dissipated_quantity"),
    (checks, "check_impact_conditions"),
    (cli, "parse_config"), (cli, "build_system"), (cli, "run_simulation"),
    (cli, "cmd_check"),
    (cio, "write_trajectory_csv"), (cio, "read_trajectory_csv"),
    (cio, "write_summary_json"), (cio, "write_svg"),
)

# Methods that are counted, as (class, method, counter, spans it must be
# called directly from; None counts every call).
COUNTED = (
    (core.ContactStateL, "__post_init__", "core.states_built", None),
    (core.ContactStateH, "__post_init__", "core.states_built", None),
    (integrate.DenseSegment, "eval", "integrate.dense_evals", INTEGRATE),
    (impact.SwitchingSurface, "value", "integrate.surface_evals", INTEGRATE),
    (hybrid.TrajectorySegment, "eval", "checks.node_evals", CHECKS),
)

class Tracer:
    def __init__(self):
        self._patches = []
        for module, fname in SPANNED:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            orig = getattr(module, fname)
            wrapped = self._span(name, orig)
            for m in MODULES:
                if getattr(m, fname, None) is orig:
                    self._patches.append((m, fname, orig, wrapped))
        for cls, meth, counter, parents in COUNTED:
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig, self._count(counter, parents, orig)))
        self.reset()

    def reset(self):
        self.spans = []          # (id, name, parent id, start, end)
        self.stack = []          # open spans: [id, name, start, child time]
        self.active = Counter()  # open span names
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxes = defaultdict(float)

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _span(self, name, fn):
        clock = time.perf_counter
        is_rhs = name in RHS
        is_partials = name == "core.evaluate_partials"
        writes = WRITERS.get(name)

        def wrapper(*args, **kwargs):
            stack, active = self.stack, self.active
            if is_rhs and active["integrate.step"]:
                self.counts["rhs_in_step"] += 1
            if is_partials and any(active[r] for r in RESOLVERS):
                self.counts["impact.partials_calls"] += 1
            parent = stack[-1][0] if stack else None
            rec = [len(self.spans) + len(stack), name, clock(), 0.0]
            stack.append(rec)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - rec[2]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - rec[3]
                if stack:
                    stack[-1][3] += dur
                self.spans.append((rec[0], name, parent, rec[2], end))
            self._observe(name, result, args, writes)
            return result

        return wrapper

    def _observe(self, name, result, args, writes):
        if name == "integrate.integrate_until_event":
            self.counts["hybrid.dense_segments"] += len(result.segments)
        elif name in RESOLVERS:
            self.maxes["impact.max_residual"] = max(
                self.maxes["impact.max_residual"],
                result.residual_tangential, result.residual_energy)
        elif name == "hybrid.sample":
            self.counts["hybrid.sample_rows"] += int(result.times.size)
        elif name in CHECKS:
            self.maxes["checks.worst_ratio"] = max(
                self.maxes["checks.worst_ratio"],
                result.max_violation / result.tolerance)
        elif writes:
            self.counts[writes] += os.path.getsize(args[0])

    def _count(self, counter, parents, fn):
        if parents is None:
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                stack = self.stack
                if stack and stack[-1][1] in parents:
                    self.counts[counter] += 1
                return fn(*args, **kwargs)
        return counted

    def layer_metrics(self) -> dict:
        """Every ``metrics.LAYER_METRICS`` entry for the spans since reset."""
        c, tot, slf, n = self.calls, self.total, self.self_time, self.counts
        steps = c["integrate.step"]
        m = {
            "core.rhs_calls": sum(c[r] for r in RHS),
            "core.rhs_s": sum(tot[r] for r in RHS),
            "core.partials_calls": c["core.evaluate_partials"],
            "core.partials_s": tot["core.evaluate_partials"],
            "core.fd_calls": c["core.finite_difference_partials"],
            "core.fd_s": tot["core.finite_difference_partials"],
            "core.energy_calls": c["core.lagrangian_energy"],
            "core.energy_s": tot["core.lagrangian_energy"],
            "core.states_built": n["core.states_built"],
            "integrate.steps": steps,
            # every attempt evaluates six stages; the seventh is FSAL
            "integrate.rejected_steps": n["rhs_in_step"] // 6 - steps,
            "integrate.step_self_s": slf["integrate.step"],
            "integrate.scan_s": slf["integrate.integrate_until_event"],
            "integrate.locate_calls": c["integrate.locate_event"],
            "integrate.locate_s": tot["integrate.locate_event"],
            "integrate.surface_evals": n["integrate.surface_evals"],
            "integrate.dense_evals": n["integrate.dense_evals"],
            "impact.resolves": sum(c[r] for r in RESOLVERS),
            "impact.resolve_s": sum(tot[r] for r in RESOLVERS),
            "impact.partials_calls": n["impact.partials_calls"],
            "impact.max_residual": self.maxes["impact.max_residual"],
            "hybrid.flow_phases": c["integrate.integrate_until_event"],
            "hybrid.dense_segments": n["hybrid.dense_segments"],
            "hybrid.loop_self_s": slf["hybrid.simulate"],
            "hybrid.sample_s": tot["hybrid.sample"],
            "hybrid.sample_rows": n["hybrid.sample_rows"],
            "checks.energy_s": tot["checks.check_energy_decay"],
            "checks.dissipated_s": tot["checks.check_dissipated_quantity"],
            "checks.impact_s": tot["checks.check_impact_conditions"],
            "checks.node_evals": n["checks.node_evals"],
            "checks.worst_ratio": self.maxes["checks.worst_ratio"],
            "cli.parse_s": tot["cli.parse_config"] + tot["cli.build_system"],
            "cli.self_s": slf["cli.run_simulation"],
            "cli.check_cmd_s": tot["cli.cmd_check"],
            "io.csv_write_s": tot["io.write_trajectory_csv"],
            "io.csv_bytes": n["io.csv_bytes"],
            "io.csv_read_s": tot["io.read_trajectory_csv"],
            "io.json_write_s": tot["io.write_summary_json"],
            "io.json_bytes": n["io.json_bytes"],
            "io.svg_write_s": tot["io.write_svg"],
            "io.svg_bytes": n["io.svg_bytes"],
        }
        return m

    def write_spans(self, path: str):
        """Spans as CSV: id, name, parent id (empty at the root), start, end."""
        with open(path, "w") as fh:
            fh.write("id,name,parent,start,end\n")
            for sid, name, parent, start, end in sorted(self.spans):
                fh.write(f"{sid},{name},{'' if parent is None else parent},"
                         f"{start!r},{end!r}\n")


"""Command-line front end: simulate, impact-test, check, sweep.

Configuration is a single JSON file with nested sections (documented in
the README); outputs are a trajectory CSV, a summary JSON, and an
optional SVG plot. Exit codes: 0 success with all checks passing, 2 on a
check failure or non-completed run, 1 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys as _sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .billiards import (
    BilliardSpec,
    Circle,
    Ellipse,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    make_circular_billiard,
    make_elliptical_billiard,
)
from .checks import (
    FLOW_TOL,
    IMPACT_TOL,
    check_decay_laws,
    check_impact_conditions,
    check_row_decay_laws,
    CheckReport,
)
from .core import (
    ContactStateH,
    ContactStateL,
    SystemSpec,
    hamiltonian_from_lagrangian,
    legendre_forward,
    natural_lagrangian_system,
)
from .errors import ConfigError, ContactSimError, GrazingContact
from .hybrid import COMPLETED, HybridSystem, simulate
from .impact import SwitchingSurface, impact_violation
from .integrate import EventConfig, StepperConfig
from .io import (
    format_float,
    read_trajectory_csv,
    write_summary_json,
    write_trajectory_csv,
    write_svg,
)

CONTAINMENT_TOL = 1e-10


@dataclass(frozen=True)
class SystemSetup:
    """The `system` section, validated and built once: the Lagrangian hybrid
    system, its plot outline, and whether ell is monitored (circle only)."""

    hybrid: HybridSystem
    boundary: Optional[tuple]
    monitors_ell: bool


@dataclass
class RunConfig:
    """Validated run configuration (see README for the file schema)."""

    system: SystemSetup
    q0: np.ndarray
    v0: Optional[np.ndarray]
    p0: Optional[np.ndarray]
    z0: float
    t_final: float
    formulation: str
    max_events: int
    stepper: StepperConfig
    events: EventConfig
    samples: int
    svg: bool
    raw: dict = field(repr=False, default_factory=dict)


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        node = node[part]
    return node


def _positive(value, path: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    if not v > 0.0:
        raise ConfigError(f"'{path}' must be > 0, got {v}")
    return v


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        )


def _parse_system(cfg: dict) -> SystemSetup:
    """Validate the `system` section, fill its defaults and build it."""
    kind = _get(cfg, "system.kind", required=True)
    if kind not in ("circle", "ellipse", "custom"):
        raise ConfigError(f"'system.kind' must be circle, ellipse, or custom, got {kind!r}")
    gamma = float(_get(cfg, "system.gamma", 0.0))
    if gamma < 0.0:
        raise ConfigError(f"'system.gamma' must be >= 0, got {gamma}")
    if kind == "custom":
        n = int(_get(cfg, "system.n", required=True))
        if n < 1:
            raise ConfigError(f"'system.n' must be >= 1, got {n}")
        M = np.asarray(_get(cfg, "system.mass_matrix", required=True), dtype=float)
        if M.shape != (n, n):
            raise ConfigError(
                f"'system.mass_matrix' must be {n}x{n}, got shape {M.shape}")
        if _get(cfg, "system.surface.kind", required=True) != "sphere":
            raise ConfigError("'system.surface.kind' must be 'sphere'")
        r = _positive(_get(cfg, "system.surface.radius", required=True),
                      "system.surface.radius")
        surface = SwitchingSurface(h=lambda q: r * r - float(q @ q), grad_h=lambda q: -2.0 * q)
        hs = HybridSystem(dynamics=natural_lagrangian_system(n=n, mass=M, gamma=gamma),
                          surface=surface)
        return SystemSetup(hs, ("circle", r) if n == 2 else None, monitors_ell=False)
    if kind == "circle":
        r = _positive(_get(cfg, "system.radius", 1.0), "system.radius")
        make, shape, boundary = make_circular_billiard, Circle(r), ("circle", r)
    else:
        a = _positive(_get(cfg, "system.a", required=True), "system.a")
        b = _positive(_get(cfg, "system.b", required=True), "system.b")
        make, shape, boundary = make_elliptical_billiard, Ellipse(a, b), ("ellipse", a, b)
    mass = _positive(_get(cfg, "system.mass", 1.0), "system.mass")
    return SystemSetup(make(BilliardSpec(boundary=shape, gamma=gamma, mass=mass)),
                       boundary, monitors_ell=kind == "circle")


def parse_config(cfg: dict, samples_override=None, svg_override=None,
                 formulation_override=None) -> RunConfig:
    system = _parse_system(cfg)
    n = system.hybrid.n
    q0 = np.asarray(_get(cfg, "initial.q", required=True), dtype=float)
    if q0.size != n:
        raise ConfigError(f"'initial.q' must have length {n}, got {q0.size}")
    v_raw = _get(cfg, "initial.v")
    p_raw = _get(cfg, "initial.p")
    if (v_raw is None) == (p_raw is None):
        raise ConfigError("exactly one of 'initial.v' or 'initial.p' is required")
    v0 = None if v_raw is None else np.asarray(v_raw, dtype=float)
    p0 = None if p_raw is None else np.asarray(p_raw, dtype=float)
    given = v0 if v0 is not None else p0
    if given.size != n:
        raise ConfigError(f"initial velocity/momentum must have length {n}")
    z0 = float(_get(cfg, "initial.z", 0.0))

    t_final = _positive(_get(cfg, "run.t_final", required=True), "run.t_final")
    formulation = formulation_override or _get(cfg, "run.formulation", "lagrangian")
    if formulation not in ("lagrangian", "hamiltonian"):
        raise ConfigError(
            f"'run.formulation' must be lagrangian or hamiltonian, got {formulation!r}")
    if p_raw is not None and formulation != "hamiltonian":
        raise ConfigError("'initial.p' requires the hamiltonian formulation")
    max_events = int(_get(cfg, "run.max_events", 10 ** 6))
    if _get(cfg, "run.deterministic", True) is not True:
        raise ConfigError("'run.deterministic' cannot be disabled; runs are seed-free")

    try:
        stepper = StepperConfig(
            rtol=float(_get(cfg, "stepper.rtol", 1e-10)),
            atol=float(_get(cfg, "stepper.atol", 1e-10)),
            h_init=float(_get(cfg, "stepper.h_init", 1e-3)),
            h_max=float(_get(cfg, "stepper.h_max", 1.0)),
            max_steps=int(_get(cfg, "stepper.max_steps", 10 ** 6)),
        )
        events = EventConfig(
            t_tol=float(_get(cfg, "events.t_tol", 1e-12)),
            h_tol=float(_get(cfg, "events.h_tol", 1e-12)),
            grazing_threshold=float(_get(cfg, "events.grazing_threshold", 1e-9)),
        )
    except ValueError as e:
        raise ConfigError(str(e))

    samples = int(samples_override if samples_override is not None
                  else _get(cfg, "output.samples", 1000))
    if samples < 2:
        raise ConfigError(f"'output.samples' must be >= 2, got {samples}")
    svg = bool(svg_override if svg_override is not None
               else _get(cfg, "output.svg", True))
    return RunConfig(system=system, q0=q0, v0=v0, p0=p0, z0=z0,
                     t_final=t_final, formulation=formulation,
                     max_events=max_events, stepper=stepper, events=events,
                     samples=samples, svg=svg, raw=cfg)


def build_system(rc: RunConfig):
    """Returns (HybridSystem in the requested formulation, Lagrangian spec,
    boundary description for plotting)."""
    hs = rc.system.hybrid
    lag_spec: SystemSpec = hs.dynamics
    if rc.formulation == "hamiltonian":
        hs = HybridSystem(dynamics=hamiltonian_from_lagrangian(lag_spec), surface=hs.surface)
    return hs, lag_spec, rc.system.boundary


def initial_state(rc: RunConfig, hs: HybridSystem, lag_spec: SystemSpec):
    if rc.formulation == "lagrangian":
        return ContactStateL(q=rc.q0, qdot=rc.v0, z=rc.z0, t=0.0)
    if rc.p0 is not None:
        return ContactStateH(q=rc.q0, p=rc.p0, z=rc.z0, t=0.0)
    return legendre_forward(lag_spec, ContactStateL(q=rc.q0, qdot=rc.v0, z=rc.z0, t=0.0))


def _ell(hs: HybridSystem, s) -> float:
    """x vy - y vx with the velocity from the system's own evaluator."""
    v = hs.dynamics.velocity(s)
    return float(s.q[0] * v[1] - s.q[1] * v[0])


def _table_columns(hs: HybridSystem, rows):
    """Energy and angular-quantity (n = 2 only) columns of the row states."""
    cols = np.array([(hs.dynamics.energy(s), _ell(hs, s) if hs.n == 2 else 0.0)
                     for s in rows])
    return cols[:, 0], cols[:, 1]


def _monitored(rc: RunConfig, energy, ell) -> dict:
    """Decay-law quantities by report name: energy, and ell on the circle."""
    quantities = {"energy_decay": energy}
    if rc.system.monitors_ell:
        quantities["angular_quantity_decay"] = ell
    return quantities


def _containment(surface: SwitchingSurface, times: np.ndarray, qs) -> CheckReport:
    """Deepest sampled exit from the admissible region h > 0."""
    h_vals = np.array([surface.value(q) for q in qs])
    return CheckReport(name="containment", max_violation=float(max(0.0, -np.min(h_vals))),
                       tolerance=CONTAINMENT_TOL,
                       location=float(times[int(np.argmin(h_vals))]))


def run_simulation(cfg: dict, out_dir: str, samples_override=None,
                   svg_override=None, formulation_override=None) -> dict:
    """Full simulate pipeline; returns the summary dict (also written to disk)."""
    rc = parse_config(cfg, samples_override, svg_override, formulation_override)
    hs, lag_spec, boundary = build_system(rc)
    if hs.surface.value(rc.q0) <= 0.0:
        raise ConfigError("'initial.q' must be strictly interior to the boundary")
    s0 = initial_state(rc, hs, lag_spec)
    traj = simulate(hs, s0, rc.t_final, rc.stepper, rc.events, rc.max_events)
    if not traj.segments:
        os.makedirs(out_dir, exist_ok=True)
        summary = {"status": traj.status, "formulation": rc.formulation,
                   "n_events": len(traj.events), "checks": [], "config": rc.raw}
        write_summary_json(os.path.join(out_dir, "summary.json"), summary)
        return summary

    t_grid = np.linspace(traj.t0, traj.t_end, rc.samples)
    times = np.unique(np.concatenate([t_grid, [e.t for e in traj.events]]))
    table = traj.sample(times)
    # one state at a time: the row states are not kept
    energies, ells = _table_columns(hs, (hs.state_from_vector(y, t) for y, t in
                                         zip(table.states, table.times.tolist())))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, table.times, table.states, table.flags,
                         energies, ells, hs.n, hs.formulation)

    checks = check_decay_laws(traj, hs.dynamics, _monitored(
        rc, hs.dynamics.energy, lambda s: _ell(hs, s)), FLOW_TOL)
    worst_impact = CheckReport(name="impact_conditions", max_violation=0.0,
                               tolerance=IMPACT_TOL)
    for event in traj.events:
        rep = check_impact_conditions(event, hs.dynamics, hs.surface, IMPACT_TOL)
        if rep.max_violation > worst_impact.max_violation:
            worst_impact = rep
    checks.append(worst_impact)
    checks.append(_containment(hs.surface, table.times, table.states[:, :hs.n]))

    E0 = float(energies[0])
    fit_rate = None
    if np.all(energies > 0.0) and traj.t_end > traj.t0:
        slope = np.polyfit(table.times, np.log(energies), 1)[0]
        fit_rate = float(slope)
    summary = {
        "status": traj.status,
        "formulation": rc.formulation,
        "t0": traj.t0,
        "t_end": traj.t_end,
        "n_events": len(traj.events),
        "energy": {
            "initial": E0,
            "final": float(energies[-1]),
            "fitted_decay_rate": fit_rate,
            "expected_decay_rate": -lag_spec.natural.gamma,
        },
        "events": [
            {
                "t": e.t,
                "q": [float(v) for v in e.q],
                "v_minus": hs.dynamics.velocity(e.state_minus).tolist(),
                "v_plus": hs.dynamics.velocity(e.state_plus).tolist(),
                "lambda": e.lam,
                "residual_tangential": e.residual_tangential,
                "residual_energy": e.residual_energy,
            }
            for e in traj.events
        ],
        "checks": [c.to_dict() for c in checks],
        "config": rc.raw,
        "artifacts": {"trajectory_csv": os.path.basename(csv_path)},
    }
    if rc.svg:
        svg_path = os.path.join(out_dir, "trajectory.svg")
        flow = table.states[:, :2] if hs.n >= 2 else np.column_stack(
            [table.times, table.states[:, 0]])
        write_svg(svg_path, boundary if hs.n >= 2 else None, flow)
        summary["artifacts"]["trajectory_svg"] = os.path.basename(svg_path)
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    summary = run_simulation(cfg, args.out, args.samples, args.svg,
                             args.formulation)
    print(f"status: {summary['status']}  events: {summary['n_events']}")
    for c in summary["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        viol = "non-finite" if c["max_violation"] is None else f"{c['max_violation']:.3e}"
        print(f"  [{mark}] {c['name']}: max violation {viol} "
              f"(tol {c['tolerance']:.1e})")
    ok = summary["status"] == COMPLETED and all(c["passed"] for c in summary["checks"])
    return 0 if ok else 2


def cmd_impact_test(args) -> int:
    q = np.array(args.point, dtype=float)
    v = np.array(args.velocity, dtype=float)
    gamma = args.gamma
    mass = args.mass
    if args.geometry == "circle":
        spec = BilliardSpec(boundary=Circle(args.radius), gamma=gamma, mass=mass)
        hs = make_circular_billiard(spec)
        if args.radius != 1.0:
            oracle = None
        else:
            oracle = circular_impact_closed_form(q[0], q[1], v[0], v[1])
    else:
        spec = BilliardSpec(boundary=Ellipse(args.a, args.b), gamma=gamma, mass=mass)
        hs = make_elliptical_billiard(spec)
        oracle = elliptical_impact_closed_form(args.a, args.b, q[0], q[1], v[0], v[1])

    s_minus = ContactStateL(q=q, qdot=v, z=0.0, t=0.0)
    try:
        result = hs.resolve(s_minus, EventConfig())
    except GrazingContact as e:
        print(f"grazing contact: {e}")
        return 2
    v_plus = result.state_plus.qdot
    print(f"pre-impact velocity:  ({format_float(v[0])}, {format_float(v[1])})")
    print(f"solver post-impact:   ({format_float(v_plus[0])}, {format_float(v_plus[1])})")
    if oracle is not None:
        print(f"closed-form oracle:   ({format_float(oracle[0])}, {format_float(oracle[1])})")
        diff = max(abs(v_plus[0] - oracle[0]), abs(v_plus[1] - oracle[1]))
        print(f"max difference:       {diff:.3e}")
    print(f"impulse multiplier:   {format_float(result.lam)}")
    print(f"residuals (tan, en):  {result.residual_tangential:.3e}, "
          f"{result.residual_energy:.3e}")
    return 0


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    data = read_trajectory_csv(args.csv)
    # the states are read back in the formulation that wrote them
    rc = parse_config(cfg, formulation_override=data["formulation"])
    hs, _, _ = build_system(rc)
    if data["n"] != hs.n:
        raise ConfigError(
            f"CSV dimension n={data['n']} does not match the config system")
    states = np.column_stack([data["q"], data["v"], data["z"]])
    rows = [hs.state_from_vector(y, t) for y, t in zip(states, data["t"].tolist())]

    reports = []
    # per-row energy / angular-quantity consistency against the state columns
    column_tol = 1e-12
    energies, ells = _table_columns(hs, rows)
    err = (np.maximum(np.abs(energies - data["E"]), np.abs(ells - data["ell"]))
           / np.maximum(1.0, np.abs(energies)))
    bad = np.flatnonzero(err > column_tol)   # located by 1-based file row, header included
    reports.append(CheckReport(name="column_consistency", max_violation=float(np.max(err)),
                               tolerance=column_tol,
                               location=float(bad[0] + 2) if bad.size else None))

    # the decay laws on the recomputed columns, with the rate from the row states
    reports += check_row_decay_laws(hs.dynamics, rows,
                                    _monitored(rc, energies, ells), FLOW_TOL)

    # impact conditions at stored pre/post pairs
    worst_imp, worst_t = 0.0, None
    for i in np.where(data["flag"] == 1)[0]:
        if i + 1 >= data["t"].size or data["flag"][i + 1] != 2:
            raise ValueError(f"{args.csv}: pre-impact row {i + 2} has no post-impact row")
        v = impact_violation(hs.dynamics, hs.surface, rows[i], rows[i + 1])
        if v > worst_imp:
            worst_imp, worst_t = v, rows[i].t
    reports.append(CheckReport(name="impact_conditions", max_violation=worst_imp,
                               tolerance=IMPACT_TOL, location=worst_t))

    reports.append(_containment(hs.surface, data["t"], data["q"]))

    out = {"csv": args.csv, "checks": [r.to_dict() for r in reports]}
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if all(r.passed for r in reports) else 2


def _sweep_worker(packed):
    cfg, out_dir = packed
    return run_simulation(cfg, out_dir)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or "path" not in sweep or "values" not in sweep:
        raise ConfigError("sweep config needs a 'sweep' section with 'path' and 'values'")
    path = sweep["path"]
    values = sweep["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("'sweep.values' must be a non-empty list")

    jobs = []
    for i, val in enumerate(values):
        run_cfg = copy.deepcopy(cfg)
        run_cfg.pop("sweep", None)
        *head, last = path.split(".")
        node = _get(run_cfg, ".".join(head)) if head else run_cfg
        if not isinstance(node, dict) or last not in node:
            raise ConfigError(f"'sweep.path' does not resolve: {path}")
        node[last] = val
        jobs.append((run_cfg, os.path.join(args.out, f"run_{i:03d}")))

    if args.workers > 1:
        # imported here: a process pool costs every other command its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]

    merged = {
        "sweep_path": path,
        "runs": [
            {
                "value": values[i],
                "out_dir": f"run_{i:03d}",
                "status": results[i]["status"],
                "n_events": results[i]["n_events"],
                "all_checks_passed": all(c["passed"] for c in results[i]["checks"]),
            }
            for i in range(len(values))
        ],
    }
    os.makedirs(args.out, exist_ok=True)
    write_summary_json(os.path.join(args.out, "sweep_summary.json"), merged)
    ok = all(r["status"] == COMPLETED and r["all_checks_passed"]
             for r in merged["runs"])
    print(f"sweep over {path}: {len(values)} runs, "
          f"{'all passed' if ok else 'FAILURES present'}")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactsim",
        description="Dissipative billiard and hybrid contact-system simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.add_argument("--samples", type=int, default=None)
    p_sim.add_argument("--svg", action=argparse.BooleanOptionalAction, default=None)
    p_sim.add_argument("--formulation", choices=["lagrangian", "hamiltonian"],
                       default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_imp = sub.add_parser("impact-test", help="resolve one impact and compare "
                                               "against the closed-form map")
    p_imp.add_argument("geometry", choices=["circle", "ellipse"])
    p_imp.add_argument("--radius", type=float, default=1.0)
    p_imp.add_argument("--a", type=float, default=1.0)
    p_imp.add_argument("--b", type=float, default=1.0)
    p_imp.add_argument("--point", type=float, nargs=2, required=True)
    p_imp.add_argument("--velocity", type=float, nargs=2, required=True)
    p_imp.add_argument("--gamma", type=float, default=0.0)
    p_imp.add_argument("--mass", type=float, default=1.0)
    p_imp.set_defaults(func=cmd_impact_test)

    p_chk = sub.add_parser("check", help="re-run invariant checks on a stored CSV")
    p_chk.add_argument("--csv", required=True)
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--out", default=None, help="also write the JSON report here")
    p_chk.set_defaults(func=cmd_check)

    p_swp = sub.add_parser("sweep", help="fan out simulations over a parameter list")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out", required=True)
    p_swp.add_argument("--workers", type=int, default=1)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return 1
    except (ContactSimError, ValueError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

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
import math
import os
import sys as _sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .billiards import (
    BilliardSpec,
    Circle,
    Ellipse,
    angular_momentum,
    elliptical_impact_closed_form,
    make_circular_billiard,
    make_elliptical_billiard,
)
from .checks import (COLUMN_TOL, check_containment, check_decay_laws, check_impact_rows,
                     check_row_containment, check_row_decay_laws, CheckReport)
from .core import (ContactStateH, ContactStateL, SystemSpec, hamiltonian_from_lagrangian,
                   legendre_forward, natural_lagrangian_system)
from .errors import ConfigError, ContactSimError, GrazingContact, NonFiniteValue
from .hybrid import (COMPLETED, FLAG_FLOW, FLAG_POST_IMPACT, FLAG_PRE_IMPACT, MAX_EVENTS,
                     HybridSystem, simulate)
from .impact import SwitchingSurface, impact_residuals
from .integrate import StepperConfig
from .io import (format_float, read_trajectory_csv, write_summary_json, write_trajectory_csv,
                 write_svg)


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
    samples: int
    svg: bool
    raw: dict = field(repr=False, default_factory=dict)


_REQUIRED = object()
_KINDS = {float: "a finite number", int: "an integer", bool: "true or false",
          str: "a string", dict: "an object", list: "a list of finite numbers"}


def _cast(value, kind, path: str):
    """`value` checked as `kind` and converted: float, int, bool, str, dict or
    list (a finite float array). Else a ConfigError naming `path`."""
    if kind is list:
        try:
            cast = np.asarray(value)
        except ValueError:   # a ragged nesting
            cast = np.asarray(None)
        ok = (cast.ndim >= 1 and cast.dtype.kind in "iuf"
              and bool(np.all(np.isfinite(cast))))
        cast = cast.astype(float) if ok else None
    elif kind in (float, int):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (isinstance(value, int) or math.isfinite(value)
                   and (kind is float or value.is_integer())))
        try:
            cast = kind(value) if ok else None
        except OverflowError:   # an integer beyond the range of a double
            ok = False
    else:
        ok, cast = isinstance(value, kind), value
    if not ok:
        raise ConfigError(f"'{path}' must be {_KINDS[kind]}, got {value!r}")
    return cast


def _read(cfg: dict, path: str, kind, default=_REQUIRED):
    """The value at the dotted `path`, checked and cast by `_cast`, and taken
    out of cfg with every section that this leaves empty; `default` when
    the key is absent, which is a ConfigError without one."""
    *head, key = path.split(".")
    nodes = [_cast(cfg, dict, "config")]
    for i, part in enumerate(head):
        nodes.append(_cast(nodes[-1].get(part, {}), dict, ".".join(head[:i + 1])))
    value = nodes[-1].pop(key, _REQUIRED)
    for parent, part, node in reversed(list(zip(nodes, head, nodes[1:]))):
        if not node:
            parent.pop(part, None)
    if value is not _REQUIRED:
        return _cast(value, kind, path)
    if default is _REQUIRED:
        raise ConfigError(f"missing required config field '{path}'")
    return default


def _positive(cfg: dict, path: str, default=_REQUIRED) -> float:
    v = _read(cfg, path, float, default)
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
    kind = _read(cfg, "system.kind", str)
    if kind not in ("circle", "ellipse", "custom"):
        raise ConfigError(f"'system.kind' must be circle, ellipse, or custom, got {kind!r}")
    gamma = _read(cfg, "system.gamma", float, 0.0)
    if gamma < 0.0:
        raise ConfigError(f"'system.gamma' must be >= 0, got {gamma}")
    if kind == "custom":
        n = _read(cfg, "system.n", int)
        if n < 1:
            raise ConfigError(f"'system.n' must be >= 1, got {n}")
        M = _read(cfg, "system.mass_matrix", list)
        if M.shape != (n, n):
            raise ConfigError(
                f"'system.mass_matrix' must be {n}x{n}, got shape {M.shape}")
        if _read(cfg, "system.surface.kind", str) != "sphere":
            raise ConfigError("'system.surface.kind' must be 'sphere'")
        r = _positive(cfg, "system.surface.radius")
        surface = SwitchingSurface(quadric=(-np.eye(n), np.zeros(n), r * r))
        hs = HybridSystem(dynamics=natural_lagrangian_system(n=n, mass=M, gamma=gamma),
                          surface=surface)
        return SystemSetup(hs, ("circle", r) if n == 2 else None, monitors_ell=False)
    if kind == "circle":
        r = _positive(cfg, "system.radius", 1.0)
        make, shape, boundary = make_circular_billiard, Circle(r), ("circle", r)
    else:
        a = _positive(cfg, "system.a")
        b = _positive(cfg, "system.b")
        make, shape, boundary = make_elliptical_billiard, Ellipse(a, b), ("ellipse", a, b)
    mass = _positive(cfg, "system.mass", 1.0)
    return SystemSetup(make(BilliardSpec(boundary=shape, gamma=gamma, mass=mass)),
                       boundary, monitors_ell=kind == "circle")


def parse_config(cfg: dict, formulation_override=None) -> RunConfig:
    """The run configuration in cfg. Each value is read once, out of a copy
    of cfg, and a key left unread is a ConfigError naming its dotted path;
    a top-level `sweep` section belongs to the sweep command and is left."""
    raw, cfg = cfg, copy.deepcopy(cfg)
    system = _parse_system(cfg)
    n = system.hybrid.n
    q0 = _read(cfg, "initial.q", list)
    if q0.size != n:
        raise ConfigError(f"'initial.q' must have length {n}, got {q0.size}")
    v0 = _read(cfg, "initial.v", list, None)
    p0 = _read(cfg, "initial.p", list, None)
    if (v0 is None) == (p0 is None):
        raise ConfigError("exactly one of 'initial.v' or 'initial.p' is required")
    if (p0 if v0 is None else v0).size != n:
        raise ConfigError(f"initial velocity/momentum must have length {n}")
    z0 = _read(cfg, "initial.z", float, 0.0)

    t_final = _positive(cfg, "run.t_final")
    formulation = _read(cfg, "run.formulation", str, "lagrangian")
    formulation = formulation_override or formulation
    if formulation not in ("lagrangian", "hamiltonian"):
        raise ConfigError(
            f"'run.formulation' must be lagrangian or hamiltonian, got {formulation!r}")
    if p0 is not None and formulation != "hamiltonian":
        raise ConfigError("'initial.p' requires the hamiltonian formulation")
    max_events = _read(cfg, "run.max_events", int, MAX_EVENTS)
    if max_events < 1:
        raise ConfigError(f"'run.max_events' must be >= 1, got {max_events}")

    samples = _read(cfg, "output.samples", int, 1000)
    if samples < 2:
        raise ConfigError(f"'output.samples' must be >= 2, got {samples}")
    stepper = {f.name: _read(cfg, f"stepper.{f.name}", type(f.default), f.default)
               for f in fields(StepperConfig)}
    try:
        stepper = StepperConfig(**stepper)
    except ValueError as e:
        raise ConfigError(str(e))
    rc = RunConfig(system=system, q0=q0, v0=v0, p0=p0, z0=z0,
                   t_final=t_final, formulation=formulation, max_events=max_events,
                   stepper=stepper,
                   samples=samples, svg=_read(cfg, "output.svg", bool, True), raw=raw)
    for path, value in cfg.items():
        if path != "sweep":
            while isinstance(value, dict) and value:   # down to the first unread key
                key, value = next(iter(value.items()))
                path += "." + key
            raise ConfigError(f"'{path}' is not a config setting")
    return rc


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


def _ell(hs: HybridSystem, q, x, z):
    """x vy - y vx with the velocity from the system's own evaluator."""
    return angular_momentum(q, hs.dynamics.velocity(q, x, z))


def _table_columns(hs: HybridSystem, states: np.ndarray):
    """Energy and angular-quantity (n = 2 only) columns of the state rows
    [q, x, z], from one call of each on the rows as columns."""
    n = hs.n
    q, x, z = states[:, :n].T, states[:, n:2 * n].T, states[:, 2 * n]
    return hs.dynamics.energy(q, x, z), _ell(hs, q, x, z) if n == 2 else np.zeros(z.size)


def _monitored(rc: RunConfig, energy, ell) -> dict:
    """Decay-law quantities by report name: energy, and ell on the circle."""
    quantities = {"energy_decay": energy}
    if rc.system.monitors_ell:
        quantities["angular_quantity_decay"] = ell
    return quantities


def _check_row_order(path: str, t: np.ndarray, flags: np.ndarray, rows: np.ndarray) -> None:
    """A ValueError naming path and the file row, from rows, of the first row out of order."""
    # pair[k]: rows k and k + 1 are an impact pair, pre then post at one time
    pair = np.append((flags[:-1] == FLAG_PRE_IMPACT) & (flags[1:] == FLAG_POST_IMPACT)
                     & (t[:-1] == t[1:]), False)
    closes = np.append(False, pair[:-1])   # row k ends a pair
    bad = ((flags != FLAG_FLOW) & ~(pair | closes)) | (np.append(False, t[1:] <= t[:-1]) & ~closes)
    if bad.any():
        raise ValueError(f"{path}: row {rows[np.argmax(bad)]} is out of order: t never "
                         "decreases, and only a pre-impact row and its post-impact row next "
                         "share a time")


def run_simulation(cfg: dict, out_dir: str, formulation_override=None) -> dict:
    """Full simulate pipeline; returns the summary dict (also written to disk)."""
    rc = parse_config(cfg, formulation_override)
    hs, lag_spec, boundary = build_system(rc)
    if hs.surface.value(rc.q0) <= 0.0:
        raise ConfigError("'initial.q' must be strictly interior to the boundary")
    s0 = initial_state(rc, hs, lag_spec)
    traj = simulate(hs, s0, rc.t_final, rc.stepper, rc.max_events)
    if not traj.segments:
        os.makedirs(out_dir, exist_ok=True)
        summary = {"status": traj.status, "formulation": rc.formulation,
                   "n_events": len(traj.events), "checks": [], "config": rc.raw}
        write_summary_json(os.path.join(out_dir, "summary.json"), summary)
        return summary

    t_grid = np.linspace(traj.t0, traj.t_end, rc.samples)
    times = np.unique(np.concatenate([t_grid, [e.t for e in traj.events]]))
    table = traj.sample(times)
    energies, ells = _table_columns(hs, table.states)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, table.times, table.states, table.flags,
                         energies, ells, hs.formulation)

    checks = check_decay_laws(traj, hs.dynamics, _monitored(
        rc, hs.dynamics.energy, lambda q, x, z: _ell(hs, q, x, z)))
    impacts, residuals, velocities = check_impact_rows(hs.dynamics, hs.surface, table.times,
                                                       table.states, table.flags)
    checks += [impacts, check_containment(traj, hs.surface)]
    # the report's own pass, event by event; a pair its guard rejects reads null
    residuals = ([r if math.isfinite(r) else None for r in col.tolist()] for col in residuals)

    E0 = float(energies[0])
    fit_rate = None
    if np.all(energies > 0.0) and traj.t_end > traj.t0:   # the least-squares slope of log E
        ts, logs = table.times.tolist(), [math.log(e) for e in energies.tolist()]
        t_mean, log_mean = math.fsum(ts) / len(ts), math.fsum(logs) / len(logs)
        fit_rate = (math.fsum((t - t_mean) * (e - log_mean) for t, e in zip(ts, logs))
                    / math.fsum((d := t - t_mean) * d for t in ts))
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
                "v_minus": v_minus,
                "v_plus": v_plus,
                "lambda": e.lam,
                "residual_tangential": r_tan,
                "residual_energy": r_en,
            }
            for e, v_minus, v_plus, r_tan, r_en in zip(
                traj.events, *(v.T.tolist() for v in velocities), *residuals)
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
    summary = run_simulation(cfg, args.out, args.formulation)
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
        a = b = args.radius
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(a), gamma=gamma, mass=mass))
    else:
        a, b = args.a, args.b
        hs = make_elliptical_billiard(BilliardSpec(boundary=Ellipse(a, b), gamma=gamma,
                                                   mass=mass))
    with np.errstate(all="ignore"):   # a value that is not finite is named below
        # the circle of radius r is the ellipse with semi-axes r and r
        oracle = elliptical_impact_closed_form(a, b, q[0], q[1], v[0], v[1])
        try:
            result = hs.resolve(ContactStateL(q=q, qdot=v, z=0.0, t=0.0))
        except GrazingContact as e:
            print(f"grazing contact: {e}")
            return 2
        v_plus = result.state_plus.qdot
        gaps = [v_plus[0] - oracle[0], v_plus[1] - oracle[1]]
        r = impact_residuals(hs.dynamics, hs.surface, result.state_minus, result.state_plus)
    for name, values in (("post-impact velocity", v_plus), ("oracle difference", gaps),
                         ("impact residual (tan, en)", r)):
        if not all(map(math.isfinite, values)):
            raise NonFiniteValue(f"the {name} is not finite: {[float(x) for x in values]}")
    print(f"pre-impact velocity:  ({format_float(v[0])}, {format_float(v[1])})")
    print(f"solver post-impact:   ({format_float(v_plus[0])}, {format_float(v_plus[1])})")
    print(f"closed-form oracle:   ({format_float(oracle[0])}, {format_float(oracle[1])})")
    print(f"max difference:       {max(abs(gaps[0]), abs(gaps[1])):.3e}")
    print(f"impulse multiplier:   {format_float(result.lam)}")
    print(f"residuals (tan, en):  {r[0]:.3e}, {r[1]:.3e}")
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
    block = np.column_stack([data["t"], data["q"], data["v"], data["z"]])
    nonfinite = np.flatnonzero(~np.isfinite(block).all(axis=1))
    if nonfinite.size:
        raise NonFiniteValue(f"{args.csv}: row {data['row'][nonfinite[0]]} has a non-finite "
                             "t or state")
    _check_row_order(args.csv, data["t"], data["flag"], data["row"])
    states = block[:, 1:]

    reports = []
    # per-row energy / angular-quantity consistency against the state columns
    energies, ells = _table_columns(hs, states)
    err = (np.maximum(np.abs(energies - data["E"]), np.abs(ells - data["ell"]))
           / np.maximum(1.0, np.abs(energies)))
    bad = data["row"][err > COLUMN_TOL]   # located by file row
    reports.append(CheckReport(name="column_consistency", max_violation=float(np.max(err)),
                               tolerance=COLUMN_TOL, location=bad[0] if bad.size else None))

    # the decay laws on the recomputed columns, with the rate from the state rows
    reports += check_row_decay_laws(hs.dynamics, data["t"], states,
                                    _monitored(rc, energies, ells))

    # impact conditions at the stored pre/post pairs, read as columns: no state is built
    reports += check_impact_rows(hs.dynamics, hs.surface, data["t"], states, data["flag"])[:1]

    reports.append(check_row_containment(hs.surface, data["t"], data["q"]))

    out = {"csv": args.csv, "checks": [r.to_dict() for r in reports]}
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if all(r.passed for r in reports) else 2


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    path = _read(cfg, "sweep.path", str)
    values = cfg.pop("sweep", {}).get("values")   # the runs see no sweep section
    if not isinstance(values, list) or not values:
        raise ConfigError("'sweep.values' must be a non-empty list")

    *head, last = path.split(".")
    runs = []
    for i, val in enumerate(values):
        run_cfg = node = copy.deepcopy(cfg)
        for part in head:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or last not in node:
            raise ConfigError(f"'sweep.path' does not resolve: {path}")
        node[last] = val
        out_dir = f"run_{i:03d}"
        summary = run_simulation(run_cfg, os.path.join(args.out, out_dir))
        runs.append({"value": val, "out_dir": out_dir, "status": summary["status"],
                     "n_events": summary["n_events"],
                     "all_checks_passed": all(c["passed"] for c in summary["checks"])})
    merged = {"sweep_path": path, "runs": runs}
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

    p_swp = sub.add_parser("sweep", help="run the simulation once per parameter value")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out", required=True)
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

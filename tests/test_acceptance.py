"""Acceptance suite: closed-form oracle reproduction and property checks.

Each test prints one line so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist. All tolerances are fixed here, not configurable.
"""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    Ellipse,
    HybridSystem,
    StepperConfig,
    angular_momentum,
    check_energy_decay,
    check_impact_conditions,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    free_particle_closed_form,
    hamiltonian_from_lagrangian,
    hamiltonian_rhs,
    lagrangian_energy,
    legendre_forward,
    make_circular_billiard,
    make_elliptical_billiard,
    resolve_impact_natural,
    resolve_impact_newton,
    sample,
    simulate,
)
from contactsim.cli import load_config, run_simulation

GAMMA = 1e-4
Q0 = np.array([0.5, 0.0])
V0 = np.array([1.0, 1.0])
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_closed_form_flow():
    # free flight with drag, no boundary within reach over t in [0, 5]
    hs = make_circular_billiard(BilliardSpec(boundary=Circle(100.0), gamma=GAMMA))
    s0 = ContactStateL(q=Q0, qdot=V0, z=0.0)
    traj = simulate(hs, s0, 5.0, StepperConfig())
    assert not traj.events
    times = np.linspace(0.0, 5.0, 501)
    worst_state = 0.0
    worst_z = 0.0
    for t in times:
        y = traj.state_at(float(t))
        q_ref, v_ref, z_ref = free_particle_closed_form(GAMMA, Q0, V0, 1.0, float(t))
        worst_state = max(worst_state,
                          float(np.max(np.abs(y[:2] - q_ref))),
                          float(np.max(np.abs(y[2:4] - v_ref))))
        worst_z = max(worst_z, abs(y[4] - float(z_ref)))
    ok = worst_state < 1e-8 and worst_z < 1e-8
    report(1, "closed-form flow", ok,
           f"state dev {worst_state:.2e}, z dev {worst_z:.2e} < 1e-08")


def test_criterion_2_impact_oracle_equivalence():
    circle = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=GAMMA))
    a, b = 0.9, 1.1
    ellipse = make_elliptical_billiard(
        BilliardSpec(boundary=Ellipse(a, b), gamma=GAMMA))
    rng = np.random.default_rng(2024)
    worst = 0.0

    def inward_state(surface, q, rng):
        while True:
            v = rng.uniform(-2.0, 2.0, size=2)
            if surface.gradient(q) @ v < -1e-6:
                return v

    for _ in range(1000):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([math.cos(phi), math.sin(phi)])
        v = inward_state(circle.surface, q, rng)
        s = ContactStateL(q=q, qdot=v, z=0.0)
        ref = circular_impact_closed_form(q[0], q[1], v[0], v[1])
        for resolver in (resolve_impact_natural, resolve_impact_newton):
            got = resolver(circle.dynamics, s, circle.surface).state_plus.qdot
            worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    for _ in range(1000):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([a * math.cos(phi), b * math.sin(phi)])
        v = inward_state(ellipse.surface, q, rng)
        s = ContactStateL(q=q, qdot=v, z=0.0)
        ref = elliptical_impact_closed_form(a, b, q[0], q[1], v[0], v[1])
        for resolver in (resolve_impact_natural, resolve_impact_newton):
            got = resolver(ellipse.dynamics, s, ellipse.surface).state_plus.qdot
            worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))

    ok = worst < 1e-12
    report(2, "impact oracle equivalence", ok,
           f"max componentwise diff {worst:.2e} < 1e-12 over 1000+1000 states")


def test_criterion_3_global_energy_law(fig1_trajectory, circle_billiard):
    traj = fig1_trajectory
    n_events = len(traj.events)
    times = np.unique(np.concatenate([np.linspace(0.0, 20.0, 2000),
                                      [e.t for e in traj.events]]))
    table = sample(traj, times)
    worst = 0.0
    for k in range(table.times.size):
        s = ContactStateL.from_vector(table.states[k], table.times[k])
        E = lagrangian_energy(circle_billiard.dynamics, s)
        ref = math.exp(-GAMMA * table.times[k])   # E0 = 1
        worst = max(worst, abs(E - ref))
    ok = n_events >= 10 and worst < 1e-7
    report(3, "global energy law", ok,
           f"{n_events} impacts, max |E - E0 e^(-gamma t)|/E0 = {worst:.2e} < 1e-07")


def test_criterion_4_dissipated_quantity(fig1_trajectory):
    traj = fig1_trajectory
    l0 = 0.5   # x vy - y vx at the initial state
    times = np.unique(np.concatenate([np.linspace(0.0, 20.0, 2000),
                                      [e.t for e in traj.events]]))
    table = sample(traj, times)
    worst_l = 0.0
    for k in range(table.times.size):
        s = ContactStateL.from_vector(table.states[k], table.times[k])
        ref = l0 * math.exp(-GAMMA * table.times[k])
        worst_l = max(worst_l, abs(angular_momentum(*s.phase) - ref) / abs(l0))

    worst_polar = 0.0
    for e in traj.events:
        x, y = e.q
        r = math.hypot(x, y)
        for sm, sp in ((e.state_minus, e.state_plus),):
            rdot_m = (x * sm.qdot[0] + y * sm.qdot[1]) / r
            rdot_p = (x * sp.qdot[0] + y * sp.qdot[1]) / r
            thdot_m = (x * sm.qdot[1] - y * sm.qdot[0]) / (r * r)
            thdot_p = (x * sp.qdot[1] - y * sp.qdot[0]) / (r * r)
            worst_polar = max(worst_polar, abs(rdot_p + rdot_m),
                              abs(thdot_p - thdot_m))
    ok = worst_l < 1e-7 and worst_polar < 1e-10
    report(4, "dissipated quantity", ok,
           f"ell law dev {worst_l:.2e} < 1e-07, polar impact dev "
           f"{worst_polar:.2e} < 1e-10")


def test_criterion_5_conservative_limit():
    hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=0.0))
    s0 = ContactStateL(q=Q0, qdot=V0, z=0.0)
    traj = simulate(hs, s0, 80.0, StepperConfig())
    E0 = 1.0
    times = np.linspace(0.0, 80.0, 2000)
    table = sample(traj, times)
    drift = 0.0
    for k in range(table.times.size):
        s = ContactStateL.from_vector(table.states[k], table.times[k])
        drift = max(drift, abs(lagrangian_energy(hs.dynamics, s) - E0))

    rng = np.random.default_rng(55)
    inv_err = 0.0
    for _ in range(200):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([math.cos(phi), math.sin(phi)])
        v = rng.uniform(-2.0, 2.0, size=2)
        v1 = circular_impact_closed_form(q[0], q[1], v[0], v[1])
        v2 = circular_impact_closed_form(q[0], q[1], v1[0], v1[1])
        inv_err = max(inv_err, abs(v2[0] - v[0]), abs(v2[1] - v[1]))

    ok = len(traj.events) >= 50 and drift < 1e-9 and inv_err < 1e-12
    report(5, "conservative limit", ok,
           f"{len(traj.events)} impacts, energy drift {drift:.2e} < 1e-09, "
           f"involution error {inv_err:.2e} < 1e-12")


def test_criterion_6_formulation_duality(circle_billiard):
    s0 = ContactStateL(q=Q0, qdot=V0, z=0.0)
    lag = simulate(circle_billiard, s0, 14.0, StepperConfig())
    hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
    hs_h = HybridSystem(dynamics=hsys, surface=circle_billiard.surface)
    sh0 = legendre_forward(circle_billiard.dynamics, s0)
    ham = simulate(hs_h, sh0, 14.0, StepperConfig())
    worst = 0.0
    for t in np.linspace(0.0, 14.0, 500):
        q_l = lag.state_at(float(t))[:2]
        q_h = ham.state_at(float(t))[:2]
        worst = max(worst, float(np.max(np.abs(q_l - q_h))))
    ok = len(lag.events) >= 10 and worst < 1e-7
    report(6, "Lagrangian/Hamiltonian duality", ok,
           f"{len(lag.events)} impacts, max |q_L - q_H| = {worst:.2e} < 1e-07")


def test_criterion_7_contact_identity(circle_billiard):
    hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
    rng = np.random.default_rng(77)
    states = [ContactStateH(q=rng.uniform(-0.6, 0.6, 2),
                            p=rng.uniform(-2.0, 2.0, 2),
                            z=rng.uniform(-1.0, 1.0)) for _ in range(100)]
    worst = 0.0
    for s in states:
        # X_H(H) by a central difference of H along the field in (q, p, z)
        y = s.as_vector()
        d = hamiltonian_rhs(hsys, s.t, y)
        eps = np.finfo(float).eps ** (1.0 / 3.0) / max(1.0, float(np.max(np.abs(d))))
        yp, ym = y + eps * d, y - eps * d
        lie = (hsys.value(yp[:2], yp[2:4], yp[4])
               - hsys.value(ym[:2], ym[2:4], ym[4])) / (2.0 * eps)
        H = hsys.value(s.q, s.p, s.z)
        worst = max(worst, abs(lie + hsys.grad_z(s.q, s.p, s.z) * H) / max(1.0, abs(H)))
    report(7, "contact identity", worst < 1e-6,
           f"max |X_H(H) + (dH/dz) H| = {worst:.2e} < 1e-06 at 100 random states")


def test_criterion_8_negative_controls(circle_billiard):
    counter = {"i": 0}

    def tampered(dynamics, s_minus, surface):
        res = resolve_impact_natural(dynamics, s_minus, surface)
        if counter["i"] == 2:
            v = res.state_plus.qdot.copy()
            v[0] += 1e-3
            res = dataclasses.replace(
                res, state_plus=ContactStateL(q=res.state_plus.q, qdot=v,
                                              z=res.state_plus.z, t=res.state_plus.t))
        counter["i"] += 1
        return res

    hs = HybridSystem(dynamics=circle_billiard.dynamics,
                      surface=circle_billiard.surface, resolver=tampered)
    s0 = ContactStateL(q=Q0, qdot=V0, z=0.0)
    traj = simulate(hs, s0, 10.0, StepperConfig())
    assert len(traj.events) > 3

    energy_rep = check_energy_decay(traj, circle_billiard.dynamics)
    impact_rep = check_impact_conditions(traj.events[2], circle_billiard.dynamics,
                                         circle_billiard.surface)
    ok = (not energy_rep.passed) and (not impact_rep.passed)
    report(8, "negative controls", ok,
           f"perturbed run: energy check violation {energy_rep.max_violation:.2e} "
           f"(must exceed 1e-07), impact residual {impact_rep.max_violation:.2e} "
           f"(must exceed 1e-10)")


def _polyline_points(svg_text: str) -> np.ndarray:
    m = re.search(r'<polyline points="([^"]+)"', svg_text)
    assert m, "SVG has no polyline"
    pts = [tuple(map(float, pair.split(","))) for pair in m.group(1).split()]
    return np.array(pts)


def test_criterion_9_figure_reproduction(tmp_path):
    results = []
    for name, inside in (
        ("circle.json", lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 <= 1.0 + 1e-4),
        ("ellipse.json", lambda p: (p[:, 0] / 0.9) ** 2 + (p[:, 1] / 1.1) ** 2
         <= 1.0 + 1e-4),
    ):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        out = str(tmp_path / name.replace(".json", ""))
        summary = run_simulation(cfg, out)
        svg_path = os.path.join(out, "trajectory.svg")
        with open(svg_path) as fh:
            svg = fh.read()
        pts = _polyline_points(svg)
        contained = bool(np.all(inside(pts)))
        boundary_drawn = ("<circle" in svg) or ("<ellipse" in svg)
        n_events = summary["n_events"]

        # speed of the sampled flow decays like e^(-gamma t): the chords are
        # traversed ever more slowly even though their geometry is fixed
        with open(os.path.join(out, "trajectory.csv")) as f:
            lines = f.read().splitlines()
        csv_rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        flow = csv_rows[csv_rows[:, -1] == 0]
        speeds = np.hypot(flow[:, 3], flow[:, 4])
        monotone = bool(np.all(np.diff(speeds) <= 1e-9))
        ratio = speeds[-1] / speeds[0]
        expected = math.exp(-GAMMA * (flow[-1, 0] - flow[0, 0]))
        decay_ok = abs(ratio - expected) < 1e-3
        results.append((name, contained and boundary_drawn and n_events >= 10
                        and monotone and decay_ok,
                        f"{n_events} chords, contained={contained}, "
                        f"speed ratio {ratio:.6f} vs e^(-gamma T)={expected:.6f}"))
    ok = all(r[1] for r in results)
    detail = "; ".join(f"{r[0]}: {r[2]}" for r in results)
    report(9, "figure reproduction", ok, detail)

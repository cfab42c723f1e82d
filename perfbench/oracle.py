"""Closed-form impact check for the damped billiards, used as a correctness gate.

Between impacts the particle moves along a straight ray whose speed decays as
e^(-gamma t), so the next impact is where the ray meets the boundary: a
quadratic root in the ray parameter, converted to a time through the drag law.
Positions and velocities at that time come from ``free_particle_closed_form``
and the reflection from ``circular_impact_closed_form`` or
``elliptical_impact_closed_form``. Nothing here calls the integrator, the event
locator or an impact resolver, so a solver defect cannot pass the gate.

Each leg is predicted from the simulated pre-impact state before it (the first
from the start). A sequence predicted from the start alone would also test the
billiard's sensitivity to rounding: on orbits that pass near the ellipse's
foci it drifts past 1e-7 within T=200 while every leg agrees to 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

from contactsim import (
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    free_particle_closed_form,
)

# Gate on every impact time, position and pre-impact velocity (absolute).
ORACLE_TOL = 1e-7


def _semi_axes(system: dict):
    if system["kind"] == "circle":
        if float(system.get("radius", 1.0)) != 1.0:
            raise ValueError("the circle oracle needs the unit circle")
        return 1.0, 1.0
    return float(system["a"]), float(system["b"])


def next_impact(system: dict, t: float, q, v):
    """(t, q, v_minus) of the first boundary hit of the damped flight from
    (t, q, v), ``q`` inside or on the boundary."""
    gamma = float(system.get("gamma", 0.0))
    a, b = _semi_axes(system)
    # larger root of |(q + s v) / (a, b)|^2 = 1: the exit point of the ray
    qa, qb, va, vb = q[0] / a, q[1] / b, v[0] / a, v[1] / b
    A = va * va + vb * vb
    B = 2.0 * (qa * va + qb * vb)
    C = qa * qa + qb * qb - 1.0
    s = (-B + math.sqrt(max(B * B - 4.0 * A * C, 0.0))) / (2.0 * A)
    # (1 - e^(-gamma dt)) / gamma = s
    dt = -math.log1p(-gamma * s) / gamma if gamma > 0.0 else s
    q_hit, v_minus, _ = free_particle_closed_form(
        gamma, q, v, 0.0, dt, mass=float(system.get("mass", 1.0)), z0=0.0)
    return t + dt, q_hit, v_minus


def reflect(system: dict, q, v_minus) -> np.ndarray:
    if system["kind"] == "circle":
        _semi_axes(system)
        v_plus = circular_impact_closed_form(q[0], q[1], v_minus[0], v_minus[1])
    else:
        a, b = _semi_axes(system)
        v_plus = elliptical_impact_closed_form(a, b, q[0], q[1],
                                               v_minus[0], v_minus[1])
    return np.array(v_plus, dtype=float)


def oracle_gap(summary: dict) -> float:
    """Worst absolute difference between the summary's impacts and their
    closed-form predictions; infinite when an impact is missing or extra, or
    lies off the boundary (where the closed-form reflection is undefined)."""
    cfg = summary["config"]
    system, t_final = cfg["system"], float(cfg["run"]["t_final"])
    # Hamiltonian runs store momenta, p = m v
    scale = (1.0 / float(system.get("mass", 1.0))
             if summary["formulation"] == "hamiltonian" else 1.0)
    t = 0.0
    q = np.array(cfg["initial"]["q"], dtype=float)
    v = np.array(cfg["initial"]["v"], dtype=float)
    worst = 0.0
    for ev in summary["events"]:
        t_ref, q_ref, v_ref = next_impact(system, t, q, v)
        q = np.asarray(ev["q"], dtype=float)
        v_minus = scale * np.asarray(ev["v_minus"], dtype=float)
        worst = max(worst, abs(ev["t"] - t_ref), float(np.max(np.abs(q - q_ref))),
                    float(np.max(np.abs(v_minus - v_ref))))
        try:
            v = reflect(system, q, v_minus)
        except ValueError:
            return math.inf
        t = ev["t"]
    if next_impact(system, t, q, v)[0] <= t_final:
        return math.inf
    return worst

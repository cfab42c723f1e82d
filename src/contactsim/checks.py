"""Invariant monitors: post-hoc trajectory checks and pointwise identities.

Every check recomputes its quantities from raw states, independently of
the solver path that produced them, so a resolver bug cannot certify its
own output. The flow-law checks compare a monitored quantity f against
the reference f0 * exp(integral of dL/dz dt) accumulated by composite
Simpson quadrature along the trajectory; both the energy and any other
dissipated quantity obey that law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import ContactStateH, HamiltonianSpec, SystemSpec, hamiltonian_rhs
from .hybrid import HybridTrajectory, ImpactEvent
from .impact import SwitchingSurface, impact_residuals

__all__ = [
    "CheckReport",
    "check_energy_decay",
    "check_dissipated_quantity",
    "check_impact_conditions",
    "check_contact_identities",
]

_EPS = float(np.finfo(float).eps)

# Default tolerances: flow laws carry quadrature and integrator error,
# impact residuals are pure algebra.
FLOW_TOL = 1e-7
IMPACT_TOL = 1e-10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one invariant check."""

    name: str
    max_violation: float
    tolerance: float
    location: Optional[float] = None   # time (or sample index) of the worst violation

    def __post_init__(self):
        object.__setattr__(self, "max_violation", float(self.max_violation))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.location is not None:
            object.__setattr__(self, "location", float(self.location))

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "location": self.location,
            "passed": self.passed,
        }


def _decay_law_violation(traj: HybridTrajectory, sys, value_fn, name, tol,
                         samples_per_segment: int) -> CheckReport:
    """Shared engine: compare value_fn along the flow against
    f0 * exp(integral dL/dz dt), accumulated segment by segment."""
    if not traj.segments:
        raise ValueError("trajectory has no segments to check")
    m = max(5, samples_per_segment // 2)   # Simpson pairs per segment
    make = sys.state_type.from_vector

    worst = 0.0
    worst_t = None
    f0 = None
    log_ref = 0.0
    for seg in traj.segments:
        if seg.t1 <= seg.t0:
            continue
        ts = np.linspace(seg.t0, seg.t1, 2 * m + 1)
        states = [make(seg.eval(t), traj.n, t) for t in ts]
        rates = np.array([sys.rate(s) for s in states])
        # the value is checked at the leading node of each Simpson pair and at the end
        values = [float(value_fn(s)) for s in states[::2]]
        finite = np.isfinite(values)
        if not finite.all():
            # a non-finite value fails the check at its first node; the rate
            # accessor itself raises NonFiniteValue
            return CheckReport(name=name, max_violation=np.inf, tolerance=tol,
                               location=float(ts[2 * np.argmin(finite)]))
        if f0 is None:
            f0 = values[0]
        denom = abs(f0) if f0 != 0.0 else 1.0
        dt = (seg.t1 - seg.t0) / (2 * m)
        for k in range(m):
            ref = f0 * np.exp(log_ref)
            viol = abs(values[k] - ref) / denom
            if viol > worst:
                worst, worst_t = viol, float(ts[2 * k])
            log_ref += dt / 3.0 * (rates[2 * k] + 4.0 * rates[2 * k + 1]
                                   + rates[2 * k + 2])
        ref = f0 * np.exp(log_ref)
        viol = abs(values[-1] - ref) / denom
        if viol > worst:
            worst, worst_t = viol, float(seg.t1)
    return CheckReport(name=name, max_violation=worst, tolerance=tol,
                       location=worst_t)


def check_energy_decay(traj: HybridTrajectory,
                       sys: Union[SystemSpec, HamiltonianSpec],
                       tol: float = FLOW_TOL,
                       samples_per_segment: int = 32) -> CheckReport:
    """Energy law E(t) = E0 exp(integral dL/dz dt), across impacts included.

    For constant dL/dz = -gamma the reference is E0 e^(-gamma t).
    """
    return _decay_law_violation(traj, sys, sys.energy,
                                "energy_decay", tol, samples_per_segment)


def check_dissipated_quantity(traj: HybridTrajectory, f: Callable,
                              sys: Union[SystemSpec, HamiltonianSpec],
                              tol: float = FLOW_TOL,
                              samples_per_segment: int = 32,
                              name: str = "dissipated_quantity") -> CheckReport:
    """Same decay law with an arbitrary state function f in place of E."""
    return _decay_law_violation(traj, sys, f, name, tol, samples_per_segment)


def check_impact_conditions(event: ImpactEvent,
                            sys: Union[SystemSpec, HamiltonianSpec],
                            surface: SwitchingSurface,
                            tol: float = IMPACT_TOL) -> CheckReport:
    """Recompute the tangential-momentum and energy matches for one event
    from both one-sided states (see ``impact.impact_residuals``)."""
    r_tan, r_en = impact_residuals(sys, surface, event.state_minus, event.state_plus)
    return CheckReport(name="impact_conditions", max_violation=max(r_tan, r_en),
                       tolerance=tol, location=event.t)


def check_contact_identities(sys: HamiltonianSpec,
                             states: Sequence[ContactStateH],
                             tol: float = 1e-6) -> CheckReport:
    """Pointwise identity X_H(H) = -(dH/dz) H along the contact field.

    The left side is a central finite difference of H along the flow
    direction in (q, p, z); the right uses the analytic partials. With
    gamma = 0 this reduces to conservation of H.
    """
    worst = 0.0
    worst_i = None
    for i, s in enumerate(states):
        y = s.as_vector()
        d = hamiltonian_rhs(sys, s.t, y)
        eps = _EPS ** (1.0 / 3.0) / max(1.0, float(np.max(np.abs(d))))
        yp, ym = y + eps * d, y - eps * d
        n = sys.n
        Hp = sys.value(yp[:n], yp[n:2 * n], yp[2 * n])
        Hm = sys.value(ym[:n], ym[n:2 * n], ym[2 * n])
        lie = (Hp - Hm) / (2.0 * eps)
        H = sys.value(s.q, s.p, s.z)
        target = -sys.grad_z(s.q, s.p, s.z) * H
        viol = abs(lie - target) / max(1.0, abs(H))
        if viol > worst:
            worst, worst_i = viol, float(i)
    return CheckReport(name="contact_identity", max_violation=worst,
                       tolerance=tol, location=worst_i)

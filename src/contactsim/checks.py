"""Invariant monitors: post-hoc trajectory checks.

Every check recomputes its quantities from raw states, independently of
the solver path that produced them, so a resolver bug cannot certify its
own output. One decay law serves the energy and any other dissipated
quantity f(q, x, z): f = f0 exp(integral of the rate dL/dz dt). On a
trajectory the nodes are the ends and the midpoint of every dense step
the integrator took, and the integral is Simpson's rule step by step; on
stored table rows it is the composite trapezoid between rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from .core import HamiltonianSpec, SystemSpec, _phase_split
from .hybrid import HybridTrajectory
from .impact import ImpactEvent, SwitchingSurface, impact_violation

__all__ = [
    "CheckReport",
    "check_decay_laws",
    "check_row_decay_laws",
    "check_containment",
    "check_row_containment",
    "check_energy_decay",
    "check_dissipated_quantity",
    "check_impact_conditions",
]

# The one acceptance standard of every check; no caller sets its own. Flow
# laws carry quadrature and integrator error, and impact residuals are pure
# algebra. An impact's stored pre/post rows sit on the boundary to within
# the event localization, and a recomputed table column repeats the
# writer's arithmetic on the values it wrote.
FLOW_TOL = 1e-7
IMPACT_TOL = 1e-10
CONTAINMENT_TOL = 1e-10
COLUMN_TOL = 1e-12

# The containment search: sample points per dense step, and the
# golden-section iterations on an interval that holds a minimum of h; each
# keeps 0.618 of the interval, so 40 narrow it to 4e-9 of its width.
_CONTAINMENT_POINTS = 17
_GOLDEN_ITERATIONS = 40
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        """JSON-ready fields; a non-finite violation becomes None (JSON null),
        so strict parsers read the report, and ``passed`` stays False."""
        return {
            "name": self.name,
            "max_violation": self.max_violation if math.isfinite(self.max_violation) else None,
            "tolerance": self.tolerance,
            "location": self.location,
            "passed": self.passed,
        }


def _decay_reports(ts: np.ndarray, log_ref: np.ndarray, quantities: dict):
    """Each quantity's values f at the times ts against f0 * exp(log_ref),
    the rate's integral from ts[0], relative to |f0| (1 when f0 = 0). The
    worst node is reported, and a non-finite value fails at its first node."""
    reports = []
    for name, f in quantities.items():
        f = np.asarray(f, dtype=float)
        with np.errstate(invalid="ignore"):
            viol = np.abs(f - f[0] * np.exp(log_ref)) / (abs(f[0]) if f[0] != 0.0 else 1.0)
        viol[~np.isfinite(viol)] = np.inf
        k = int(np.argmax(viol))
        reports.append(CheckReport(name=name, max_violation=viol[k], tolerance=FLOW_TOL,
                                   location=ts[k] if viol[k] > 0.0 else None))
    return reports


def check_decay_laws(traj: HybridTrajectory, sys: Union[SystemSpec, HamiltonianSpec],
                     quantities: Dict[str, Callable]) -> list:
    """One report per named function f(q, x, z), each against the decay law
    f(t) = f0 exp(integral of sys.rate dt) along the whole trajectory.

    The nodes are each dense step's two ends and its midpoint, and one pass
    serves every quantity: each node's stored or interpolated vector is split
    once into (q, x, z), which give the rate and each f there; no state is
    built. A step's start that repeats the end of the step before (same time,
    same vector) reuses that node, so a flow phase of m steps takes 2m + 1.
    Over a step the rate integral is Simpson's rule, and to the midpoint it
    is the integral of the quadratic through the step's three rates.
    """
    steps = [seg for run in traj.segments for seg in run.segments]
    if not steps:
        raise ValueError("trajectory has no flow to check")
    nodes = [(seg.t0, 0.5 * (seg.t0 + seg.t1), seg.t1) for seg in steps]
    rates = np.empty((len(steps), 3))
    values = {name: np.empty(rates.shape) for name in quantities}
    for k, (seg, (t0, tm, t1)) in enumerate(zip(steps, nodes)):
        for j, (y, t) in enumerate(((seg.y0, t0), (seg.eval(tm), tm), (seg.y1, t1))):
            if j == 0 and k and steps[k - 1].t1 == t and np.array_equal(steps[k - 1].y1, y):
                # an impact's reset changes the vector, so both of its sides
                # are evaluated
                rates[k, 0] = rates[k - 1, 2]
                for f in values.values():
                    f[k, 0] = f[k - 1, 2]
                continue
            q, x, z = _phase_split(sys, t, y)
            rates[k, j] = sys.rate(q, x, z)
            for name, f in quantities.items():
                values[name][k, j] = float(f(q, x, z))
    ts = np.array(nodes)
    h = ts[:, 2] - ts[:, 0]
    r0, rm, r1 = rates.T
    ends = np.cumsum(h / 6.0 * (r0 + 4.0 * rm + r1))
    starts = np.concatenate([[0.0], ends[:-1]])
    # each step starts at the integral where the one before it ended: an
    # impact takes no time, so no rate is integrated across its reset
    log_ref = np.column_stack([starts, starts + h / 24.0 * (5.0 * r0 + 8.0 * rm - r1),
                               ends]).ravel()
    return _decay_reports(ts.ravel(), log_ref, {
        name: f.ravel() for name, f in values.items()})


def check_row_decay_laws(sys: Union[SystemSpec, HamiltonianSpec], times: np.ndarray,
                         states: np.ndarray, quantities: Dict[str, Sequence[float]]) -> list:
    """The decay law on the state rows [q, x, z] at times, one value column per name.

    The rate integral is the composite trapezoid between rows; an impact's
    pre/post pair share one time, so nothing is integrated across the
    reset. Exact for a constant rate, second order otherwise."""
    ts, n = np.asarray(times, dtype=float), sys.n
    rates = np.array([sys.rate(y[:n], y[n:2 * n], float(y[2 * n])) for y in states])
    steps = np.diff(ts) / 2.0 * (rates[:-1] + rates[1:])
    log_ref = np.concatenate([[0.0], np.cumsum(steps)])
    return _decay_reports(ts, log_ref, quantities)


def check_row_containment(surface: SwitchingSurface, times: Sequence[float],
                          qs: Sequence[np.ndarray]) -> CheckReport:
    """Deepest exit of the configurations qs, stored at times, from the
    admissible region h > 0, located at the row of least h; one block call
    of h reads every row."""
    h_vals = surface.values(np.asarray(qs, dtype=float))
    return CheckReport(name="containment", max_violation=float(max(0.0, -np.min(h_vals))),
                       tolerance=CONTAINMENT_TOL,
                       location=float(times[int(np.argmin(h_vals))]))


def _golden_min(h: Callable[[float], float], a: float, b: float) -> tuple:
    """(min h, its time) on [a, b] by golden-section search, for h unimodal."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(_GOLDEN_ITERATIONS):
        if hc <= hd:
            b, d, hd = d, c, hc
            c = b - _INV_PHI * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + _INV_PHI * (b - a)
            hd = h(d)
    return min((hc, c), (hd, d))


def check_containment(traj: HybridTrajectory, surface: SwitchingSurface) -> CheckReport:
    """Deepest exit from the admissible region h > 0 over every dense step,
    between the stored rows too, located at the time of least h.

    Each step's interpolant is read at 17 equally spaced times over its
    valid window, with h and dh/dt = grad h . qdot there from one block
    call of h and one of grad h. Where dh/dt goes from < 0 to > 0 between
    two of them, h has a minimum in between, which golden-section search
    narrows. The search reads only the stored
    interpolants, so it shares nothing with the integrator's event guard.
    """
    steps = [seg for run in traj.segments for seg in run.segments]
    if not steps:
        raise ValueError("trajectory has no flow to check")
    n = traj.n
    worst_h, worst_t = math.inf, None
    for seg in steps:
        ts = np.linspace(seg.t0, seg.t1, _CONTAINMENT_POINTS)
        qs = seg.eval_many(ts)[:, :n]
        qdots = seg.eval_derivative_many(ts)[:, :n]
        hs, gs = surface.slopes(qs, qdots)
        k = int(np.argmin(hs))
        minima = [(hs[k], float(ts[k]))] + [
            _golden_min(lambda t: surface.value(seg.eval(t)[:n]), float(ts[j]), float(ts[j + 1]))
            for j in range(len(ts) - 1) if gs[j] < 0.0 < gs[j + 1]]
        h_min, t_min = min(minima)
        if h_min < worst_h:
            worst_h, worst_t = h_min, t_min
    return CheckReport(name="containment", max_violation=max(0.0, -worst_h),
                       tolerance=CONTAINMENT_TOL, location=worst_t)


def check_energy_decay(traj: HybridTrajectory,
                       sys: Union[SystemSpec, HamiltonianSpec]) -> CheckReport:
    """Energy law E(t) = E0 exp(integral dL/dz dt), across impacts included.

    For constant dL/dz = -gamma the reference is E0 e^(-gamma t).
    """
    return check_decay_laws(traj, sys, {"energy_decay": sys.energy})[0]


def check_dissipated_quantity(traj: HybridTrajectory, f: Callable,
                              sys: Union[SystemSpec, HamiltonianSpec], *,
                              name: str = "dissipated_quantity") -> CheckReport:
    """Same decay law with an arbitrary function f(q, x, z) in place of E."""
    return check_decay_laws(traj, sys, {name: f})[0]


def check_impact_conditions(event: ImpactEvent,
                            sys: Union[SystemSpec, HamiltonianSpec],
                            surface: SwitchingSurface) -> CheckReport:
    """Recompute the impact law for one event from both one-sided states
    (see ``impact.impact_violation``)."""
    return CheckReport(name="impact_conditions", tolerance=IMPACT_TOL, location=event.t,
                       max_violation=impact_violation(sys, surface, event.state_minus,
                                                      event.state_plus))


"""Flow -> guard -> reset orchestration and trajectory records.

A hybrid system here is a smooth contact flow (Lagrangian or Hamiltonian)
on the interior of an admissible region, a switching surface h(q) = 0,
and an impact resolver applied whenever the flow reaches the surface
moving outward. ``simulate`` alternates smooth integration with impact
resolution and records every piece: dense segments for later sampling
and, per impact, the event its resolver returns with both one-sided limits.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .core import HamiltonianSpec, SystemSpec
from .errors import (
    ContactSimError,
    ExteriorState,
    GrazingContact,
    TimeOutOfRange,
)
from . import impact
from .impact import ImpactEvent, SwitchingSurface
from .integrate import (
    EventConfig,
    StepperConfig,
    TrajectorySegment,
    _eval_segments,
    integrate_until_event,
)

__all__ = [
    "HybridSystem",
    "TrajectorySegment",
    "HybridTrajectory",
    "SampleTable",
    "simulate",
    "sample",
    "COMPLETED",
    "ZENO_SUSPECTED",
    "GRAZING_STOP",
    "EVENT_BUDGET_EXHAUSTED",
]

COMPLETED = "Completed"
ZENO_SUSPECTED = "ZenoSuspected"
GRAZING_STOP = "GrazingStop"
EVENT_BUDGET_EXHAUSTED = "EventBudgetExhausted"
MAX_EVENTS = 10 ** 6    # simulate's default event budget, also the CLI's

# Zeno guard: this many consecutive events, each within 100 * t_tol of the
# previous one, stop the run.
_ZENO_STREAK = 50
_ZENO_GAP_FACTOR = 100.0

FLAG_FLOW = 0
FLAG_PRE_IMPACT = 1
FLAG_POST_IMPACT = 2


@dataclass(frozen=True)
class HybridSystem:
    """Dynamics + switching surface; the impact resolver follows from the
    dynamics.

    Impacts go to ``impact.resolve_impact_<law>`` with the law that the
    dynamics name in ``impact_law``: "natural" for a SystemSpec with a
    natural form, else "newton", and "hamiltonian" for a HamiltonianSpec.
    ``resolver`` may repeat that name, and any other name raises ValueError
    here. A callable (dynamics, state_minus, surface) -> ImpactEvent
    replaces the law, for experiments that need a nonstandard reset; the
    event's ``state_minus`` must be the state it was handed.
    """

    dynamics: Union[SystemSpec, HamiltonianSpec]
    surface: SwitchingSurface
    resolver: Union[None, str, Callable] = None

    def __post_init__(self):
        law = self.dynamics.impact_law
        if not (self.resolver is None or callable(self.resolver) or self.resolver == law):
            raise ValueError(f"impact resolver {self.resolver!r} does not fit "
                             f"{type(self.dynamics).__name__} dynamics, whose law is {law!r}")

    @property
    def formulation(self) -> str:
        return self.dynamics.formulation

    @property
    def n(self) -> int:
        return self.dynamics.n

    def state_from_vector(self, y: np.ndarray, t: float):
        return self.dynamics.state_type.from_vector(y, t)

    def resolve(self, state_minus, ev: EventConfig) -> ImpactEvent:
        if callable(self.resolver):
            return self.resolver(self.dynamics, state_minus, self.surface)
        # looked up at call time, so a rebound module attribute takes effect
        resolver = getattr(impact, "resolve_impact_" + self.dynamics.impact_law)
        return resolver(self.dynamics, state_minus, self.surface,
                        grazing_threshold=ev.grazing_threshold)


@dataclass
class HybridTrajectory:
    """Ordered smooth segments separated by impact events."""

    formulation: str
    n: int
    segments: List[TrajectorySegment] = field(default_factory=list)
    events: List[ImpactEvent] = field(default_factory=list)
    status: str = COMPLETED

    @property
    def t0(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    def state_at(self, t: float, side: int = +1):
        """State vector at time t; ``side`` picks the limit at event times
        (-1 pre-impact, +1 post-impact)."""
        if not self.segments:
            raise TimeOutOfRange("trajectory is empty")
        if not self.t0 <= t <= self.t_end:   # NaN included
            raise TimeOutOfRange(
                f"t={t} outside trajectory span [{self.t0}, {self.t_end}]"
            )
        i = bisect.bisect_right(self.segments, t, key=lambda seg: seg.t0) - 1
        i = max(i, 0)
        if side < 0 and i > 0 and t == self.segments[i].t0:
            i -= 1
        return self.segments[i].eval(t)

    def sample(self, times: Sequence[float]) -> "SampleTable":
        return sample(self, times)


@dataclass
class SampleTable:
    """Sampled states: one row per time, two rows (both limits) at event
    times. ``flags`` is 0 for flow samples, 1 pre-impact, 2 post-impact."""

    times: np.ndarray
    states: np.ndarray
    flags: np.ndarray


def _flow_states(traj: HybridTrajectory, ts: np.ndarray) -> np.ndarray:
    """``state_at(t)`` for every time in ts but an event time, one row per
    time: each time is evaluated on the dense step that starts last at or
    before it, whose knots hold the flow phases' end states."""
    if not ts.size:
        return np.empty((0, 2 * traj.n + 1))
    if not traj.segments:
        raise TimeOutOfRange("trajectory is empty")
    outside = np.flatnonzero(~((ts >= traj.t0) & (ts <= traj.t_end)))
    if outside.size:
        raise TimeOutOfRange(f"t={float(ts[outside[0]])} outside trajectory span "
                             f"[{traj.t0}, {traj.t_end}]")
    steps = [seg for run in traj.segments for seg in run.segments]
    which = np.searchsorted([seg.t0 for seg in steps], ts, side="right") - 1
    return _eval_segments(steps, np.maximum(which, 0), ts)


def sample(traj: HybridTrajectory, times: Sequence[float]) -> SampleTable:
    """Evaluate the trajectory at the requested times from dense segments.

    At an event time both one-sided limits are reported, pre before post.
    Raises TimeOutOfRange for times outside the trajectory span.
    """
    ts = np.asarray(times, dtype=float).reshape(-1)
    by_time = {ev.t: ev for ev in traj.events}
    at_event = np.isin(ts, list(by_time))
    n_rows = np.where(at_event, 2, 1)
    first = np.cumsum(n_rows) - n_rows        # first row of each requested time
    states = np.empty((int(n_rows.sum()), 2 * traj.n + 1))
    states[first[~at_event]] = _flow_states(traj, ts[~at_event])
    for row, t in zip(first[at_event].tolist(), ts[at_event].tolist()):
        states[row] = by_time[t].state_minus.as_vector()
        states[row + 1] = by_time[t].state_plus.as_vector()
    flags = np.full(states.shape[0], FLAG_FLOW, dtype=np.int8)
    flags[first[at_event]] = FLAG_PRE_IMPACT
    flags[first[at_event] + 1] = FLAG_POST_IMPACT
    return SampleTable(times=np.repeat(ts, n_rows), states=states, flags=flags)


def simulate(hs: HybridSystem, s0, t_final: float,
             cfg: Optional[StepperConfig] = None,
             ev: Optional[EventConfig] = None,
             max_events: int = MAX_EVENTS) -> HybridTrajectory:
    """Run the hybrid loop from s0 until t_final or a terminal condition.

    The start state must be strictly interior. Returns the trajectory
    with status Completed, ZenoSuspected, GrazingStop, or
    EventBudgetExhausted. Integrator and impact errors propagate, annotated
    "[flow phase before event k]" or "[impact event k]", k the next impact's index.
    """
    cfg = cfg or StepperConfig()
    ev = ev or EventConfig()
    expected = hs.dynamics.state_type
    if not isinstance(s0, expected):
        raise TypeError(
            f"initial state must be {expected.__name__} for the "
            f"{hs.formulation} formulation"
        )
    hs.dynamics.check_state(s0)
    if hs.surface.value(s0.q) <= 0.0:
        raise ExteriorState(
            f"initial state must be strictly interior (h={hs.surface.value(s0.q):.3e})"
        )
    if not t_final > s0.t:
        raise ValueError(f"t_final={t_final} must exceed the start time {s0.t}")

    traj = HybridTrajectory(formulation=hs.formulation, n=hs.n)
    t = float(s0.t)
    y = s0.as_vector()
    armed = True
    zeno_streak = 0

    while True:
        try:
            run = integrate_until_event(hs.dynamics.vector_field, t, y, t_final,
                                        hs.surface, cfg, ev, armed=armed)
        except GrazingContact:
            traj.status = GRAZING_STOP
            return traj
        except ContactSimError as e:
            raise type(e)(f"{e} [flow phase before event {len(traj.events)}]") from e
        traj.segments.append(run)
        if run.hit is None:
            traj.status = COMPLETED
            return traj

        state_minus = hs.state_from_vector(run.hit.y, run.hit.t)
        try:
            event = hs.resolve(state_minus, ev)
        except GrazingContact:
            traj.status = GRAZING_STOP
            return traj
        except ContactSimError as e:
            raise type(e)(f"{e} [impact event {len(traj.events)}]") from e
        # the reset is checked against the flow's own pre-impact limit
        if event.state_minus is not state_minus:
            raise ValueError(f"the resolver returned a state_minus other than the one "
                             f"it was handed [impact event {len(traj.events)}]")

        if traj.events and (event.t - traj.events[-1].t) < _ZENO_GAP_FACTOR * ev.t_tol:
            zeno_streak += 1
        else:
            zeno_streak = 1
        traj.events.append(event)
        if zeno_streak >= _ZENO_STREAK:
            traj.status = ZENO_SUSPECTED
            return traj
        if len(traj.events) >= max_events:
            traj.status = EVENT_BUDGET_EXHAUSTED
            return traj

        t = run.hit.t
        y = event.state_plus.as_vector()
        armed = False

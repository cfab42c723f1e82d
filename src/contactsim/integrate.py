"""Adaptive explicit Runge-Kutta integration with dense output and events.

The stepper is the Dormand-Prince 5(4) embedded pair: the 5th-order
solution is propagated, the embedded 4th-order solution drives step-size
control, and each accepted step carries the standard quartic interpolant
so the state can be evaluated anywhere inside the step. The choice is
fixed (no runtime solver selection) so a given configuration reproduces
its output bit for bit.

The right-hand side is a flat field f(t, y) -> dy/dt on the phase vector,
and each stage input is an exact-order sum: the rows k_0..k_{i-1} scaled
by the tableau column and added in index order, as a scalar loop would.

Event handling scans each accepted step at 17 equally spaced checkpoints
for h(q) and dh/dt = grad h . qdot, the q block of the interpolant's
derivative being qdot. ``DenseSegment.eval_many`` and
``eval_derivative_many`` evaluate the interpolant and its derivative at all
of them in one broadcast with the operations of ``eval`` and
``eval_derivative``, the checkpoint times reproduce ``np.linspace`` bit
for bit, and h and grad h see all 17 configurations in one call each.
Where dh/dt changes sign between two checkpoints, h has an extremum
there, which the scan refines on the interpolant when it can decide the
guard: a minimum with h <= 0 is an exit that no checkpoint sees, and a
maximum above 1e-9 re-arms the guard that an impact disarmed, so the
particle cannot leave again before a checkpoint re-arms it
(Shampine & Thompson, "Event location for ordinary differential
equations", Comput. Math. Appl. 39, 2000). Steps can therefore be long:
``simulate`` starts each flow phase after an impact at the step size the
phase before proposed. The first interior-to-exterior crossing of a
switching surface h(q) = 0 (admissible region h > 0) that the scan
brackets is then localized on the dense interpolant by ``locate_event``,
with Newton's method on h safeguarded by the bracket (a handful of
interpolant evaluations per event), and the state is projected exactly
onto the surface along the gradient.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ExteriorState,
    GrazingContact,
    MaxStepsExceeded,
    NoConvergence,
    NonFiniteValue,
    NoSignChange,
    StepSizeUnderflow,
)
from .impact import _GRAZING_SPEED

__all__ = [
    "StepperConfig",
    "DenseSegment",
    "EventHit",
    "TrajectorySegment",
    "step",
    "integrate_until_event",
    "locate_event",
]

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Column i holds the weights of stage i as an (i, 1) array, so
# (_A_COL[i] * k[:i]).sum(axis=0) adds the scaled rows in index order.
_A_COL = tuple(np.array(row).reshape(-1, 1) for row in _A)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - bhat: weights for the embedded error estimate.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# Weights of the quartic dense-output correction term.
_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0

# Interior checkpoints per accepted step for event sign monitoring.
_N_CHECK = 16
_CHECK_K = np.arange(_N_CHECK + 1, dtype=float)

_EPS = float(np.finfo(float).eps)
_ARM_THRESHOLD = 1e-9      # a disarmed guard re-arms once h exceeds this
_LOCATE_MAX_ITER = 200
_LOCATE_T_TOL = 1e-12      # a located event's bracket width
_LOCATE_H_TOL = 1e-12      # and |h| at its exterior end


@dataclass(frozen=True)
class StepperConfig:
    """Error tolerances and step bounds of the stepper. ``h_init`` is the
    first step the first flow phase tries; ``simulate`` starts every phase
    after an impact at the step size the phase before it proposed."""

    rtol: float = 1e-10
    atol: float = 1e-10
    h_init: float = 1e-3
    h_max: float = 1.0
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rtol", "atol", "h_init", "h_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"StepperConfig.{name} must be > 0")
        if self.max_steps < 1:
            raise ValueError("StepperConfig.max_steps must be >= 1")


class DenseSegment:
    """Quartic interpolant over one accepted step, possibly cut short.

    The interpolant is built on the full step [t0, t0 + h_step]; the valid
    window [t0, t1] may end earlier when an event cut the step short or
    the horizon snapped it. Evaluation at exactly t0 or t1 returns the
    stored endpoint states, so knot evaluations reproduce them bit for bit.
    """

    __slots__ = ("h_step", "t0", "t1", "y0", "y1", "_r2", "_r3", "_r4", "_r5")

    def __init__(self, t0, h_step, y_start, y_end, f_start, f_end, k_weighted):
        self.h_step = float(h_step)
        self.t0 = float(t0)
        self.t1 = float(t0 + h_step)
        self.y0 = np.array(y_start, dtype=float)
        self.y1 = np.array(y_end, dtype=float)
        r2 = self.y1 - self.y0
        r3 = self.h_step * f_start - r2
        r4 = r2 - self.h_step * f_end - r3
        self._r2 = r2
        self._r3 = r3
        self._r4 = r4
        self._r5 = self.h_step * k_weighted

    def _theta(self, t: float) -> float:
        return (t - self.t0) / self.h_step

    def eval(self, t: float) -> np.ndarray:
        if t == self.t0:
            return self.y0.copy()
        if t == self.t1:
            return self.y1.copy()
        th = self._theta(t)
        om = 1.0 - th
        return self.y0 + th * (self._r2 + om * (self._r3 + th * (self._r4 + om * self._r5)))

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """``eval`` at every time in ts, one row per time, in one broadcast
        with the same operation order, so each row equals ``eval(t)``."""
        return _interpolate(np.asarray(ts, dtype=float),
                            *(getattr(self, name) for name in self.__slots__))

    def eval_derivative(self, t: float) -> np.ndarray:
        """Time derivative of the interpolant; its q block is qdot."""
        return _derivative(self._theta(t), self.h_step, self._r2, self._r3, self._r4,
                           self._r5)

    def eval_derivative_many(self, ts: np.ndarray) -> np.ndarray:
        """``eval_derivative`` at every time in ts, one row per time, in one
        broadcast with the same operations, so each row equals it."""
        th = ((np.asarray(ts, dtype=float) - self.t0) / self.h_step)[:, None]
        return _derivative(th, self.h_step, self._r2, self._r3, self._r4, self._r5)


def _derivative(th, h_step, r2, r3, r4, r5):
    """The interpolant's time derivative at theta = th, a float or a column;
    only +, - and * before the division, so both agree bit for bit."""
    return (r2
            + (1.0 - 2.0 * th) * r3
            + (2.0 * th - 3.0 * th * th) * r4
            + (2.0 * th - 6.0 * th * th + 4.0 * th * th * th) * r5) / h_step


def _interpolate(ts, h_step, t0, t1, y0, y1, r2, r3, r4, r5) -> np.ndarray:
    """The interpolant of ``DenseSegment.eval`` at the times ts, one row per
    time, with its operation order and its knot rule. The other arguments
    are the slots of DenseSegment, in their order, each either one
    segment's value or one row per time."""
    th = ((ts - t0) / h_step)[:, None]
    om = 1.0 - th
    out = y0 + th * (r2 + om * (r3 + th * (r4 + om * r5)))
    out = np.where((ts == t1)[:, None], y1, out)
    return np.where((ts == t0)[:, None], y0, out)


def _eval_segments(segments: list, which: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row k is ``segments[which[k]].eval(ts[k])``; all rows in one broadcast."""
    used, row = np.unique(which, return_inverse=True)
    picked = [segments[i] for i in used.tolist()]
    return _interpolate(np.asarray(ts, dtype=float), *(
        np.array([getattr(d, name) for d in picked])[row]
        for name in DenseSegment.__slots__))


def _error_ratio(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                 cfg: StepperConfig) -> float:
    """Componentwise |error| / (atol + rtol max(|y0|, |y1|)), max over components."""
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.max(np.abs(err) / scale))


def step(rhs: Callable, t: float, y: np.ndarray, cfg: StepperConfig,
         h_try: float, f0: np.ndarray):
    """One accepted Dormand-Prince 5(4) step with error control.

    f0 is rhs(t, y). Attempts h_try (at most cfg.h_max), shrinking on
    rejection until the componentwise local error estimate passes
    atol + rtol * |state|.

    Returns (segment, h_next, f_new): the accepted step runs from t to
    ``segment.t1`` = t + ``segment.h_step``, ending at ``segment.y1``, and
    f_new is the derivative there (FSAL), reusable as the next f0.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteValue(f"right-hand side is not finite at t={t}")
    h = min(float(h_try), cfg.h_max)
    k = np.empty((7, y.size))
    k[0] = f0
    while True:
        if h < 16.0 * _EPS * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t={t} (h={h:.3e})")
        for i in range(1, 7):
            k[i] = rhs(t + _C[i] * h, y + h * (_A_COL[i] * k[:i]).sum(axis=0))
        y1 = y + h * (_B @ k)
        if not np.all(np.isfinite(y1)):
            h *= 0.5
            continue
        err = h * (_E @ k)
        ratio = _error_ratio(err, y, y1, cfg)
        if ratio <= 1.0:
            break
        factor = max(_MIN_FACTOR, _SAFETY * ratio ** _ORDER_EXP)
        h *= factor
    if ratio == 0.0:
        factor = _MAX_FACTOR
    else:
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ratio ** _ORDER_EXP))
    h_next = min(cfg.h_max, h * factor)
    f_new = k[6].copy()  # FSAL: stage 7 is rhs at (t + h, y1)
    seg = DenseSegment(t, h, y, y1, k[0], f_new, _D @ k)
    return seg, h_next, f_new


@dataclass(frozen=True)
class EventHit:
    """A localized surface crossing: time, state (projected onto h = 0),
    and the normal speed dh/dt at the hit."""

    t: float
    y: np.ndarray
    hdot: float


@dataclass
class TrajectorySegment:
    """One smooth flow phase: dense segments from t0 until an event or the
    horizon. ``hit`` is None when the horizon was reached. ``h_next`` is
    the last step's proposal, with which the next phase starts."""

    t0: float
    t1: float
    y0: np.ndarray
    y1: np.ndarray
    segments: list
    hit: Optional[EventHit]
    h_next: float

    def eval(self, t: float) -> np.ndarray:
        if t == self.t0:
            return self.y0.copy()
        if t == self.t1:
            return self.y1.copy()
        i = bisect.bisect_right(self.segments, t, key=lambda d: d.t0) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i].eval(t)


def _project_to_surface(q: np.ndarray, surface) -> np.ndarray:
    """Single Newton step moving q onto h = 0 along grad h."""
    g = surface.gradient(q)
    return q - (surface.value(q) / float(g @ g)) * g


def _checkpoints(t0: float, t1: float) -> np.ndarray:
    """np.linspace(t0, t1, _N_CHECK + 1), bit for bit, without its per-call cost."""
    ts = t0 + _CHECK_K * ((t1 - t0) / _N_CHECK)
    ts[-1] = t1
    return ts


def _slope(segment: DenseSegment, surface, t: float) -> tuple:
    """(h, dh/dt) on the interpolant at t; dh/dt = grad h . qdot."""
    n_q = segment.y0.size // 2
    q = segment.eval(t)[:n_q]
    return (float(surface.value(q)),
            float(surface.gradient(q) @ segment.eval_derivative(t)[:n_q]))


def _extremum(segment: DenseSegment, surface, a: float, b: float, ga: float, gb: float,
              decides: Callable[[float], bool]) -> tuple:
    """(t, h) between a and b, where dh/dt changes sign from ga to gb, at
    the first iterate whose h ``decides`` the guard, else at the extremum of
    h: Illinois regula falsi on dh/dt, to a bracket width of 1e-12."""
    side = 0
    for _ in range(_LOCATE_MAX_ITER):
        t = (a * gb - b * ga) / (gb - ga)
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break                    # the bracket is at the spacing floor
        h, g = _slope(segment, surface, t)
        if decides(h) or g == 0.0:
            return t, h
        if (g > 0.0) == (ga > 0.0):
            a, ga = t, g
            if side == -1:
                gb *= 0.5                # Illinois: halve the end that stayed
            side = -1
        else:
            b, gb = t, g
            if side == 1:
                ga *= 0.5
            side = 1
        if b - a <= _LOCATE_T_TOL:
            return t, h
    t = 0.5 * (a + b)
    return t, _slope(segment, surface, t)[0]


def _scan(segment: DenseSegment, surface, armed: bool) -> tuple:
    """Event guard over one dense segment: h(q) and dh/dt = grad h . qdot
    at its 17 checkpoints, and the extrema of h that dh/dt brackets.

    A disarmed guard re-arms at the first checkpoint where h exceeds
    _ARM_THRESHOLD, or at an interior maximum above it; when the checkpoint
    after that maximum has h <= 0, the bracket is (maximum, checkpoint).
    An armed guard brackets the first checkpoint pair with h > 0 before
    and h <= 0 after, or, when both have h > 0 and dh/dt goes from < 0 to
    > 0 between them, (first checkpoint, interior minimum) if h <= 0 there.
    An extremum is refined only when it can decide a bracket, and only
    until h decides it: any point of the maximum's rise with h above the
    threshold, or of the minimum's dip with h <= 0, bounds the same single
    crossing. The checkpoints cost one block call of h and one of grad_h
    (``SwitchingSurface.slopes``); an extremum adds one value and one
    gradient per refinement.
    Returns (bracket, armed), the bracket None when the segment has no exit.
    """
    ts = _checkpoints(segment.t0, segment.t1)
    n_q = segment.y0.size // 2
    qs = segment.eval_many(ts)[:, :n_q]
    qdots = segment.eval_derivative_many(ts)[:, :n_q]
    hs, gs = surface.slopes(qs, qdots)
    start = 0
    if not armed:
        for i, hv in enumerate(hs):
            if hv > _ARM_THRESHOLD:
                break
            if i and gs[i - 1] > 0.0 > gs[i]:
                t_top, h_top = _extremum(segment, surface, float(ts[i - 1]), float(ts[i]),
                                         gs[i - 1], gs[i], lambda h: h > _ARM_THRESHOLD)
                if h_top > _ARM_THRESHOLD:
                    if hv <= 0.0:
                        return (t_top, float(ts[i])), True
                    break
        else:
            return None, False
        armed, start = True, i
    for i in range(start + 1, len(hs)):
        if hs[i - 1] > 0.0 >= hs[i]:
            return (float(ts[i - 1]), float(ts[i])), True
        if gs[i - 1] < 0.0 < gs[i] and hs[i - 1] > 0.0:
            t_low, h_low = _extremum(segment, surface, float(ts[i - 1]), float(ts[i]),
                                     gs[i - 1], gs[i], lambda h: h <= 0.0)
            if h_low <= 0.0:
                return (float(ts[i - 1]), t_low), True
    return None, True


def locate_event(segment: DenseSegment, surface, *, bracket: tuple) -> EventHit:
    """Localize the h(q) = 0 crossing inside a bracket of a dense segment.

    The bracket (a, b) must straddle the surface, h > 0 at a and h <= 0
    at b, as the checkpoint scan returns it. Newton's method on the
    interpolant, from the bracket's secant point, refines it until |h| at
    b and b - a are both at most 1e-12, or h at b is 0; b is the event
    time. Each iterate evaluates the interpolant and its derivative once,
    for h and dh/dt = grad h . qdot, and replaces a or b by the sign of h.
    A Newton point outside (a, b), or an |h| that did not halve, bisects
    instead, so a multiple root converges linearly. A Newton step below
    half the width tolerance steps that far past the root (less where |h|
    there would exceed 1e-12) to close the bracket from the other side.
    The grazing and direction tests and the projection reuse b's state
    and dh/dt.

    Raises NoSignChange when the bracket does not straddle the surface,
    and GrazingContact when the crossing is tangential (|dh/dt| below the
    impact law's grazing speed). h sees the q block y[: y.size // 2].
    """
    n_q = segment.y0.size // 2
    a, b = float(bracket[0]), float(bracket[1])
    fa = float(surface.value(segment.eval(a)[:n_q]))
    y_b = segment.eval(b)
    fb = float(surface.value(y_b[:n_q]))
    if not (fa > 0.0 >= fb):
        raise NoSignChange(f"bracket does not straddle the surface: h={fa:.3e}, {fb:.3e}")

    hdot = None                          # dh/dt at b, once an iterate lands there
    t = b - fb * (b - a) / (fb - fa)     # the secant point of the bracket
    h_prev = math.inf
    for _ in range(_LOCATE_MAX_ITER):
        if fb == 0.0:
            break                        # b is a root, also when the scan put it there
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break                    # the bracket is at the spacing floor
        y = segment.eval(t)
        q = y[:n_q]
        f = float(surface.value(q))
        slope = float(surface.gradient(q) @ segment.eval_derivative(t)[:n_q])
        if f > 0.0:
            a = t
        else:
            b, fb, y_b, hdot = t, f, y, slope
        if (b - a) <= _LOCATE_T_TOL and abs(fb) <= _LOCATE_H_TOL:
            break
        dt = -f / slope if slope != 0.0 else math.inf
        if abs(f) >= 0.5 * h_prev:
            t = 0.5 * (a + b)            # |h| stalled: a multiple root, or noise
        elif abs(dt) < 0.5 * _LOCATE_T_TOL:
            # step across the root to close the bracket from the other side
            step_across = min(0.5 * _LOCATE_T_TOL, 0.5 * _LOCATE_H_TOL / abs(slope))
            t += dt + (step_across if f > 0.0 else -step_across)
        else:
            t += dt                      # outside (a, b) it bisects next turn
        h_prev = abs(f)
    else:
        raise NoConvergence("event localization exceeded its iteration budget")

    q = y_b[:n_q]
    if hdot is None:
        hdot = float(surface.gradient(q) @ segment.eval_derivative(b)[:n_q])
    if abs(hdot) < _GRAZING_SPEED:
        raise GrazingContact(f"tangential boundary encounter at t={b} (dh/dt={hdot:.3e})")
    # only interior -> exterior crossings are events
    if hdot > 0.0:
        raise NoSignChange("crossing has increasing h; not an exit event")
    y_b[:n_q] = _project_to_surface(q, surface)
    return EventHit(t=b, y=y_b, hdot=hdot)


def integrate_until_event(rhs: Callable, t0: float, y0: np.ndarray, t_final: float,
                          surface=None, cfg: Optional[StepperConfig] = None,
                          armed: bool = True,
                          h_try: Optional[float] = None) -> TrajectorySegment:
    """Integrate the smooth flow until the surface fires or t_final.

    With surface=None this is plain adaptive integration to t_final;
    otherwise h and grad h see only the q block y[: y.size // 2] of the
    phase vector [q, x, z]. ``armed=False`` starts with the guard disarmed,
    for resuming just after an impact; it re-arms once h(q) exceeds 1e-9.
    The first step tries h_try, by default cfg.h_init; a phase resumed
    after an impact passes the previous phase's ``h_next``.

    The start state must be strictly interior (h > 0) when armed;
    exterior states are a hard error, never clamped. t0 and t_final must
    be finite (ValueError).
    """
    for name, value in (("t0", t0), ("t_final", t_final)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} is not finite")
    cfg = cfg or StepperConfig()
    y = np.asarray(y0, dtype=float)
    t = float(t0)

    def h_of(yv: np.ndarray) -> float:
        return float(surface.value(yv[: yv.size // 2]))

    if surface is not None and armed and h_of(y) <= 0.0:
        raise ExteriorState(
            f"start state is not strictly interior (h={h_of(y):.3e} at t={t})"
        )

    segments: list = []
    f_curr = np.asarray(rhs(t, y), dtype=float)
    h_try = min(cfg.h_init if h_try is None else h_try, max(t_final - t, _EPS))
    steps = 0
    while t < t_final:
        if steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps at t={t}")
        h_try = min(h_try, t_final - t)
        seg, h_next, f_new = step(rhs, t, y, cfg, h_try, f_curr)
        steps += 1
        if abs(t_final - seg.t1) <= 4.0 * _EPS * max(1.0, abs(t_final)):
            # snap onto the horizon; the mismatch is below step roundoff
            seg.t1 = t_final
        if surface is not None:
            bracket, armed = _scan(seg, surface, armed)
            if bracket is not None:
                hit = locate_event(seg, surface, bracket=bracket)
                seg.t1, seg.y1 = hit.t, hit.y.copy()   # the step ends at the hit
                segments.append(seg)
                return TrajectorySegment(
                    t0=float(t0), t1=hit.t, y0=np.asarray(y0, float),
                    y1=hit.y.copy(), segments=segments, hit=hit, h_next=h_next)
        segments.append(seg)
        t, y, f_curr, h_try = seg.t1, seg.y1, f_new, h_next
    return TrajectorySegment(t0=float(t0), t1=t, y0=np.asarray(y0, float), y1=y.copy(),
                             segments=segments, hit=None, h_next=h_try)

"""Adaptive explicit Runge-Kutta integration with dense output and events.

The stepper is the Dormand-Prince 5(4) embedded pair: the 5th-order
solution is propagated, the embedded 4th-order solution drives step-size
control, and each accepted step carries the standard quartic interpolant
so the state can be evaluated anywhere inside the step. The choice is
fixed (no runtime solver selection) so a given configuration reproduces
its output bit for bit.

The right-hand side is a flat field f(t, y) -> dy/dt on the phase vector,
and each stage input is an exact-order sum: the rows k_0..k_{i-1} scaled
by the tableau column and added in index order, as a scalar loop would;
the last stage's input is the step's end (first same as last).

Event handling guards each accepted step for the first interior-to-exterior
crossing of the switching surface h(q) = 0 (admissible region h > 0). On a
quadric wall, h(q) = c + b . q + q . A q (every built-in billiard and the
CLI's sphere), h along a step is a polynomial p(theta) of degree 8 that one
constant map of the step's (y0, r2, r3, r4, r5) gives; all its Bernstein
coefficients on the valid window above 0 certify the step with no sampling,
and de Casteljau halving isolates the first exit, also a dip out and back
between any two sample points (Farouki, CAGD 29, 2012). Any other h keeps
the scan of h(q) and dh/dt = grad h . qdot at 17 equally spaced checkpoints,
on a full step one constant (34 x 5) basis times (y0, r2, r3, r4, r5), else
``_rows``, with ``eval`` confirming a bracket's ends. Where dh/dt changes sign
between two checkpoints, the scan refines the extremum of h there when it can
decide the guard: a minimum with h <= 0 is an exit that no checkpoint sees,
and a maximum above 1e-9 re-arms the guard that an impact disarmed
(Shampine & Thompson, Comput. Math. Appl. 39, 2000); a dip and a rise with
dh/dt of one sign at both checkpoints escape it. Steps can therefore be
long: ``simulate`` starts each flow phase after an impact at the step size
the phase before proposed. ``locate_event`` localizes the crossing by Newton's
method safeguarded by the bracket, on p by Horner for a quadric (one
interpolant evaluation, at the root), else on the interpolant, and projects
the state exactly onto the surface along the gradient.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import _all_finite, _dot, _fold, _matvec
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
# b - bhat: weights for the embedded error estimate.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40]).reshape(-1, 1)
# Weights of the quartic dense-output correction term.
_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
]).reshape(-1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0

# Interior checkpoints per accepted step for event sign monitoring.
_N_CHECK = 16
_CHECK_K = np.arange(_N_CHECK + 1, dtype=float)
# Exact weights of (y0, r2, r3, r4, r5) at theta = i/16: rows 0-16 the value, 17-33 d/dtheta.
_THETAS = [(i / _N_CHECK, 1.0 - i / _N_CHECK) for i in range(_N_CHECK + 1)]
_CHECK_BASIS = np.array(
    [[1.0, th, th * om, th * th * om, (th * om) ** 2] for th, om in _THETAS]
    + [[0.0, 1.0, om - th, th * (2.0 - 3.0 * th), 2.0 * th * om * (om - th)] for th, om in _THETAS])

# Row k maps the q blocks of (y0, r2, r3, r4, r5) to the interpolant's theta^k coefficient,
# as _matvec's columns; _PAIRS[k] are the (i, j) with i + j = k, i rising.
_POWER = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0, 1.0, 1.0], [0.0, 0.0, 0.0, -1.0, -2.0],
                   [0.0, 0.0, 0.0, 0.0, 1.0]]).T[:, :, None]
_PAIRS = [[(i, k - i) for i in range(max(0, k - 4), min(k, 4) + 1)] for k in range(9)]
# Row j maps power coefficients a_k of degree 8 to Bernstein coefficient j on [0, 1].
_TO_BERNSTEIN = [[math.comb(j, k) / math.comb(8, k) for k in range(j + 1)] for j in range(9)]

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
        self._r2, self._r3, self._r4, self._r5 = r2, r3, r4, self.h_step * k_weighted

    def eval(self, t: float) -> np.ndarray:
        if t == self.t0:
            return self.y0.copy()
        if t == self.t1:
            return self.y1.copy()
        th = (t - self.t0) / self.h_step
        om = 1.0 - th
        return self.y0 + th * (self._r2 + om * (self._r3 + th * (self._r4 + om * self._r5)))

    def eval_derivative(self, t: float) -> np.ndarray:
        """Time derivative of the interpolant; its q block is qdot."""
        return _derivative((t - self.t0) / self.h_step, self.h_step, self._r2, self._r3,
                           self._r4, self._r5)


def _derivative(th, h_step, r2, r3, r4, r5):
    """The interpolant's time derivative at theta = th, a float or a column;
    only +, - and * before the division, so both agree bit for bit."""
    return (r2 + (1.0 - 2.0 * th) * r3 + (2.0 * th - 3.0 * th * th) * r4
            + (2.0 * th - 6.0 * th * th + 4.0 * th * th * th) * r5) / h_step


def _rows(steps: list, which: np.ndarray, ts: np.ndarray, cols: slice = slice(None),
          derivative: bool = False):
    """Row k of ys is ``steps[which[k]].eval(ts[k])[cols]``, in one broadcast with
    ``eval``'s operation order and knot rule (t0 before t1) on one theta, and with
    derivative (ys, yds), row k of yds its ``eval_derivative``'s; the one reader of
    many rows, it reads each slot of DenseSegment once over exactly the steps given."""
    ts = np.asarray(ts, dtype=float)
    h_step, t0, t1, y0, y1, r2, r3, r4, r5 = (
        v[which] if v.ndim == 1 else v[which, cols]
        for v in (np.array([getattr(d, name) for d in steps]) for name in DenseSegment.__slots__))
    th = ((ts - t0) / h_step)[:, None]
    om = 1.0 - th
    ys = y0 + th * (r2 + om * (r3 + th * (r4 + om * r5)))
    ys = np.where((ts == t0)[:, None], y0, np.where((ts == t1)[:, None], y1, ys))
    return (ys, _derivative(th, h_step[:, None], r2, r3, r4, r5)) if derivative else ys


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
    if not _all_finite(np.asarray(f0)):
        raise NonFiniteValue(f"right-hand side is not finite at t={t}")
    h = min(float(h_try), cfg.h_max)
    k = np.empty((7, y.size))
    k[0] = f0
    while True:
        if h < 16.0 * _EPS * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t={t} (h={h:.3e})")
        for i in range(1, 7):
            y1 = y + h * (_A_COL[i] * k[:i]).sum(axis=0)   # at i = 6, the step's end
            k[i] = rhs(t + _C[i] * h, y1)
        if not _all_finite(y1):
            h *= 0.5
            continue
        err = h * (_E * k).sum(axis=0)
        ratio = _error_ratio(err, y, y1, cfg)
        if ratio <= 1.0:
            break
        factor = max(_MIN_FACTOR, _SAFETY * ratio ** _ORDER_EXP)
        h *= factor
    factor = (_MAX_FACTOR if ratio == 0.0
              else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ratio ** _ORDER_EXP)))
    h_next = min(cfg.h_max, h * factor)
    f_new = k[6].copy()  # FSAL: stage 7 is rhs at (t + h, y1)
    return DenseSegment(t, h, y, y1, k[0], f_new, (_D * k).sum(axis=0)), h_next, f_new


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
    return q - (surface.value(q) / _dot(g, g)) * g


def _checkpoints(t0: float, t1: float) -> np.ndarray:
    """np.linspace(t0, t1, _N_CHECK + 1), bit for bit, without its per-call cost."""
    ts = t0 + _CHECK_K * ((t1 - t0) / _N_CHECK)
    ts[-1] = t1
    return ts


def _slope(segment: DenseSegment, surface, t: float, p: Optional[list] = None) -> tuple:
    """(y, h, dh/dt) at t from one ``eval`` and one ``eval_derivative``: the phase vector, h at
    its q block, grad h . qdot; given a quadric's p, (None, p, dp/dt) by Horner at eval's theta."""
    if p is not None:
        th, f, slope = (t - segment.t0) / segment.h_step, p[-1], 0.0
        for coef in p[-2::-1]:
            f, slope = f * th + coef, slope * th + f
        return None, f, slope / segment.h_step
    n_q = segment.y0.size // 2
    y = segment.eval(t)
    q = y[:n_q]
    return (y, float(surface.value(q)),
            _dot(surface.gradient(q), segment.eval_derivative(t)[:n_q]))


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
        _, h, g = _slope(segment, surface, t)
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
    return t, _slope(segment, surface, t)[1]


def _on_basis(segment: DenseSegment, n_q: int) -> tuple:
    """(q, qdot) at a full step's checkpoints from ``_CHECK_BASIS``; ``np.einsum``
    makes no BLAS matrix-matrix call, whose buffers would raise peak memory."""
    coefs = np.array([v[:n_q] for v in (segment.y0, segment._r2, segment._r3,
                                         segment._r4, segment._r5)])
    rows = np.einsum("ij,jk->ik", _CHECK_BASIS, coefs)
    rows[0], rows[_N_CHECK] = segment.y0[:n_q], segment.y1[:n_q]   # the knots
    return rows[:_N_CHECK + 1], rows[_N_CHECK + 1:] / segment.h_step


def _scan(segment: DenseSegment, surface, armed: bool) -> tuple:
    """Event guard over one dense segment: ``_guard_quadric`` on a quadric
    wall, else h(q) and dh/dt = grad h . qdot at its 17 checkpoints, and the
    extrema of h that dh/dt brackets.

    A disarmed guard re-arms at the first checkpoint where h exceeds
    _ARM_THRESHOLD, or at an interior maximum above it; when the checkpoint
    after that maximum has h <= 0, the bracket is (maximum, checkpoint).
    An armed guard brackets the first checkpoint pair with h > 0 before
    and h <= 0 after, or, when both have h > 0 and dh/dt goes from < 0 to
    > 0 between them, (first checkpoint, interior minimum) if h <= 0 there.
    An extremum is refined only until h decides it: any point of the rise
    above the threshold, or of the dip with h <= 0, bounds the same single
    crossing. The checkpoints cost one block call of h and one of grad_h
    (``SwitchingSurface.slopes``), an extremum one value and one gradient
    per refinement. ``eval`` confirms a bracket's h(a) > 0 >= h(b); a step
    whose basis it contradicts, or that the horizon snapped, is guarded on
    ``_rows``. Returns (bracket, armed), the bracket None when the segment
    has no exit, else (a, b, h(a), y(b), h(b)) with the values ``eval`` gave.
    """
    if surface.quadric is not None:
        return _guard_quadric(segment, surface.quadric, armed)
    ts = _checkpoints(segment.t0, segment.t1)
    n_q = segment.y0.size // 2
    for on_basis in (segment.t1 == segment.t0 + segment.h_step, False):
        if on_basis:
            qs, qdots = _on_basis(segment, n_q)
        else:
            qs, qdots = _rows([segment], np.zeros(ts.size, int), ts, slice(n_q), True)
        bracket, armed_after = _guard(segment, surface, armed, ts, *surface.slopes(qs, qdots))
        if bracket is None:
            return None, armed_after
        (a, b), y_b = bracket, segment.eval(bracket[1])
        h_a, h_b = float(surface.value(segment.eval(a)[:n_q])), float(surface.value(y_b[:n_q]))
        if h_a > 0.0 >= h_b or not on_basis:   # the broadcast's pass always returns
            return (a, b, h_a, y_b, h_b), armed_after


def _guard(segment: DenseSegment, surface, armed: bool, ts, hs: list, gs: list) -> tuple:
    """``_scan``'s rules on h and dh/dt at the times ts; a bracket is (a, b)."""
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


def _on_quadric(segment: DenseSegment, quadric: tuple) -> list:
    """Power coefficients p_0..p_8 of h(q(theta)), h = c + q . w, w = b + A q: q_k by
    _POWER, w_k = A q_k (+ b at 0), p_k the sum of q_i . w_j over _PAIRS[k] (p_0 = h(y0))."""
    A, b, c = quadric
    qk = _dot(_POWER, np.array([segment.y0, segment._r2, segment._r3, segment._r4,
                                segment._r5])[:, None, :b.size]).T
    w = _matvec(A, qk)
    w[:, 0] += b
    g = _dot(qk[:, :, None], w[:, None]).tolist()
    p = [sum(g[i][j] for i, j in pairs) for pairs in _PAIRS]
    return [c + p[0]] + p[1:]


def _bernstein(p: list, scale: float) -> list:
    """The Bernstein coefficients on [0, scale] of the power coefficients p."""
    if scale != 1.0:
        p = [coef * scale ** k for k, coef in enumerate(p)]
    return [_fold(row, p) for row in _TO_BERNSTEIN]


def _halves(lo: float, hi: float, beta: list) -> list:
    """de Casteljau at the midpoint: the right half's (lo, hi, beta), then the left's."""
    left, right, row = [beta[0]], [beta[-1]], beta
    while len(row) > 1:
        row = [0.5 * (x + y) for x, y in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    return [(0.5 * (lo + hi), hi, right[::-1]), (lo, 0.5 * (lo + hi), left)]


def _one_change(beta: list, level: float) -> bool:
    """Whether x > level changes truth once along beta: p - level has one root (Descartes)."""
    above = [x > level for x in beta]
    return sum(x != y for x, y in zip(above, above[1:])) == 1


def _guard_quadric(segment: DenseSegment, quadric: tuple, armed: bool) -> tuple:
    """``_scan`` on a quadric wall with no call of h or grad_h: p = h(q(theta))'s
    Bernstein coefficients on [t0, t1] all above 0 certify an armed step; else halving,
    left first, isolates the first exit, where p crosses 0 once downward or that is
    1e-12 wide with p <= 0 at its end, after the first theta where p exceeds the arming
    level (_ARM_THRESHOLD, or 0 for an armed step). The bracket is (a, b, p(a), p(b), p)."""
    p = _on_quadric(segment, quadric)
    t0, span = segment.t0, segment.t1 - segment.t0
    level, armed = (0.0 if armed else _ARM_THRESHOLD), False
    stack = [(0.0, 1.0, _bernstein(p, span / segment.h_step))]
    while stack:
        lo, hi, beta = stack.pop()
        fine = (hi - lo) * span <= _LOCATE_T_TOL
        if not armed:
            if max(beta) <= level:
                continue
            armed = beta[0] > level or beta[-1] > level and (fine or _one_change(beta, level))
            if not armed or beta[0] <= level:   # not yet, or past the level up to hi
                stack += [] if armed or fine else _halves(lo, hi, beta)
                continue
        if min(beta) > 0.0:
            continue
        if beta[-1] <= 0.0 and (fine or _one_change(beta, 0.0)):
            a, b = (t0 + x * span if x < 1.0 else segment.t1 for x in (lo, hi))
            return (a, b, beta[0], beta[-1], p), True
        stack += [] if fine else _halves(lo, hi, beta)
    return None, armed


def locate_event(segment: DenseSegment, surface, *, bracket: tuple) -> EventHit:
    """Localize the h(q) = 0 crossing inside a bracket of a dense segment.

    The bracket (a, b) must straddle the surface, h > 0 at a and h <= 0
    at b; the scan's (a, b, h(a), y(b), h(b)) carries what ``eval`` gave at
    its ends, a quadric scan's (a, b, p(a), p(b), p) its polynomial, and a
    plain (a, b) is evaluated here. Newton's method on the interpolant, or on
    a quadric's p by Horner, from the bracket's secant point, refines it until
    |h| at b and b - a are both at most 1e-12, or h at b is 0; b is the event
    time. Each iterate evaluates h and dh/dt once (the interpolant and its
    derivative for a general h), and replaces a or b by the sign of h.
    A Newton point on an end of (a, b) or less than 1e-12 past it tries
    0.5e-12 inside that end, for a root within rounding of it; one farther
    out, or an |h| that did not halve, bisects instead, so a multiple root
    converges linearly. A Newton step below half the width tolerance steps
    that far past the root (less where |h| there would exceed 1e-12) to
    close the bracket from the other side. The grazing and direction tests
    and the projection reuse b's state (for a quadric, one ``eval``) and dh/dt.

    Raises NoSignChange when the bracket does not straddle the surface,
    and GrazingContact when the crossing is tangential (|dh/dt| below the
    impact law's grazing speed). h sees the q block y[: y.size // 2].
    """
    n_q = segment.y0.size // 2
    a, b = float(bracket[0]), float(bracket[1])
    p = None if surface.quadric is None else (
        bracket[4] if len(bracket) == 5 else _on_quadric(segment, surface.quadric))
    if p is not None:                    # y is left to the root's one eval
        y_b, (fa, fb) = None, (bracket[2:4] if len(bracket) == 5 else
                               [_slope(segment, surface, t, p)[1] for t in (a, b)])
    elif len(bracket) == 5:
        fa, y_b, fb = bracket[2], bracket[3].copy(), bracket[4]
    else:
        y_b = segment.eval(b)
        fa, fb = float(surface.value(segment.eval(a)[:n_q])), float(surface.value(y_b[:n_q]))
    if not (fa > 0.0 >= fb):
        raise NoSignChange(f"bracket does not straddle the surface: h={fa:.3e}, {fb:.3e}")

    hdot = None                          # dh/dt at b, once an iterate lands there
    t = b - fb * (b - a) / (fb - fa)     # the secant point of the bracket
    h_prev = math.inf
    for _ in range(_LOCATE_MAX_ITER):
        if fb == 0.0:
            break                        # b is a root, also when the scan put it there
        if a - _LOCATE_T_TOL < t <= a or b <= t < b + _LOCATE_T_TOL:
            t = a + 0.5 * _LOCATE_T_TOL if t <= a else b - 0.5 * _LOCATE_T_TOL
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break                    # the bracket is at the spacing floor
        y, f, slope = _slope(segment, surface, t, p)
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

    y_b = segment.eval(b) if y_b is None else y_b
    q = y_b[:n_q]
    if hdot is None:
        hdot = (_dot(surface.gradient(q), segment.eval_derivative(b)[:n_q]) if p is None
                else _slope(segment, surface, b, p)[2])
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

    h_start = float(surface.value(y[: y.size // 2])) if surface is not None and armed else 1.0
    if h_start <= 0.0:
        raise ExteriorState(f"start state is not strictly interior (h={h_start:.3e} at t={t})")

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

"""Instantaneous velocity and momentum jumps at the switching surface.

The post-impact state is determined by two continuity requirements at
the boundary point, not by a restitution coefficient:

  * tangential momentum:  dL/dqdot . v  (resp. p . v) is unchanged for
    every v tangent to the surface, so the momentum jump is parallel to
    grad h;
  * energy:  E_L (resp. H) is unchanged.

Position, action z, and time pass through untouched. For a quadratic
kinetic energy these conditions have exactly two roots, the identity and
the elastic reflection; the resolvers always select the reflecting root.
One routine, ``_violations`` with its ``_residuals``, certifies the law at one
pre/post pair (``impact_residuals``, which an event's residuals read on demand,
``checks.check_impact_conditions``) or at m pairs as columns (the table's rows in
``checks.check_impact_rows``, the impact report of both CLI commands). That one pass
also gives the summary of ``contactsim simulate`` its per-event residuals and velocities,
null where the guard rejects a pair. No resolver calls it: each stops on its own test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .core import (ContactStateH, ContactStateL, HamiltonianSpec, SystemSpec, _all_finite,
                   _checked, _dot, _fold, _mass_solve, _matvec, _solve_regular)
from .errors import (ConvergedToIdentity, DegenerateNormal, DimensionMismatch, GrazingContact,
                     NoConvergence, NonFiniteValue, SingularHessian)

__all__ = [
    "SwitchingSurface",
    "ImpactEvent",
    "resolve_impact_natural",
    "resolve_impact_newton",
    "resolve_impact_hamiltonian",
    "tangent_basis",
    "impact_residuals",
]

_BOUNDARY_TOL = 1e-9       # |h| of a state on the surface
_GRAZING_SPEED = 1e-9      # a normal speed below this is a tangential approach
_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
_BLOCK_AT = "q={} to q={} (a block of {})"   # where a block call failed


@dataclass(frozen=True)
class SwitchingSurface:
    """Boundary h(q) = 0 of the admissible region h >= 0.

    ``h`` and ``grad_h`` take configurations along axis 0: one q of shape
    (n,), or a block of m configurations as the columns of an (n, m)
    array, for which they return shape (m,) and (n, m). h must be finite on
    both sides of the boundary, and grad h must not vanish near it.
    A quadric wall is ``quadric=(A, b, c)`` instead, read by the event guard; h = c + q .
    (b + A q) and grad h = b + (A + A^T) q follow by ``core._dot``'s rule, so cannot disagree.
    A bad shape is a DimensionMismatch, a non-finite one a NonFiniteValue (h beside: ValueError).
    """

    h: Optional[Callable[[np.ndarray], float]] = None
    grad_h: Optional[Callable[[np.ndarray], np.ndarray]] = None
    quadric: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        if (self.h is None, self.grad_h is None) != (self.quadric is not None,) * 2:
            raise ValueError("a switching surface needs h and grad_h, or a quadric: h and "
                             "grad_h follow from the quadric, give one or the other")
        if self.quadric is None:
            return
        A, b, c = (np.array(v, dtype=float) for v in self.quadric)
        if b.ndim != 1 or not b.size or A.shape != 2 * b.shape or c.shape:
            raise DimensionMismatch(f"a quadric (A, b, c) needs shapes (n, n), (n,) and (), "
                                    f"got {A.shape}, {b.shape} and {c.shape}")
        if not _all_finite(np.concatenate([A.ravel(), b, [c]])):
            raise NonFiniteValue(f"quadric is not finite: A={A.tolist()}, b={b}, c={c}")
        S, c = A + A.T, float(c)
        A.flags.writeable = b.flags.writeable = False
        rows, sym_rows, bs = A.tolist(), S.tolist(), b.tolist()

        def h(q):                        # at one q, _dot's and _matvec's point path
            if q.ndim == 1:
                qs = q.tolist()
                return c + _fold(qs, [bi + _fold(row, qs) for bi, row in zip(bs, rows)])
            return c + _dot(q, b[:, None] + _matvec(A, q))

        def grad_h(q):
            if q.ndim == 1:
                qs = q.tolist()
                return np.array([bi + _fold(row, qs) for bi, row in zip(bs, sym_rows)])
            return b[:, None] + _matvec(S, q)

        object.__setattr__(self, "quadric", (A, b, c))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "grad_h", grad_h)

    def value(self, q: np.ndarray) -> float:
        """h(q) as a float; DimensionMismatch unless it holds one entry, and
        NonFiniteValue when it is not finite, because no sign test can see a
        crossing into a region where h is NaN."""
        return _checked(self.h(q), (), "h", "q={}", q)

    def gradient(self, q: np.ndarray) -> np.ndarray:
        """grad h(q) in q's shape, before it can move a state or tilt a tangent
        basis; DimensionMismatch on another size, NonFiniteValue on NaN or inf."""
        return _checked(self.grad_h(q), q.shape, "grad h", "q={}", q)

    def values(self, qs: np.ndarray) -> np.ndarray:
        """h at each row of qs, shape (m, n), from one call of h on the block
        qs.T; each entry equals ``value`` of its row. DimensionMismatch unless
        h takes the block and returns m entries, NonFiniteValue when one is
        not finite."""
        return _on_block(self.h, "h", qs, qs.shape[:1])

    def slopes(self, qs: np.ndarray, qdots: np.ndarray) -> tuple:
        """(h, dh/dt = grad h . qdot) as two lists over the rows of qs and qdots, shape
        (m, n), from one call of h and one of grad_h on the block qs.T; each entry equals
        ``value`` and ``core._dot(gradient(q), qdot)`` of its row bit for bit. grad_h
        must return (n, m), else DimensionMismatch."""
        return self.values(qs).tolist(), _dot(self.gradients(qs), qdots.T).tolist()

    def gradients(self, qs: np.ndarray) -> np.ndarray:
        """grad h at each row of qs, (m, n), as the (n, m) columns of one block call."""
        return _on_block(self.grad_h, "grad h", qs, qs.T.shape)


def _on_block(f: Callable, name: str, qs: np.ndarray, shape: tuple) -> np.ndarray:
    """f on the block qs.T, of the given shape behind ``_checked``. A function
    written for one configuration, with Python control flow or ``math`` calls,
    fails there with numpy's TypeError or ValueError, which becomes a
    DimensionMismatch naming it."""
    at = (qs[0], qs[-1], len(qs)) if len(qs) else ((), (), 0)   # zero rows: no impact yet
    try:
        val = f(qs.T)
    except (TypeError, ValueError) as e:
        raise DimensionMismatch(
            f"{name} does not take configurations as the columns of a block of shape "
            f"{qs.T.shape} ({type(e).__name__}: {e}), at " + _BLOCK_AT.format(*at)) from e
    return _checked(val, shape, name, _BLOCK_AT, *at)


@dataclass(frozen=True)
class ImpactEvent:
    """One impact: both one-sided limits and the impulse multiplier, resolved for
    ``spec`` at ``surface``, which equality and repr leave out. Its time and location
    are those of the pre-impact limit. The (tangential, energy) residuals are the
    certificate's ``impact_residuals`` of the pair, computed once, on the first read."""

    state_minus: Union[ContactStateL, ContactStateH]
    state_plus: Union[ContactStateL, ContactStateH]
    lam: float
    spec: Union[SystemSpec, HamiltonianSpec] = field(compare=False, repr=False)
    surface: SwitchingSurface = field(compare=False, repr=False)

    @cached_property   # kept out of the fields, so dataclasses.replace starts afresh
    def _residual_pair(self) -> tuple:
        return impact_residuals(self.spec, self.surface, self.state_minus, self.state_plus)

    residual_tangential = property(lambda self: self._residual_pair[0])
    residual_energy = property(lambda self: self._residual_pair[1])

    @property
    def t(self) -> float:
        return self.state_minus.t

    @property
    def q(self) -> np.ndarray:
        return self.state_minus.q


def tangent_basis(grad: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space ker(grad) as columns, shape
    (n, n-1), empty for n = 1; for m normals as the columns of grad, their
    bases along a last axis, (n, n-1, m). Built from a single Householder
    reflection of the unit normal, so the basis is deterministic."""
    u = grad / np.sqrt(_dot(grad, grad))
    w = u.copy()
    w[0] += (u[0] >= 0.0) * 2.0 - 1.0
    eye = np.eye(len(grad)) if grad.ndim == 1 else np.eye(len(grad))[:, :, None]
    return (eye - 2.0 * (w[:, None] * w[None]) / _dot(w, w))[:, 1:]


def impact_residuals(sys: Union[SystemSpec, HamiltonianSpec],
                     surface: SwitchingSurface, s_minus, s_plus) -> tuple:
    """(tangential, energy) residuals of one impact, both relative.

    Momenta and energies are evaluated fresh from both one-sided states
    with the system's own evaluators: dL/dqdot and E_L for a SystemSpec,
    p and H for a HamiltonianSpec. The tangential directions come from a
    Householder basis of ker grad h; for n = 1 that condition is vacuous.
    """
    return tuple(map(float, _residuals(sys, surface.gradient(s_minus.q), s_minus.phase,
                                       s_plus.phase)))


def _residuals(sys, g: np.ndarray, minus: tuple, plus: tuple) -> tuple:
    """``impact_residuals`` at the phases (q, x, z) of one pair or of m pairs as
    columns (see ``_violations``), g = grad h(q-), scaled by max(1, |p-|inf) and
    max(1, |E-|); ``core._dot`` projects with the same sums for both."""
    p_minus = sys.momentum(*minus)
    jump = _dot((sys.momentum(*plus) - p_minus)[:, None], tangent_basis(g))
    e_minus = sys.energy(*minus)
    return (np.abs(jump).max(axis=0, initial=0.0) / np.abs(p_minus).max(axis=0, initial=1.0),
            abs(sys.energy(*plus) - e_minus) / np.maximum(1.0, abs(e_minus)))


def _violations(sys, surface: SwitchingSurface, minus: tuple, plus: tuple):
    """The impact law at one pair, minus and plus = (q, x, z, t) with q and x of shape (n,),
    or at m pairs as columns, q and x (n, m), z and t (m,): the larger ``_residuals`` entry
    where q, z and t are kept, |h(q-)| <= 1e-9 and grad h . v- < 0 < grad h . v+, else inf.
    That guard comes first, from one call of h, grad h and sys.velocity a side. At m pairs it
    returns (violations, (tangential, energy) inf where the guard fails, (v-, v+) it read)."""
    (q, x, z, t), (q_plus, x_plus, z_plus, t_plus) = minus, plus
    h, g = ((surface.value(q), surface.gradient(q)) if q.ndim == 1
            else (surface.values(q.T), surface.gradients(q.T)))
    v = sys.velocity(q, x, z), sys.velocity(q_plus, x_plus, z_plus)
    ok = ((q == q_plus).all(axis=0) & (z == z_plus) & (t == t_plus) & (abs(h) <= _BOUNDARY_TOL)
          & (_dot(g, v[0]) < 0.0) & (_dot(g, v[1]) > 0.0))
    if q.ndim == 1:
        return float(max(_residuals(sys, g, minus[:3], plus[:3]))) if ok else np.inf
    residuals = np.full((2, z.size), np.inf)
    residuals[:, ok] = _residuals(sys, g[:, ok], *(
        tuple(a[..., ok] for a in side[:3]) for side in (minus, plus)))
    return residuals.max(axis=0), tuple(residuals), v


def _approach_normal(sys, surface: SwitchingSurface, s_minus) -> tuple:
    """Validate an impact state and return (grad h, normal velocity).

    The state must lie on the surface, the normal must not vanish, and
    the velocity (dH/dp on the Hamiltonian side) must point outward: a
    normal speed within the grazing speed is a GrazingContact, and one
    pointing into the admissible region a ValueError, like a state off
    the surface.
    """
    sys.check_state(s_minus)
    q = s_minus.q
    hval = surface.value(q)
    if abs(hval) > _BOUNDARY_TOL:
        raise ValueError(
            f"state is not on the switching surface (h={hval:.3e}, tol={_BOUNDARY_TOL:.1e})"
        )
    g = surface.gradient(q)
    if _dot(g, g) <= 1e-24:
        raise DegenerateNormal(f"grad h vanishes at the impact point q={q}")
    vn = _dot(g, sys.velocity(*s_minus.phase))
    if vn > _GRAZING_SPEED:
        raise ValueError(
            f"normal velocity {vn:.3e} points into the admissible region, not at the boundary"
        )
    if vn >= -_GRAZING_SPEED:
        raise GrazingContact(
            f"normal velocity {vn:.3e} is not approaching the boundary"
        )
    return g, vn


def _reset(sys, surface: SwitchingSurface, s_minus, x_plus: np.ndarray, lam: float) -> ImpactEvent:
    """The impact that resets s_minus to x_plus, a velocity or momentum; q, z and t pass."""
    return ImpactEvent(s_minus, sys.state_type(s_minus.q, x_plus, s_minus.z, s_minus.t), lam,
                       sys, surface)


def resolve_impact_natural(sys: SystemSpec, s_minus: ContactStateL,
                           surface: SwitchingSurface) -> ImpactEvent:
    """Closed-form elastic impact for natural-form (quadratic kinetic) systems.

    qdot_plus = qdot_minus + lam * Minv grad h with
    lam = -2 (grad h . qdot_minus) / (grad h . Minv grad h), the nonzero
    root of the energy condition, with the spec's inverse of a constant mass
    and one solve with a callable one. q, z, t are unchanged.
    """
    if sys.natural is None:
        raise ValueError("resolve_impact_natural requires natural-form data")
    g, vn = _approach_normal(sys, surface, s_minus)
    minv_g = _mass_solve(sys.natural, s_minus.q, g) if sys._minv is None else _matvec(sys._minv, g)
    lam = -2.0 * vn / _dot(g, minv_g)
    return _reset(sys, surface, s_minus, s_minus.qdot + lam * minv_g, lam)


def resolve_impact_newton(sys: SystemSpec, s_minus: ContactStateL,
                          surface: SwitchingSurface) -> ImpactEvent:
    """General impact resolution by Newton iteration.

    Solves the n+1 unknowns (qdot_plus, lam) from the momentum-jump
    ansatz dL/dqdot(q, qdot_plus, z) - dL/dqdot(q, qdot_minus, z) =
    lam grad h together with the energy match. The seed takes the
    quadratic-case formula v = v- + lam W^-1 grad h, lam = -2 (grad h . v-)
    / (grad h . W^-1 grad h), first with the velocity Hessian W at v-, then
    with W at the midpoint m of v- and that first velocity. The midpoint
    rule gives p(v+) - p(v-) = W(m) (v+ - v-) + O(|v+ - v-|^3) and an energy
    jump lam m . grad h, which vanishes since the formula makes m tangent;
    so the second velocity meets both conditions to third order. It is the
    root for a constant W, and the mirror image of v- for any
    L(|qdot|^2, q, z). Each Newton step solves the bordered system
    [[W, -grad h], [W^T v, 0]] by its Schur complement, W^T v being the
    exact dE/dqdot: the multiplier step is (v . F_1 - F_2) / (v . grad h)
    for the momentum and energy residuals F_1, F_2, and one solve with W
    gives the velocity step. A singular Hessian at v- raises
    SingularHessian; a singular W at m or in the iteration, grad h . W^-1
    grad h = 0 at v- or m, or v . grad h = 0 raises NoConvergence, and a
    W^-1 grad h that is not finite at v- or m NonFiniteValue. A solve that lands
    back on the identity root is reported as ConvergedToIdentity,
    never silently accepted.
    """
    g, vn = _approach_normal(sys, surface, s_minus)
    q, z = s_minus.q, s_minus.z
    p_minus = sys.grad_v(q, s_minus.qdot, z)
    e_minus = sys.energy(q, s_minus.qdot, z)
    scale = max(1.0, float(np.max(np.abs(p_minus))), abs(e_minus))

    v = s_minus.qdot
    for share, singular in ((0.5, ZeroDivisionError), (1.0, (ZeroDivisionError, SingularHessian))):
        try:   # a Python float division by grad h . W^-1 grad h = 0 raises
            w_inv_g = _solve_regular(sys.hess_vv(q, v, z), g)
            if not _all_finite(w_inv_g):
                raise NonFiniteValue(f"W^-1 grad h is not finite at the seed velocity qdot={v}")
            lam = -2.0 * vn / _dot(g, w_inv_g)
        except singular as e:
            raise NoConvergence(f"impact Newton Jacobian is singular at qdot={v}") from e
        v = s_minus.qdot + share * lam * w_inv_g

    for _ in range(_NEWTON_MAX_ITER):
        # one momentum serves the tangential residual and the energy v.p - L
        p = sys.grad_v(q, v, z)
        F1 = p - p_minus - lam * g
        F2 = _dot(v, p) - sys.value(q, v, z) - e_minus
        if max(float(np.max(np.abs(F1))), abs(F2)) <= _NEWTON_TOL * scale:
            break
        try:   # a Python float division by v . grad h = 0 raises
            dlam = (_dot(v, F1) - F2) / _dot(v, g)
            v = v + _solve_regular(sys.hess_vv(q, v, z), dlam * g - F1)
        except (ZeroDivisionError, SingularHessian) as e:
            raise NoConvergence(f"impact Newton Jacobian is singular at qdot={v}") from e
        lam = lam + dlam
    else:
        raise NoConvergence(f"impact Newton solve stalled after {_NEWTON_MAX_ITER} iterations")

    vn_plus = _dot(g, v)
    if not vn_plus > 0.0:
        if float(np.max(np.abs(v - s_minus.qdot))) <= 1e-8 * max(1.0, float(np.max(np.abs(s_minus.qdot)))):
            raise ConvergedToIdentity("impact solve found only the trivial root")
        raise NoConvergence(
            f"impact solve did not reverse the normal velocity (got {vn_plus:.3e})"
        )
    return _reset(sys, surface, s_minus, v, lam)


def resolve_impact_hamiltonian(sys: HamiltonianSpec, s_minus: ContactStateH,
                               surface: SwitchingSurface) -> ImpactEvent:
    """Momentum-side impact: p_plus = p_minus + lam grad h with H unchanged.

    The nonzero root lam of H(q, p_minus + lam grad h, z) = H_minus is found
    by Newton from the quadratic-case seed lam = -2 vn / c, with vn the
    normal velocity grad h . dH/dp(p_minus) and c the secant curvature
    grad h . (dH/dp(p_minus + grad h) - dH/dp(p_minus)). The seed is the
    root itself for any H quadratic in p, so a natural-form system stops
    there; the same iteration serves every other H.
    """
    g, vn = _approach_normal(sys, surface, s_minus)
    q, z = s_minus.q, s_minus.z
    p_minus = s_minus.p
    H_minus = sys.value(q, p_minus, z)
    curv = _dot(g, sys.grad_p(q, p_minus + g, z)) - vn
    if curv == 0.0:
        raise NoConvergence("energy is flat along grad h; no reflecting root")
    lam = -2.0 * vn / curv
    scale = max(1.0, abs(H_minus))
    for _ in range(_NEWTON_MAX_ITER):
        r = sys.value(q, p_minus + lam * g, z) - H_minus
        if abs(r) <= _NEWTON_TOL * scale:
            break
        slope = _dot(g, sys.grad_p(q, p_minus + lam * g, z))
        if slope == 0.0:
            raise NoConvergence(f"impact Newton slope vanished at lam={lam:.3e}")
        lam = lam - r / slope
    else:
        raise NoConvergence(f"impact Newton solve stalled after {_NEWTON_MAX_ITER} iterations")

    p_plus = p_minus + lam * g
    vn_plus = _dot(g, sys.grad_p(q, p_plus, z))
    if not vn_plus > 0.0:
        raise ConvergedToIdentity("impact solve found only the trivial root")
    return _reset(sys, surface, s_minus, p_plus, lam)

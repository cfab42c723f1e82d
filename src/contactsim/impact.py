"""Instantaneous velocity and momentum jumps at the switching surface.

The post-impact state is determined by two continuity requirements at
the boundary point, not by a restitution coefficient:

  * tangential momentum:  dL/dqdot . v  (resp. p . v) is unchanged for
    every v tangent to the surface, so the momentum jump is parallel to
    grad h;
  * energy:  E_L (resp. H) is unchanged.

Position, action z, and time pass through untouched. For a quadratic
kinetic energy these conditions have exactly two roots, the identity and
the elastic reflection; the resolvers always select the reflecting root,
and report the tangential and energy residuals of whatever they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (
    ContactStateH,
    ContactStateL,
    HamiltonianSpec,
    SystemSpec,
    _checked,
    _mass_solve,
    _solve_regular,
)
from .errors import (
    ConvergedToIdentity,
    DegenerateNormal,
    DimensionMismatch,
    GrazingContact,
    NoConvergence,
    SingularHessian,
)

__all__ = [
    "SwitchingSurface",
    "ImpactEvent",
    "resolve_impact_natural",
    "resolve_impact_newton",
    "resolve_impact_hamiltonian",
    "tangent_basis",
    "impact_residuals",
    "impact_violation",
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
    """

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]

    def value(self, q: np.ndarray) -> float:
        """h(q) as a float; DimensionMismatch unless it holds one entry, and
        NonFiniteValue when it is not finite, because no sign test can see a
        crossing into a region where h is NaN. A finite float is accepted
        inline: localization reads h at every iterate."""
        val = self.h(q)
        if isinstance(val, float) and math.isfinite(val):
            return float(val)
        return _checked(val, (), "h", "q={}", q)

    def gradient(self, q: np.ndarray) -> np.ndarray:
        """grad h(q) in q's shape, before it can move a state or tilt a tangent
        basis; DimensionMismatch on another size, NonFiniteValue on NaN or inf."""
        return _checked(self.grad_h(q), q.shape, "grad h", "q={}", q)

    def values(self, qs: np.ndarray) -> np.ndarray:
        """h at each row of qs, shape (m, n), from one call of h on the block
        qs.T; each entry equals ``value`` of its row. DimensionMismatch unless
        h takes the block and returns m entries, NonFiniteValue when one is
        not finite."""
        m = qs.shape[0]
        return _checked(_on_block(self.h, "h", qs), (m,), "h", _BLOCK_AT, qs[0], qs[-1], m)

    def slopes(self, qs: np.ndarray, qdots: np.ndarray) -> tuple:
        """(h, dh/dt = grad h . qdot) as two lists over the rows of qs and
        qdots, shape (m, n), from one call of h and one of grad_h on the
        block qs.T; each entry equals ``value`` and ``gradient(q) @ qdot`` of
        its row bit for bit. grad_h must return (n, m), else
        DimensionMismatch."""
        hs, m = self.values(qs), qs.shape[0]
        grads = _checked(_on_block(self.grad_h, "grad h", qs), qs.T.shape, "grad h",
                         _BLOCK_AT, qs[0], qs[-1], m)
        return hs.tolist(), np.vecdot(grads.T, qdots).tolist()


def _on_block(f: Callable, name: str, qs: np.ndarray):
    """f on the block qs.T. A function written for one configuration, with
    Python control flow or ``math`` calls, fails there with numpy's
    TypeError or ValueError, which becomes a DimensionMismatch naming it."""
    try:
        return f(qs.T)
    except (TypeError, ValueError) as e:
        m = qs.shape[0]
        raise DimensionMismatch(
            f"{name} does not take configurations as the columns of a block of shape "
            f"{qs.T.shape} ({type(e).__name__}: {e}), at "
            + _BLOCK_AT.format(qs[0], qs[-1], m)) from e


@dataclass(frozen=True)
class ImpactEvent:
    """One impact: both one-sided limits, the impulse multiplier, and the
    independently evaluated (tangential, energy) residuals. Its time and
    location are those of the pre-impact limit."""

    state_minus: Union[ContactStateL, ContactStateH]
    state_plus: Union[ContactStateL, ContactStateH]
    lam: float
    residual_tangential: float
    residual_energy: float

    @property
    def t(self) -> float:
        return self.state_minus.t

    @property
    def q(self) -> np.ndarray:
        return self.state_minus.q


def tangent_basis(grad: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space ker(grad) as columns.

    Built from a single Householder reflection of the unit normal, so the
    basis is deterministic. Shape (n, n-1); empty for n = 1.
    """
    n = grad.size
    u = grad / float(np.linalg.norm(grad))
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0.0 else -1.0
    P = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    return P[:, 1:]


def impact_residuals(sys: Union[SystemSpec, HamiltonianSpec],
                     surface: SwitchingSurface, s_minus, s_plus) -> tuple:
    """(tangential, energy) residuals of one impact, both relative.

    Momenta and energies are evaluated fresh from both one-sided states
    with the system's own evaluators: dL/dqdot and E_L for a SystemSpec,
    p and H for a HamiltonianSpec. The tangential directions come from a
    Householder basis of ker grad h; for n = 1 that condition is vacuous.
    """
    return _residuals(sys, surface.gradient(s_minus.q), s_minus, s_plus)


def _residuals(sys, g: np.ndarray, s_minus, s_plus) -> tuple:
    """``impact_residuals`` with g = grad h(q-) already evaluated."""
    p_minus, p_plus = sys.momentum(*s_minus.phase), sys.momentum(*s_plus.phase)
    T = tangent_basis(g)
    p_scale = max(1.0, float(np.max(np.abs(p_minus))))
    r_tan = float(np.max(np.abs((p_plus - p_minus) @ T))) / p_scale if T.shape[1] else 0.0
    e_minus = sys.energy(*s_minus.phase)
    r_en = abs(sys.energy(*s_plus.phase) - e_minus) / max(1.0, abs(e_minus))
    return r_tan, r_en


def impact_violation(sys: Union[SystemSpec, HamiltonianSpec],
                     surface: SwitchingSurface, s_minus, s_plus) -> float:
    """The larger ``impact_residuals`` entry, or inf unless the pair keeps
    q, z and t, starts on the surface and reverses the normal velocity
    (grad h . v- < 0 < grad h . v+), which the identity reset and a jump in
    q, both with zero residuals, do not."""
    g = surface.gradient(s_minus.q)
    if (np.array_equal(s_minus.q, s_plus.q) and (s_minus.z, s_minus.t) == (s_plus.z, s_plus.t)
            and abs(surface.value(s_minus.q)) <= _BOUNDARY_TOL
            and float(g @ sys.velocity(*s_minus.phase)) < 0.0
            < float(g @ sys.velocity(*s_plus.phase))):
        return max(_residuals(sys, g, s_minus, s_plus))
    return np.inf


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
    if float(np.linalg.norm(g)) <= 1e-12:
        raise DegenerateNormal(f"grad h vanishes at the impact point q={q}")
    vn = float(g @ sys.velocity(*s_minus.phase))
    if vn > _GRAZING_SPEED:
        raise ValueError(
            f"normal velocity {vn:.3e} points into the admissible region, not at the boundary"
        )
    if vn >= -_GRAZING_SPEED:
        raise GrazingContact(
            f"normal velocity {vn:.3e} is not approaching the boundary"
        )
    return g, vn


def _with_residuals(sys, g: np.ndarray, s_minus, s_plus, lam: float) -> ImpactEvent:
    r_tan, r_en = _residuals(sys, g, s_minus, s_plus)
    return ImpactEvent(state_minus=s_minus, state_plus=s_plus, lam=lam,
                       residual_tangential=r_tan, residual_energy=r_en)


def resolve_impact_natural(sys: SystemSpec, s_minus: ContactStateL,
                           surface: SwitchingSurface) -> ImpactEvent:
    """Closed-form elastic impact for natural-form (quadratic kinetic) systems.

    qdot_plus = qdot_minus + lam * Minv grad h with
    lam = -2 (grad h . qdot_minus) / (grad h . Minv grad h), the nonzero
    root of the energy condition. q, z, t are unchanged.
    """
    if sys.natural is None:
        raise ValueError("resolve_impact_natural requires natural-form data")
    g, vn = _approach_normal(sys, surface, s_minus)
    minv_g = _mass_solve(sys.natural, s_minus.q, g)
    lam = -2.0 * vn / float(g @ minv_g)
    qdot_plus = s_minus.qdot + lam * minv_g
    s_plus = ContactStateL(q=s_minus.q, qdot=qdot_plus, z=s_minus.z, t=s_minus.t)
    return _with_residuals(sys, g, s_minus, s_plus, lam)


def resolve_impact_newton(sys: SystemSpec, s_minus: ContactStateL,
                          surface: SwitchingSurface) -> ImpactEvent:
    """General impact resolution by Newton iteration.

    Solves the n+1 unknowns (qdot_plus, lam) from the momentum-jump
    ansatz dL/dqdot(q, qdot_plus, z) - dL/dqdot(q, qdot_minus, z) =
    lam grad h together with the energy match, seeded from the
    quadratic-case formula built on the velocity Hessian. Each Newton
    step solves the bordered system [[W, -grad h], [W^T v, 0]] by its
    Schur complement, W^T v being the exact dE/dqdot: the multiplier step
    is (v . F_1 - F_2) / (v . grad h) for the momentum and energy
    residuals F_1, F_2, and one solve with W gives the velocity step. A
    singular Hessian at the seed raises SingularHessian; a singular W or
    v . grad h = 0 during the iteration raises NoConvergence. A solve that
    lands back on the identity root is reported as ConvergedToIdentity,
    never silently accepted.
    """
    g, vn = _approach_normal(sys, surface, s_minus)
    q, z, t = s_minus.q, s_minus.z, s_minus.t
    p_minus = sys.grad_v(q, s_minus.qdot, z)
    e_minus = sys.energy(q, s_minus.qdot, z)
    scale = max(1.0, float(np.max(np.abs(p_minus))), abs(e_minus))

    # quadratic-case seed with W as the effective mass matrix
    w_inv_g = _solve_regular(sys.hess_vv(q, s_minus.qdot, z), g)
    lam = -2.0 * vn / float(g @ w_inv_g)
    v = s_minus.qdot + lam * w_inv_g

    for _ in range(_NEWTON_MAX_ITER):
        # one momentum serves the tangential residual and the energy v.p - L
        p = sys.grad_v(q, v, z)
        F1 = p - p_minus - lam * g
        F2 = float(v @ p - sys.value(q, v, z)) - e_minus
        if max(float(np.max(np.abs(F1))), abs(F2)) <= _NEWTON_TOL * scale:
            break
        try:   # a Python float division by v . grad h = 0 raises
            dlam = (float(v @ F1) - F2) / float(v @ g)
            v = v + _solve_regular(sys.hess_vv(q, v, z), dlam * g - F1)
        except (ZeroDivisionError, SingularHessian) as e:
            raise NoConvergence(f"impact Newton Jacobian is singular at qdot={v}") from e
        lam = lam + dlam
    else:
        raise NoConvergence(f"impact Newton solve stalled after {_NEWTON_MAX_ITER} iterations")

    vn_plus = float(g @ v)
    if not vn_plus > 0.0:
        if float(np.max(np.abs(v - s_minus.qdot))) <= 1e-8 * max(1.0, float(np.max(np.abs(s_minus.qdot)))):
            raise ConvergedToIdentity("impact solve found only the trivial root")
        raise NoConvergence(
            f"impact solve did not reverse the normal velocity (got {vn_plus:.3e})"
        )
    s_plus = ContactStateL(q=q, qdot=v, z=z, t=t)
    return _with_residuals(sys, g, s_minus, s_plus, lam)


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
    q, z, t = s_minus.q, s_minus.z, s_minus.t
    p_minus = s_minus.p
    H_minus = sys.value(q, p_minus, z)
    curv = float(g @ sys.grad_p(q, p_minus + g, z)) - vn
    if curv == 0.0:
        raise NoConvergence("energy is flat along grad h; no reflecting root")
    lam = -2.0 * vn / curv
    scale = max(1.0, abs(H_minus))
    for _ in range(_NEWTON_MAX_ITER):
        r = sys.value(q, p_minus + lam * g, z) - H_minus
        if abs(r) <= _NEWTON_TOL * scale:
            break
        slope = float(g @ sys.grad_p(q, p_minus + lam * g, z))
        if slope == 0.0:
            raise NoConvergence(f"impact Newton slope vanished at lam={lam:.3e}")
        lam = lam - r / slope
    else:
        raise NoConvergence(f"impact Newton solve stalled after {_NEWTON_MAX_ITER} iterations")

    p_plus = p_minus + lam * g
    vn_plus = float(g @ sys.grad_p(q, p_plus, z))
    if not vn_plus > 0.0:
        raise ConvergedToIdentity("impact solve found only the trivial root")
    s_plus = ContactStateH(q=q, p=p_plus, z=z, t=t)
    return _with_residuals(sys, g, s_minus, s_plus, lam)

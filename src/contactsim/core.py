"""States, system descriptions, and the smooth dissipative dynamics.

An action-dependent Lagrangian L(q, qdot, z) depends on the accumulated
action z in addition to position and velocity, and its trajectories solve
the Herglotz equations

    dL/dq_i - d/dt (dL/dqdot_i) + (dL/dqdot_i)(dL/dz) = 0,    zdot = L,

which reduce to the Euler-Lagrange equations when dL/dz = 0. The extra
term produces dissipation: for L = 1/2 qdot^T M qdot - V(q) - gamma z it
is -gamma * M qdot, linear drag. On the dual side, a contact Hamiltonian
H(q, p, z) generates

    qdot = dH/dp,   pdot = -dH/dq - p dH/dz,   zdot = p . dH/dp - H.

Both vector fields are exposed here as first-order right-hand sides on
the flat phase vectors [q, qdot, z] and [q, p, z], together with the
energy, the Legendre transform connecting the two pictures, and a
finite-difference fallback for systems that do not supply analytic
partial derivatives: a missing second partial of L differences the
supplied dL/dqdot once, else L twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteValue,
    SingularHessian,
    SingularMassMatrix,
)

__all__ = [
    "ContactStateL",
    "ContactStateH",
    "NaturalForm",
    "SystemSpec",
    "HamiltonianSpec",
    "DerivativeBundle",
    "lagrangian_energy",
    "herglotz_rhs",
    "hamiltonian_rhs",
    "legendre_forward",
    "legendre_inverse",
    "finite_difference_partials",
    "hamiltonian_from_lagrangian",
    "natural_lagrangian_system",
]

# Step scales for the finite-difference fallback. First derivatives use the
# classic eps^(1/3) central-difference step, and so does a second derivative
# taken as one difference of a supplied first derivative; nested differences
# of L need the larger eps^(1/4) step or roundoff in the quotient dominates.
_EPS = float(np.finfo(float).eps)
_FD_STEP_1 = _EPS ** (1.0 / 3.0)
_FD_STEP_2 = _EPS ** 0.25

# Relative determinant gate for Hessian regularity.
_REG_TOL = 1e-10
_LEGENDRE_MAX_ITER = 50
_LEGENDRE_TOL = 1e-12


def _all_finite(v: np.ndarray) -> bool:
    # math.isfinite over Python floats: for the short vectors of a state or
    # a partial this is several times cheaper than the numpy ufunc
    return all(map(math.isfinite, v.ravel().tolist()))


def _as_locked_vector(x, name: str) -> np.ndarray:
    v = np.array(x, dtype=float).reshape(-1)
    if not _all_finite(v):
        raise NonFiniteValue(f"{name} contains non-finite entries: {v}")
    v.flags.writeable = False
    return v


def _finite_scalar(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteValue(f"{name} is not finite: {x}")
    return x


class _ContactState:
    """What both states share: validation, the dimension and the flat phase
    vector [q, x, z]. Each subclass is a frozen dataclass with the fields
    q, x, z, t in that order and names x in ``_x``. It calls ``_validate``
    from a ``__post_init__`` of its own, which perfbench's tracer wraps per
    class to count the states built."""

    def _validate(self):
        x = self._x
        q, xv = _as_locked_vector(self.q, "q"), _as_locked_vector(getattr(self, x), x)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, x, xv)
        object.__setattr__(self, "z", _finite_scalar(self.z, "z"))
        object.__setattr__(self, "t", _finite_scalar(self.t, "t"))
        if q.size != xv.size:
            raise DimensionMismatch(f"q has length {q.size} but {x} has length {xv.size}")

    @property
    def n(self) -> int:
        return self.q.size

    def as_vector(self) -> np.ndarray:
        """Flat phase vector [q, x, z] used by the integrator."""
        return np.concatenate([self.q, getattr(self, self._x), [self.z]])

    @classmethod
    def from_vector(cls, y: np.ndarray, n: int, t: float = 0.0):
        return cls(y[:n], y[n : 2 * n], float(y[2 * n]), t)


@dataclass(frozen=True)
class ContactStateL(_ContactState):
    """Lagrangian-side state (q, qdot, z, t).

    z is the accumulated action, carried as a first-class coordinate;
    t is physical time. Instances are immutable values.
    """

    q: np.ndarray
    qdot: np.ndarray
    z: float
    t: float = 0.0
    _x = "qdot"

    def __post_init__(self):
        self._validate()


@dataclass(frozen=True)
class ContactStateH(_ContactState):
    """Hamiltonian-side state (q, p, z, t) in Darboux coordinates."""

    q: np.ndarray
    p: np.ndarray
    z: float
    t: float = 0.0
    _x = "p"

    def __post_init__(self):
        self._validate()


@dataclass(frozen=True)
class NaturalForm:
    """Mechanical data for L = 1/2 qdot^T M(q) qdot - V(q) - gamma z.

    mass may be a constant (n, n) array or a callable q -> (n, n) array.
    potential defaults to zero; grad_potential, when given, is the gradient
    of potential and requires it. gamma has units 1/time.
    """

    mass: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]
    gamma: float = 0.0
    potential: Optional[Callable[[np.ndarray], float]] = None
    grad_potential: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.grad_potential is not None and self.potential is None:
            raise ValueError("grad_potential is given without the potential it differentiates")

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        if callable(self.mass):
            return np.asarray(self.mass(q), dtype=float)
        return np.asarray(self.mass, dtype=float)

    @property
    def constant_mass(self) -> bool:
        return not callable(self.mass)

    def potential_value(self, q: np.ndarray) -> float:
        return 0.0 if self.potential is None else float(self.potential(q))

    def potential_gradient(self, q: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """sign * dV/dq: the supplied gradient, else central differences of V;
        +0 everywhere without a potential, whatever the sign."""
        if self.potential is None:
            return np.zeros(q.size)
        if self.grad_potential is not None:
            return sign * np.asarray(self.grad_potential(q), dtype=float)
        return sign * _fd_jacobian(self.potential_value, q, 1)[0]


class _Spec:
    """What both formulations share: the dimension check, the function value,
    and the partials, each resolved once to the supplied evaluator or to
    central differences of that partial alone. Every accessor raises
    NonFiniteValue, naming what it evaluated, on a non-finite value.

    Each subclass names its ``state_type``, ``formulation`` and
    ``impact_law`` (the ``impact.resolve_impact_*`` that resets its states)
    and gives ``energy``, ``momentum``, ``velocity`` and ``rate`` (dL/dz,
    which is -dH/dz) at a state, and ``vector_field(t, y)`` on the flat
    phase vector [q, x, z], so callers never branch on the formulation.
    """

    def _resolve(self, function: Callable, fallbacks: dict) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"configuration dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "_function", function)
        object.__setattr__(self, "_partials", {
            name: fallback if getattr(self, name) is None else getattr(self, name)
            for name, fallback in fallbacks.items()})

    def check_state(self, s) -> None:
        if s.n != self.n:
            raise DimensionMismatch(
                f"state has dimension {s.n}, system expects {self.n}"
            )

    def value(self, q: np.ndarray, x: np.ndarray, z: float) -> float:
        """L(q, qdot, z) or H(q, p, z)."""
        val = float(self._function(q, x, z))
        if not math.isfinite(val):
            raise NonFiniteValue(f"{self.formulation} is not finite at ({q}, {x}, {z})")
        return val

    def _partial(self, name: str, q, x, z) -> np.ndarray:
        val = np.asarray(self._partials[name](q, x, z), dtype=float)
        if not _all_finite(val):
            raise NonFiniteValue(f"{name} is not finite at ({q}, {x}, {z})")
        return val

    def _scalar_partial(self, name: str, q, x, z) -> float:
        val = float(self._partials[name](q, x, z))
        if not math.isfinite(val):
            raise NonFiniteValue(f"{name} is not finite at ({q}, {x}, {z})")
        return val


@dataclass(frozen=True)
class SystemSpec(_Spec):
    """An action-dependent Lagrangian system.

    The Lagrangian evaluator is mandatory. Partial-derivative evaluators
    are optional; each one that is missing is filled in by central finite
    differences for that partial alone: of L for a first partial; for a
    second partial, of the supplied dL_dv once (W symmetrized), else of L
    twice. ``natural`` carries the mechanical decomposition when the system
    has one, unlocking closed-form impact resolution (impact law "natural",
    else "newton") and Legendre inversion, and, for a constant regular
    mass, a Herglotz field without a solve. The accessors grad_q, grad_v,
    grad_z, hess_vv, hess_qv and hess_zv return one partial each.

    Partial-derivative conventions (all evaluators take (q, qdot, z)):
      d2L_dvdv[i, j] = d^2 L / dqdot_i dqdot_j      (the Hessian W)
      d2L_dqdv[i, j] = d^2 L / dq_j dqdot_i
      d2L_dzdv[i]    = d^2 L / dz dqdot_i
    """

    n: int
    lagrangian: Callable[[np.ndarray, np.ndarray, float], float]
    dL_dq: Optional[Callable] = None
    dL_dv: Optional[Callable] = None
    dL_dz: Optional[Callable] = None
    d2L_dvdv: Optional[Callable] = None
    d2L_dqdv: Optional[Callable] = None
    d2L_dzdv: Optional[Callable] = None
    natural: Optional[NaturalForm] = None

    state_type = ContactStateL
    formulation = "lagrangian"

    @property
    def impact_law(self) -> str:
        return "newton" if self.natural is None else "natural"

    def __post_init__(self):
        # A natural form with a constant, regular mass has the Herglotz field
        # qddot = M^-1 dL/dq + (dL/dz) qdot; herglotz_rhs uses this inverse,
        # and so does the Hamiltonian that hamiltonian_from_lagrangian builds.
        nat = self.natural
        object.__setattr__(self, "_minv", None if nat is None or not nat.constant_mass
                           else _regular_inverse(nat.mass_matrix(np.zeros(self.n)), self.n))
        # Same steps and argument order as finite_difference_partials, except
        # that a supplied dL_dv is differenced once for the second partials.
        L, G, n = self.lagrangian, self.dL_dv, self.n
        if G is None:
            second = {
                "d2L_dvdv": lambda q, v, z: _fd_hessian(lambda vv: L(q, vv, z), v),
                "d2L_dqdv": lambda q, v, z: _fd_cross(lambda qq, vv: L(qq, vv, z), q, v),
                "d2L_dzdv": lambda q, v, z: _fd_cross(
                    lambda zz, vv: L(q, vv, float(zz[0])), np.array([z]), v).reshape(v.size),
            }
        else:
            def d2L_dvdv(q, v, z):
                J = _fd_jacobian(lambda vv: G(q, vv, z), v, n)
                return 0.5 * (J + J.T)

            second = {
                "d2L_dvdv": d2L_dvdv,
                "d2L_dqdv": lambda q, v, z: _fd_jacobian(lambda qq: G(qq, v, z), q, n),
                "d2L_dzdv": lambda q, v, z: _fd_jacobian(
                    lambda zz: G(q, v, float(zz[0])), np.array([z]), n).reshape(n),
            }
        self._resolve(L, {
            "dL_dq": lambda q, v, z: _fd_jacobian(lambda qq: L(qq, v, z), q, 1)[0],
            "dL_dv": lambda q, v, z: _fd_jacobian(lambda vv: L(q, vv, z), v, 1)[0],
            "dL_dz": lambda q, v, z: _fd_jacobian(
                lambda zz: L(q, v, float(zz[0])), np.array([z]), 1)[0, 0],
            **second,
        })

    def grad_q(self, q, v, z) -> np.ndarray:
        return self._partial("dL_dq", q, v, z)

    def grad_v(self, q, v, z) -> np.ndarray:
        return self._partial("dL_dv", q, v, z)

    def grad_z(self, q, v, z) -> float:
        return self._scalar_partial("dL_dz", q, v, z)

    def hess_vv(self, q, v, z) -> np.ndarray:
        return self._partial("d2L_dvdv", q, v, z)

    def hess_qv(self, q, v, z) -> np.ndarray:
        return self._partial("d2L_dqdv", q, v, z)

    def hess_zv(self, q, v, z) -> np.ndarray:
        return self._partial("d2L_dzdv", q, v, z)

    def vector_field(self, t: float, y: np.ndarray) -> np.ndarray:
        return herglotz_rhs(self, t, y)

    def energy(self, s: ContactStateL) -> float:
        return lagrangian_energy(self, s)

    def momentum(self, s: ContactStateL) -> np.ndarray:
        return self.grad_v(s.q, s.qdot, s.z)

    def velocity(self, s: ContactStateL) -> np.ndarray:
        return s.qdot

    def rate(self, s: ContactStateL) -> float:
        return self.grad_z(s.q, s.qdot, s.z)


@dataclass(frozen=True)
class HamiltonianSpec(_Spec):
    """A contact Hamiltonian system H(q, p, z) with optional partials.

    Missing partials fall back to central finite differences. ``minv``,
    the inverse mass matrix evaluator, is attached when the system is
    derived from a natural-form Lagrangian; the impact resolver uses it
    for the closed-form impulse.
    """

    n: int
    hamiltonian: Callable[[np.ndarray, np.ndarray, float], float]
    dH_dq: Optional[Callable] = None
    dH_dp: Optional[Callable] = None
    dH_dz: Optional[Callable] = None
    minv: Optional[Callable[[np.ndarray], np.ndarray]] = None

    state_type = ContactStateH
    formulation = "hamiltonian"
    impact_law = "hamiltonian"

    def __post_init__(self):
        H = self.hamiltonian
        self._resolve(H, {
            "dH_dq": lambda q, p, z: _fd_jacobian(lambda qq: H(qq, p, z), q, 1)[0],
            "dH_dp": lambda q, p, z: _fd_jacobian(lambda pp: H(q, pp, z), p, 1)[0],
            "dH_dz": lambda q, p, z: _fd_jacobian(
                lambda zz: H(q, p, float(zz[0])), np.array([z]), 1)[0, 0],
        })

    def grad_q(self, q, p, z) -> np.ndarray:
        return self._partial("dH_dq", q, p, z)

    def grad_p(self, q, p, z) -> np.ndarray:
        return self._partial("dH_dp", q, p, z)

    def grad_z(self, q, p, z) -> float:
        return self._scalar_partial("dH_dz", q, p, z)

    def vector_field(self, t: float, y: np.ndarray) -> np.ndarray:
        return hamiltonian_rhs(self, t, y)

    def energy(self, s: ContactStateH) -> float:
        return self.value(s.q, s.p, s.z)

    def momentum(self, s: ContactStateH) -> np.ndarray:
        return s.p

    def velocity(self, s: ContactStateH) -> np.ndarray:
        return self.grad_p(s.q, s.p, s.z)

    def rate(self, s: ContactStateH) -> float:
        return -self.grad_z(s.q, s.p, s.z)


@dataclass(frozen=True)
class DerivativeBundle:
    """All partial derivatives of L needed by the dynamics at one state."""

    dL_dq: np.ndarray
    dL_dv: np.ndarray
    dL_dz: float
    W: np.ndarray           # d2L/dv dv, symmetric
    d2L_dqdv: np.ndarray    # [i, j] = d2L/dq_j dv_i
    d2L_dzdv: np.ndarray    # [i] = d2L/dz dv_i


# ---------------------------------------------------------------------------
# finite differences


def _fd_hessian(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    n = x.size
    W = np.empty((n, n))
    f0 = float(f(x))
    hs = [_FD_STEP_2 * max(1.0, abs(x[i])) for i in range(n)]
    for i in range(n):
        hi = hs[i]
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        W[i, i] = (float(f(xp)) - 2.0 * f0 + float(f(xm))) / (hi * hi)
        for j in range(i + 1, n):
            hj = hs[j]
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[i] += hi; xpp[j] += hj
            xpm[i] += hi; xpm[j] -= hj
            xmp[i] -= hi; xmp[j] += hj
            xmm[i] -= hi; xmm[j] -= hj
            W[i, j] = W[j, i] = (
                float(f(xpp)) - float(f(xpm)) - float(f(xmp)) + float(f(xmm))
            ) / (4.0 * hi * hj)
    if not np.all(np.isfinite(W)):
        raise NonFiniteValue("finite-difference Hessian sampled a non-finite value")
    return 0.5 * (W + W.T)


def _fd_cross(f2: Callable[[np.ndarray, np.ndarray], float],
              x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross second derivatives d2 f / dx_j dy_i as an (len(y), len(x)) array."""
    out = np.empty((y.size, x.size))
    for i in range(y.size):
        hi = _FD_STEP_2 * max(1.0, abs(y[i]))
        for j in range(x.size):
            hj = _FD_STEP_2 * max(1.0, abs(x[j]))
            xp = x.copy(); xp[j] += hj
            xm = x.copy(); xm[j] -= hj
            yp = y.copy(); yp[i] += hi
            ym = y.copy(); ym[i] -= hi
            out[i, j] = (
                float(f2(xp, yp)) - float(f2(xp, ym))
                - float(f2(xm, yp)) + float(f2(xm, ym))
            ) / (4.0 * hi * hj)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue("finite-difference cross derivative sampled a non-finite value")
    return out


def _fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                 m: int) -> np.ndarray:
    """Central-difference Jacobian d f_i / d x_j of a function with m
    components, as an (m, len(x)) array, with the first-derivative step; for
    a scalar function (m = 1) row 0 is the gradient."""
    J = np.empty((m, x.size))
    xs = x.copy()
    hs = _FD_STEP_1 * np.maximum(1.0, np.abs(x))
    for j in range(x.size):
        xs[j] = x[j] + hs[j]
        J[:, j] = f(xs)
        xs[j] = x[j] - hs[j]
        J[:, j] -= f(xs)
        xs[j] = x[j]
    J /= 2.0 * hs
    if not _all_finite(J):
        raise NonFiniteValue("finite-difference Jacobian sampled a non-finite value")
    return J


def finite_difference_partials(sys: SystemSpec, s: ContactStateL) -> DerivativeBundle:
    """Evaluate every partial derivative of L at s by central differences.

    First derivatives use step eps^(1/3) * max(1, |coordinate|); second
    derivatives use eps^(1/4) scaling. The Hessian is symmetrized.
    """
    sys.check_state(s)
    q, v, z = s.q, s.qdot, s.z
    L = sys.lagrangian
    zvec = np.array([z])
    dq = _fd_jacobian(lambda qq: L(qq, v, z), q, 1)[0]
    dv = _fd_jacobian(lambda vv: L(q, vv, z), v, 1)[0]
    dz = float(_fd_jacobian(lambda zz: L(q, v, float(zz[0])), zvec, 1)[0, 0])
    W = _fd_hessian(lambda vv: L(q, vv, z), v)
    dqdv = _fd_cross(lambda qq, vv: L(qq, vv, z), q, v)
    dzdv = _fd_cross(lambda zz, vv: L(q, vv, float(zz[0])), zvec, v).reshape(v.size)
    return DerivativeBundle(dL_dq=dq, dL_dv=dv, dL_dz=dz, W=W,
                            d2L_dqdv=dqdv, d2L_dzdv=dzdv)


def evaluate_partials(sys: SystemSpec, s: ContactStateL) -> DerivativeBundle:
    """Every partial of L at s: analytic where supplied, finite differences
    of that partial alone where not."""
    sys.check_state(s)
    q, v, z = s.q, s.qdot, s.z
    return DerivativeBundle(dL_dq=sys.grad_q(q, v, z), dL_dv=sys.grad_v(q, v, z),
                            dL_dz=sys.grad_z(q, v, z), W=sys.hess_vv(q, v, z),
                            d2L_dqdv=sys.hess_qv(q, v, z),
                            d2L_dzdv=sys.hess_zv(q, v, z))


# ---------------------------------------------------------------------------
# operations


def lagrangian_energy(sys: SystemSpec, s: ContactStateL) -> float:
    """Energy E = qdot . dL/dqdot - L.

    For a natural-form system this equals kinetic + potential + gamma z.
    """
    sys.check_state(s)
    return float(s.qdot @ sys.grad_v(s.q, s.qdot, s.z) - sys.value(s.q, s.qdot, s.z))


def _solve_regular(W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense LU solve gated by a relative determinant check."""
    scale = max(1.0, float(np.max(np.abs(W))))
    det = float(np.linalg.det(W))
    if abs(det) <= _REG_TOL * scale ** W.shape[0]:
        raise SingularHessian(
            f"velocity Hessian is numerically singular (det={det:.3e}, scale={scale:.3e})"
        )
    return np.linalg.solve(W, rhs)


def _mass_solve(nat: NaturalForm, q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M(q)^-1 rhs; a singular M(q) raises SingularMassMatrix."""
    try:
        return np.linalg.solve(nat.mass_matrix(q), rhs)
    except np.linalg.LinAlgError as e:
        raise SingularMassMatrix(f"mass matrix singular at q={q}") from e


def _regular_inverse(M: np.ndarray, n: int) -> Optional[np.ndarray]:
    """M^-1 for a finite (n, n) M that passes the gate of _solve_regular,
    else None, which leaves the error to the first field evaluation or to
    hamiltonian_from_lagrangian."""
    if M.shape != (n, n) or not _all_finite(M):
        return None
    try:
        return _solve_regular(M, np.eye(n))
    except SingularHessian:
        return None


def _phase_split(sys, t: float, y: np.ndarray) -> tuple:
    """Read-only (q, x, z) views of a flat phase vector [q, x, z], where x is
    qdot or p, after checking its length and that every entry is finite."""
    y = np.asarray(y, dtype=float).view()
    n = sys.n
    if y.shape != (2 * n + 1,):
        raise DimensionMismatch(
            f"phase vector has shape {y.shape}, system expects ({2 * n + 1},)")
    if not _all_finite(y):
        raise NonFiniteValue(f"phase vector is not finite at t={t}: {y}")
    y.setflags(write=False)   # evaluators must not write into the stage vector
    return y[:n], y[n:2 * n], float(y[2 * n])


def herglotz_rhs(sys: SystemSpec, t: float, y: np.ndarray) -> np.ndarray:
    """Herglotz vector field on the flat phase vector y = [q, qdot, z] at t.

    Returns the flat derivative [qdot, qddot, zdot], where the acceleration
    solves

        W qddot = dL/dq - (d2L/dq dv) qdot - (d2L/dz dv) L + (dL/dz) dL/dv

    by a dense linear solve, and zdot = L. Raises DimensionMismatch on a
    vector of the wrong length, NonFiniteValue on a non-finite entry, and
    SingularHessian when the velocity Hessian fails the regularity gate. A
    natural form with a constant, regular mass M skips the solve and builds
    no state: W = M, both cross partials vanish and dL/dqdot = M qdot, so
    qddot = M^-1 dL/dq + (dL/dz) qdot with the inverse formed once by the
    SystemSpec.
    """
    q, v, z = _phase_split(sys, t, y)
    n = sys.n
    out = np.empty(2 * n + 1)
    out[:n] = v
    if sys._minv is not None:
        out[n:2 * n] = sys._minv @ sys.grad_q(q, v, z) + sys.grad_z(q, v, z) * v
        out[2 * n] = sys.value(q, v, z)
        return out
    s = ContactStateL(q=q, qdot=v, z=z, t=t)
    d = evaluate_partials(sys, s)
    Lval = sys.value(s.q, s.qdot, s.z)
    rhs = d.dL_dq - d.d2L_dqdv @ s.qdot - d.d2L_dzdv * Lval + d.dL_dz * d.dL_dv
    out[n:2 * n] = _solve_regular(d.W, rhs)
    out[2 * n] = Lval
    return out


def hamiltonian_rhs(sys: HamiltonianSpec, t: float, y: np.ndarray) -> np.ndarray:
    """Contact Hamiltonian vector field on the flat phase vector
    y = [q, p, z] at t.

    Returns the flat derivative [dH/dp, -dH/dq - p dH/dz, p . dH/dp - H].
    Raises DimensionMismatch on a vector of the wrong length and
    NonFiniteValue on a non-finite entry; builds no state.
    """
    q, p, z = _phase_split(sys, t, y)
    n = sys.n
    Hp = sys.grad_p(q, p, z)
    Hq = sys.grad_q(q, p, z)
    Hz = sys.grad_z(q, p, z)
    H = sys.value(q, p, z)
    out = np.empty(2 * n + 1)
    out[:n] = Hp
    out[n:2 * n] = -Hq - p * Hz
    out[2 * n] = p @ Hp - H
    return out


def legendre_forward(sys: SystemSpec, s: ContactStateL) -> ContactStateH:
    """Legendre transform (q, qdot, z) -> (q, dL/dqdot, z); t is copied."""
    sys.check_state(s)
    return ContactStateH(q=s.q, p=sys.grad_v(s.q, s.qdot, s.z), z=s.z, t=s.t)


def legendre_inverse(sys: SystemSpec, s: ContactStateH) -> ContactStateL:
    """Invert the Legendre transform: recover qdot with dL/dqdot = p.

    Natural-form systems invert the mass matrix directly; otherwise a
    Newton iteration seeded at qdot = p runs until the residual max-norm
    drops below 1e-12 (raises NoConvergence after 50 iterations).
    """
    sys.check_state(s)
    if sys.natural is not None:
        return ContactStateL(q=s.q, qdot=_mass_solve(sys.natural, s.q, s.p), z=s.z, t=s.t)

    qdot = s.p.copy()
    scale = float(np.max(np.abs(s.p))) if s.p.size else 0.0
    threshold = max(_LEGENDRE_TOL, 32.0 * _EPS * scale)
    for _ in range(_LEGENDRE_MAX_ITER):
        trial = ContactStateL(q=s.q, qdot=qdot, z=s.z, t=s.t)
        resid = sys.grad_v(trial.q, trial.qdot, trial.z) - s.p
        if float(np.max(np.abs(resid))) <= threshold:
            return trial
        qdot = qdot - _solve_regular(sys.hess_vv(trial.q, trial.qdot, trial.z), resid)
    raise NoConvergence(
        f"Legendre inversion did not converge in {_LEGENDRE_MAX_ITER} Newton iterations"
    )


def hamiltonian_from_lagrangian(sys: SystemSpec) -> HamiltonianSpec:
    """Build the dual contact Hamiltonian H = E_L after Legendre inversion.

    The partials use the exact transform identities dH/dp = qdot,
    dH/dq = -dL/dq and dH/dz = -dL/dz, each evaluated at the recovered
    velocity. Natural-form systems with constant mass and a supplied
    potential gradient get fully closed-form evaluators.
    """
    nat = sys.natural
    if nat is not None and nat.constant_mass:
        Minv = sys._minv
        if Minv is None:
            raise SingularMassMatrix("constant mass matrix is singular or not finite")
        gamma = nat.gamma

        def H(q, p, z):
            return 0.5 * float(p @ (Minv @ p)) + nat.potential_value(q) + gamma * z

        return HamiltonianSpec(
            n=sys.n,
            hamiltonian=H,
            dH_dq=lambda q, p, z: nat.potential_gradient(q),
            dH_dp=lambda q, p, z: Minv @ p,
            dH_dz=lambda q, p, z: gamma,
            minv=lambda q: Minv,
        )

    def H(q, p, z):
        sl = legendre_inverse(sys, ContactStateH(q=q, p=p, z=z))
        return lagrangian_energy(sys, sl)

    def dH_dq(q, p, z):
        sl = legendre_inverse(sys, ContactStateH(q=q, p=p, z=z))
        return -sys.grad_q(sl.q, sl.qdot, sl.z)

    def dH_dp(q, p, z):
        return legendre_inverse(sys, ContactStateH(q=q, p=p, z=z)).qdot

    def dH_dz(q, p, z):
        sl = legendre_inverse(sys, ContactStateH(q=q, p=p, z=z))
        return -sys.grad_z(sl.q, sl.qdot, sl.z)

    return HamiltonianSpec(n=sys.n, hamiltonian=H, dH_dq=dH_dq, dH_dp=dH_dp, dH_dz=dH_dz,
                           minv=None if nat is None else lambda q: _mass_solve(nat, q, np.eye(sys.n)))


def natural_lagrangian_system(n: int, mass, gamma: float = 0.0,
                              potential=None, grad_potential=None) -> SystemSpec:
    """SystemSpec for L = 1/2 qdot^T M(q) qdot - V(q) - gamma z.

    Every partial is closed-form except, for a configuration-dependent
    mass, the two q-derivatives of the kinetic term: dL/dq differences
    1/2 qdot^T M(q) qdot alone, and d2L/dq dqdot is the SystemSpec's
    difference of dL/dqdot = M(q) qdot. The potential gradient is the
    supplied one, else central differences of V.
    """
    nat = NaturalForm(mass=mass, gamma=gamma, potential=potential,
                      grad_potential=grad_potential)

    def kinetic(q, qdot):
        return 0.5 * float(qdot @ (nat.mass_matrix(q) @ qdot))

    def L(q, qdot, z):
        return kinetic(q, qdot) - nat.potential_value(q) - gamma * z

    if nat.constant_mass:
        M0 = np.array(nat.mass_matrix(np.zeros(n)), dtype=float)
        if M0.shape != (n, n):
            raise DimensionMismatch(f"mass matrix has shape {M0.shape}, expected ({n}, {n})")
        mass_at = lambda q: M0
        dL_dq = lambda q, qdot, z: nat.potential_gradient(q, sign=-1.0)
        d2L_dqdv = lambda q, qdot, z: np.zeros((n, n))
    else:
        mass_at = nat.mass_matrix
        d2L_dqdv = None

        def dL_dq(q, qdot, z):
            return (_fd_jacobian(lambda qq: kinetic(qq, qdot), q, 1)[0]
                    + nat.potential_gradient(q, sign=-1.0))

    return SystemSpec(
        n=n,
        lagrangian=L,
        dL_dq=dL_dq,
        dL_dv=lambda q, qdot, z: mass_at(q) @ qdot,
        dL_dz=lambda q, qdot, z: -gamma,
        d2L_dvdv=lambda q, qdot, z: mass_at(q),
        d2L_dqdv=d2L_dqdv,
        d2L_dzdv=lambda q, qdot, z: np.zeros(n),
        natural=nat,
    )

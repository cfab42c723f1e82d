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

# Regularity gate of _solve_regular: |det W| over the product of W's row
# max-norms, a measure that does not change when W is scaled.
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


def _checked(val, shape: tuple, name: str, at: str, *point) -> Union[np.ndarray, float]:
    """val as a float array of the given shape, reshaped when it holds as many
    entries, and for shape () as a Python float: DimensionMismatch on another
    size and NonFiniteValue on a non-finite entry, each naming name and the
    point, ``at.format(*point)``. A value with more than one axis longer
    than 1 must have the shape's axes in order, so a transposed block is a
    DimensionMismatch, not a reshape. Every value that user code returns
    passes here, except a finite float that a hot path accepts inline for
    shape () and a potential's float (see ``NaturalForm.potential_value``)."""
    val = np.asarray(val, dtype=float)
    if val.shape != shape:
        kept = val.squeeze().shape
        if val.size != math.prod(shape) or (
                len(kept) > 1 and kept != tuple(d for d in shape if d != 1)):
            raise DimensionMismatch(
                f"{name} has shape {val.shape}, expected {shape}, at {at.format(*point)}")
        val = val.reshape(shape)
    if not _all_finite(val):
        raise NonFiniteValue(f"{name} is not finite at {at.format(*point)}")
    return val if shape else float(val)


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
        object.__setattr__(self, "z", _checked(self.z, (), "z", "q={}", q))
        object.__setattr__(self, "t", _checked(self.t, (), "t", "q={}", q))
        if q.size != xv.size:
            raise DimensionMismatch(f"q has length {q.size} but {x} has length {xv.size}")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def phase(self) -> tuple:
        """(q, x, z), the point at which every spec quantity is evaluated."""
        return self.q, getattr(self, self._x), self.z

    def as_vector(self) -> np.ndarray:
        """Flat phase vector [q, x, z] used by the integrator."""
        return np.concatenate([self.q, getattr(self, self._x), [self.z]])

    @classmethod
    def from_vector(cls, y: np.ndarray, t: float = 0.0):
        """The state whose phase vector [q, x, z] is y, of length 2n + 1, n >= 1."""
        n, odd = divmod(len(y) - 1, 2)
        if odd or n < 1:
            raise DimensionMismatch(f"phase vector length must be 2n + 1, n >= 1, got {len(y)}")
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

    mass may be a constant (n, n) array or a callable q -> (n, n) array,
    whose value passes ``_checked``.
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
            return _checked(self.mass(q), (q.size, q.size), "mass", "q={}", q)
        return np.asarray(self.mass, dtype=float)

    @property
    def constant_mass(self) -> bool:
        return not callable(self.mass)

    def potential_value(self, q: np.ndarray) -> float:
        """V(q) as a float. A float is taken as it is, so a NaN one reaches the
        central differences, which name it; any other value passes ``_checked``."""
        if self.potential is None:
            return 0.0
        val = self.potential(q)
        if isinstance(val, float):
            return float(val)
        return _checked(val, (), "potential", "q={}", q)

    def potential_gradient(self, q: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """sign * dV/dq: the supplied gradient, else central differences of V;
        +0 everywhere without a potential, whatever the sign."""
        if self.potential is None:
            return np.zeros(q.size)
        if self.grad_potential is not None:
            return sign * _checked(self.grad_potential(q), q.shape, "grad_potential", "q={}", q)
        return sign * _fd_jacobian(self.potential_value, q, 1)[0]


def _tested(name: str, evaluator: Callable, shape: tuple) -> Callable:
    """A supplied evaluator behind its one gate, ``_checked``. A finite float
    for shape () is accepted inline, as the Python float ``_checked`` would
    return: the field reads value and grad_z at every evaluation."""
    scalar = shape == ()

    def tested(q, x, z):
        val = evaluator(q, x, z)
        if scalar and isinstance(val, float) and math.isfinite(val):
            return float(val)
        return _checked(val, shape, name, "({}, {}, {})", q, x, z)
    return tested


class _Spec:
    """What both formulations share: the dimension check and the accessors.
    ``_resolve`` binds ``value`` and each partial once, as an instance
    attribute: the supplied evaluator behind ``_tested``, or central
    differences of that partial alone. A supplied value must hold one entry
    for value and grad_z, n for a vector and n^2 for d2L_dvdv and d2L_dqdv,
    else DimensionMismatch. A quantity that is exactly one partial is an
    alias of it.

    Each subclass names its ``state_type``, ``formulation`` and
    ``impact_law`` (the ``impact.resolve_impact_*`` that resets its states)
    and gives ``energy``, ``momentum``, ``velocity`` and ``rate`` (dL/dz,
    which is -dH/dz) at the arrays (q, x, z), like the partials, and
    ``vector_field(t, y)`` on [q, x, z]: callers never branch on the formulation.
    """

    def _resolve(self, function: Callable, partials: dict, **aliases: str) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"configuration dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "value", _tested(self.formulation, function, ()))
        for accessor, (field, shape, fallback) in partials.items():
            supplied = getattr(self, field)
            object.__setattr__(self, accessor, fallback if supplied is None
                               else _tested(field, supplied, shape))
        for alias, accessor in aliases.items():
            object.__setattr__(self, alias, getattr(self, accessor))

    def check_state(self, s) -> None:
        if s.n != self.n:
            raise DimensionMismatch(
                f"state has dimension {s.n}, system expects {self.n}"
            )


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
    mass, a Herglotz field without a solve. Its accessors, bound once, are
    value (L), grad_q, grad_v, grad_z, hess_vv, hess_qv and hess_zv, with the
    aliases momentum = grad_v and rate = grad_z; a supplied function whose
    value has the wrong size raises DimensionMismatch.

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
            hess_vv = lambda q, v, z: _fd_hessian(lambda vv: L(q, vv, z), v)
            hess_qv = lambda q, v, z: _fd_cross(lambda qq, vv: L(qq, vv, z), q, v)
            hess_zv = lambda q, v, z: _fd_cross(
                lambda zz, vv: L(q, vv, float(zz[0])), np.array([z]), v).reshape(v.size)
        else:
            def hess_vv(q, v, z):
                J = _fd_jacobian(lambda vv: G(q, vv, z), v, n)
                return 0.5 * (J + J.T)

            hess_qv = lambda q, v, z: _fd_jacobian(lambda qq: G(qq, v, z), q, n)
            hess_zv = lambda q, v, z: _fd_jacobian(
                lambda zz: G(q, v, float(zz[0])), np.array([z]), n).reshape(n)
        self._resolve(L, {
            "grad_q": ("dL_dq", (n,), lambda q, v, z: _fd_jacobian(
                lambda qq: L(qq, v, z), q, 1)[0]),
            "grad_v": ("dL_dv", (n,), lambda q, v, z: _fd_jacobian(
                lambda vv: L(q, vv, z), v, 1)[0]),
            "grad_z": ("dL_dz", (), lambda q, v, z: float(_fd_jacobian(
                lambda zz: L(q, v, float(zz[0])), np.array([z]), 1)[0, 0])),
            "hess_vv": ("d2L_dvdv", (n, n), hess_vv),
            "hess_qv": ("d2L_dqdv", (n, n), hess_qv),
            "hess_zv": ("d2L_dzdv", (n,), hess_zv),
        }, momentum="grad_v", rate="grad_z")

    def vector_field(self, t: float, y: np.ndarray) -> np.ndarray:
        return herglotz_rhs(self, t, y)

    def energy(self, q, v, z) -> float:
        """E = qdot . dL/dqdot - L; kinetic + potential + gamma z for a natural form."""
        return float(v @ self.grad_v(q, v, z) - self.value(q, v, z))

    def velocity(self, q, v, z) -> np.ndarray:
        return v


@dataclass(frozen=True)
class HamiltonianSpec(_Spec):
    """A contact Hamiltonian system H(q, p, z) with optional partials.

    Missing partials fall back to central finite differences. The impact
    resolver needs only H and dH/dp, so a Hamiltonian derived from a
    natural-form Lagrangian carries no inverse mass matrix of its own. Its
    accessors, bound once, are value (H), grad_q, grad_p and grad_z, with the
    aliases energy = value and velocity = grad_p; a supplied function whose
    value has the wrong size raises DimensionMismatch.
    """

    n: int
    hamiltonian: Callable[[np.ndarray, np.ndarray, float], float]
    dH_dq: Optional[Callable] = None
    dH_dp: Optional[Callable] = None
    dH_dz: Optional[Callable] = None

    state_type = ContactStateH
    formulation = "hamiltonian"
    impact_law = "hamiltonian"

    def __post_init__(self):
        H, n = self.hamiltonian, self.n
        self._resolve(H, {
            "grad_q": ("dH_dq", (n,), lambda q, p, z: _fd_jacobian(
                lambda qq: H(qq, p, z), q, 1)[0]),
            "grad_p": ("dH_dp", (n,), lambda q, p, z: _fd_jacobian(
                lambda pp: H(q, pp, z), p, 1)[0]),
            "grad_z": ("dH_dz", (), lambda q, p, z: float(_fd_jacobian(
                lambda zz: H(q, p, float(zz[0])), np.array([z]), 1)[0, 0])),
        }, energy="value", velocity="grad_p")

    def vector_field(self, t: float, y: np.ndarray) -> np.ndarray:
        return hamiltonian_rhs(self, t, y)

    def momentum(self, q, p, z) -> np.ndarray:
        return p

    def rate(self, q, p, z) -> float:
        return -self.grad_z(q, p, z)


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
    return W


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
    # one column per coordinate, with the step on Python floats; the plus
    # and minus points are separate arrays, so a value that aliases its
    # argument is read before that argument moves back
    J = np.empty((m, x.size))
    xp, xm = x.copy(), x.copy()
    for j, xj in enumerate(x.tolist()):
        h = _FD_STEP_1 * max(1.0, abs(xj))
        xp[j] = xj + h
        xm[j] = xj - h
        J[:, j] = (f(xp) - f(xm)) / (2.0 * h)
        xp[j] = xm[j] = xj
    if not _all_finite(J):
        raise NonFiniteValue("finite-difference Jacobian sampled a non-finite value")
    return J


def finite_difference_partials(sys: SystemSpec, s: ContactStateL) -> DerivativeBundle:
    """Evaluate every partial derivative of L at s by central differences.

    First derivatives use step eps^(1/3) * max(1, |coordinate|); second
    derivatives use eps^(1/4) scaling. The Hessian is symmetric by construction.
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


def evaluate_partials(sys: SystemSpec, q: np.ndarray, v: np.ndarray,
                      z: float) -> DerivativeBundle:
    """Every partial of L at (q, qdot, z): analytic where supplied, finite
    differences of that partial alone where not."""
    return DerivativeBundle(dL_dq=sys.grad_q(q, v, z), dL_dv=sys.grad_v(q, v, z),
                            dL_dz=sys.grad_z(q, v, z), W=sys.hess_vv(q, v, z),
                            d2L_dqdv=sys.hess_qv(q, v, z),
                            d2L_dzdv=sys.hess_zv(q, v, z))


# ---------------------------------------------------------------------------
# operations


def lagrangian_energy(sys: SystemSpec, s: ContactStateL) -> float:
    """``sys.energy`` at the state s, E = qdot . dL/dqdot - L."""
    sys.check_state(s)
    return sys.energy(s.q, s.qdot, s.z)


def _solve_regular(W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """W^-1 rhs for an (n, n) W and an (n,) or (n, k) rhs, from one LU
    factorization with partial pivoting (Golub & Van Loan, Matrix
    Computations, 3.2-3.4) on Python floats. This is the only matrix solve
    of the package. The factorization gates the solve: with r_i the max-norm
    of row i, |det W| / (r_1 ... r_n) <= _REG_TOL (or not a number) raises
    SingularHessian. The ratio is accumulated as one |pivot| / r_i factor
    per pivot, so it is the same for c W as for W at any c > 0, and it
    neither underflows nor overflows at scales far from 1; by Hadamard's
    inequality it is at most n^(n/2)."""
    n = rhs.shape[0]
    if W.shape != (n, n):
        raise DimensionMismatch(
            f"cannot solve a system of shape {W.shape} for a right-hand side of shape {rhs.shape}")
    A = W.tolist()
    B = rhs.reshape(n, -1).tolist()
    norms = [max(map(abs, row)) for row in A]
    ratio = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        if p != k:
            A[k], A[p], B[k], B[p], norms[k], norms[p] = A[p], A[k], B[p], B[k], norms[p], norms[k]
        pivot = A[k][k]
        if pivot == 0.0:
            ratio = 0.0   # the column is zero from k down: W is singular
            break
        ratio *= abs(pivot) / norms[k]
        for i in range(k + 1, n):
            mult = A[i][k] / pivot
            A[i][k + 1:] = [a - mult * b for a, b in zip(A[i][k + 1:], A[k][k + 1:])]
            B[i] = [a - mult * b for a, b in zip(B[i], B[k])]
    if not ratio > _REG_TOL:
        raise SingularHessian(
            f"velocity Hessian is numerically singular (|det| / row max-norms = {ratio:.3e})")
    for k in range(n - 1, -1, -1):
        acc = B[k]
        for j in range(k + 1, n):
            acc = [a - A[k][j] * b for a, b in zip(acc, B[j])]
        B[k] = [a / A[k][k] for a in acc]
    return np.array(B).reshape(rhs.shape)


def _mass_solve(nat: NaturalForm, q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M(q)^-1 rhs by _solve_regular; an M(q) that fails its gate raises
    SingularMassMatrix."""
    try:
        return _solve_regular(nat.mass_matrix(q), rhs)
    except SingularHessian as e:
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

    and zdot = L. The partials are read at the read-only views (q, qdot, z)
    of y, and one LU factorization of W gives both the regularity gate and
    the solve; no state is built. Raises DimensionMismatch on a vector of
    the wrong length, NonFiniteValue on a non-finite entry, and
    SingularHessian when the velocity Hessian fails the regularity gate. A
    natural form with a constant, regular mass M skips the solve: W = M,
    both cross partials vanish and dL/dqdot = M qdot, so
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
    d = evaluate_partials(sys, q, v, z)
    Lval = sys.value(q, v, z)
    rhs = d.dL_dq - d.d2L_dqdv @ v - d.d2L_dzdv * Lval + d.dL_dz * d.dL_dv
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

    Natural-form systems solve with the mass matrix directly; otherwise a
    Newton iteration seeded at qdot = p runs until the residual max-norm
    drops below 1e-12 (raises NoConvergence after 50 iterations). The
    iterates are flat arrays; only the returned state is built.
    """
    sys.check_state(s)
    return ContactStateL(q=s.q, qdot=_legendre_velocity(sys, s.q, s.p, s.z), z=s.z, t=s.t)


def _legendre_velocity(sys: SystemSpec, q: np.ndarray, p: np.ndarray, z: float) -> np.ndarray:
    """The qdot of ``legendre_inverse`` at the arrays (q, p, z)."""
    if sys.natural is not None:
        return _mass_solve(sys.natural, q, p)
    qdot = p.copy()
    threshold = max(_LEGENDRE_TOL, 32.0 * _EPS * float(np.max(np.abs(p))))
    for _ in range(_LEGENDRE_MAX_ITER):
        resid = sys.grad_v(q, qdot, z) - p
        if float(np.max(np.abs(resid))) <= threshold:
            return qdot
        qdot = qdot - _solve_regular(sys.hess_vv(q, qdot, z), resid)
    raise NoConvergence(
        f"Legendre inversion did not converge in {_LEGENDRE_MAX_ITER} Newton iterations"
    )


def hamiltonian_from_lagrangian(sys: SystemSpec) -> HamiltonianSpec:
    """Build the dual contact Hamiltonian H = E_L after Legendre inversion.

    The partials use the exact transform identities dH/dp = qdot,
    dH/dq = -dL/dq and dH/dz = -dL/dz, each evaluated at the velocity
    that the array-level Legendre inversion recovers; no state is built.
    Natural-form systems with constant mass and a supplied potential
    gradient get fully closed-form evaluators.
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
        )

    def H(q, p, z):
        return sys.energy(q, _legendre_velocity(sys, q, p, z), z)

    def dH_dq(q, p, z):
        return -sys.grad_q(q, _legendre_velocity(sys, q, p, z), z)

    def dH_dz(q, p, z):
        return -sys.grad_z(q, _legendre_velocity(sys, q, p, z), z)

    return HamiltonianSpec(n=sys.n, hamiltonian=H, dH_dq=dH_dq,
                           dH_dp=lambda q, p, z: _legendre_velocity(sys, q, p, z), dH_dz=dH_dz)


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

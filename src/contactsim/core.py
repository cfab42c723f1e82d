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
supplied dL/dqdot once, else L twice (the field's cross partials once,
along the flow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Union

import numpy as np

from .errors import (DimensionMismatch, NoConvergence, NonFiniteValue, SingularHessian,
                     SingularMassMatrix)

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
_F64 = np.dtype(float)


def _all_finite(v) -> bool:
    # math.isfinite over Python floats, an array's or a list's: for the short
    # vectors of a state or a partial this is several times cheaper than the ufunc
    return all(map(math.isfinite, v if type(v) is list else v.ravel().tolist()))


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
    passes here, except a potential's float (see ``NaturalForm.potential_value``),
    and a finite float for shape () returns at once, as the float it is."""
    if not shape and isinstance(val, float) and math.isfinite(val):
        return float(val)
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
    of potential and requires it; both take one q, so potential is called
    once per column of a block. gamma has units 1/time.
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
        if q.ndim == 2:
            return np.array([self.potential_value(c) for c in np.ascontiguousarray(q.T)])
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


def _columns(z) -> bool:
    """Whether z holds the actions of m states as columns, not one state's float."""
    return isinstance(z, np.ndarray) and z.ndim == 1


def _tested(name: str, evaluator: Callable, shape: tuple) -> Callable:
    """A supplied evaluator behind its one gate, ``_checked``. At m states as
    columns the shape gains a last axis of m, an evaluator that does not take
    them is a DimensionMismatch, and a non-finite entry names its column's state."""
    def gated(q, x, z):
        if type(z) is float or not _columns(z):   # one state: the float test is the fast path
            return _checked(evaluator(q, x, z), shape, name, "({}, {}, {})", q, x, z)
        try:
            val = np.asarray(evaluator(q, x, z), dtype=float)
        except (TypeError, ValueError) as e:
            raise DimensionMismatch(f"{name} does not take states as the columns of a block of "
                                    f"shape {q.shape} ({type(e).__name__}: {e})") from e
        try:
            return _checked(val, shape + z.shape, name, "a block of {} states", z.size)
        except NonFiniteValue:
            k = int(np.argmin(np.isfinite(val).reshape(-1, z.size).all(axis=0)))
            raise NonFiniteValue(
                f"{name} is not finite at ({q[:, k]}, {x[:, k]}, {z[k]})") from None
    return gated


def _by_column(point: Callable, shape: tuple) -> Callable:
    """A quantity of the given shape at one state, at m states as columns by
    one call per contiguous column, (m,) or shape + (m,) also for m = 0."""
    return lambda q, x, z: (point(q, x, z) if type(z) is float or not _columns(z) else np.array(
        [point(*s) for s in zip(np.ascontiguousarray(q.T), np.ascontiguousarray(x.T),
                                z.tolist())]).reshape(z.size, *shape).T)


class _Spec:
    """What both formulations share: the dimension check and the accessors.
    ``_resolve`` binds ``value`` and each partial once, as an instance
    attribute: the supplied evaluator behind ``_tested``, or central
    differences of that partial alone: of the gated value for the
    ``gradients`` in q, x and z (accessor to field, in that order), and
    each of the ``second`` partials' own. A supplied value must hold one entry
    for value and grad_z, n for a vector and n^2 for d2L_dvdv and d2L_dqdv,
    else DimensionMismatch. A quantity that is exactly one partial is an
    alias of it.

    Each subclass names its ``state_type``, ``formulation`` and
    ``impact_law`` (the ``impact.resolve_impact_*`` that resets its states)
    and gives ``energy``, ``momentum``, ``velocity`` and ``rate`` (dL/dz,
    which is -dH/dz) at the arrays (q, x, z), like the partials, and
    ``vector_field(t, y)`` on [q, x, z]: callers never branch on the formulation.
    The quantities also take m states as columns, q and x (n, m) and z (m,):
    with one call of each evaluator when ``natural`` has a constant mass and
    the value, x- and z-gradients are supplied, which then take columns;
    else with one point call per column.
    """

    def _resolve(self, value: Callable, gradients: dict, second: dict, **aliases: str) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"configuration dimension must be >= 1, got {self.n}")
        object.__setattr__(self, "value", value)
        first = zip(gradients.items(), ((self.n,), (self.n,), ()), (   # in q, x and z
            lambda q, x, z: _fd_jacobian(lambda qq: value(qq, x, z), q, 1)[0],
            lambda q, x, z: _fd_jacobian(lambda xx: value(q, xx, z), x, 1)[0],
            lambda q, x, z: float(_fd_jacobian(
                lambda zz: value(q, x, float(zz[0])), np.array([z]), 1)[0, 0])))
        partials = {accessor: (field, shape, fallback)
                    for (accessor, field), shape, fallback in first}
        for accessor, (field, shape, fallback) in {**partials, **second}.items():
            supplied = getattr(self, field)
            object.__setattr__(self, accessor, fallback if supplied is None
                               else _tested(field, supplied, shape))
        if self.natural is None or not self.natural.constant_mass or None in (
                getattr(self, field) for field in list(gradients.values())[1:]):
            # the quantities loop over columns, and an alias stays its accessor
            for name in {"energy", "momentum", "velocity", "rate", *aliases.values()} - {*aliases}:
                shape = () if name in ("energy", "value", "rate", "grad_z") else (self.n,)
                object.__setattr__(self, name, _by_column(getattr(self, name), shape))
        for alias, accessor in aliases.items():
            object.__setattr__(self, alias, getattr(self, accessor))
        gated = [getattr(self, name) for name in ("value", *gradients)]   # the field's two passes
        object.__setattr__(self, "_gated", gated)
        object.__setattr__(self, "_raw", [getattr(self, f) or g for f, g in zip(
            (self.formulation, *gradients.values()), gated)])

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
    value has the wrong size raises DimensionMismatch. The field reads both
    cross partials as drift(q, qdot, z, L) = hess_qv qdot + hess_zv L; without
    either, one central difference along the flow (qdot, L) in (q, z) of
    dL_dv (2 calls), else of L, crossed with qdot (4n calls).

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
        # Same steps and argument order as finite_difference_partials, except that a supplied
        # dL_dv is differenced once, raw; the drift's step e moves (q, z) by e (qdot, L).
        L, G, n = _tested(self.formulation, self.lagrangian, ()), self.dL_dv, self.n
        if G is None:
            hess_vv = lambda q, v, z: _fd_hessian(lambda vv: L(q, vv, z), v)
            hess_qv = lambda q, v, z: _fd_cross(lambda qq, vv: L(qq, vv, z), q, v)
            hess_zv = lambda q, v, z: _fd_cross(
                lambda zz, vv: L(q, vv, float(zz[0])), np.array([z]), v).reshape(v.size)
            drift = lambda q, v, z, Lv: _fd_cross(lambda e, vv: L(
                q + e[0] * v, vv, z + float(e[0]) * Lv), np.zeros(1), v).reshape(n)
        else:
            def hess_vv(q, v, z):
                J = _fd_jacobian(lambda vv: G(q, vv, z), v, n)
                return 0.5 * (J + J.T)

            hess_qv = lambda q, v, z: _fd_jacobian(lambda qq: G(qq, v, z), q, n)
            hess_zv = lambda q, v, z: _fd_jacobian(
                lambda zz: G(q, v, float(zz[0])), np.array([z]), n).reshape(n)
            drift = lambda q, v, z, Lv: _fd_jacobian(lambda e: G(
                q + e[0] * v, v, z + float(e[0]) * Lv), np.zeros(1), n).reshape(n)
        self._resolve(L, {"grad_q": "dL_dq", "grad_v": "dL_dv", "grad_z": "dL_dz"}, {
            "hess_vv": ("d2L_dvdv", (n, n), hess_vv),
            "hess_qv": ("d2L_dqdv", (n, n), hess_qv),
            "hess_zv": ("d2L_dzdv", (n,), hess_zv),
        }, momentum="grad_v", rate="grad_z")
        if self.d2L_dqdv is not None or self.d2L_dzdv is not None:
            drift = lambda q, v, z, Lv: (_matvec(self.hess_qv(q, v, z), v)
                                         + self.hess_zv(q, v, z) * Lv)
        object.__setattr__(self, "drift", drift)

    def vector_field(self, t: float, y: np.ndarray) -> np.ndarray:
        return herglotz_rhs(self, t, y)

    def energy(self, q, v, z) -> float:
        """E = qdot . dL/dqdot - L; kinetic + potential + gamma z for a natural form."""
        p = self.grad_v(q, v, z)
        return _dot(v, p) - self.value(q, v, z)

    def velocity(self, q, v, z) -> np.ndarray:
        return v


@dataclass(frozen=True)
class HamiltonianSpec(_Spec):
    """A contact Hamiltonian system H(q, p, z) with optional partials.

    Missing partials fall back to central finite differences. The impact
    resolver needs only H and dH/dp, so a Hamiltonian derived from a
    natural-form Lagrangian carries its ``natural`` form, not an inverse mass. Its
    accessors, bound once, are value (H), grad_q, grad_p and grad_z, with the
    aliases energy = value and velocity = grad_p; a supplied function whose
    value has the wrong size raises DimensionMismatch.
    """

    n: int
    hamiltonian: Callable[[np.ndarray, np.ndarray, float], float]
    dH_dq: Optional[Callable] = None
    dH_dp: Optional[Callable] = None
    dH_dz: Optional[Callable] = None
    natural: Optional[NaturalForm] = None

    state_type = ContactStateH
    formulation = "hamiltonian"
    impact_law = "hamiltonian"

    def __post_init__(self):
        self._resolve(_tested(self.formulation, self.hamiltonian, ()),
                      {"grad_q": "dH_dq", "grad_p": "dH_dp", "grad_z": "dH_dz"}, {},
                      energy="value", velocity="grad_p")

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

    def at(*moves):   # f at a copy of x with x[i] + h for each move (i, h)
        xs = x.copy()
        for i, h in moves:
            xs[i] += h
        return float(f(xs))

    for i, hi in enumerate(hs):
        W[i, i] = (at((i, hi)) - 2.0 * f0 + at((i, -hi))) / (hi * hi)
        for j, hj in enumerate(hs[i + 1:], i + 1):
            cross = (at((i, hi), (j, hj)) - at((i, hi), (j, -hj))
                     - at((i, -hi), (j, hj)) + at((i, -hi), (j, -hj)))
            W[i, j] = W[j, i] = cross / (4.0 * hi * hj)
    if not _all_finite(W):
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
    if not _all_finite(out):
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
    """Evaluate every partial derivative of L, the gated ``sys.value``, at s
    by central differences.

    First derivatives use step eps^(1/3) * max(1, |coordinate|); second
    derivatives use eps^(1/4) scaling. The Hessian is symmetric by construction.
    """
    sys.check_state(s)
    q, v, z = s.q, s.qdot, s.z
    L = sys.value
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


def _one_gate(sys, t: float, y, field: Callable) -> np.ndarray:
    """``field(sys, q, x, z, value, grad_q, grad_x, grad_z)``, a list of floats, as an
    array, at the read-only views of y: on ``sys._raw`` with one finiteness test of y
    and the field together, and only when it or a ``_typed`` test fails, or anything
    raises, from ``_phase_split`` on the gated accessors, which raise the typed error."""
    y = np.asarray(y, dtype=float).view()
    n = sys.n
    if y.shape == (2 * n + 1,):
        y.setflags(write=False)
        ys = y.tolist()
        try:
            out = field(sys, y[:n], y[n:2 * n], ys[-1], *sys._raw)
            if _all_finite(ys + out):
                return np.array(out)
        except Exception:   # what a gate would have stopped first: the gated pass names it
            pass
    return np.array(field(sys, *_phase_split(sys, t, y), *sys._gated))


def _typed(val, n: int = 0):
    """val if it is a float, or for n > 0 a float64 array of shape (n,), as every
    gated value is; else TypeError, which sends ``_one_gate`` to its gated pass."""
    if type(val) is float if not n else (
            type(val) is np.ndarray and val.shape == (n,) and val.dtype is _F64):
        return val
    raise TypeError(f"a {type(val).__name__} takes the gated pass")


def _natural_field(sys, q, v, z, L, dL_dq, dL_dv, dL_dz) -> list:
    """[qdot, M^-1 dL/dq + (dL/dz) qdot, L] on Python floats, M^-1 dL/dq by ``_fold``."""
    force = _typed(dL_dq(q, v, z), sys.n).tolist()
    pull = [_fold(row, force) for row in sys._minv.tolist()]
    rate, vs = _typed(dL_dz(q, v, z)), v.tolist()
    return vs + [a + rate * b for a, b in zip(pull, vs)] + [_typed(L(q, v, z))]


def _contact_field(sys, q, p, z, H, dH_dq, dH_dp, dH_dz) -> list:
    """[dH/dp, -dH/dq - p dH/dz, p . dH/dp - H] on Python floats, p . dH/dp by ``_fold``."""
    Hp = _typed(dH_dp(q, p, z), sys.n).tolist()
    Hq, Hz, ps = _typed(dH_dq(q, p, z), sys.n).tolist(), _typed(dH_dz(q, p, z)), p.tolist()
    return Hp + [-a - b * Hz for a, b in zip(Hq, ps)] + [_fold(ps, Hp) - _typed(H(q, p, z))]


def herglotz_rhs(sys: SystemSpec, t: float, y: np.ndarray) -> np.ndarray:
    """Herglotz vector field on the flat phase vector y = [q, qdot, z] at t.

    Returns the flat derivative [qdot, qddot, zdot], where zdot = L and

        W qddot = dL/dq - c + (dL/dz) dL/dv,   c = (d2L/dq dv) qdot + (d2L/dz dv) L,

    with c the spec's ``drift``. Each partial is read once at the read-only
    views (q, qdot, z) of y, and one LU factorization of W gives both the
    regularity gate and the solve; no state is built. Raises DimensionMismatch
    on a vector of the wrong length, NonFiniteValue on a non-finite entry,
    and SingularHessian when W fails the gate. A natural form with a
    constant, regular mass M skips the solve: W = M, c = 0 and dL/dqdot =
    M qdot, so qddot = M^-1 dL/dq + (dL/dz) qdot with the SystemSpec's M^-1,
    behind one gate (``_one_gate``).
    """
    if sys._minv is not None:
        return _one_gate(sys, t, y, _natural_field)
    q, v, z = _phase_split(sys, t, y)
    n = sys.n
    out = np.empty(2 * n + 1)
    out[:n] = v
    dL_dq, dL_dv, dL_dz, W = (sys.grad_q(q, v, z), sys.grad_v(q, v, z), sys.grad_z(q, v, z),
                              sys.hess_vv(q, v, z))
    Lval = sys.value(q, v, z)
    out[n:2 * n] = _solve_regular(W, dL_dq - sys.drift(q, v, z, Lval) + dL_dz * dL_dv)
    out[2 * n] = Lval
    return out


def hamiltonian_rhs(sys: HamiltonianSpec, t: float, y: np.ndarray) -> np.ndarray:
    """Contact Hamiltonian vector field on the flat phase vector
    y = [q, p, z] at t.

    Returns the flat derivative [dH/dp, -dH/dq - p dH/dz, p . dH/dp - H],
    behind one gate (``_one_gate``). Raises DimensionMismatch on a vector of
    the wrong length and NonFiniteValue on a non-finite entry; builds no state.
    """
    return _one_gate(sys, t, y, _contact_field)


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


# The package's one sum of products, and the matrix-vector product written
# through it: no BLAS call, whose summation order depends on the CPU kernel.


def _fold(a: list, b: list) -> float:
    """``_dot``'s rule on two lists of Python floats."""
    products = map(mul, a, b)
    total = next(products)
    for product in products:
        total += product
    return total


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over axis 0 by one rule: the first product, then each next one added left
    to right. Two vectors give a float, two float64 ones by ``_fold`` on their Python
    floats, the same IEEE operations; at m states as columns, each column runs its point
    call's IEEE operations, at every length and in any memory layout."""
    if a.ndim == 1 and a.shape == b.shape and a.dtype is _F64 is b.dtype:
        return _fold(a.tolist(), b.tolist())
    terms = a * b
    total = terms[0]
    for i in range(1, len(terms)):
        total = total + terms[i]
    return total if total.ndim else float(total)


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x at one vector x, or at each column of x: entry i is ``_dot`` of row i
    of M with x, M[i, 0] x[0] + M[i, 1] x[1] + ... left to right, by ``_fold``
    at one float64 vector."""
    if x.ndim == 1 and M.shape[1:] == x.shape and M.dtype is _F64 is x.dtype:
        xs = x.tolist()
        return np.array([_fold(row, xs) for row in M.tolist()])
    return _dot(M.T if x.ndim == 1 else M.T[:, :, None], x[:, None])


def _kinetic(M: np.ndarray, x: np.ndarray):
    """1/2 x . M x at one vector x, as a float, or at each column of x."""
    if x.ndim == 1 and M.shape[1:] == x.shape and M.dtype is _F64 is x.dtype:
        xs = x.tolist()
        return 0.5 * _fold(xs, [_fold(row, xs) for row in M.tolist()])
    return 0.5 * _dot(x, _matvec(M, x))


def hamiltonian_from_lagrangian(sys: SystemSpec) -> HamiltonianSpec:
    """Build the dual contact Hamiltonian H = E_L after Legendre inversion.

    The partials use the exact transform identities dH/dp = qdot,
    dH/dq = -dL/dq and dH/dz = -dL/dz, each evaluated at the velocity
    that the array-level Legendre inversion recovers; no state is built.
    Natural-form systems with constant mass and a supplied potential
    gradient get fully closed-form evaluators; with a constant mass H, dH/dp
    and dH/dz take columns, which the Hamiltonian's ``natural`` says.
    """
    nat = sys.natural
    if nat is not None and nat.constant_mass:
        Minv = sys._minv
        if Minv is None:
            raise SingularMassMatrix("constant mass matrix is singular or not finite")
        gamma = nat.gamma

        def H(q, p, z):
            return _kinetic(Minv, p) + nat.potential_value(q) + gamma * z

        return HamiltonianSpec(
            n=sys.n,
            hamiltonian=H,
            dH_dq=lambda q, p, z: nat.potential_gradient(q),
            dH_dp=lambda q, p, z: _matvec(Minv, p),
            dH_dz=lambda q, p, z: gamma if type(z) is float else np.full(np.shape(z), gamma),
            natural=nat,
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

    Every partial is closed-form except the cross partials, which the
    SystemSpec differences from dL/dqdot = M(q) qdot (the field's drift along
    the flow, 2 calls), and for a configuration-dependent mass dL/dq, which
    differences 1/2 qdot^T M(q) qdot alone. The potential gradient is the
    supplied one, else central differences of V. L, dL/dqdot and dL/dz take
    columns with a constant mass.
    """
    nat = NaturalForm(mass=mass, gamma=gamma, potential=potential,
                      grad_potential=grad_potential)

    def L(q, qdot, z):
        return _kinetic(nat.mass_matrix(q), qdot) - nat.potential_value(q) - gamma * z

    if nat.constant_mass:
        M0 = np.array(nat.mass_matrix(np.zeros(n)), dtype=float)
        if M0.shape != (n, n):
            raise DimensionMismatch(f"mass matrix has shape {M0.shape}, expected ({n}, {n})")
        mass_at = lambda q: M0
        dL_dq = lambda q, qdot, z: nat.potential_gradient(q, sign=-1.0)
    else:
        mass_at = nat.mass_matrix

        def dL_dq(q, qdot, z):
            return (_fd_jacobian(lambda qq: _kinetic(nat.mass_matrix(qq), qdot), q, 1)[0]
                    + nat.potential_gradient(q, sign=-1.0))

    return SystemSpec(
        n=n,
        lagrangian=L,
        dL_dq=dL_dq,
        dL_dv=lambda q, qdot, z: _matvec(mass_at(q), qdot),
        dL_dz=lambda q, qdot, z: -gamma if type(z) is float else np.full(np.shape(z), -gamma),
        d2L_dvdv=lambda q, qdot, z: mass_at(q),
        natural=nat,
    )

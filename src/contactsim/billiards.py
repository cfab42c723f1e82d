"""Built-in dissipative billiards and their closed-form solutions.

A free particle with linear drag inside a hard boundary: the Lagrangian
is L = 1/2 m |qdot|^2 - gamma z, so between impacts

    qddot = -gamma qdot,
    q(t)  = q0 + (v0 / gamma)(1 - e^(-gamma t)),
    v(t)  = v0 e^(-gamma t),

and the path is a straight ray whose speed decays. The impact map is the
specular reflection selected by tangential-momentum and energy
continuity. Everything here is exposed twice: as ready-to-run
HybridSystem builders and as standalone closed-form evaluators that the
test suite uses as independent oracles for the general machinery.

The action closed form deserves a note: integrating zdot = L along the
decaying velocity gives

    z(t) = (E0 / gamma) e^(-gamma t) - (T0 / gamma) e^(-2 gamma t),

with T0 the initial kinetic energy and E0 = T0 + gamma z0 the initial
energy. This is the unique solution consistent with E = T + gamma z and
dE/dt = -gamma E; it is implemented in expm1 form so the gamma -> 0
limit is seamless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import natural_lagrangian_system
from .hybrid import HybridSystem
from .impact import SwitchingSurface

__all__ = [
    "Circle",
    "Ellipse",
    "BilliardSpec",
    "make_circular_billiard",
    "make_elliptical_billiard",
    "free_particle_closed_form",
    "circular_impact_closed_form",
    "elliptical_impact_closed_form",
    "angular_momentum",
]

# Kept apart from impact's own tolerance: the oracles share nothing with the solver.
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Circle:
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"semiaxes must be > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class BilliardSpec:
    """Planar billiard: boundary geometry, drag coefficient, particle mass."""

    boundary: Union[Circle, Ellipse]
    gamma: float = 0.0
    mass: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be > 0, got {self.mass}")


def _billiard(spec: BilliardSpec, A: np.ndarray, c: float) -> HybridSystem:
    """The free particle with drag inside the quadric wall h(q) = c + q . A q >= 0."""
    sys = natural_lagrangian_system(n=2, mass=spec.mass * np.eye(2), gamma=spec.gamma)
    return HybridSystem(dynamics=sys, surface=SwitchingSurface(quadric=(A, np.zeros(2), c)))


def make_circular_billiard(spec: BilliardSpec) -> HybridSystem:
    """Hybrid system for the disk |q| <= radius with linear drag.

    h(q) = r^2 - x^2 - y^2, the quadric (-I, 0, r^2); natural-form dynamics
    with constant mass matrix and zero potential; closed-form resolver.
    """
    if not isinstance(spec.boundary, Circle):
        raise ValueError("make_circular_billiard needs a Circle boundary")
    return _billiard(spec, -np.eye(2), spec.boundary.radius ** 2)


def make_elliptical_billiard(spec: BilliardSpec) -> HybridSystem:
    """Hybrid system for the ellipse (x/a)^2 + (y/b)^2 <= 1 with linear drag:
    h(q) = 1 - x^2/a^2 - y^2/b^2, the quadric (-diag(1/a^2, 1/b^2), 0, 1)."""
    if not isinstance(spec.boundary, Ellipse):
        raise ValueError("make_elliptical_billiard needs an Ellipse boundary")
    return _billiard(spec, -np.diag([1.0 / spec.boundary.a ** 2, 1.0 / spec.boundary.b ** 2]),
                     1.0)


def _phi(u: float) -> float:
    """(1 - e^(-u)) / u, returning 1 at u = 0; accurate for tiny u."""
    if u == 0.0:
        return 1.0
    return -math.expm1(-u) / u


def free_particle_closed_form(gamma: float, q0, v0, e0: float, t,
                              mass: float = 1.0, z0: float = None):
    """Analytic between-impact solution of the damped free particle.

    Returns (q(t), v(t), z(t)) for finite scalar or array t. For gamma > 0 the
    initial action is recovered from the energy as z0 = (E0 - T0)/gamma;
    for gamma = 0 the energy no longer determines it, z0 (default 0) is
    used directly, and the formulas reduce to q0 + v0 t, v0 and z0 + T0 t
    bit for bit: the decay is exactly 1 and the stretch exactly t.
    """
    if not gamma >= 0.0:
        raise ValueError("gamma must be >= 0")
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    t = np.asarray(t, dtype=float)
    kinetic0 = 0.5 * mass * float(v0 @ v0)
    if z0 is None:
        z0 = (float(e0) - kinetic0) / gamma if gamma > 0.0 else 0.0
    decay = np.exp(-gamma * t)
    stretch = np.vectorize(_phi)(gamma * t) * t     # (1 - e^(-gamma t)) / gamma
    q = q0 + np.multiply.outer(stretch, v0)
    v = np.multiply.outer(decay, v0)
    z = decay * (float(z0) + kinetic0 * stretch)
    return q, v, z


def circular_impact_closed_form(x: float, y: float,
                                vx_minus: float, vy_minus: float):
    """Specular reflection on the unit circle, written as the rational map

        vx+ = (-vx x^2 + vx y^2 - 2 vy x y) / (x^2 + y^2)
        vy+ = (-2 vx x y + vy x^2 - vy y^2) / (x^2 + y^2).

    Pure oracle: evaluated verbatim, no solver machinery involved.
    """
    r2 = x * x + y * y
    if not abs(r2 - 1.0) <= _BOUNDARY_TOL:
        raise ValueError(f"point is off the unit circle: x^2+y^2 = {r2}")
    vx_plus = (-vx_minus * x * x + vx_minus * y * y - 2.0 * vy_minus * x * y) / r2
    vy_plus = (-2.0 * vx_minus * x * y + vy_minus * x * x - vy_minus * y * y) / r2
    return vx_plus, vy_plus


def elliptical_impact_closed_form(a: float, b: float, x: float, y: float,
                                  vx_minus: float, vy_minus: float):
    """Specular reflection on the ellipse (x/a)^2 + (y/b)^2 = 1:

        vx+ = (a^4 vx y^2 - 2 a^2 b^2 vy x y - b^4 vx x^2) / (a^4 y^2 + b^4 x^2)
        vy+ = (-a^4 vy y^2 - 2 a^2 b^2 vx x y + b^4 vy x^2) / (a^4 y^2 + b^4 x^2).

    Reduces to the circular map at a = b = 1.
    """
    lhs = (x / a) ** 2 + (y / b) ** 2
    if not abs(lhs - 1.0) <= _BOUNDARY_TOL:
        raise ValueError(f"point is off the ellipse: (x/a)^2+(y/b)^2 = {lhs}")
    a4 = a ** 4
    b4 = b ** 4
    den = a4 * y * y + b4 * x * x
    vx_plus = (a4 * vx_minus * y * y - 2.0 * a * a * b * b * vy_minus * x * y
               - b4 * vx_minus * x * x) / den
    vy_plus = (-a4 * vy_minus * y * y - 2.0 * a * a * b * b * vx_minus * x * y
               + b4 * vy_minus * x * x) / den
    return vx_plus, vy_plus


def angular_momentum(q: np.ndarray, qdot: np.ndarray, z: float = 0.0) -> float:
    """x vy - y vx at (q, qdot, z), the Cartesian form of r^2 thetadot; z is
    unused, and taken so that this is a monitored quantity as it stands: a
    float at one state, shape (m,) at m states as the columns of q and qdot.

    For the circular billiard this decays as e^(-gamma t) along the flow
    and is continuous across impacts, making it a dissipated quantity in
    the same sense as the energy. Evaluated in Cartesian form to avoid
    the polar chart's singularity at the origin.
    """
    if len(q) != 2:
        raise ValueError(f"angular momentum needs a planar state, got n={len(q)}")
    ell = q[0] * qdot[1] - q[1] * qdot[0]
    return float(ell) if np.ndim(ell) == 0 else ell

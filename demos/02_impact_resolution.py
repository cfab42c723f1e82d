"""Impact resolution: continuity conditions vs the closed-form maps.

The post-impact velocity is fixed by keeping tangential momentum and
energy continuous at the boundary point, which for a quadratic kinetic
energy is exactly the specular reflection. We resolve a few impacts with
the closed-form (natural) resolver and the general Newton resolver and
compare against the rational reflection formulas, then show the Newton
path handling a genuinely non-quadratic Lagrangian.
"""

import numpy as np

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    Ellipse,
    SystemSpec,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    make_circular_billiard,
    make_elliptical_billiard,
    resolve_impact_natural,
    resolve_impact_newton,
)

def fmt(pair):
    return f"({pair[0]:.12g}, {pair[1]:.12g})"


circle = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
res = resolve_impact_natural(circle.dynamics, s, circle.surface)
oracle = circular_impact_closed_form(1.0, 0.0, 1.0, 0.5)
print("unit circle at (1, 0), incoming v = (1, 0.5):")
print(f"  resolver:    v+ = {fmt(res.state_plus.qdot)}  (lambda = {res.lam:.3f})")
print(f"  closed form: v+ = {fmt(oracle)}")
print(f"  residuals (tangential, energy) = ({res.residual_tangential}, {res.residual_energy})")

a, b = 0.9, 1.1
ellipse = make_elliptical_billiard(BilliardSpec(boundary=Ellipse(a, b), gamma=1e-4))
s = ContactStateL(q=[a, 0.0], qdot=[1.0, 0.7], z=0.0)
res = resolve_impact_natural(ellipse.dynamics, s, ellipse.surface)
oracle = elliptical_impact_closed_form(a, b, a, 0.0, 1.0, 0.7)
print(f"\nellipse vertex ({a}, 0), incoming v = (1, 0.7):")
print(f"  resolver:    v+ = {fmt(res.state_plus.qdot)}")
print(f"  closed form: v+ = {fmt(oracle)}   (x flips, y passes through)")

# involution: reflecting the reversed outgoing velocity recovers the input
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(100):
    phi = rng.uniform(0, 2 * np.pi)
    q = np.array([np.cos(phi), np.sin(phi)])
    v = rng.uniform(-2, 2, 2)
    if circle.surface.gradient(q) @ v >= -1e-6:
        continue
    v1 = circular_impact_closed_form(q[0], q[1], v[0], v[1])
    v2 = circular_impact_closed_form(q[0], q[1], v1[0], v1[1])
    worst = max(worst, abs(v2[0] - v[0]), abs(v2[1] - v[1]))
print(f"\ninvolution of the reflection map over random states: {worst:.3e}")

# a non-quadratic kinetic energy: only the Newton path applies
eps = 0.2
quartic = SystemSpec(
    n=2,
    lagrangian=lambda q, v, z: 0.5 * float(v @ v) + 0.25 * eps * float(v @ v) ** 2,
    dL_dq=lambda q, v, z: np.zeros(2),
    dL_dv=lambda q, v, z: v * (1.0 + eps * float(v @ v)),
    dL_dz=lambda q, v, z: 0.0,
    d2L_dvdv=lambda q, v, z: (1.0 + eps * float(v @ v)) * np.eye(2)
    + 2.0 * eps * np.outer(v, v),
    d2L_dqdv=lambda q, v, z: np.zeros((2, 2)),
    d2L_dzdv=lambda q, v, z: np.zeros(2),
)
s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
res = resolve_impact_newton(quartic, s, circle.surface)
print(f"\nquartic kinetic energy, same geometry:")
print(f"  Newton resolver: v+ = {fmt(res.state_plus.qdot)}")
print(f"  residuals (tangential, energy) = ({res.residual_tangential}, {res.residual_energy})")
print("  isotropic kinetic energy keeps momentum parallel to velocity, so")
print("  the continuity conditions still land on the specular reflection")

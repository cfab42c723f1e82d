"""The dual contact Hamiltonian picture, connected by the Legendre transform.

H = E_L after inverting p = dL/dqdot gives H = |p|^2 / (2m) + gamma z for
the billiard, with flow qdot = dH/dp, pdot = -dH/dq - p dH/dz and
zdot = p . dH/dp - H, and momentum-side impacts p+ = p- + lambda grad h.
Simulating the same billiard in both charts (mass 1.7, so the charts are
numerically distinct) must give the same configuration path.
"""

import numpy as np

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    HybridSystem,
    hamiltonian_from_lagrangian,
    hamiltonian_rhs,
    legendre_forward,
    make_circular_billiard,
    simulate,
)

hs_l = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4,
                                           mass=1.7))
hsys = hamiltonian_from_lagrangian(hs_l.dynamics)

s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
sh0 = legendre_forward(hs_l.dynamics, s0)
print(f"Legendre transform of v = (1, 1) at mass 1.7: "
      f"p = ({sh0.p[0]:.6g}, {sh0.p[1]:.6g})")
d = hamiltonian_rhs(hsys, sh0.t, sh0.as_vector())
qdot, pdot, zdot = d[:2], d[2:4], d[4]
print(f"contact field at the start: qdot = ({qdot[0]:.6g}, {qdot[1]:.6g}), "
      f"pdot = ({pdot[0]:.6g}, {pdot[1]:.6g}), zdot = {zdot:.6f}")

lag = simulate(hs_l, s0, 14.0)
hs_h = HybridSystem(dynamics=hsys, surface=hs_l.surface)
ham = simulate(hs_h, sh0, 14.0)
print(f"\nLagrangian run:  {len(lag.events)} impacts")
print(f"Hamiltonian run: {len(ham.events)} impacts")

worst = 0.0
for t in np.linspace(0.0, 14.0, 400):
    q_l = lag.state_at(float(t))[:2]
    q_h = ham.state_at(float(t))[:2]
    worst = max(worst, float(np.max(np.abs(q_l - q_h))))
print(f"max |q_L(t) - q_H(t)| over the run: {worst:.3e}  (tolerance 1e-7)")

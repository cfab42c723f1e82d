"""Smooth dissipative flow: integrator vs the analytic damped free flight.

A particle with Lagrangian L = |v|^2/2 - gamma z obeys qddot = -gamma qdot
between impacts, so position, velocity, and accumulated action all have
closed forms. Here we integrate the flow numerically (no boundary in
reach) and print the worst deviation from those formulas, plus the two
decay laws the dynamics must respect: E(t) = E0 e^(-gamma t) for the
energy and the matching law for the angular quantity x vy - y vx.
"""

import numpy as np

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    angular_momentum,
    free_particle_closed_form,
    lagrangian_energy,
    make_circular_billiard,
    simulate,
)

GAMMA = 1e-4
Q0 = np.array([0.5, 0.0])
V0 = np.array([1.0, 1.0])

# wall far away: pure smooth flow over t in [0, 5]
hs = make_circular_billiard(BilliardSpec(boundary=Circle(100.0), gamma=GAMMA))
s0 = ContactStateL(q=Q0, qdot=V0, z=0.0)
traj = simulate(hs, s0, 5.0)

times = np.linspace(0.0, 5.0, 101)
worst_q = worst_v = worst_z = worst_E = worst_l = 0.0
E0 = lagrangian_energy(hs.dynamics, s0)
l0 = angular_momentum(*s0.phase)
for t in times:
    y = traj.state_at(float(t))
    s = ContactStateL.from_vector(y, t)
    q_ref, v_ref, z_ref = free_particle_closed_form(GAMMA, Q0, V0, E0, float(t))
    worst_q = max(worst_q, float(np.max(np.abs(s.q - q_ref))))
    worst_v = max(worst_v, float(np.max(np.abs(s.qdot - v_ref))))
    worst_z = max(worst_z, abs(s.z - float(z_ref)))
    worst_E = max(worst_E, abs(lagrangian_energy(hs.dynamics, s)
                               - E0 * np.exp(-GAMMA * t)))
    worst_l = max(worst_l, abs(angular_momentum(*s.phase) - l0 * np.exp(-GAMMA * t)))

print(f"damped free flight, gamma = {GAMMA}, t in [0, 5]")
print(f"  max |q - closed form|   = {worst_q:.3e}")
print(f"  max |v - closed form|   = {worst_v:.3e}")
print(f"  max |z - closed form|   = {worst_z:.3e}")
print(f"  max |E - E0 e^(-gt)|    = {worst_E:.3e}")
print(f"  max |ell - ell0 e^(-gt)| = {worst_l:.3e}")
print("all five should sit at roundoff level, far below 1e-8")

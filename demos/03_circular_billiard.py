"""The dissipative circular billiard: full hybrid run with artifacts.

Reproduces the reference configuration (gamma = 1e-4, start (0.5, 0)
with velocity (1, 1)) to t = 20. The path is a polygon of chords whose
geometry matches the conservative billiard; dissipation shows up in the
decaying speed, energy, and angular quantity. Writes the trajectory CSV
and an SVG of the chords into demos/output/.
"""

import math
import os

import numpy as np

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    angular_momentum,
    make_circular_billiard,
    sample,
    simulate,
)
from contactsim.io import write_svg, write_trajectory_csv

GAMMA = 1e-4
OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=GAMMA))
s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
traj = simulate(hs, s0, 20.0)

print(f"status {traj.status}, {len(traj.events)} impacts in t in [0, 20]")
print("first five impacts:")
print("     t_i      x       y      |v-|     lambda")
for e in traj.events[:5]:
    speed = float(np.linalg.norm(e.state_minus.qdot))
    print(f"  {e.t:8.4f}  {e.q[0]:6.3f}  {e.q[1]:6.3f}  {speed:7.5f}  {e.lam:8.5f}")

E0, l0 = 1.0, 0.5
worst_E = worst_l = 0.0
times = np.linspace(0.0, 20.0, 800)
table = sample(traj, times)
# each row is the phase vector [q, qdot, z]; the energy and the angular
# quantity are functions of (q, qdot, z), read from the row without a state
rows = [(y[:2], y[2:4], float(y[4])) for y in table.states]
energies = [hs.dynamics.energy(*row) for row in rows]
ells = [angular_momentum(*row) for row in rows]
for t, E, ell in zip(table.times.tolist(), energies, ells):
    decay = math.exp(-GAMMA * t)
    worst_E = max(worst_E, abs(E - E0 * decay))
    worst_l = max(worst_l, abs(ell - l0 * decay))
print(f"\nenergy law deviation:          {worst_E:.3e}   (tolerance 1e-7)")
print(f"angular quantity law deviation: {worst_l:.3e}   (tolerance 1e-7)")

write_trajectory_csv(os.path.join(OUT, "circle_trajectory.csv"),
                     table.times, table.states, table.flags, energies, ells, "lagrangian")
write_svg(os.path.join(OUT, "circle_trajectory.svg"), ("circle", 1.0),
          table.states[:, :2])
print(f"\nwrote {OUT}/circle_trajectory.csv and .svg")

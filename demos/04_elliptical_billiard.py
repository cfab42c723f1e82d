"""The dissipative elliptical billiard (a = 0.9, b = 1.1).

Same dynamics as the circular case but the boundary normal now depends
on the semiaxes, so angular momentum is no longer a dissipated quantity;
only the energy law survives. The impact conditions still hold exactly
at every bounce. Writes an SVG of the chords into demos/output/.
"""

import math
import os

import numpy as np

from contactsim import (
    BilliardSpec,
    ContactStateL,
    Ellipse,
    check_impact_conditions,
    lagrangian_energy,
    make_elliptical_billiard,
    sample,
    simulate,
)
from contactsim.io import write_svg

GAMMA = 1e-4
OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

hs = make_elliptical_billiard(BilliardSpec(boundary=Ellipse(0.9, 1.1), gamma=GAMMA))
s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.2], z=0.0)
traj = simulate(hs, s0, 20.0)
print(f"status {traj.status}, {len(traj.events)} impacts")

worst_resid = 0.0
for e in traj.events:
    rep = check_impact_conditions(e, hs.dynamics, hs.surface)
    worst_resid = max(worst_resid, rep.max_violation)
print(f"worst recomputed impact residual: {worst_resid:.3e}  (tolerance 1e-10)")

E0 = lagrangian_energy(hs.dynamics, s0)
times = np.linspace(0.0, 20.0, 800)
table = sample(traj, times)
worst_E = 0.0
for k in range(table.times.size):
    s = ContactStateL.from_vector(table.states[k], table.times[k])
    ref = E0 * math.exp(-GAMMA * table.times[k])
    worst_E = max(worst_E, abs(lagrangian_energy(hs.dynamics, s) - ref))
print(f"energy law deviation:             {worst_E:.3e}  (tolerance 1e-7)")

write_svg(os.path.join(OUT, "ellipse_trajectory.svg"), ("ellipse", 0.9, 1.1),
          table.states[:, :2])
print(f"wrote {OUT}/ellipse_trajectory.svg")

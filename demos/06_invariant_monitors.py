"""Invariant monitors: the checks certify runs and catch tampered ones.

Every monitor recomputes its quantities from raw states, so a resolver
cannot certify its own output. We run the reference billiard, print the
check reports, then rerun with a resolver that secretly perturbs one
post-impact velocity by 1e-3 and show both the energy law and the impact
conditions flag it.
"""

import dataclasses

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    HybridSystem,
    angular_momentum,
    check_dissipated_quantity,
    check_energy_decay,
    check_impact_conditions,
    make_circular_billiard,
    resolve_impact_natural,
    simulate,
)


def show(rep):
    mark = "pass" if rep.passed else "FAIL"
    print(f"  [{mark}] {rep.name}: max violation {rep.max_violation:.3e} "
          f"(tol {rep.tolerance:.1e})")


hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
traj = simulate(hs, s0, 20.0)

print("clean run:")
show(check_energy_decay(traj, hs.dynamics))
# a monitored quantity is any function of the phase point (q, qdot, z)
show(check_dissipated_quantity(traj, angular_momentum, hs.dynamics,
                               name="angular_quantity_decay"))
worst = max((check_impact_conditions(e, hs.dynamics, hs.surface)
             for e in traj.events), key=lambda r: r.max_violation)
show(worst)

# now sabotage the third impact and watch both monitors object
counter = {"i": 0}


def tampered(dynamics, s_minus, surface):
    res = resolve_impact_natural(dynamics, s_minus, surface)
    if counter["i"] == 2:
        v = res.state_plus.qdot.copy()
        v[0] += 1e-3
        res = dataclasses.replace(
            res, state_plus=ContactStateL(q=res.state_plus.q, qdot=v,
                                          z=res.state_plus.z, t=res.state_plus.t))
    counter["i"] += 1
    return res


bad_hs = HybridSystem(dynamics=hs.dynamics, surface=hs.surface, resolver=tampered)
bad = simulate(bad_hs, s0, 10.0)
print("\ntampered run (post-impact velocity nudged by 1e-3 at impact #3):")
show(check_energy_decay(bad, hs.dynamics))
show(check_impact_conditions(bad.events[2], hs.dynamics, hs.surface))
print("both must FAIL: the monitors are independent of the resolver")

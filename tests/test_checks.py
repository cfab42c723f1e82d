import dataclasses

import numpy as np
import pytest

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    EventConfig,
    HybridSystem,
    ImpactEvent,
    ImpactResult,
    NonFiniteValue,
    StepperConfig,
    check_contact_identities,
    check_dissipated_quantity,
    check_energy_decay,
    check_impact_conditions,
    hamiltonian_from_lagrangian,
    legendre_forward,
    make_circular_billiard,
    natural_lagrangian_system,
    resolve_impact_natural,
    simulate,
)
from contactsim.billiards import angular_momentum
from contactsim.checks import CheckReport
from contactsim.impact import SwitchingSurface


def tampered_circle(base, delta=1e-3, at_event=2):
    """Circle billiard whose resolver perturbs one post-impact velocity."""
    counter = {"i": 0}

    def resolver(dynamics, s_minus, surface):
        res = resolve_impact_natural(dynamics, s_minus, surface)
        if counter["i"] == at_event:
            v = res.state_plus.qdot.copy()
            v[0] += delta
            res = ImpactResult(
                state_plus=ContactStateL(q=res.state_plus.q, qdot=v,
                                         z=res.state_plus.z, t=res.state_plus.t),
                lam=res.lam,
                residual_tangential=res.residual_tangential,
                residual_energy=res.residual_energy)
        counter["i"] += 1
        return res

    return HybridSystem(dynamics=base.dynamics, surface=base.surface,
                        resolver=resolver)


class TestCheckReport:
    def test_pass_flag_matches_tolerance(self):
        assert CheckReport(name="x", max_violation=1e-9, tolerance=1e-7).passed
        assert not CheckReport(name="x", max_violation=1e-5, tolerance=1e-7).passed

    def test_serialization(self):
        d = CheckReport(name="x", max_violation=0.5, tolerance=1.0,
                        location=2.0).to_dict()
        assert d == {"name": "x", "max_violation": 0.5, "tolerance": 1.0,
                     "location": 2.0, "passed": True}


class TestEnergyDecay:
    def test_reference_run_passes(self, fig1_trajectory, circle_billiard):
        rep = check_energy_decay(fig1_trajectory, circle_billiard.dynamics, 1e-7)
        assert rep.passed
        assert rep.name == "energy_decay"

    def test_conservative_run_is_flat(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=0.0))
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(hs, s0, 10.0, StepperConfig(), EventConfig())
        rep = check_energy_decay(traj, hs.dynamics, 1e-9)
        assert rep.passed

    def test_perturbed_impact_fails(self, circle_billiard):
        hs = tampered_circle(circle_billiard)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(hs, s0, 10.0, StepperConfig(), EventConfig())
        rep = check_energy_decay(traj, circle_billiard.dynamics, 1e-7)
        assert not rep.passed
        assert rep.max_violation > 1e-4
        # the worst violation sits at or after the tampered event
        assert rep.location >= traj.events[2].t

    def test_empty_trajectory_rejected(self, circle_billiard):
        from contactsim.hybrid import HybridTrajectory
        empty = HybridTrajectory(formulation="lagrangian", n=2)
        with pytest.raises(ValueError):
            check_energy_decay(empty, circle_billiard.dynamics)


class TestDissipatedQuantity:
    def test_angular_quantity_passes(self, fig1_trajectory, circle_billiard):
        rep = check_dissipated_quantity(fig1_trajectory, angular_momentum,
                                        circle_billiard.dynamics, 1e-7)
        assert rep.passed

    def test_energy_as_quantity_reproduces_energy_check(self, fig1_trajectory,
                                                        circle_billiard):
        from contactsim import lagrangian_energy

        rep_e = check_energy_decay(fig1_trajectory, circle_billiard.dynamics, 1e-7)
        rep_f = check_dissipated_quantity(
            fig1_trajectory, lambda s: lagrangian_energy(circle_billiard.dynamics, s),
            circle_billiard.dynamics, 1e-7)
        assert rep_f.max_violation == rep_e.max_violation
        assert rep_f.location == rep_e.location

    def test_zero_function_passes_vacuously(self, fig1_trajectory, circle_billiard):
        rep = check_dissipated_quantity(fig1_trajectory, lambda s: 0.0,
                                        circle_billiard.dynamics, 1e-7)
        assert rep.passed and rep.max_violation == 0.0


class TestNonFiniteFlowValues:
    """A NaN value or rate fails the flow-law check instead of being skipped."""

    @staticmethod
    def short_run(formulation):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-3))
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        if formulation == "hamiltonian":
            s0 = legendre_forward(hs.dynamics, s0)
            hs = HybridSystem(dynamics=hamiltonian_from_lagrangian(hs.dynamics),
                              surface=hs.surface, resolver="hamiltonian")
        return hs, simulate(hs, s0, 5.0)

    def test_nan_value_fails_at_first_nan_node(self):
        hs, traj = self.short_run("lagrangian")
        rep = check_dissipated_quantity(
            traj, lambda s: float("nan") if s.t > 2.0 else angular_momentum(s),
            hs.dynamics)
        assert not rep.passed and rep.max_violation == np.inf
        assert 2.0 < rep.location < 2.2

    def test_nan_rate_fails_at_first_nan_node(self):
        # the rate accessor rejects a NaN dH/dz, as it does a NaN dL/dz
        hs, traj = self.short_run("hamiltonian")
        sys = dataclasses.replace(
            hs.dynamics, dH_dz=lambda q, p, z: float("nan") if z > 2.0 else 1e-3)
        with pytest.raises(NonFiniteValue, match="dH_dz"):
            check_energy_decay(traj, sys)


class TestImpactConditions:
    def test_resolver_output_passes(self, fig1_trajectory, circle_billiard):
        for e in fig1_trajectory.events:
            rep = check_impact_conditions(e, circle_billiard.dynamics,
                                          circle_billiard.surface, 1e-10)
            assert rep.passed

    def test_hand_built_inelastic_event_flagged(self, circle_billiard):
        q = np.array([1.0, 0.0])
        v_minus = np.array([1.0, 0.5])
        v_plus = 0.5 * np.array([-1.0, 0.5])   # reflected but slowed: inelastic
        e = ImpactEvent(index=0, t=1.0, q=q,
                        state_minus=ContactStateL(q=q, qdot=v_minus, z=0.0, t=1.0),
                        state_plus=ContactStateL(q=q, qdot=v_plus, z=0.0, t=1.0),
                        lam=0.0, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(e, circle_billiard.dynamics,
                                      circle_billiard.surface, 1e-10)
        assert not rep.passed
        assert rep.max_violation > 0.1

    def test_one_dimensional_tangential_is_vacuous(self):
        sys = natural_lagrangian_system(n=1, mass=np.eye(1), gamma=0.0)
        floor = SwitchingSurface(h=lambda q: q[0], grad_h=lambda q: np.array([1.0]))
        q = np.array([0.0])
        e = ImpactEvent(index=0, t=1.0, q=q,
                        state_minus=ContactStateL(q=q, qdot=[-2.0], z=0.0, t=1.0),
                        state_plus=ContactStateL(q=q, qdot=[2.0], z=0.0, t=1.0),
                        lam=4.0, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(e, sys, floor, 1e-10)
        assert rep.passed and rep.max_violation == 0.0

    def test_perturbed_post_velocity_fails(self, fig1_trajectory, circle_billiard):
        e = fig1_trajectory.events[0]
        v_bad = e.state_plus.qdot.copy()
        v_bad[0] += 1e-3
        bad = ImpactEvent(index=e.index, t=e.t, q=e.q, state_minus=e.state_minus,
                          state_plus=ContactStateL(q=e.q, qdot=v_bad,
                                                   z=e.state_plus.z, t=e.t),
                          lam=e.lam, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(bad, circle_billiard.dynamics,
                                      circle_billiard.surface, 1e-10)
        assert not rep.passed


class TestContactIdentities:
    def test_billiard_hamiltonian(self, circle_billiard):
        hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
        rng = np.random.default_rng(31)
        states = [ContactStateH(q=rng.uniform(-0.5, 0.5, 2),
                                p=rng.uniform(-2, 2, 2),
                                z=rng.uniform(-1, 1)) for _ in range(100)]
        rep = check_contact_identities(hsys, states, 1e-6)
        assert rep.passed

    def test_conservative_case(self):
        sys = natural_lagrangian_system(n=2, mass=np.eye(2), gamma=0.0)
        hsys = hamiltonian_from_lagrangian(sys)
        rng = np.random.default_rng(32)
        states = [ContactStateH(q=rng.uniform(-1, 1, 2), p=rng.uniform(-2, 2, 2),
                                z=0.0) for _ in range(50)]
        rep = check_contact_identities(hsys, states, 1e-6)
        assert rep.passed

    def test_potential_only_reduces_to_energy_conservation(self):
        sys = natural_lagrangian_system(
            n=2, mass=np.eye(2), gamma=0.0,
            potential=lambda q: float(q[0] ** 2 + 0.5 * q[1] ** 2),
            grad_potential=lambda q: np.array([2.0 * q[0], q[1]]))
        hsys = hamiltonian_from_lagrangian(sys)
        rng = np.random.default_rng(33)
        states = [ContactStateH(q=rng.uniform(-1, 1, 2), p=rng.uniform(-2, 2, 2),
                                z=rng.uniform(-1, 1)) for _ in range(50)]
        rep = check_contact_identities(hsys, states, 1e-6)
        assert rep.passed

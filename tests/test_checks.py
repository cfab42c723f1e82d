import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    HamiltonianSpec,
    HybridSystem,
    ImpactEvent,
    NonFiniteValue,
    StepperConfig,
    SystemSpec,
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
from contactsim import core, impact, integrate
from contactsim.billiards import angular_momentum
from contactsim.checks import (
    CONTAINMENT_TOL,
    CheckReport,
    check_containment,
    check_decay_laws,
    check_row_containment,
    check_row_decay_laws,
)
from contactsim.impact import SwitchingSurface, impact_residuals


def tampered_circle(base, delta=1e-3, at_event=2):
    """Circle billiard whose resolver perturbs one post-impact velocity."""
    counter = {"i": 0}

    def resolver(dynamics, s_minus, surface):
        res = resolve_impact_natural(dynamics, s_minus, surface)
        if counter["i"] == at_event:
            v = res.state_plus.qdot.copy()
            v[0] += delta
            res = dataclasses.replace(
                res, state_plus=ContactStateL(q=res.state_plus.q, qdot=v,
                                              z=res.state_plus.z, t=res.state_plus.t))
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
        rep = check_energy_decay(fig1_trajectory, circle_billiard.dynamics)
        assert rep.passed
        assert rep.name == "energy_decay"

    def test_conservative_run_is_flat(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=0.0))
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(hs, s0, 10.0, StepperConfig())
        rep = check_energy_decay(traj, hs.dynamics)
        assert rep.max_violation <= 1e-9

    def test_perturbed_impact_fails(self, circle_billiard):
        hs = tampered_circle(circle_billiard)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(hs, s0, 10.0, StepperConfig())
        rep = check_energy_decay(traj, circle_billiard.dynamics)
        assert not rep.passed
        assert rep.max_violation > 1e-4
        # the worst violation sits at or after the tampered event
        assert rep.location >= traj.events[2].t

    def test_tampered_dense_step_fails(self, circle_billiard):
        # one step's velocity block scaled by 1 + 1e-6 at its stored ends and
        # in its interpolant: the energy there is off by about 2e-6
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(circle_billiard, s0, 10.0, StepperConfig())
        assert check_energy_decay(traj, circle_billiard.dynamics).passed
        seg = traj.segments[3].segments[1]
        for name in ("y0", "y1", "_r2", "_r3", "_r4", "_r5"):
            getattr(seg, name)[2:4] *= 1.0 + 1e-6
        rep = check_energy_decay(traj, circle_billiard.dynamics)
        assert not rep.passed
        assert 1e-6 < rep.max_violation < 1e-5
        assert seg.t0 <= rep.location <= seg.t1

    def test_empty_trajectory_rejected(self, circle_billiard):
        from contactsim.hybrid import HybridTrajectory
        empty = HybridTrajectory(n=2)
        with pytest.raises(ValueError):
            check_energy_decay(empty, circle_billiard.dynamics)


class TestDissipatedQuantity:
    def test_angular_quantity_passes(self, fig1_trajectory, circle_billiard):
        rep = check_dissipated_quantity(fig1_trajectory, angular_momentum,
                                        circle_billiard.dynamics)
        assert rep.passed

    def test_energy_as_quantity_reproduces_energy_check(self, fig1_trajectory,
                                                        circle_billiard):
        from contactsim import lagrangian_energy

        rep_e = check_energy_decay(fig1_trajectory, circle_billiard.dynamics)
        rep_f = check_dissipated_quantity(
            fig1_trajectory,
            lambda q, v, z: lagrangian_energy(circle_billiard.dynamics, ContactStateL(q, v, z)),
            circle_billiard.dynamics)
        assert rep_f.max_violation == rep_e.max_violation
        assert rep_f.location == rep_e.location

    def test_zero_function_passes_vacuously(self, fig1_trajectory, circle_billiard):
        rep = check_dissipated_quantity(fig1_trajectory, lambda q, v, z: 0.0,
                                        circle_billiard.dynamics)
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
                              surface=hs.surface)
        return hs, simulate(hs, s0, 5.0)

    def test_nan_value_fails_at_first_nan_node(self):
        hs, traj = self.short_run("lagrangian")
        # z grows while L > 0, so z > z(2) first holds at the first node past t = 2
        z2 = traj.state_at(2.0)[-1]
        rep = check_dissipated_quantity(
            traj, lambda q, v, z: float("nan") if z > z2 else angular_momentum(q, v, z),
            hs.dynamics)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.location == next(t for t in node_times(traj) if t > 2.0)

    def test_nan_rate_fails_at_first_nan_node(self):
        # the rate accessor rejects a NaN dH/dz, as it does a NaN dL/dz
        hs, traj = self.short_run("hamiltonian")
        sys = dataclasses.replace(
            hs.dynamics, dH_dz=lambda q, p, z: float("nan") if z > 2.0 else 1e-3)
        with pytest.raises(NonFiniteValue, match="dH_dz"):
            check_energy_decay(traj, sys)


def step_nodes(seg):
    """A dense step's check nodes: its two ends and its midpoint."""
    return seg.t0, 0.5 * (seg.t0 + seg.t1), seg.t1


def node_times(traj):
    return [t for run in traj.segments for seg in run.segments for t in step_nodes(seg)]


def scalar_decay_law(traj, sys, f):
    """The decay law node by node: TrajectorySegment.eval at each dense
    step's nodes, one validated state per node, and a running sum of each step's
    Simpson integral, with the quadratic's integral up to its midpoint.
    The batched pass must reproduce it bit for bit."""
    worst, worst_t, f0, log_ref = 0.0, None, None, 0.0
    for run in traj.segments:
        for seg in run.segments:
            ts = step_nodes(seg)
            states = [sys.state_type.from_vector(run.eval(t), t) for t in ts]
            r0, rm, r1 = (sys.rate(*s.phase) for s in states)
            h = seg.t1 - seg.t0
            refs = (log_ref, log_ref + h / 24.0 * (5.0 * r0 + 8.0 * rm - r1),
                    log_ref + h / 6.0 * (r0 + 4.0 * rm + r1))
            for t, s, ref in zip(ts, states, refs):
                value = float(f(*s.phase))
                f0 = value if f0 is None else f0
                viol = abs(value - f0 * np.exp(ref)) / (abs(f0) if f0 != 0.0 else 1.0)
                if viol > worst:
                    worst, worst_t = viol, t
            log_ref = refs[2]
    return worst, worst_t


class TestOnePass:
    """All monitored quantities share one node pass over the trajectory."""

    @pytest.fixture(scope="class", params=["lagrangian", "hamiltonian"])
    def run(self, request):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-3))
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        if request.param == "hamiltonian":
            s0 = legendre_forward(hs.dynamics, s0)
            hs = HybridSystem(dynamics=hamiltonian_from_lagrangian(hs.dynamics),
                              surface=hs.surface)
        traj = simulate(hs, s0, 20.0)
        assert len(traj.events) >= 10
        return hs, traj

    def test_one_pass_equals_separate_calls(self, run, monkeypatch):
        hs, traj = run

        def solver_called(*args, **kwargs):
            raise AssertionError("a check called the solver path")

        # checks recompute from the stored trajectory, never through the solver
        for module, name in ((core, "herglotz_rhs"), (core, "hamiltonian_rhs"),
                             (impact, "resolve_impact_natural"),
                             (impact, "resolve_impact_newton"),
                             (impact, "resolve_impact_hamiltonian")):
            monkeypatch.setattr(module, name, solver_called)
        with pytest.raises(AssertionError, match="solver path"):
            hs.dynamics.vector_field(traj.t0, traj.segments[0].y0)

        def ell(q, x, z):
            v = hs.dynamics.velocity(q, x, z)
            return float(q[0] * v[1] - q[1] * v[0])

        both = check_decay_laws(traj, hs.dynamics, {"energy_decay": hs.dynamics.energy,
                                                    "angular_quantity_decay": ell})
        alone = [check_energy_decay(traj, hs.dynamics),
                 check_dissipated_quantity(traj, ell, hs.dynamics,
                                           name="angular_quantity_decay")]
        for one, sep, f in zip(both, alone, (hs.dynamics.energy, ell)):
            assert one.name == sep.name
            assert one.max_violation == sep.max_violation
            assert one.location == sep.location
            assert (one.max_violation, one.location) == scalar_decay_law(traj, hs.dynamics, f)

    def test_node_states_equal_segment_eval(self, run):
        # the rate sees every node's state: record them through dL/dz or dH/dz
        hs, traj = run
        seen = []
        name = "dL_dz" if hs.formulation == "lagrangian" else "dH_dz"
        rate = getattr(hs.dynamics, name)

        def recording(q, x, z):
            seen.append(np.concatenate([q, x, [z]]))
            return rate(q, x, z)

        spec = dataclasses.replace(hs.dynamics, **{name: recording})
        check_decay_laws(traj, spec, {"energy_decay": spec.energy})
        # each dense step's nodes include both of its ends, where eval returns
        # the stored end states rather than interpolant values; inside a flow
        # phase a step's start is the end of the step before and is seen once
        expected = [phase.eval(t) for phase in traj.segments
                    for k, seg in enumerate(phase.segments) for t in step_nodes(seg)[min(k, 1):]]
        steps = sum(len(phase.segments) for phase in traj.segments)
        assert len(expected) == 2 * steps + len(traj.segments)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)


def state_rate_billiard(gamma):
    """L = 1/2 |v|^2 - gamma (1 + |q|^2) z in the unit disc, so the rate
    dL/dz = -gamma (1 + |q|^2) changes along the flow."""
    spec = SystemSpec(
        n=2,
        lagrangian=lambda q, v, z: 0.5 * float(v @ v) - gamma * (1.0 + float(q @ q)) * z,
        dL_dq=lambda q, v, z: -2.0 * gamma * z * q,
        dL_dv=lambda q, v, z: np.array(v, dtype=float),
        dL_dz=lambda q, v, z: -gamma * (1.0 + float(q @ q)),
        d2L_dvdv=lambda q, v, z: np.eye(2),
        d2L_dqdv=lambda q, v, z: np.zeros((2, 2)),
        d2L_dzdv=lambda q, v, z: np.zeros(2),
    )
    surface = SwitchingSurface(h=lambda q: 1.0 - np.vecdot(q, q, axis=0),
                               grad_h=lambda q: -2.0 * q)
    return HybridSystem(dynamics=spec, surface=surface, resolver="newton")


class TestStateDependentRate:
    GAMMA = 0.01

    @pytest.fixture(scope="class")
    def run(self):
        hs = state_rate_billiard(self.GAMMA)
        traj = simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 20.0)
        assert traj.status == "Completed" and len(traj.events) >= 10
        return hs, traj

    def row_check(self, hs, traj, samples):
        """(row-law report, constant-gamma law) on sampled rows, impacts included."""
        times = np.unique(np.concatenate([np.linspace(traj.t0, traj.t_end, samples),
                                          [e.t for e in traj.events]]))
        table = traj.sample(times)
        E = np.array([hs.dynamics.energy(y[:2], y[2:4], float(y[4])) for y in table.states])
        report = check_row_decay_laws(hs.dynamics, table.times, table.states,
                                      {"energy_decay": E})[0]
        constant = np.exp(-self.GAMMA * (table.times - table.times[0]))
        return report, float(np.max(np.abs(E - E[0] * constant)) / abs(E[0]))

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2])
    def test_dense_check_passes(self, gamma):
        hs = state_rate_billiard(gamma)
        traj = simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 20.0)
        assert traj.status == "Completed"
        assert check_energy_decay(traj, hs.dynamics).passed

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(gamma=st.floats(0.0, 0.2), radius=st.floats(0.0, 0.9),
           angle=st.floats(0.0, 2.0 * np.pi), speed=st.floats(0.2, 3.0),
           heading=st.floats(0.0, 2.0 * np.pi))
    def test_dense_check_passes_on_random_runs(self, gamma, radius, angle, speed,
                                               heading):
        hs = state_rate_billiard(gamma)
        s0 = ContactStateL(q=radius * np.array([np.cos(angle), np.sin(angle)]),
                           qdot=speed * np.array([np.cos(heading), np.sin(heading)]),
                           z=0.0)
        traj = simulate(hs, s0, 10.0)
        assert traj.status == "Completed"
        rep = check_energy_decay(traj, hs.dynamics)
        assert rep.passed, rep

    def test_row_check_is_second_order(self, run):
        hs, traj = run
        coarse, constant_law = self.row_check(hs, traj, 1000)
        fine, _ = self.row_check(hs, traj, 4000)
        # the constant-gamma law misses the state-dependent rate by percents
        assert constant_law > 0.01
        assert coarse.max_violation < 1e-3 * constant_law
        # four times the rows, about 16 times smaller: the trapezoid's order
        assert 12.0 < coarse.max_violation / fine.max_violation < 20.0


DRAG = 0.05


def drag_hamiltonian(z_scale=1.0, q_slope=0.0, p_scale=1.0):
    """H = 1/2 |p|^2 + DRAG z with supplied partials: dH/dz scaled by
    z_scale, dH/dq = q_slope q (H has no q) and dH/dp scaled by p_scale.
    The defaults are the true partials."""
    return HamiltonianSpec(
        n=2, hamiltonian=lambda q, p, z: 0.5 * float(p @ p) + DRAG * z,
        dH_dq=lambda q, p, z: q_slope * q,
        dH_dp=lambda q, p, z: p_scale * p,
        dH_dz=lambda q, p, z: z_scale * DRAG)


class TestDecayLawCatchesInconsistentFields:
    """The energy decay law along a run fails when the field disagrees with
    H: supplied partials that are not H's, or a field whose q-block is not
    dH/dp while the energy reads q. Unit disc, from q = (0.3, 0.1) with
    p = (1, 0.5), to T = 10."""

    def run(self, hsys):
        hs = HybridSystem(dynamics=hsys, surface=SwitchingSurface(
            h=lambda q: 1.0 - np.vecdot(q, q, axis=0), grad_h=lambda q: -2.0 * q))
        traj = simulate(hs, ContactStateH(q=[0.3, 0.1], p=[1.0, 0.5], z=0.0), 10.0)
        assert traj.status == "Completed"
        return check_energy_decay(traj, hsys)

    def test_consistent_partials_pass(self):
        assert self.run(drag_hamiltonian()).passed

    @pytest.mark.parametrize("partials", [
        pytest.param({"z_scale": 1.01}, id="dH_dz-x1.01"),
        pytest.param({"q_slope": 1e-3}, id="dH_dq-1e-3q"),
        pytest.param({"p_scale": 1.001}, id="dH_dp-x1.001"),
    ])
    def test_supplied_partials_that_are_not_H_fail(self, partials):
        assert not self.run(drag_hamiltonian(**partials)).passed

    def test_q_block_off_dH_dp_fails_with_a_potential(self, monkeypatch):
        hsys = hamiltonian_from_lagrangian(natural_lagrangian_system(
            n=2, mass=np.eye(2), gamma=DRAG, potential=lambda q: float(q @ q),
            grad_potential=lambda q: 2.0 * q))
        rhs = core.hamiltonian_rhs

        def slowed(sys, t, y):
            out = rhs(sys, t, y)
            out[:sys.n] *= 1.0 - 1e-5
            return out

        monkeypatch.setattr(core, "hamiltonian_rhs", slowed)
        assert not self.run(hsys).passed


class TestImpactConditions:
    def test_resolver_output_passes(self, fig1_trajectory, circle_billiard):
        for e in fig1_trajectory.events:
            rep = check_impact_conditions(e, circle_billiard.dynamics,
                                          circle_billiard.surface)
            assert rep.passed

    def test_hand_built_inelastic_event_flagged(self, circle_billiard):
        q = np.array([1.0, 0.0])
        v_minus = np.array([1.0, 0.5])
        v_plus = 0.5 * np.array([-1.0, 0.5])   # reflected but slowed: inelastic
        e = ImpactEvent(state_minus=ContactStateL(q=q, qdot=v_minus, z=0.0, t=1.0),
                        state_plus=ContactStateL(q=q, qdot=v_plus, z=0.0, t=1.0),
                        lam=0.0, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(e, circle_billiard.dynamics,
                                      circle_billiard.surface)
        assert not rep.passed
        assert rep.max_violation > 0.1

    @staticmethod
    def _report(sys, surface, s_minus, s_plus):
        e = ImpactEvent(state_minus=s_minus, state_plus=s_plus, lam=0.0,
                        residual_tangential=0.0, residual_energy=0.0)
        return check_impact_conditions(e, sys, surface)

    def test_non_impacts_fail_although_their_residuals_vanish(self):
        # gamma = 0: a jump in z alone leaves the energy unchanged too
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0)))
        sys, surface = hs.dynamics, hs.surface
        q, v = np.array([0.6, 0.8]), np.array([1.0, 0.3])
        v_ref = v - 2.0 * (v @ q) * q   # the specular reflection, |q| = 1
        pre = ContactStateL(q=q, qdot=v, z=0.0, t=1.0)
        post = ContactStateL(q=q, qdot=v_ref, z=0.0, t=1.0)
        rep = self._report(sys, surface, pre, post)
        assert rep.passed
        assert rep.max_violation == max(impact_residuals(sys, surface, pre, post))
        moved = ContactStateL(q=1.01 * q, qdot=v, z=0.0, t=1.0)
        cases = {
            "identity reset": (pre, pre),
            "q jump keeping v": (pre, ContactStateL(q=[0.8, 0.6], qdot=v, z=0.0, t=1.0)),
            "q jump": (pre, ContactStateL(q=[0.8, 0.6], qdot=v_ref, z=0.0, t=1.0)),
            "z jump": (pre, ContactStateL(q=q, qdot=v_ref, z=1e-3, t=1.0)),
            "t jump": (pre, ContactStateL(q=q, qdot=v_ref, z=0.0, t=1.001)),
            "off the surface": (moved, ContactStateL(q=moved.q, qdot=v_ref, z=0.0, t=1.0)),
        }
        for name, (s_minus, s_plus) in cases.items():
            assert max(impact_residuals(sys, surface, s_minus, s_plus)) <= 1e-15, name
            assert not self._report(sys, surface, s_minus, s_plus).passed, name

    def test_identity_reset_fails_in_the_hamiltonian_formulation(self, circle_billiard):
        hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
        surface = circle_billiard.surface
        q, p = np.array([0.6, 0.8]), np.array([1.0, 0.3])
        pre = ContactStateH(q=q, p=p, z=0.0, t=1.0)
        assert impact_residuals(hsys, surface, pre, pre) == (0.0, 0.0)
        assert not self._report(hsys, surface, pre, pre).passed
        post = ContactStateH(q=q, p=p - 2.0 * (p @ q) * q, z=0.0, t=1.0)
        assert self._report(hsys, surface, pre, post).passed

    def test_one_dimensional_tangential_is_vacuous(self):
        sys = natural_lagrangian_system(n=1, mass=np.eye(1), gamma=0.0)
        floor = SwitchingSurface(h=lambda q: q[0], grad_h=lambda q: np.ones_like(q))
        q = np.array([0.0])
        e = ImpactEvent(state_minus=ContactStateL(q=q, qdot=[-2.0], z=0.0, t=1.0),
                        state_plus=ContactStateL(q=q, qdot=[2.0], z=0.0, t=1.0),
                        lam=4.0, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(e, sys, floor)
        assert rep.passed and rep.max_violation == 0.0

    def test_perturbed_post_velocity_fails(self, fig1_trajectory, circle_billiard):
        e = fig1_trajectory.events[0]
        v_bad = e.state_plus.qdot.copy()
        v_bad[0] += 1e-3
        bad = ImpactEvent(state_minus=e.state_minus,
                          state_plus=ContactStateL(q=e.q, qdot=v_bad,
                                                   z=e.state_plus.z, t=e.t),
                          lam=e.lam, residual_tangential=0.0, residual_energy=0.0)
        rep = check_impact_conditions(bad, circle_billiard.dynamics,
                                      circle_billiard.surface)
        assert not rep.passed



class TestContainment:
    """``check_containment`` minimizes h over every dense step, so an exit
    between the stored rows fails it."""

    def test_reference_run_is_contained(self, fig1_trajectory, circle_billiard):
        rep = check_containment(fig1_trajectory, circle_billiard.surface)
        assert rep.name == "containment" and rep.tolerance == CONTAINMENT_TOL
        assert rep.passed and rep.max_violation <= 1e-15

    def test_one_dense_step_pushed_outside_fails(self, fig1_trajectory, circle_billiard):
        traj = copy.deepcopy(fig1_trajectory)
        steps = [seg for run in traj.segments for seg in run.segments]
        seg = steps[len(steps) // 2]
        t_mid = 0.5 * (seg.t0 + seg.t1)
        q_mid = seg.eval(t_mid)[:2]
        # a bump of theta (1 - theta) along q: it vanishes at both knots, so
        # the step's stored ends and every row read there stay as they were
        seg._r3[:2] += 8.0 * q_mid / np.linalg.norm(q_mid)
        assert circle_billiard.surface.value(seg.eval(t_mid)[:2]) < -1.0
        knots = check_row_containment(circle_billiard.surface, [seg.t0, seg.t1],
                                      [seg.y0[:2], seg.y1[:2]])
        assert knots.passed
        rep = check_containment(traj, circle_billiard.surface)
        assert not rep.passed and rep.max_violation > 1.0
        assert seg.t0 < rep.location < seg.t1

    def test_tunnel_past_a_checkpoint_only_guard_is_found(self, monkeypatch):
        # the annulus run under a guard reduced to its 17 checkpoints crosses
        # the inner obstacle of radius 0.02 inside one step, 0.039 long
        def checkpoints_only(segment, surface, armed):
            ts = integrate._checkpoints(segment.t0, segment.t1)
            hs = [surface.value(y[:2]) for y in segment.eval_many(ts)]
            start = 0
            if not armed:
                above = [i for i, hv in enumerate(hs) if hv > integrate._ARM_THRESHOLD]
                if not above:
                    return None, False
                start = above[0]
            for i in range(max(start, 1), len(hs)):
                if hs[i - 1] > 0.0 >= hs[i]:
                    return (float(ts[i - 1]), float(ts[i])), True
            return None, True

        a2 = 0.02 ** 2
        surface = SwitchingSurface(
            h=lambda q: (np.vecdot(q, q, axis=0) - a2) * (1.0 - np.vecdot(q, q, axis=0)),
            grad_h=lambda q: 2.0 * q * ((1.0 - np.vecdot(q, q, axis=0))
                                        - (np.vecdot(q, q, axis=0) - a2)))
        hs = HybridSystem(dynamics=make_circular_billiard(
            BilliardSpec(boundary=Circle(1.0), gamma=1e-4)).dynamics, surface=surface)
        s0 = ContactStateL(q=[-0.9, 0.005], qdot=[1.0, 0.0], z=0.0)
        assert check_containment(simulate(hs, s0, 3.0), surface).passed
        monkeypatch.setattr(integrate, "_scan", checkpoints_only)
        rep = check_containment(simulate(hs, s0, 3.0), surface)
        # the path's deepest point in the obstacle: h = (0.005^2 - 0.02^2)(1 - 0.005^2)
        assert abs(rep.max_violation - 3.75e-4) <= 1e-8
        assert abs(rep.location - 0.9) <= 1e-3

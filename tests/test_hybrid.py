import dataclasses
import math
import os

import numpy as np
import pytest

from contactsim import (
    COMPLETED,
    EVENT_BUDGET_EXHAUSTED,
    GRAZING_STOP,
    ZENO_SUSPECTED,
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    DimensionMismatch,
    ExteriorState,
    HamiltonianSpec,
    HybridSystem,
    ImpactEvent,
    MaxStepsExceeded,
    NonFiniteValue,
    StepperConfig,
    SwitchingSurface,
    SystemSpec,
    TimeOutOfRange,
    angular_momentum,
    hamiltonian_from_lagrangian,
    lagrangian_energy,
    legendre_forward,
    make_circular_billiard,
    natural_lagrangian_system,
    sample,
    simulate,
)
from contactsim import cli, hybrid
from contactsim.checks import check_containment
from contactsim.io import write_trajectory_csv

GAMMA = 1e-4
GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "..", "demos", "output",
                          "circle_trajectory.csv")


def circle(gamma=GAMMA):
    return make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=gamma))


def quartic_spec(gamma=1e-3):
    """Non-natural L = |v|^2/2 + 0.025 |v|^4 - gamma z with analytic first
    partials; its impact law is "newton"."""
    def L(q, v, z):
        s = float(v @ v)
        return 0.5 * s + 0.025 * s * s - gamma * z

    return SystemSpec(n=2, lagrangian=L, dL_dq=lambda q, v, z: np.zeros(2),
                      dL_dv=lambda q, v, z: (1.0 + 0.1 * float(v @ v)) * v,
                      dL_dz=lambda q, v, z: -gamma)


def free_hamiltonian(gamma=1e-3):
    """H = |p|^2/2 + gamma z written directly, not derived from a Lagrangian;
    its impacts take the energy-root Newton path of the "hamiltonian" law."""
    return HamiltonianSpec(n=2, hamiltonian=lambda q, p, z: 0.5 * float(p @ p) + gamma * z,
                           dH_dq=lambda q, p, z: np.zeros(2), dH_dp=lambda q, p, z: p,
                           dH_dz=lambda q, p, z: gamma)


class TestDiameterBouncing:
    def test_period_four(self):
        hs = circle(gamma=0.0)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        traj = simulate(hs, s0, 9.0, StepperConfig())
        assert traj.status == COMPLETED
        ts = [e.t for e in traj.events]
        qs = [e.q for e in traj.events]
        assert abs(ts[0] - 0.5) < 1e-10
        assert np.allclose(qs[0], [1.0, 0.0], atol=1e-10)
        assert np.allclose(qs[1], [-1.0, 0.0], atol=1e-10)
        assert np.allclose(qs[2], [1.0, 0.0], atol=1e-10)
        # alternating ends of the diameter, full period 4
        assert abs((ts[2] - ts[0]) - 4.0) < 1e-8
        assert abs((ts[3] - ts[1]) - 4.0) < 1e-8

    def test_velocity_alternates_sign(self):
        hs = circle(gamma=0.0)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        traj = simulate(hs, s0, 9.0, StepperConfig())
        for e in traj.events:
            v_minus = e.state_minus.qdot
            v_plus = e.state_plus.qdot
            assert np.allclose(v_plus, -v_minus, atol=1e-12)


class TestReferenceRun:
    def test_completes_with_many_impacts(self, fig1_trajectory):
        assert fig1_trajectory.status == COMPLETED
        assert len(fig1_trajectory.events) >= 10
        assert fig1_trajectory.t_end == 20.0

    def test_energy_decay_across_impacts(self, fig1_trajectory, circle_billiard):
        traj = fig1_trajectory
        E0 = 1.0   # T0 = 1, z0 = 0
        times = np.linspace(traj.t0, traj.t_end, 500)
        table = sample(traj, times)
        for k in range(table.times.size):
            s = ContactStateL.from_vector(table.states[k], table.times[k])
            E = lagrangian_energy(circle_billiard.dynamics, s)
            ref = E0 * math.exp(-GAMMA * table.times[k])
            assert abs(E - ref) / E0 < 1e-7

    def test_events_strictly_increasing(self, fig1_trajectory):
        ts = [e.t for e in fig1_trajectory.events]
        for a, b in zip(ts, ts[1:]):
            assert b > a + 1e-12

    def test_event_passthrough_bitwise(self, fig1_trajectory):
        for e in fig1_trajectory.events:
            assert np.array_equal(e.state_minus.q, e.state_plus.q)
            assert e.state_minus.z == e.state_plus.z
            assert e.state_minus.t == e.state_plus.t == e.t

    def test_segment_joins_match_events(self, fig1_trajectory):
        traj = fig1_trajectory
        for i, e in enumerate(traj.events):
            left = traj.segments[i]
            right = traj.segments[i + 1]
            assert left.t1 == e.t and right.t0 == e.t
            assert np.array_equal(left.y1, e.state_minus.as_vector())
            assert np.array_equal(right.y0, e.state_plus.as_vector())

    def test_determinism_bit_for_bit(self, circle_billiard, fig1_trajectory):
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        again = simulate(circle_billiard, s0, 20.0, StepperConfig())
        assert len(again.events) == len(fig1_trajectory.events)
        for a, b in zip(again.events, fig1_trajectory.events):
            assert a.t == b.t
            assert np.array_equal(a.state_plus.qdot, b.state_plus.qdot)
        times = np.linspace(0.0, 20.0, 101)
        ta = sample(again, times)
        tb = sample(fig1_trajectory, times)
        assert np.array_equal(ta.states, tb.states)


class TestSampling:
    def test_knot_reproduction(self, fig1_trajectory):
        traj = fig1_trajectory
        seg = traj.segments[1]
        for dense in seg.segments[:3]:
            y = seg.eval(dense.t0)
            assert np.max(np.abs(y - dense.y0)) < 1e-13

    def test_event_time_returns_both_limits(self, fig1_trajectory):
        e = fig1_trajectory.events[0]
        table = sample(fig1_trajectory, [e.t])
        assert table.times.size == 2
        assert list(table.flags) == [1, 2]
        pre, post = table.states
        n = 2
        assert np.array_equal(pre[:n], post[:n])          # same q
        assert pre[2 * n] == post[2 * n]                  # same z
        assert not np.array_equal(pre[n:2 * n], post[n:2 * n])

    def test_uniform_samples_stay_inside(self, fig1_trajectory, circle_billiard):
        times = np.linspace(0.0, 20.0, 1000)
        table = sample(fig1_trajectory, times)
        for k in range(table.times.size):
            q = table.states[k][:2]
            assert circle_billiard.surface.value(q) >= -1e-10

    def test_out_of_range_raises(self, fig1_trajectory):
        with pytest.raises(TimeOutOfRange):
            sample(fig1_trajectory, [21.0])
        with pytest.raises(TimeOutOfRange):
            sample(fig1_trajectory, [-0.1])
        with pytest.raises(TimeOutOfRange):
            sample(fig1_trajectory, [1.0, float("nan")])
        with pytest.raises(TimeOutOfRange):
            fig1_trajectory.state_at(float("nan"))

    def test_empty_trajectory_has_no_span(self):
        # what a grazing stop in the first phase returns; t0 and t_end used
        # to raise IndexError
        empty = hybrid.HybridTrajectory(n=2)
        for read in (lambda: empty.t0, lambda: empty.t_end,
                     lambda: empty.state_at(0.0), lambda: sample(empty, [0.0])):
            with pytest.raises(TimeOutOfRange, match="^trajectory is empty$"):
                read()
        assert sample(empty, []).states.shape == (0, 5)

    @pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian"])
    def test_equals_the_scalar_loop_on_knots_and_event_times(
            self, fig1_trajectory, circle_billiard, formulation):
        traj = fig1_trajectory
        if formulation == "hamiltonian":
            hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
            hs = HybridSystem(dynamics=hsys, surface=circle_billiard.surface)
            s0 = legendre_forward(circle_billiard.dynamics,
                                  ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0))
            traj = simulate(hs, s0, 20.0)
        knots = [t for run in traj.segments for d in run.segments for t in (d.t0, d.t1)]
        times = np.concatenate([np.linspace(0.0, 20.0, 801), knots,
                                [e.t for e in traj.events], [20.0, 0.0]])
        times = np.random.default_rng(8).permutation(times)   # any order, repeats kept
        table = sample(traj, times)
        # reference: one scalar evaluation per requested time
        by_time = {e.t: e for e in traj.events}
        rows_t, rows_y, rows_f = [], [], []
        for t in times:
            e = by_time.get(float(t))
            if e is None:
                rows_t.append(t), rows_y.append(traj.state_at(float(t))), rows_f.append(0)
            else:
                rows_t += [t, t]
                rows_y += [e.state_minus.as_vector(), e.state_plus.as_vector()]
                rows_f += [1, 2]
        assert table.times.tobytes() == np.array(rows_t).tobytes()
        assert table.states.tobytes() == np.array(rows_y).tobytes()
        assert table.flags.tolist() == rows_f and table.flags.dtype == np.int8

    def test_one_sided_limits_via_state_at(self, fig1_trajectory):
        e = fig1_trajectory.events[0]
        pre = fig1_trajectory.state_at(e.t, side=-1)
        post = fig1_trajectory.state_at(e.t, side=+1)
        assert np.array_equal(pre, e.state_minus.as_vector())
        assert np.array_equal(post, e.state_plus.as_vector())

    def test_demo_table_matches_tracked_csv_bytes(self, fig1_trajectory,
                                                  circle_billiard, tmp_path):
        # the table of demos/03_circular_billiard.py: 800 samples to t = 20
        table = sample(fig1_trajectory, np.linspace(0.0, 20.0, 800))
        rows = [(y[:2], y[2:4], float(y[4])) for y in table.states]
        path = str(tmp_path / "circle_trajectory.csv")
        write_trajectory_csv(path, table.times, table.states, table.flags,
                             [circle_billiard.dynamics.energy(*row) for row in rows],
                             [angular_momentum(*row) for row in rows], "lagrangian")
        with open(path, "rb") as fh, open(GOLDEN_CSV, "rb") as golden:
            assert fh.read() == golden.read()


class TestHamiltonianRoute:
    def test_duality_of_formulations(self, circle_billiard):
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        lag = simulate(circle_billiard, s0, 14.0, StepperConfig())
        hsys = hamiltonian_from_lagrangian(circle_billiard.dynamics)
        hs_h = HybridSystem(dynamics=hsys, surface=circle_billiard.surface)
        sh0 = legendre_forward(circle_billiard.dynamics, s0)
        ham = simulate(hs_h, sh0, 14.0, StepperConfig())
        assert len(lag.events) >= 10 and len(ham.events) == len(lag.events)
        for t in np.linspace(0.0, 14.0, 300):
            q_l = lag.state_at(float(t))[:2]
            q_h = ham.state_at(float(t))[:2]
            assert np.max(np.abs(q_l - q_h)) < 1e-7

    def test_duality_with_nonunit_mass(self):
        # p = 1.7 v: the two charts run genuinely different arithmetic
        hs_l = make_circular_billiard(
            BilliardSpec(boundary=Circle(1.0), gamma=GAMMA, mass=1.7))
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        lag = simulate(hs_l, s0, 14.0, StepperConfig())
        hsys = hamiltonian_from_lagrangian(hs_l.dynamics)
        hs_h = HybridSystem(dynamics=hsys, surface=hs_l.surface)
        sh0 = legendre_forward(hs_l.dynamics, s0)
        ham = simulate(hs_h, sh0, 14.0, StepperConfig())
        assert len(lag.events) == len(ham.events) >= 10
        worst = 0.0
        for t in np.linspace(0.0, 14.0, 300):
            worst = max(worst, float(np.max(
                np.abs(lag.state_at(float(t))[:2] - ham.state_at(float(t))[:2]))))
        assert 0.0 < worst < 1e-7

    @pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian"])
    def test_small_mass_keeps_the_event_times(self, formulation):
        # the free flight and the reflection do not depend on a scalar mass;
        # a mass of 1e-6 is as regular as a unit one
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        times = []
        for mass in (1.0, 1e-6):
            hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=GAMMA, mass=mass))
            start = s0
            if formulation == "hamiltonian":
                start = legendre_forward(hs.dynamics, s0)
                hs = HybridSystem(dynamics=hamiltonian_from_lagrangian(hs.dynamics),
                                  surface=hs.surface)
            traj = simulate(hs, start, 20.0, StepperConfig())
            assert traj.status == COMPLETED
            times.append(np.array([e.t for e in traj.events]))
        assert len(times[0]) == len(times[1]) >= 10
        assert np.max(np.abs(times[1] - times[0])) <= 1e-9

    def test_initial_state_type_enforced(self, circle_billiard):
        sh = ContactStateH(q=[0.5, 0.0], p=[1.0, 1.0], z=0.0)
        with pytest.raises(TypeError):
            simulate(circle_billiard, sh, 1.0)


CIRCLE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                             "circle.json")
INNER = 0.02    # the annulus's inner radius


def annulus():
    """The unit disc with a disc of radius 0.02 taken out of its centre:
    h = (|q|^2 - 0.02^2)(1 - |q|^2)."""
    def h(q):
        r2 = np.sum(np.asarray(q) ** 2, axis=0)
        return (r2 - INNER ** 2) * (1.0 - r2)

    surface = SwitchingSurface(
        h=h, grad_h=lambda q: 2.0 * q * ((1.0 - np.vecdot(q, q, axis=0))
                                         - (np.vecdot(q, q, axis=0) - INNER ** 2)))
    return HybridSystem(dynamics=circle().dynamics, surface=surface)


class TestExitsBetweenCheckpoints:
    """Every flow phase after the first resumes at the step size the one
    before proposed, so a step can be far longer than an exit: the guard
    finds exits between its checkpoints from the sign of dh/dt."""

    def test_annulus_hits_the_inner_obstacle_first(self):
        # the path y = 0.005 crosses the obstacle in 0.039, less than one
        # checkpoint spacing of a long step; a guard that reads h only at
        # its checkpoints reports the outer wall at t = 1.9 first, and a
        # resample finds min h = -3.75e-4
        hs = annulus()
        traj = simulate(hs, ContactStateL(q=[-0.9, 0.005], qdot=[1.0, 0.0], z=0.0), 3.0)
        assert traj.status == COMPLETED
        first = traj.events[0]
        assert abs(first.t - 0.8807) <= 1e-4 and np.linalg.norm(first.q) <= 1.01 * INNER
        q = traj.sample(np.linspace(traj.t0, traj.t_end, 30001)).states[:, :2]
        assert hs.surface.h(q.T).min() >= -1e-12
        assert check_containment(traj, hs.surface).passed

    @pytest.mark.parametrize("offset, angle, n_events", [
        (1e-4, 0.01, 144), (1e-5, 0.003, 464), (1e-6, 0.001, 1443), (1e-7, 3e-4, 4641)])
    def test_near_grazing_orbits_keep_every_impact(self, offset, angle, n_events):
        # a chord of length 2 sin(angle) is far shorter than a checkpoint
        # spacing: the disarmed guard re-arms at the maximum between two
        # checkpoints, or the particle leaves the table
        cfg = cli.load_config(CIRCLE_CONFIG)
        cfg["run"]["t_final"] = 5.0
        cfg["initial"]["q"] = [0.0, offset - 1.0]
        cfg["initial"]["v"] = [math.cos(angle), math.sin(angle)]
        rc = cli.parse_config(cfg)
        hs, lag_spec, _ = cli.build_system(rc)
        traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper,
                        rc.max_events)
        assert traj.status == COMPLETED and len(traj.events) == n_events
        q = traj.sample(np.linspace(traj.t0, traj.t_end, 100001)).states[:, :2]
        assert (1.0 - np.sum(q * q, axis=1)).min() >= -1e-12
        assert check_containment(traj, hs.surface).passed


class TestGuardsAndBudgets:
    def test_unknown_resolver_rejected_at_construction(self, circle_billiard):
        with pytest.raises(ValueError, match="nweton"):
            HybridSystem(dynamics=circle_billiard.dynamics,
                         surface=circle_billiard.surface, resolver="nweton")

    @pytest.mark.parametrize("make, resolver", [
        (free_hamiltonian, "natural"),
        (free_hamiltonian, "newton"),
        (lambda: circle().dynamics, "hamiltonian"),
        (quartic_spec, "natural"),
        (lambda: circle().dynamics, "newton"),
    ], ids=["hamiltonian-natural", "hamiltonian-newton", "natural-hamiltonian",
            "quartic-natural", "natural-newton"])
    def test_resolver_that_does_not_fit_the_dynamics_rejected_at_construction(
            self, make, resolver):
        # a mismatch fails here, before any flow phase is integrated, and
        # never as an AttributeError at the first impact
        with pytest.raises(ValueError, match=f"{resolver!r} does not fit"):
            HybridSystem(dynamics=make(), surface=circle().surface, resolver=resolver)

    @pytest.mark.parametrize("dynamics, s0, law", [
        (free_hamiltonian(), ContactStateH(q=[0.5, 0.0], p=[1.0, 1.0], z=0.0), "hamiltonian"),
        (quartic_spec(), ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), "newton"),
    ], ids=["hamiltonian", "quartic"])
    def test_default_resolver_is_the_law_of_the_dynamics(self, dynamics, s0, law):
        hs = HybridSystem(dynamics=dynamics, surface=circle().surface)
        traj = simulate(hs, s0, 3.0)
        assert traj.status == COMPLETED and len(traj.events) >= 2
        assert dynamics.impact_law == law
        # naming the law explicitly is accepted and changes nothing
        named = simulate(HybridSystem(dynamics=dynamics, surface=hs.surface, resolver=law),
                         s0, 3.0)
        assert [e.state_plus.as_vector().tobytes() for e in named.events] == \
            [e.state_plus.as_vector().tobytes() for e in traj.events]

    def test_exterior_start_rejected(self, circle_billiard):
        s0 = ContactStateL(q=[1.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(ExteriorState):
            simulate(circle_billiard, s0, 1.0)

    def test_bad_horizon_rejected(self, circle_billiard):
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0, t=2.0)
        with pytest.raises(ValueError):
            simulate(circle_billiard, s0, 1.0)

    def test_infinite_horizon_rejected(self, circle_billiard):
        # it used to end in NonFiniteValue at q = [nan nan]
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(ValueError, match="t_final=inf is not finite"):
            simulate(circle_billiard, s0, math.inf)

    @pytest.mark.parametrize("max_events", [0, -3])
    def test_event_budget_below_one_rejected_before_any_flow(
            self, circle_billiard, monkeypatch, max_events):
        # such a budget used to run to the first impact and stop there
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow phase was integrated")

        monkeypatch.setattr(hybrid, "integrate_until_event", no_flow)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        with pytest.raises(ValueError, match=f"max_events={max_events} must be >= 1"):
            simulate(circle_billiard, s0, 20.0, max_events=max_events)

    def test_event_budget(self):
        hs = circle(gamma=0.0)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        traj = simulate(hs, s0, 50.0, max_events=3)
        assert traj.status == EVENT_BUDGET_EXHAUSTED
        assert len(traj.events) == 3

    def test_zeno_guard_on_tight_event_spacing(self, monkeypatch):
        # with a window of 10 the 2.0-unit bounce gap sits inside it, so 50
        # consecutive events trip the guard
        monkeypatch.setattr(hybrid, "_ZENO_WINDOW", 10.0)
        hs = circle(gamma=0.0)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        traj = simulate(hs, s0, 500.0)
        assert traj.status == ZENO_SUSPECTED
        assert len(traj.events) == 50

    def test_flow_errors_annotated_with_event_index(self, circle_billiard):
        # a flow phase is labelled with the index the next impact gets, the
        # count "[impact event k]" uses
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        cfg = StepperConfig(h_init=1e-3, h_max=1e-3, max_steps=10)
        with pytest.raises(MaxStepsExceeded, match=r"\[flow phase before event 0\]"):
            simulate(circle_billiard, s0, 20.0, cfg)
        # impact 0 comes after 5 steps; the phase after it runs out of steps
        s0 = ContactStateL(q=[0.995, 0.0], qdot=[1.0, 0.0], z=0.0)
        cfg = StepperConfig(h_init=1e-3, h_max=1e-3, max_steps=20)
        with pytest.raises(MaxStepsExceeded, match=r"\[flow phase before event 1\]"):
            simulate(circle_billiard, s0, 20.0, cfg)

    def test_nan_surface_value_ends_the_run_in_a_typed_error(self):
        # h is NaN outside the unit disc, so no sign test saw the crossing:
        # the run used to complete with no event, at |q(5)| = 7.43
        def h(q):
            r2 = np.vecdot(q, q, axis=0)
            return np.where(r2 <= 1.0, np.sqrt(np.abs(1.0 - r2)), np.nan)

        hs = HybridSystem(dynamics=natural_lagrangian_system(n=2, mass=np.eye(2), gamma=GAMMA),
                          surface=SwitchingSurface(h=h, grad_h=lambda q: -q / h(q)))
        with pytest.raises(NonFiniteValue, match="h is not finite"):
            simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)

    def test_nan_surface_gradient_is_named_with_its_phase(self):
        # it used to surface as "q contains non-finite entries", after the
        # projection onto the surface had moved q by a NaN step
        hs = HybridSystem(dynamics=natural_lagrangian_system(n=2, mass=np.eye(2), gamma=GAMMA),
                          surface=SwitchingSurface(h=lambda q: 1.0 - np.vecdot(q, q, axis=0),
                                                   grad_h=lambda q: np.full_like(q, np.nan)))
        with pytest.raises(NonFiniteValue,
                           match=r"grad h is not finite at q=.* \[flow phase"):
            simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)

    def test_short_surface_gradient_is_typed_and_named_with_its_phase(self):
        # the scan calls h and grad h once on the 17 checkpoints of a step,
        # as the columns of a (2, 17) block; a value that breaks that
        # contract is a DimensionMismatch naming the block and the phase
        for h, grad_h, message in [
                # grad h = (-2 q0,) used to raise numpy's untyped ValueError
                # from the guard's dh/dt, with no phase note
                (lambda q: 1.0 - np.vecdot(q, q, axis=0), lambda q: np.array([-2.0 * q[0]]),
                 r"grad h has shape \(1, 17\), expected \(2, 17\)"),
                # one h for the whole block
                (lambda q: 1.0 - np.sum(q * q), lambda q: -2.0 * q,
                 r"h has shape \(\), expected \(17,\)"),
                # one gradient per row, which a reshape would scramble
                (lambda q: 1.0 - np.vecdot(q, q, axis=0), lambda q: -2.0 * q.T,
                 r"grad h has shape \(17, 2\), expected \(2, 17\)"),
                # h written for one configuration: numpy's untyped ValueError
                # (ambiguous truth value) or TypeError from inside the block call
                (lambda q: (math.sqrt(1.0 - q[0] * q[0] - q[1] * q[1])
                            if q[0] * q[0] + q[1] * q[1] <= 1.0 else math.nan),
                 lambda q: -2.0 * q,
                 r"h does not take configurations as the columns of a block of shape"
                 r" \(2, 17\) \(ValueError: .*\)"),
                (lambda q: 1.0 - np.vecdot(q, q, axis=0),
                 lambda q: np.array([-2.0 * q[0], -2.0 * math.sqrt(q[1] * q[1])]),
                 r"grad h does not take configurations as the columns of a block of shape"
                 r" \(2, 17\) \(TypeError: .*\)")]:
            hs = HybridSystem(
                dynamics=natural_lagrangian_system(n=2, mass=np.eye(2), gamma=GAMMA),
                surface=SwitchingSurface(h=h, grad_h=grad_h))
            with pytest.raises(DimensionMismatch,
                               match="^" + message + r", at q=\[.*\] to q=\[.*\]"
                                     r" \(a block of 17\) \[flow phase before event 0\]$"):
                simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)

    def test_one_entry_surface_value_runs_as_the_float_it_holds(self):
        # h = (1 - q.q,) used to end in numpy's untyped TypeError
        def run(h):
            hs = HybridSystem(dynamics=natural_lagrangian_system(n=2, mass=np.eye(2), gamma=GAMMA),
                              surface=SwitchingSurface(h=h, grad_h=lambda q: -2.0 * q))
            return simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)

        held = run(lambda q: np.array([1.0 - np.vecdot(q, q, axis=0)]))
        plain = run(lambda q: 1.0 - np.vecdot(q, q, axis=0))
        assert held.status == COMPLETED and len(held.events) == len(plain.events) > 0
        assert [e.state_plus.as_vector().tobytes() for e in held.events] == \
            [e.state_plus.as_vector().tobytes() for e in plain.events]

    def test_surface_value_of_the_wrong_size_is_typed_and_named_with_its_phase(self):
        surface = SwitchingSurface(h=lambda q: 1.0 - q * q, grad_h=lambda q: -2.0 * q)
        with pytest.raises(DimensionMismatch, match=r"^h has shape \(2,\), expected \(\), at q="):
            surface.value(np.array([0.5, 0.0]))
        hs = HybridSystem(dynamics=natural_lagrangian_system(n=2, mass=np.eye(2), gamma=GAMMA),
                          surface=surface)
        with pytest.raises(DimensionMismatch,
                           match=r"^h has shape \(2,\), expected \(\), at .*"
                                 r" \[flow phase before event 0\]$"):
            simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)

    def test_grazing_stop_via_shallow_bounce(self):
        # gravity so weak that a restitution resolver can hand back an
        # approach speed below the grazing threshold while the previous
        # rise still cleared the arming shell
        g = 1e-10
        restitution = 5e-4
        sys = natural_lagrangian_system(
            n=1, mass=np.eye(1), gamma=0.0,
            potential=lambda q: g * q[0],
            grad_potential=lambda q: np.array([g]))
        floor = SwitchingSurface(h=lambda q: q[0],
                                 grad_h=lambda q: np.ones_like(q))

        def soft_resolver(dynamics, s_minus, surface):
            v_plus = -restitution * s_minus.qdot
            return ImpactEvent(
                state_minus=s_minus,
                state_plus=ContactStateL(q=s_minus.q, qdot=v_plus,
                                         z=s_minus.z, t=s_minus.t),
                lam=0.0, spec=dynamics, surface=surface)

        hs = HybridSystem(dynamics=sys, surface=floor, resolver=soft_resolver)
        s0 = ContactStateL(q=[5e-5], qdot=[-1e-6], z=0.0)
        cfg = StepperConfig(h_init=1.0, h_max=2000.0, max_steps=10 ** 6)
        traj = simulate(hs, s0, 1e9, cfg)
        assert traj.status == GRAZING_STOP
        assert len(traj.events) >= 1


class TestCustomResolverHook:
    def test_perturbed_resolver_breaks_energy_continuity(self, circle_billiard):
        from contactsim import resolve_impact_natural

        def tampered(dynamics, s_minus, surface):
            res = resolve_impact_natural(dynamics, s_minus, surface)
            v = res.state_plus.qdot.copy()
            v[0] += 1e-3
            bad = ContactStateL(q=res.state_plus.q, qdot=v,
                                z=res.state_plus.z, t=res.state_plus.t)
            return dataclasses.replace(res, state_plus=bad)

        hs = HybridSystem(dynamics=circle_billiard.dynamics,
                          surface=circle_billiard.surface, resolver=tampered)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        traj = simulate(hs, s0, 3.0, StepperConfig())
        e = traj.events[0]
        E_minus = lagrangian_energy(circle_billiard.dynamics, e.state_minus)
        E_plus = lagrangian_energy(circle_billiard.dynamics, e.state_plus)
        assert abs(E_plus - E_minus) > 1e-4

    @pytest.mark.parametrize("rewrite", ["copy", "shifted"])
    def test_resolver_must_return_the_state_it_was_handed(self, circle_billiard, rewrite):
        # an equal copy is refused too: the reset is checked against the
        # flow's own pre-impact limit, not against what the resolver says it was
        from contactsim import resolve_impact_natural

        def rewriting(dynamics, s_minus, surface):
            res = resolve_impact_natural(dynamics, s_minus, surface)
            qdot = s_minus.qdot * (1.0 if rewrite == "copy" else 1.0 + 1e-3)
            other = ContactStateL(q=s_minus.q, qdot=qdot, z=s_minus.z, t=s_minus.t)
            return dataclasses.replace(res, state_minus=other)

        hs = HybridSystem(dynamics=circle_billiard.dynamics,
                          surface=circle_billiard.surface, resolver=rewriting)
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        with pytest.raises(ValueError, match=r"\[impact event 0\]"):
            simulate(hs, s0, 3.0, StepperConfig())

import copy
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    DimensionMismatch,
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
from contactsim import checks, cli, core, impact, integrate
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
from conftest import interpolant_rows


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
        # one state per column, so each node's energy comes from a built state
        rep_f = check_dissipated_quantity(
            fig1_trajectory,
            lambda q, v, z: np.array([lagrangian_energy(circle_billiard.dynamics, ContactStateL(*s))
                                      for s in zip(q.T, v.T, z.tolist())]),
            circle_billiard.dynamics)
        assert rep_f.max_violation == rep_e.max_violation
        assert rep_f.location == rep_e.location

    def test_zero_function_passes_vacuously(self, fig1_trajectory, circle_billiard):
        rep = check_dissipated_quantity(fig1_trajectory, lambda q, v, z: np.zeros(z.size),
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
            traj, lambda q, v, z: np.where(z > z2, np.nan, angular_momentum(q, v, z)),
            hs.dynamics)
        assert not rep.passed and rep.max_violation == np.inf
        assert rep.location == next(t for t in node_times(traj) if t > 2.0)

    def test_nan_rate_fails_at_first_nan_node(self):
        # the rate accessor rejects a NaN dH/dz, as it does a NaN dL/dz
        hs, traj = self.short_run("hamiltonian")
        sys = dataclasses.replace(
            hs.dynamics, dH_dz=lambda q, p, z: np.where(z > 2.0, np.nan, 1e-3))
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
            return q[0] * v[1] - q[1] * v[0]

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
            seen.extend(np.vstack([q, x, z]).T)
            return rate(q, x, z)

        spec = dataclasses.replace(hs.dynamics, **{name: recording})
        check_decay_laws(traj, spec, {"energy_decay": spec.energy})
        # each dense step's nodes are both of its ends, where eval returns the
        # stored end states rather than interpolant values, and its midpoint;
        # a step's start that repeats the end of the step before is read again
        expected = [phase.eval(t) for phase in traj.segments
                    for seg in phase.segments for t in step_nodes(seg)]
        steps = sum(len(phase.segments) for phase in traj.segments)
        assert len(expected) == 3 * steps
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


QUANTITIES = ("energy", "momentum", "velocity", "rate", "value")


def point_calls(sys, name, q, x, z):
    """The quantity at each column of (q, x, z), one point call each on
    contiguous vectors, as a state holds them, stacked as columns."""
    return np.array([getattr(sys, name)(*s) for s in zip(
        np.ascontiguousarray(q.T), np.ascontiguousarray(x.T), z.tolist())]).T


def columns_of(rows, n, ordered=False):
    """(q, x, z) of the rows [q, x, z] as columns, the layout the passes hand
    over, or as C-ordered (n, m) arrays, whose columns are strided."""
    q, x = rows[:, :n].T, rows[:, n:2 * n].T
    if ordered:
        q, x = np.ascontiguousarray(q), np.ascontiguousarray(x)
    return q, x, rows[:, 2 * n]


class TestQuantitiesOnColumns:
    """Every spec quantity at m states as columns equals its point calls."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 6),
           formulation=st.sampled_from(["lagrangian", "hamiltonian"]),
           potential=st.booleans(), skewed=st.booleans(), ordered=st.booleans())
    def test_natural_block_equals_point_calls(self, data, n, m, formulation, potential, skewed,
                                              ordered):
        # one call per quantity, bit for bit also with a skewed mass: M V
        # makes the point form's matrix-vector call once per column, and every
        # dot is summed on contiguous vectors, also from C-ordered columns
        entries = st.floats(-2.0, 2.0, allow_subnormal=False)
        if skewed:   # A A^T + I, symmetric positive definite
            A = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
            mass = A.reshape(n, n) @ A.reshape(n, n).T + np.eye(n)
        else:
            mass = np.diag(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        V = (lambda q: 0.5 * float(q @ q) + float(np.sum(np.cos(q)))) if potential else None
        sys = natural_lagrangian_system(n, mass, gamma=0.3, potential=V)
        if formulation == "hamiltonian":
            sys = hamiltonian_from_lagrangian(sys)
        rows = np.array(data.draw(st.lists(entries, min_size=m * (2 * n + 1),
                                           max_size=m * (2 * n + 1)))).reshape(m, 2 * n + 1)
        q, x, z = columns_of(rows, n, ordered)
        for name in QUANTITIES:
            block, point = getattr(sys, name)(q, x, z), point_calls(sys, name, q, x, z)
            assert block.shape == point.shape == ((m,) if name in ("energy", "rate", "value")
                                                  else (n, m))
            assert block.tobytes() == point.tobytes(), name

    @pytest.mark.parametrize("spec", [state_rate_billiard(0.05).dynamics, drag_hamiltonian()],
                             ids=["state_rate_billiard", "drag_hamiltonian"])
    def test_point_only_spec_loops_over_the_columns(self, spec):
        q, x, z = columns_of(np.random.default_rng(3).uniform(-1.0, 1.0, (7, 5)), 2)
        for name in QUANTITIES[:4]:
            block = getattr(spec, name)(q, x, z)
            assert block.tobytes() == point_calls(spec, name, q, x, z).tobytes(), name

    @pytest.mark.parametrize("ordered", [False, True], ids=["rows", "ordered"])
    def test_point_only_spec_hands_each_column_over_contiguous(self, ordered):
        # at n = 5 a BLAS dot inside the point evaluator sums a strided column
        # in another order than the state's own vector
        spec = SystemSpec(n=5, lagrangian=lambda q, v, z: 0.5 * float(v @ v) - float(q @ q) * z)
        q, x, z = columns_of(np.random.default_rng(6).uniform(-1.0, 1.0, (9, 11)), 5, ordered)
        for name in QUANTITIES[:4]:
            block = getattr(spec, name)(q, x, z)
            assert block.tobytes() == point_calls(spec, name, q, x, z).tobytes(), name

    @pytest.mark.parametrize("spec", [
        state_rate_billiard(0.05).dynamics, drag_hamiltonian(),
        natural_lagrangian_system(2, np.array([[2.0, 0.3], [0.3, 1.0]]), gamma=0.1),
        hamiltonian_from_lagrangian(natural_lagrangian_system(2, np.eye(2), gamma=0.1))],
        ids=["state_rate_billiard", "drag_hamiltonian", "natural", "natural_hamiltonian"])
    def test_zero_columns_keep_the_block_shapes(self, spec):
        # a vector quantity at no states is (n, 0), not the (0,) of an empty stack
        q, x, z = columns_of(np.empty((0, 5)), 2)
        for name in QUANTITIES[:4]:
            assert getattr(spec, name)(q, x, z).shape == (
                (0,) if name in ("energy", "rate") else (2, 0)), name

    def test_a_natural_evaluator_that_takes_one_state_is_typed_and_named(self):
        sys = natural_lagrangian_system(2, np.eye(2), gamma=0.1)
        q, x, z = columns_of(np.random.default_rng(4).uniform(-1.0, 1.0, (5, 5)), 2)
        point_only = dataclasses.replace(sys, dL_dz=lambda q, v, z: -0.1 * (1.0 + float(q @ q)))
        with pytest.raises(DimensionMismatch, match="^dL_dz does not take states as the columns"):
            point_only.rate(q, x, z)
        one_float = dataclasses.replace(sys, dL_dz=lambda q, v, z: -0.1)
        with pytest.raises(DimensionMismatch,
                           match=r"^dL_dz has shape \(\), expected \(5,\), at a block of 5"):
            one_float.rate(q, x, z)
        nan_at_3 = dataclasses.replace(
            sys, lagrangian=lambda q, v, z: np.where(z == z[3], np.nan, z))
        with pytest.raises(NonFiniteValue, match=rf"^lagrangian is not finite at .*, {z[3]}\)$"):
            nan_at_3.energy(q, x, z)

    def test_angular_momentum_takes_a_point_or_columns(self):
        q, v, z = columns_of(np.random.default_rng(5).uniform(-1.0, 1.0, (6, 5)), 2)
        assert type(angular_momentum(q[:, 0], v[:, 0])) is float
        assert angular_momentum(q, v, z).tolist() == [angular_momentum(*s) for s in zip(q.T, v.T)]

    def test_a_quantity_that_returns_one_float_is_typed(self, fig1_trajectory, circle_billiard):
        with pytest.raises(DimensionMismatch, match="^flat has shape"):
            check_dissipated_quantity(fig1_trajectory, lambda q, v, z: 1.0,
                                      circle_billiard.dynamics, name="flat")


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
                        lam=0.0, spec=circle_billiard.dynamics, surface=circle_billiard.surface)
        rep = check_impact_conditions(e, circle_billiard.dynamics,
                                      circle_billiard.surface)
        assert not rep.passed
        assert rep.max_violation > 0.1

    @staticmethod
    def _report(sys, surface, s_minus, s_plus):
        e = ImpactEvent(state_minus=s_minus, state_plus=s_plus, lam=0.0, spec=sys,
                        surface=surface)
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
                        lam=4.0, spec=sys, surface=floor)
        rep = check_impact_conditions(e, sys, floor)
        assert rep.passed and rep.max_violation == 0.0

    def test_perturbed_post_velocity_fails(self, fig1_trajectory, circle_billiard):
        e = fig1_trajectory.events[0]
        v_bad = e.state_plus.qdot.copy()
        v_bad[0] += 1e-3
        bad = ImpactEvent(state_minus=e.state_minus,
                          state_plus=ContactStateL(q=e.q, qdot=v_bad,
                                                   z=e.state_plus.z, t=e.t),
                          lam=e.lam, spec=e.spec, surface=e.surface)
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
            hs = [surface.value(y[:2]) for y in interpolant_rows(segment, ts)[0]]
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


def reference_containment(traj, surface):
    """``check_containment`` reading one dense step at a time, with
    ``np.linspace`` and the segment's own broadcasts: the reference that the
    64-step block read must equal report for report."""
    n = traj.n
    worst_h, worst_t = math.inf, None
    for seg in traj.steps:
        ts = np.linspace(seg.t0, seg.t1, 17)
        rows, derivatives = interpolant_rows(seg, ts)
        hs, gs = surface.slopes(rows[:, :n], derivatives[:, :n])
        k = int(np.argmin(hs))
        minima = [(hs[k], float(ts[k]))] + [
            checks._golden_min(lambda t: surface.value(seg.eval(t)[:n]), float(ts[j]),
                               float(ts[j + 1]))
            for j in range(len(ts) - 1) if gs[j] < 0.0 < gs[j + 1]]
        h_min, t_min = min(minima)
        if h_min < worst_h:
            worst_h, worst_t = h_min, t_min
    return CheckReport(name="containment", max_violation=max(0.0, -worst_h),
                       tolerance=CONTAINMENT_TOL, location=worst_t)


class TestContainmentBlocks:
    """The 64-step block read of ``check_containment`` reports exactly what
    a read of one step at a time reports."""

    @pytest.mark.parametrize("config, formulation", [
        ("circle.json", "lagrangian"), ("circle.json", "hamiltonian"),
        ("ellipse.json", "lagrangian"), ("ellipse.json", "hamiltonian")])
    def test_reference_runs_at_t200(self, config, formulation):
        cfg = cli.load_config(os.path.join(os.path.dirname(__file__), "..", "demos",
                                           "configs", config))
        cfg["run"]["t_final"] = 200.0
        rc = cli.parse_config(cfg, formulation)
        hs, lag_spec, _ = cli.build_system(rc)
        traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper,
                        rc.max_events)
        assert len(traj.steps) > 4 * checks._CONTAINMENT_BLOCK
        rep = check_containment(traj, hs.surface)
        assert rep.to_dict() == reference_containment(traj, hs.surface).to_dict()

    @pytest.mark.parametrize("deeper", [63, 64])
    def test_dips_on_both_sides_of_a_block_boundary(self, deeper):
        # a straight flight of 100 steps past two small disks, each brushed
        # inside one step: step 63, the last of the first block, and step 64,
        # the first of the second; the deeper dip is the worst exit
        billiard = make_circular_billiard(BilliardSpec(boundary=Circle(5.0), gamma=1e-4))
        s0 = ContactStateL(q=[-0.9, 0.0], qdot=[1.0, 0.0], z=0.0)
        traj = simulate(billiard, s0, 2.0, StepperConfig(h_init=0.02, h_max=0.02))
        steps = traj.steps
        assert len(steps) == 100 and not traj.events
        dips = {}
        for k in (63, 64):
            t = steps[k].t0 + 0.37 * (steps[k].t1 - steps[k].t0)
            dips[k] = (t, steps[k].eval(t)[:2] + [0.0, 1e-3 if k == deeper else 2e-3])
        (_, c1), (_, c2) = dips[63], dips[64]

        def squared_distances(q):
            return ((q[0] - c1[0]) ** 2 + (q[1] - c1[1]) ** 2,
                    (q[0] - c2[0]) ** 2 + (q[1] - c2[1]) ** 2)

        def grad_h(q):
            d1, d2 = squared_distances(q)
            c = [np.where(d1 <= d2, c1[i], c2[i]) for i in range(2)]
            return np.array([2.0 * (q[0] - c[0]), 2.0 * (q[1] - c[1])])

        # outside both disks of radius 3e-3
        both = SwitchingSurface(h=lambda q: np.minimum(*squared_distances(q)) - 9e-6,
                                grad_h=grad_h)
        rep = check_containment(traj, both)
        assert rep.to_dict() == reference_containment(traj, both).to_dict()
        assert not rep.passed and abs(rep.max_violation - (9e-6 - 1e-6)) <= 1e-9
        assert abs(rep.location - dips[deeper][0]) <= 1e-6

    def test_bent_step(self, fig1_trajectory, circle_billiard):
        # the step that test_one_dense_step_pushed_outside_fails pushes outside
        traj = copy.deepcopy(fig1_trajectory)
        seg = traj.steps[len(traj.steps) // 2]
        q_mid = seg.eval(0.5 * (seg.t0 + seg.t1))[:2]
        seg._r3[:2] += 8.0 * q_mid / np.linalg.norm(q_mid)
        rep = check_containment(traj, circle_billiard.surface)
        assert not rep.passed
        assert rep.to_dict() == reference_containment(traj, circle_billiard.surface).to_dict()

    def test_window_times_equal_linspace(self):
        rng = np.random.default_rng(6)
        pairs = [(0.0, 1.0), (199.96, 200.0), (1e-300, 2e-300), (5.0, 5.0), (0.0, 5e-323)]
        pairs += [tuple(np.sort(rng.uniform(-1e3, 1e3, 2))) for _ in range(200)]
        pairs += [(t, t + h) for t, h in zip(rng.uniform(0, 200, 200),
                                             10.0 ** rng.uniform(-12, 0, 200))]
        t0s, t1s = (np.array(side) for side in zip(*pairs))
        rows = checks._window_times(t0s, t1s)
        for row, t0, t1 in zip(rows, t0s, t1s):
            assert row.tobytes() == np.linspace(t0, t1, 17).tobytes()

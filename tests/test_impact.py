import dataclasses
import functools
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsim import (
    ContactStateH,
    ContactStateL,
    ConvergedToIdentity,
    DegenerateNormal,
    GrazingContact,
    NoConvergence,
    NonFiniteValue,
    SingularHessian,
    SingularMassMatrix,
    SwitchingSurface,
    SystemSpec,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    hamiltonian_from_lagrangian,
    impact_residuals,
    legendre_forward,
    natural_lagrangian_system,
    resolve_impact_hamiltonian,
    resolve_impact_natural,
    resolve_impact_newton,
    simulate,
    tangent_basis,
)
from contactsim import cli, impact, integrate

UNIT_CIRCLE = SwitchingSurface(
    h=lambda q: 1.0 - q[0] * q[0] - q[1] * q[1],
    grad_h=lambda q: np.array([-2.0 * q[0], -2.0 * q[1]]),
)


def ellipse_surface(a, b):
    return SwitchingSurface(
        h=lambda q: 1.0 - (q[0] / a) ** 2 - (q[1] / b) ** 2,
        grad_h=lambda q: np.array([-2.0 * q[0] / a ** 2, -2.0 * q[1] / b ** 2]),
    )


def billiard(gamma=1e-4, mass=1.0):
    return natural_lagrangian_system(n=2, mass=mass * np.eye(2), gamma=gamma)


def random_circle_states(rng, count):
    """Boundary points with strictly inward-approaching velocities."""
    out = []
    while len(out) < count:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([np.cos(phi), np.sin(phi)])
        v = rng.uniform(-2.0, 2.0, size=2)
        if UNIT_CIRCLE.gradient(q) @ v < -1e-6:
            out.append((q, v))
    return out


def random_ellipse_states(rng, a, b, count):
    surf = ellipse_surface(a, b)
    out = []
    while len(out) < count:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        q = np.array([a * np.cos(phi), b * np.sin(phi)])
        v = rng.uniform(-2.0, 2.0, size=2)
        if surf.gradient(q) @ v < -1e-6:
            out.append((q, v))
    return out


class TestNaturalResolver:
    def test_unit_circle_multiplier(self):
        # lam = -2 (grad h . v) / |grad h|^2 = 1 at q=(1,0), v=(1, 0.5)
        sys = billiard()
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
        res = resolve_impact_natural(sys, s, UNIT_CIRCLE)
        assert res.lam == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(res.state_plus.qdot, [-1.0, 0.5], atol=1e-14)

    def test_axis_aligned_specular(self):
        sys = billiard()
        s = ContactStateL(q=[0.0, 1.0], qdot=[1.0, 1.0], z=0.0)
        res = resolve_impact_natural(sys, s, UNIT_CIRCLE)
        assert np.allclose(res.state_plus.qdot, [1.0, -1.0], atol=1e-14)

    def test_ellipse_vertex_flips_x(self):
        a, b = 0.9, 1.1
        sys = billiard()
        s = ContactStateL(q=[a, 0.0], qdot=[1.0, 0.7], z=0.0)
        res = resolve_impact_natural(sys, s, ellipse_surface(a, b))
        assert np.allclose(res.state_plus.qdot, [-1.0, 0.7], atol=1e-13)

    def test_state_passthrough_is_bitwise(self):
        sys = billiard(gamma=0.25)
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=3.7, t=2.25)
        res = resolve_impact_natural(sys, s, UNIT_CIRCLE)
        assert np.array_equal(res.state_plus.q, s.q)
        assert res.state_plus.z == s.z
        assert res.state_plus.t == s.t

    def test_result_independent_of_action_value(self):
        sys = billiard(gamma=0.5)
        for z in (0.0, 7.0, -3.25):
            s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=z)
            res = resolve_impact_natural(sys, s, UNIT_CIRCLE)
            assert np.allclose(res.state_plus.qdot, [-1.0, 0.5], atol=1e-14)

    def test_oracle_equivalence_circle(self):
        sys = billiard()
        rng = np.random.default_rng(101)
        for q, v in random_circle_states(rng, 200):
            res = resolve_impact_natural(
                sys, ContactStateL(q=q, qdot=v, z=0.0), UNIT_CIRCLE)
            vx, vy = circular_impact_closed_form(q[0], q[1], v[0], v[1])
            assert abs(res.state_plus.qdot[0] - vx) < 1e-12
            assert abs(res.state_plus.qdot[1] - vy) < 1e-12

    def test_oracle_equivalence_ellipse(self):
        a, b = 0.9, 1.1
        sys = billiard()
        surf = ellipse_surface(a, b)
        rng = np.random.default_rng(102)
        for q, v in random_ellipse_states(rng, a, b, 200):
            res = resolve_impact_natural(
                sys, ContactStateL(q=q, qdot=v, z=0.0), surf)
            vx, vy = elliptical_impact_closed_form(a, b, q[0], q[1], v[0], v[1])
            assert abs(res.state_plus.qdot[0] - vx) < 1e-12
            assert abs(res.state_plus.qdot[1] - vy) < 1e-12

    def test_mass_does_not_change_reflection(self):
        light = billiard(mass=1.0)
        heavy = billiard(mass=7.5)
        s = ContactStateL(q=[0.6, 0.8], qdot=[0.5, 1.5], z=0.0)
        r1 = resolve_impact_natural(light, s, UNIT_CIRCLE)
        r2 = resolve_impact_natural(heavy, s, UNIT_CIRCLE)
        assert np.allclose(r1.state_plus.qdot, r2.state_plus.qdot, atol=1e-14)

    def test_grazing_raises(self):
        sys = billiard()
        s = ContactStateL(q=[1.0, 0.0], qdot=[0.0, 1.0], z=0.0)  # purely tangential
        with pytest.raises(GrazingContact):
            resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_receding_velocity_raises(self):
        # a velocity into the admissible region is no impact state, and no
        # tangential one either
        sys = billiard()
        s = ContactStateL(q=[1.0, 0.0], qdot=[-1.0, 0.0], z=0.0)  # moving inward
        with pytest.raises(ValueError, match="points into the admissible region"):
            resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_off_boundary_rejected(self):
        sys = billiard()
        s = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(ValueError):
            resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_degenerate_normal(self):
        cone = SwitchingSurface(h=lambda q: -(q[0] ** 2) - q[1] ** 2,
                                grad_h=lambda q: np.array([-2 * q[0], -2 * q[1]]))
        sys = billiard()
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(DegenerateNormal):
            resolve_impact_natural(sys, s, cone)

    def test_singular_mass_matrix(self):
        sys = natural_lagrangian_system(n=2, mass=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                        gamma=0.0)
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
        with pytest.raises(SingularMassMatrix):
            resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_nearly_singular_configuration_mass(self):
        sys = natural_lagrangian_system(n=2, mass=lambda q: [[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
        with pytest.raises(SingularMassMatrix):
            resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_residuals_within_bound(self):
        sys = billiard(mass=2.0)
        rng = np.random.default_rng(103)
        for q, v in random_circle_states(rng, 100):
            res = resolve_impact_natural(
                sys, ContactStateL(q=q, qdot=v, z=0.3), UNIT_CIRCLE)
            assert res.residual_tangential <= 1e-10
            assert res.residual_energy <= 1e-10

    def test_involution_of_reflection_map(self):
        # the unguarded map: reflecting twice is the identity
        rng = np.random.default_rng(104)
        for q, v in random_circle_states(rng, 100):
            v1 = circular_impact_closed_form(q[0], q[1], v[0], v[1])
            v2 = circular_impact_closed_form(q[0], q[1], v1[0], v1[1])
            assert max(abs(v2[0] - v[0]), abs(v2[1] - v[1])) < 1e-12

    def test_involution_via_time_reversal(self):
        # resolver form: reflecting the reversed outgoing velocity recovers
        # the reversed incoming one (the guard requires approaching inputs)
        sys = billiard()
        rng = np.random.default_rng(104)
        for q, v in random_circle_states(rng, 100):
            s = ContactStateL(q=q, qdot=v, z=0.0)
            v_plus = resolve_impact_natural(sys, s, UNIT_CIRCLE).state_plus.qdot
            rev = ContactStateL(q=q, qdot=-v_plus, z=0.0)
            back = resolve_impact_natural(sys, rev, UNIT_CIRCLE).state_plus.qdot
            assert np.max(np.abs(back + v)) < 1e-12

    def test_normal_velocity_sign_flip(self):
        sys = billiard()
        rng = np.random.default_rng(105)
        for q, v in random_circle_states(rng, 50):
            res = resolve_impact_natural(
                sys, ContactStateL(q=q, qdot=v, z=0.0), UNIT_CIRCLE)
            g = UNIT_CIRCLE.gradient(q)
            assert np.sign(g @ res.state_plus.qdot) == -np.sign(g @ v)


class TestNewtonResolver:
    def test_agrees_with_natural_on_quadratic_systems(self):
        sys = billiard(mass=1.5)
        rng = np.random.default_rng(106)
        for q, v in random_circle_states(rng, 100):
            s = ContactStateL(q=q, qdot=v, z=0.2)
            a = resolve_impact_natural(sys, s, UNIT_CIRCLE)
            b = resolve_impact_newton(sys, s, UNIT_CIRCLE)
            assert np.max(np.abs(a.state_plus.qdot - b.state_plus.qdot)) < 1e-10

    def test_non_quadratic_lagrangian_satisfies_conditions(self):
        eps = 0.2

        def L(q, v, z):
            s = float(v @ v)
            return 0.5 * s + 0.25 * eps * s * s - 0.1 * z

        sys = SystemSpec(
            n=2, lagrangian=L,
            dL_dq=lambda q, v, z: np.zeros(2),
            dL_dv=lambda q, v, z: v * (1.0 + eps * float(v @ v)),
            dL_dz=lambda q, v, z: -0.1,
            d2L_dvdv=lambda q, v, z: (1.0 + eps * float(v @ v)) * np.eye(2)
            + 2.0 * eps * np.outer(v, v),
            d2L_dqdv=lambda q, v, z: np.zeros((2, 2)),
            d2L_dzdv=lambda q, v, z: np.zeros(2),
        )
        rng = np.random.default_rng(107)
        for q, v in random_circle_states(rng, 50):
            s = ContactStateL(q=q, qdot=v, z=0.0)
            res = resolve_impact_newton(sys, s, UNIT_CIRCLE)
            assert res.residual_tangential <= 1e-10
            assert res.residual_energy <= 1e-10
            g = UNIT_CIRCLE.gradient(q)
            assert (g @ res.state_plus.qdot) * (g @ v) < 0.0

    def test_grazing_raises(self):
        sys = billiard()
        s = ContactStateL(q=[1.0, 0.0], qdot=[1e-12, 1.0], z=0.0)
        with pytest.raises(GrazingContact):
            resolve_impact_newton(sys, s, UNIT_CIRCLE)

    @staticmethod
    def _quartic_with_hessian(d2L_dvdv):
        return SystemSpec(
            n=2, lagrangian=lambda q, v, z: 0.5 * float(v @ v) + 0.05 * float(v @ v) ** 2,
            dL_dq=lambda q, v, z: np.zeros(2),
            dL_dv=lambda q, v, z: v * (1.0 + 0.2 * float(v @ v)),
            dL_dz=lambda q, v, z: 0.0,
            d2L_dvdv=d2L_dvdv,
            d2L_dqdv=lambda q, v, z: np.zeros((2, 2)),
            d2L_dzdv=lambda q, v, z: np.zeros(2),
        )

    def test_singular_seed_hessian_is_typed(self):
        sys = self._quartic_with_hessian(lambda q, v, z: np.zeros((2, 2)))
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.2], z=0.0)
        with pytest.raises(SingularHessian):
            resolve_impact_newton(sys, s, UNIT_CIRCLE)

    def test_singular_newton_jacobian_is_typed(self):
        # W is regular at the pre-impact velocity only, so the first Newton
        # Jacobian [[W, -g], [W v, 0]] has a zero velocity block
        v_minus = np.array([1.0, 0.2])
        sys = self._quartic_with_hessian(
            lambda q, v, z: np.eye(2) if np.array_equal(v, v_minus) else np.zeros((2, 2)))
        s = ContactStateL(q=[1.0, 0.0], qdot=v_minus, z=0.0)
        with pytest.raises(NoConvergence, match="Jacobian is singular"):
            resolve_impact_newton(sys, s, UNIT_CIRCLE)

    def test_one_state_per_impact(self, states_built):
        # the iterates are flat vectors; only the post-impact state is built
        sys = self._quartic_with_hessian(
            lambda q, v, z: (1.0 + 0.2 * float(v @ v)) * np.eye(2) + 0.4 * np.outer(v, v))
        rng = np.random.default_rng(108)
        states = [ContactStateL(q=q, qdot=v, z=0.0) for q, v in random_circle_states(rng, 20)]
        states_built.clear()
        results = [resolve_impact_newton(sys, s, UNIT_CIRCLE) for s in states]
        assert states_built == [ContactStateL] * len(states)
        assert all(max(res.residual_tangential, res.residual_energy) <= 1e-10
                   for res in results)

    def test_non_finite_newton_iterate_is_typed(self):
        # W collapses to 1e-320 I away from the pre-impact velocity, so the
        # first Newton step overflows to an infinite velocity; the skewed W
        # at v- puts the seed off the root, which the mirror image would hit
        v_minus = np.array([1.0, 0.2])
        sys = self._quartic_with_hessian(
            lambda q, v, z: np.array([[1.0, 0.5], [0.5, 1.0]]) if np.array_equal(v, v_minus)
            else 1e-320 * np.eye(2))
        s = ContactStateL(q=[1.0, 0.0], qdot=v_minus, z=0.0)
        with pytest.raises(NonFiniteValue):
            resolve_impact_newton(sys, s, UNIT_CIRCLE)

    def test_no_reflecting_root_is_reported(self):
        # 1-D cubic-kinetic Lagrangian whose energy condition has no real
        # nontrivial root at v = -1; the solve must not fake a reflection
        def L(q, v, z):
            return 0.5 * v[0] ** 2 + (1.0 / 3.0) * v[0] ** 3

        sys = SystemSpec(
            n=1, lagrangian=L,
            dL_dq=lambda q, v, z: np.zeros(1),
            dL_dv=lambda q, v, z: np.array([v[0] + v[0] ** 2]),
            dL_dz=lambda q, v, z: 0.0,
            d2L_dvdv=lambda q, v, z: np.array([[1.0 + 2.0 * v[0]]]),
            d2L_dqdv=lambda q, v, z: np.zeros((1, 1)),
            d2L_dzdv=lambda q, v, z: np.zeros(1),
        )
        floor = SwitchingSurface(h=lambda q: q[0], grad_h=lambda q: np.ones_like(q))
        s = ContactStateL(q=[0.0], qdot=[-1.0], z=0.0)
        with pytest.raises((ConvergedToIdentity, NoConvergence)):
            resolve_impact_newton(sys, s, floor)


class TestHamiltonianResolver:
    def test_momentum_reflection_closed_form(self):
        hsys = hamiltonian_from_lagrangian(billiard(gamma=1e-4))
        s = ContactStateH(q=[1.0, 0.0], p=[1.0, 0.5], z=0.0)
        res = resolve_impact_hamiltonian(hsys, s, UNIT_CIRCLE)
        assert np.allclose(res.state_plus.p, [-1.0, 0.5], atol=1e-14)

    def test_legendre_conjugacy(self):
        # resolve on the Lagrangian side, push forward: same p_plus
        sys = billiard(gamma=0.3, mass=2.0)
        hsys = hamiltonian_from_lagrangian(sys)
        rng = np.random.default_rng(108)
        for q, v in random_circle_states(rng, 100):
            s = ContactStateL(q=q, qdot=v, z=0.4)
            lag = resolve_impact_natural(sys, s, UNIT_CIRCLE)
            p_from_lag = legendre_forward(sys, lag.state_plus).p
            sh = legendre_forward(sys, s)
            ham = resolve_impact_hamiltonian(hsys, sh, UNIT_CIRCLE)
            assert np.max(np.abs(ham.state_plus.p - p_from_lag)) < 1e-12

    def test_quadratic_hamiltonian_stops_at_the_seed(self):
        # dH/dp at p-, at p- + grad h for the secant, and at p+; no slope
        calls = []
        hsys = hamiltonian_from_lagrangian(natural_lagrangian_system(
            n=2, mass=np.array([[2.0, 0.3], [0.3, 1.0]]), gamma=0.1))
        dH_dp = hsys.dH_dp
        hsys = dataclasses.replace(hsys, dH_dp=lambda q, p, z: calls.append(1) or dH_dp(q, p, z))
        s = ContactStateH(q=[0.6, 0.8], p=[1.0, 0.5], z=0.0)
        res = resolve_impact_hamiltonian(hsys, s, UNIT_CIRCLE)
        assert len(calls) == 3
        assert max(res.residual_tangential, res.residual_energy) <= 1e-14

    def test_non_quadratic_hamiltonian_matches_the_lagrangian_resolver(self):
        sys = TestNewtonResolver._quartic_with_hessian(
            lambda q, v, z: (1.0 + 0.2 * float(v @ v)) * np.eye(2) + 0.4 * np.outer(v, v))
        hsys = hamiltonian_from_lagrangian(sys)
        rng = np.random.default_rng(111)
        for q, v in random_circle_states(rng, 20):
            s = ContactStateL(q=q, qdot=2.0 * v, z=0.0)
            p_lag = legendre_forward(sys, resolve_impact_newton(sys, s, UNIT_CIRCLE).state_plus).p
            ham = resolve_impact_hamiltonian(hsys, legendre_forward(sys, s), UNIT_CIRCLE)
            assert np.max(np.abs(ham.state_plus.p - p_lag)) <= 1e-10 * np.max(np.abs(p_lag))
            assert max(ham.residual_tangential, ham.residual_energy) <= 1e-10

    def test_normal_free_momentum_is_grazing(self):
        hsys = hamiltonian_from_lagrangian(billiard())
        s = ContactStateH(q=[1.0, 0.0], p=[0.0, 1.3], z=0.0)
        with pytest.raises(GrazingContact):
            resolve_impact_hamiltonian(hsys, s, UNIT_CIRCLE)

    def test_newton_fallback_without_metric(self):
        from contactsim import HamiltonianSpec

        hsys = HamiltonianSpec(
            n=2,
            hamiltonian=lambda q, p, z: 0.5 * float(p @ p) + 0.1 * z,
            dH_dq=lambda q, p, z: np.zeros(2),
            dH_dp=lambda q, p, z: p,
            dH_dz=lambda q, p, z: 0.1,
        )
        s = ContactStateH(q=[1.0, 0.0], p=[1.0, 0.5], z=0.0)
        res = resolve_impact_hamiltonian(hsys, s, UNIT_CIRCLE)
        assert np.allclose(res.state_plus.p, [-1.0, 0.5], atol=1e-10)
        assert res.residual_energy <= 1e-10

    def test_nan_velocity_is_a_non_finite_value(self):
        # used to surface as ConvergedToIdentity from a NaN normal velocity
        hsys = dataclasses.replace(hamiltonian_from_lagrangian(billiard()),
                                   dH_dp=lambda q, p, z: np.full(2, np.nan))
        s = ContactStateH(q=[1.0, 0.0], p=[1.0, 0.5], z=0.0)
        with pytest.raises(NonFiniteValue, match="dH_dp"):
            resolve_impact_hamiltonian(hsys, s, UNIT_CIRCLE)


class TestImpactResiduals:
    def test_non_diagonal_mass_in_both_formulations(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        sys = natural_lagrangian_system(n=2, mass=M, gamma=0.05)
        hsys = hamiltonian_from_lagrangian(sys)
        rng = np.random.default_rng(110)
        for q, v in random_circle_states(rng, 20):
            s = ContactStateL(q=q, qdot=v, z=0.1)
            res = resolve_impact_natural(sys, s, UNIT_CIRCLE)
            assert (res.residual_tangential, res.residual_energy) == \
                impact_residuals(sys, UNIT_CIRCLE, s, res.state_plus)
            assert max(res.residual_tangential, res.residual_energy) <= 1e-12
            sh = legendre_forward(sys, s)
            ham = resolve_impact_hamiltonian(hsys, sh, UNIT_CIRCLE)
            assert (ham.residual_tangential, ham.residual_energy) == \
                impact_residuals(hsys, UNIT_CIRCLE, sh, ham.state_plus)
            assert max(ham.residual_tangential, ham.residual_energy) <= 1e-12
            # mirroring v in the Euclidean normal keeps tangential v and |v|
            # but not tangential M v or the kinetic energy
            n = q / np.linalg.norm(q)
            mirrored = ContactStateL(q=q, qdot=v - 2.0 * (v @ n) * n, z=0.1)
            assert max(impact_residuals(sys, UNIT_CIRCLE, s, mirrored)) > 1e-3


class TestTangentBasis:
    def test_orthonormal_and_orthogonal_to_normal(self):
        rng = np.random.default_rng(109)
        for n in (2, 3, 5):
            for _ in range(20):
                g = rng.normal(size=n)
                T = tangent_basis(g)
                assert T.shape == (n, n - 1)
                assert np.allclose(T.T @ T, np.eye(n - 1), atol=1e-13)
                assert np.max(np.abs(g @ T)) < 1e-12 * max(1.0, np.linalg.norm(g))

    def test_one_dimensional_basis_is_empty(self):
        assert tangent_basis(np.array([2.0])).shape == (1, 0)

    def test_deterministic(self):
        g = np.array([0.3, -0.4, 1.2])
        assert np.array_equal(tangent_basis(g), tangent_basis(g))


ROOT = os.path.join(os.path.dirname(__file__), "..")


def quartic_newton_run(monkeypatch):
    """The benchmark's quartic workload from its reference start, T = 60."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    import workloads

    s0 = ContactStateL(q=workloads.QUARTIC_Q0, qdot=workloads.QUARTIC_V0, z=0.0)
    return workloads.quartic_system(), s0, (workloads.QUARTIC_T_FINAL,)


def ellipse_hamiltonian_run(monkeypatch):
    """demos/configs/ellipse.json in the Hamiltonian formulation, T = 200."""
    cfg = cli.load_config(os.path.join(ROOT, "demos", "configs", "ellipse.json"))
    cfg["run"]["t_final"] = 200.0
    rc = cli.parse_config(cfg, "hamiltonian")
    hs, lag_spec, _ = cli.build_system(rc)
    return hs, cli.initial_state(rc, hs, lag_spec), (rc.t_final, rc.stepper, rc.max_events)


@pytest.mark.parametrize("run, law, function, events, updates, most", [
    (quartic_newton_run, "newton", "lagrangian", 134, 804, 6),
    (ellipse_hamiltonian_run, "hamiltonian", "hamiltonian", 161, 0, 0)],
    ids=["quartic-newton", "ellipse-hamiltonian"])
def test_impact_solver_iterations_are_pinned(monkeypatch, run, law, function, events,
                                             updates, most):
    """Exact Newton updates of the impact solves over a whole run. Each pass
    of a resolver's Newton loop evaluates the residual, and with it L or H,
    once; the other three evaluations in a resolve are E- (H-) and the two
    energies of the event's residuals, so a resolve that stops after k
    updates evaluates L or H k + 4 times. The quartic's differenced Hessian
    takes 6 updates per impact; the ellipse's H is quadratic in p, so its
    seed is the root. A change that moves a count states it."""
    hs, s0, args = run(monkeypatch)
    evaluate, resolve = getattr(hs.dynamics, function), getattr(impact, "resolve_impact_" + law)
    inside, calls, per_resolve = [False], [0], []

    def counted(q, x, z):
        calls[0] += inside[0]
        return evaluate(q, x, z)

    def counted_resolve(*args):
        inside[0], before = True, calls[0]
        try:
            return resolve(*args)
        finally:
            inside[0] = False
            per_resolve.append(calls[0] - before - 4)

    hs = dataclasses.replace(hs, dynamics=dataclasses.replace(hs.dynamics, **{function: counted}))
    monkeypatch.setattr(impact, "resolve_impact_" + law, counted_resolve)
    traj = simulate(hs, s0, *args)
    assert len(traj.events) == events and len(per_resolve) == events
    assert sum(per_resolve) == updates
    assert max(per_resolve) == most and min(per_resolve) >= 0


# Systems as the CLI builds them, with the start and the system section of
# their config; each sphere is the custom system's surface.
BLOCK_SYSTEMS = {
    "circle": ({"kind": "circle", "radius": 1.3, "gamma": 0.1}, [0.2, -0.1]),
    "ellipse": ({"kind": "ellipse", "a": 2.0, "b": 1.0, "gamma": 0.1}, [0.2, -0.1]),
    "sphere-1": ({"kind": "custom", "n": 1, "mass_matrix": [[1.0]],
                  "surface": {"kind": "sphere", "radius": 0.8}}, [0.1]),
    "sphere-2": ({"kind": "custom", "n": 2, "mass_matrix": [[2.0, 0.3], [0.3, 1.0]],
                  "surface": {"kind": "sphere", "radius": 1.0}}, [0.2, -0.1]),
    "sphere-3": ({"kind": "custom", "n": 3, "gamma": 0.05,
                  "mass_matrix": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]],
                  "surface": {"kind": "sphere", "radius": 1.3}}, [0.2, -0.1, 0.3]),
}


@functools.lru_cache(maxsize=None)
def block_system(name):
    """The named CLI system and the dense steps of a run of it to T = 4."""
    system, q0 = BLOCK_SYSTEMS[name]
    rc = cli.parse_config({"system": system, "run": {"t_final": 4.0},
                           "initial": {"q": q0, "v": [0.9, 0.5, -0.3][:len(q0)], "z": 0.0}})
    hs, lag_spec, _ = cli.build_system(rc)
    traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper)
    assert traj.events
    return hs, [seg for run in traj.segments for seg in run.segments]


class TestBlockGate:
    """``SwitchingSurface.slopes`` and ``values`` read a block of m
    configurations with one call of h and one of grad h; each entry must be
    the per-point gate's value bit for bit, so the scan and the containment
    check decide exactly as they did point by point."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_gate_equals_the_point_gate_bit_for_bit(self, data):
        name = data.draw(st.sampled_from(sorted(BLOCK_SYSTEMS)), label="system")
        hs, steps = block_system(name)
        n = hs.n
        if data.draw(st.booleans(), label="checkpoints of a real step"):
            seg = data.draw(st.sampled_from(steps), label="step")
            ts = integrate._checkpoints(seg.t0, seg.t1)
            y, ydot = seg.eval_many(ts), seg.eval_derivative_many(ts)
        else:
            m = data.draw(st.integers(1, 20), label="m")
            rows = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2 * n + 1,
                                     max_size=2 * n + 1), min_size=m, max_size=m)
            y, ydot = np.array(data.draw(rows)), np.array(data.draw(rows))
        # row slices of the phase vectors, as the scan hands them over
        qs, qdots = y[:, :n], ydot[:, :n]
        h_block, dh_block = hs.surface.slopes(qs, qdots)
        h_point = np.array([hs.surface.value(q) for q in qs])
        dh_point = np.array([float(hs.surface.gradient(q) @ v) for q, v in zip(qs, qdots)])
        assert np.array(h_block).tobytes() == h_point.tobytes()
        assert np.array(dh_block).tobytes() == dh_point.tobytes()
        assert hs.surface.values(qs).tobytes() == h_point.tobytes()
        if name.startswith("sphere"):
            # and each is r^2 - q . q as a dot product gives it, as it was
            # before the sphere took blocks
            r = BLOCK_SYSTEMS[name][0]["surface"]["radius"]
            assert h_point.tobytes() == np.array([r * r - float(q @ q) for q in qs]).tobytes()

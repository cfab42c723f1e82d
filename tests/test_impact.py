import dataclasses
import functools
import hashlib
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsim import (
    COMPLETED,
    ContactSimError,
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
    check_impact_conditions,
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
from contactsim import cli, core, impact, integrate
from conftest import dot_left_to_right, interpolant_rows

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

    def test_constant_mass_reads_the_spec_inverse(self, monkeypatch):
        # one solve per impact only for a callable mass; with the unit mass
        # the inverse gives the solve's velocity bit for bit
        rng = np.random.default_rng(105)
        cases = [ContactStateL(q=q, qdot=v, z=0.3) for q, v in random_circle_states(rng, 20)]
        solving = billiard()
        object.__setattr__(solving, "_minv", None)   # as for a callable mass
        solved = [resolve_impact_natural(solving, s, UNIT_CIRCLE) for s in cases]

        def no_solve(*args):
            raise AssertionError("a constant mass was solved again")

        monkeypatch.setattr(impact, "_mass_solve", no_solve)
        for s, ref in zip(cases, solved):
            got = resolve_impact_natural(billiard(), s, UNIT_CIRCLE)
            assert got.state_plus.qdot.tobytes() == ref.state_plus.qdot.tobytes()
        with pytest.raises(AssertionError, match="solved again"):
            resolve_impact_natural(natural_lagrangian_system(2, mass=lambda q: np.eye(2)),
                                   cases[0], UNIT_CIRCLE)

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
        # W is regular at the pre-impact velocity only, so W at the midpoint
        # seed, the velocity block of the Newton Jacobian [[W, -g], [W v, 0]]
        # there, is zero
        v_minus = np.array([1.0, 0.2])
        sys = self._quartic_with_hessian(
            lambda q, v, z: np.eye(2) if np.array_equal(v, v_minus) else np.zeros((2, 2)))
        s = ContactStateL(q=[1.0, 0.0], qdot=v_minus, z=0.0)
        with pytest.raises(NoConvergence, match="Jacobian is singular"):
            resolve_impact_newton(sys, s, UNIT_CIRCLE)

    def test_zero_denominator_at_the_first_seed_is_typed(self):
        # an indefinite W = diag(1, -1) makes grad h . W(v-)^-1 grad h exactly 0
        # at the wall q1 + q2 = 1, which was a bare ZeroDivisionError
        sys = SystemSpec(n=2, lagrangian=lambda q, v, z: 0.5 * (v[0] * v[0] - v[1] * v[1]),
                         dL_dq=lambda q, v, z: np.zeros(2),
                         dL_dv=lambda q, v, z: np.array([v[0], -v[1]]),
                         dL_dz=lambda q, v, z: 0.0,
                         d2L_dvdv=lambda q, v, z: np.diag([1.0, -1.0]),
                         d2L_dqdv=lambda q, v, z: np.zeros((2, 2)),
                         d2L_dzdv=lambda q, v, z: np.zeros(2))
        wall = SwitchingSurface(h=lambda q: 1.0 - q[0] - q[1], grad_h=lambda q: -np.ones(2))
        s = ContactStateL(q=[0.5, 0.5], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(NoConvergence, match=r"Jacobian is singular at qdot=\[1\. 0\.\]"):
            resolve_impact_newton(sys, s, wall)

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
        # W collapses to 1e-320 I away from the pre-impact velocity, so
        # W^-1 grad h at the midpoint seed overflows to an infinite vector,
        # which is reported before any arithmetic with it; the skewed W at v-
        # puts the midpoint off the tangent line, where W would stay I
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


def counting_hessians(sys):
    """sys with its velocity Hessian counted: the list grows by one per call."""
    calls, hess_vv = [], sys.hess_vv
    object.__setattr__(sys, "hess_vv", lambda q, v, z: calls.append(1) or hess_vv(q, v, z))
    return sys, calls


def newton_from_the_v_minus_seed(sys, s_minus, surface):
    """The Newton resolve as it was seeded before the midpoint refinement,
    kept as the reference: the quadratic-case formula with W(v-) alone, then
    the same Newton loop. Returns v+."""
    q, v_minus, z = s_minus.q, s_minus.qdot, s_minus.z
    g = surface.gradient(q)
    p_minus, e_minus = sys.grad_v(q, v_minus, z), sys.energy(q, v_minus, z)
    scale = max(1.0, float(np.max(np.abs(p_minus))), abs(e_minus))
    w_inv_g = core._solve_regular(sys.hess_vv(q, v_minus, z), g)
    lam = -2.0 * float(g @ v_minus) / float(g @ w_inv_g)
    v = v_minus + lam * w_inv_g
    for _ in range(impact._NEWTON_MAX_ITER):
        p = sys.grad_v(q, v, z)
        F1, F2 = p - p_minus - lam * g, float(v @ p - sys.value(q, v, z)) - e_minus
        if max(float(np.max(np.abs(F1))), abs(F2)) <= impact._NEWTON_TOL * scale:
            return v
        dlam = (float(v @ F1) - F2) / float(v @ g)
        v, lam = v + core._solve_regular(sys.hess_vv(q, v, z), dlam * g - F1), lam + dlam
    raise NoConvergence("reference impact Newton solve stalled")


def kinetic_quartic(A, B, eps, gamma):
    """L = v.Av/2 + eps (v.Bv)^2/4 - gamma z with its momentum; W is differenced."""
    return SystemSpec(
        n=2, lagrangian=lambda q, v, z: (0.5 * float(v @ A @ v)
                                         + 0.25 * eps * float(v @ B @ v) ** 2 - gamma * z),
        dL_dq=lambda q, v, z: np.zeros(2),
        dL_dv=lambda q, v, z: A @ v + eps * float(v @ B @ v) * (B @ v),
        dL_dz=lambda q, v, z: -gamma)


def approaching_state(data):
    """A point on the unit circle or the (2, 1) ellipse and a velocity at
    most 1.5 rad off the outward normal, with speed in [0.1, 5]."""
    a, b = data.draw(st.sampled_from([(1.0, 1.0), (2.0, 1.0)]), label="semi-axes")
    surface = ellipse_surface(a, b)
    phi = data.draw(st.floats(0.0, 2.0 * np.pi), label="phi")
    q = np.array([a * np.cos(phi), b * np.sin(phi)])
    n = -surface.gradient(q) / np.linalg.norm(surface.gradient(q))
    alpha = data.draw(st.floats(-1.5, 1.5), label="angle off the normal")
    speed = data.draw(st.floats(0.1, 5.0), label="speed")
    v = speed * (np.cos(alpha) * n + np.sin(alpha) * np.array([-n[1], n[0]]))
    return surface, ContactStateL(q=q, qdot=v, z=data.draw(st.floats(-1.0, 1.0), label="z"))


class TestMidpointSeed:
    """The Newton resolve's seed evaluates the quadratic-case formula with
    W(v-) and then with W at the midpoint of v- and that first velocity."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), eps=st.floats(0.0, 0.5), gamma=st.floats(0.0, 0.5))
    def test_isotropic_quartic_reflects_in_one_update(self, data, eps, gamma):
        # for L(|qdot|^2, z) the midpoint is tangent and W(m) maps grad h
        # along itself, so the seed is the mirror image up to the error of
        # the differenced W; one update removes that, so the resolve
        # differences W 3 times, or twice where the difference is exact
        # (eps = 0 and qdot = (1, 0) on the circle: the seed is the root)
        sys, calls = counting_hessians(kinetic_quartic(np.eye(2), np.eye(2), eps, gamma))
        surface, s = approaching_state(data)
        res = resolve_impact_newton(sys, s, surface)
        n = surface.gradient(s.q) / np.linalg.norm(surface.gradient(s.q))
        mirror = s.qdot - 2.0 * (s.qdot @ n) * n
        assert np.max(np.abs(res.state_plus.qdot - mirror)) <= 1e-12 * np.linalg.norm(s.qdot)
        assert len(calls) <= 3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), eps=st.floats(0.0, 0.5), gamma=st.floats(0.0, 0.5),
           spectra=st.lists(st.floats(0.2, 5.0), min_size=4, max_size=4),
           angles=st.lists(st.floats(0.0, np.pi), min_size=2, max_size=2))
    def test_anisotropic_quartic_passes_the_certificate(self, data, eps, gamma, spectra, angles):
        # SPD A and B with eigenvalues in [0.2, 5]; the reset passes the
        # certificate and reverses grad h . qdot, or the resolve fails typed,
        # and where both converge it finds the reference's root
        def spd(lo, hi, angle):
            c, s = np.cos(angle), np.sin(angle)
            R = np.array([[c, -s], [s, c]])
            return R @ np.diag([lo, hi]) @ R.T

        sys = kinetic_quartic(spd(*spectra[:2], angles[0]), spd(*spectra[2:], angles[1]),
                              eps, gamma)
        surface, s = approaching_state(data)
        try:
            res = resolve_impact_newton(sys, s, surface)
        except ContactSimError:
            return
        assert check_impact_conditions(res, sys, surface).passed
        g = surface.gradient(s.q)
        assert (g @ res.state_plus.qdot) > 0.0 > (g @ s.qdot)
        try:
            reference = newton_from_the_v_minus_seed(sys, s, surface)
        except ContactSimError:
            return
        assert np.max(np.abs(res.state_plus.qdot - reference)) <= 1e-9 * np.linalg.norm(s.qdot)


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


class TestLazyResiduals:
    """An event's residuals are the certificate's, ``impact_residuals`` of its
    pair under the spec and surface it was resolved for, computed on the first
    read of either and never in the resolve."""

    def event(self):
        sys, s = billiard(gamma=0.05), ContactStateL(q=[0.6, 0.8], qdot=[1.0, 0.3], z=0.1, t=2.0)
        return sys, s, resolve_impact_natural(sys, s, UNIT_CIRCLE)

    def test_both_reads_make_one_certificate_call(self, monkeypatch):
        sys, s, e = self.event()
        calls = []

        def counted(*args):
            calls.append(args)
            return impact_residuals(*args)

        monkeypatch.setattr(impact, "impact_residuals", counted)
        pair = (e.residual_tangential, e.residual_energy, e.residual_tangential)
        assert len(calls) == 1 and calls[0][1:] == (UNIT_CIRCLE, s, e.state_plus)
        assert pair[:2] == impact_residuals(sys, UNIT_CIRCLE, s, e.state_plus)
        assert max(pair) <= 1e-14 and pair[0] == pair[2]

    def test_a_replaced_pair_reads_its_own_residuals(self):
        sys, s, e = self.event()
        assert max(e.residual_tangential, e.residual_energy) <= 1e-14   # cached now
        tampered = dataclasses.replace(e.state_plus, qdot=e.state_plus.qdot * [1.0, 1.01])
        bad = dataclasses.replace(e, state_plus=tampered)
        assert (bad.residual_tangential, bad.residual_energy) == \
            impact_residuals(sys, UNIT_CIRCLE, s, tampered)
        assert max(bad.residual_tangential, bad.residual_energy) > 1e-3

    def test_equality_and_repr_leave_out_the_spec_surface_and_cache(self):
        sys, s, e = self.event()
        before = repr(e)
        assert before == (f"ImpactEvent(state_minus={e.state_minus!r}, "
                          f"state_plus={e.state_plus!r}, lam={e.lam!r})")
        e.residual_energy
        other = impact.ImpactEvent(e.state_minus, e.state_plus, e.lam, billiard(gamma=0.5),
                                   ellipse_surface(2.0, 3.0))
        assert repr(e) == before == repr(other) and e == other
        assert e != dataclasses.replace(e, lam=e.lam + 1.0)
        with pytest.raises(AttributeError):
            e.residual_energy = 0.0


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


def config_run(name, formulation):
    """demos/configs/<name>.json in the given formulation, T = 200."""
    cfg = cli.load_config(os.path.join(ROOT, "demos", "configs", name + ".json"))
    cfg["run"]["t_final"] = 200.0
    rc = cli.parse_config(cfg, formulation)
    hs, lag_spec, _ = cli.build_system(rc)
    return hs, cli.initial_state(rc, hs, lag_spec), (rc.t_final, rc.stepper, rc.max_events)


def ellipse_hamiltonian_run(monkeypatch):
    """demos/configs/ellipse.json in the Hamiltonian formulation, T = 200."""
    return config_run("ellipse", "hamiltonian")


@pytest.mark.parametrize("run, law, function, events, updates, most", [
    (quartic_newton_run, "newton", "lagrangian", 134, 134, 1),
    (ellipse_hamiltonian_run, "hamiltonian", "hamiltonian", 161, 0, 0)],
    ids=["quartic-newton", "ellipse-hamiltonian"])
def test_impact_solver_iterations_are_pinned(monkeypatch, run, law, function, events,
                                             updates, most):
    """Exact Newton updates of the impact solves over a whole run. Each pass
    of a resolver's Newton loop evaluates the residual, and with it L or H,
    once; the other evaluation in a resolve is E- (H-), so a resolve that
    stops after k updates evaluates L or H k + 2 times. The event's residuals
    are the certificate's, read on demand, not in the resolve. The quartic's midpoint seed
    leaves one update per impact, to remove the error of its differenced
    Hessian; the ellipse's H is quadratic in p, so its seed is the root. A
    change that moves a count states it."""
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
            per_resolve.append(calls[0] - before - 2)

    hs = dataclasses.replace(hs, dynamics=dataclasses.replace(hs.dynamics, **{function: counted}))
    monkeypatch.setattr(impact, "resolve_impact_" + law, counted_resolve)
    traj = simulate(hs, s0, *args)
    assert len(traj.events) == events and len(per_resolve) == events
    assert sum(per_resolve) == updates
    assert max(per_resolve) == most and min(per_resolve) >= 0


@pytest.mark.parametrize("run", [
    lambda mp: config_run("circle", "lagrangian"), lambda mp: config_run("ellipse", "lagrangian"),
    ellipse_hamiltonian_run, quartic_newton_run],
    ids=["circle-lagrangian", "ellipse-lagrangian", "ellipse-hamiltonian", "quartic-newton"])
def test_simulate_computes_no_impact_residuals(monkeypatch, run):
    """The certificate owns the impact residuals: a run resolves every impact
    without one ``impact._residuals`` call; the first read of an event's makes one."""
    hs, s0, args = run(monkeypatch)
    residuals, calls = impact._residuals, []

    def counted(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(impact, "_residuals", counted)
    traj = simulate(hs, s0, *args)
    assert traj.status == COMPLETED and len(traj.events) > 100 and calls == []
    assert max(traj.events[-1].residual_tangential, traj.events[-1].residual_energy) <= 1e-10
    assert len(calls) == 1


def test_quartic_reference_run_bytes_are_pinned(monkeypatch):
    """The quartic workload's events and its sampled table, T = 60. Its
    dL/dv reads neither q nor z, so the field's differenced drift is exactly
    zero, as the differenced cross partials were before it: the bytes did
    not move when the drift replaced them. A change that moves them states it.
    The workload's L and dL/dv take v . v from numpy's ``@``, which the BLAS
    kernel rounds (with a fused multiply-add on AVX-512), so the run pinned
    here sums it left to right, as the package sums every product."""
    hs, s0, args = quartic_newton_run(monkeypatch)
    import workloads

    def vv(v):
        return float(v[0] * v[0] + v[1] * v[1])

    def L(q, v, z):
        return 0.5 * vv(v) + 0.025 * vv(v) * vv(v) - workloads.QUARTIC_GAMMA * z

    hs = dataclasses.replace(hs, dynamics=dataclasses.replace(
        hs.dynamics, lagrangian=L, dL_dv=lambda q, v, z: (1.0 + 0.1 * vv(v)) * v))

    traj = simulate(hs, s0, *args)
    grid = np.linspace(traj.t0, traj.t_end, workloads.QUARTIC_SAMPLES)
    table = traj.sample(np.unique(np.concatenate([grid, [e.t for e in traj.events]])))
    events, rows = hashlib.sha256(), hashlib.sha256()
    for e in traj.events:
        events.update(np.array([e.t, e.lam, e.residual_tangential, e.residual_energy]).tobytes())
        events.update(e.state_minus.as_vector().tobytes())
        events.update(e.state_plus.as_vector().tobytes())
    for arr in (table.times, table.states, table.flags):
        rows.update(np.ascontiguousarray(arr).tobytes())
    assert (traj.status, len(traj.events), len(table.times)) == (COMPLETED, 134, 1268)
    assert events.hexdigest() == \
        "66d71c4d3a3bfee966f12a35fbd1066aff4bdd6150950e528f20d8124d623fa3"
    assert rows.hexdigest() == "87f98003ce1ddadcdea773cee65c7bc44918c5a9dc654a099d9a2e22cc1d44c6"


def test_quartic_resolves_difference_the_hessian_three_times(monkeypatch):
    """On the quartic reference run every Newton resolve evaluates W three
    times: at v-, at the midpoint seed and for its one update. The run
    completes and every impact passes the certificate."""
    hs, s0, args = quartic_newton_run(monkeypatch)
    _, calls = counting_hessians(hs.dynamics)
    resolve, per_resolve = impact.resolve_impact_newton, []

    def counted_resolve(*args):
        calls.clear()
        try:
            return resolve(*args)
        finally:
            per_resolve.append(len(calls))

    monkeypatch.setattr(impact, "resolve_impact_newton", counted_resolve)
    traj = simulate(hs, s0, *args)
    assert traj.status == COMPLETED and len(traj.events) == 134
    assert per_resolve == [3] * 134
    assert all(check_impact_conditions(e, hs.dynamics, hs.surface).passed for e in traj.events)

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
            y, ydot = interpolant_rows(seg, ts)
        else:
            m = data.draw(st.integers(1, 20), label="m")
            rows = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2 * n + 1,
                                     max_size=2 * n + 1), min_size=m, max_size=m)
            y, ydot = np.array(data.draw(rows)), np.array(data.draw(rows))
        # row slices of the phase vectors, as the scan hands them over
        qs, qdots = y[:, :n], ydot[:, :n]
        h_block, dh_block = hs.surface.slopes(qs, qdots)
        h_point = np.array([hs.surface.value(q) for q in qs])
        dh_point = np.array([dot_left_to_right(hs.surface.gradient(q), v)
                             for q, v in zip(qs, qdots)])
        assert np.array(h_block).tobytes() == h_point.tobytes()
        assert np.array(dh_block).tobytes() == dh_point.tobytes()
        assert hs.surface.values(qs).tobytes() == h_point.tobytes()
        if name.startswith("sphere"):
            # and each is r^2 - q . q with q . q summed left to right
            r = BLOCK_SYSTEMS[name][0]["surface"]["radius"]
            assert h_point.tobytes() == np.array(
                [r * r - dot_left_to_right(q, q) for q in qs]).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 20), ordered=st.booleans())
    def test_sphere_block_equals_the_point_gate_at_every_n(self, data, n, m, ordered):
        # values on the rows the scan reads or on the C-ordered columns a
        # caller of the certificate may hand over; slopes on the scan's rows
        surface = cli._parse_system({"system": {
            "kind": "custom", "n": n, "mass_matrix": np.eye(n).tolist(),
            "surface": {"kind": "sphere", "radius": 1.3}}}).hybrid.surface
        rows = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                        min_size=m, max_size=m)
        qs, qdots = np.array(data.draw(rows)), np.array(data.draw(rows))
        h_point = np.array([surface.value(q) for q in qs])
        h_block, dh_block = surface.slopes(qs, qdots)
        assert np.array(h_block).tobytes() == h_point.tobytes()
        assert np.array(dh_block).tobytes() == np.array(
            [dot_left_to_right(surface.gradient(q), v) for q, v in zip(qs, qdots)]).tobytes()
        block = np.ascontiguousarray(qs.T).T if ordered else qs
        assert surface.values(block).tobytes() == h_point.tobytes()

    @pytest.mark.parametrize("surface", [
        SwitchingSurface(quadric=(-np.eye(2), np.zeros(2), 1.0)), UNIT_CIRCLE],
        ids=["quadric", "function"])
    def test_zero_rows_give_empty_blocks(self, surface):
        # a run without impacts hands the certificate zero pre/post pairs
        qs = np.empty((0, 2))
        assert surface.values(qs).shape == (0,)
        assert surface.gradients(qs).shape == (2, 0)
        assert surface.slopes(qs, qs) == ([], [])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(4, 8), m=st.integers(1, 20))
    def test_c_ordered_gradient_block_equals_the_point_gate(self, data, n, m):
        # grad h written the billiards' way, one coordinate a row, returns a
        # C-ordered (n, m) block; slopes read it on the scan's row slices
        surface = SwitchingSurface(h=lambda q: 1.69 - sum(q[i] * q[i] for i in range(n)),
                                   grad_h=lambda q: np.array([-2.0 * q[i] for i in range(n)]))
        rows = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2 * n + 1,
                                 max_size=2 * n + 1), min_size=m, max_size=m)
        y, ydot = np.array(data.draw(rows)), np.array(data.draw(rows))
        qs, qdots = y[:, :n], ydot[:, :n]
        h_block, dh_block = surface.slopes(qs, qdots)
        assert np.array(h_block).tobytes() == np.array([surface.value(q) for q in qs]).tobytes()
        assert np.array(dh_block).tobytes() == np.array(
            [dot_left_to_right(surface.gradient(q), v) for q, v in zip(qs, qdots)]).tobytes()


# The unit sphere in n = 1 to 8, and a diagonal and a skewed SPD mass, A A^T + I
# for one fixed A (the leading n x n block of each).
SPHERE = SwitchingSurface(h=lambda q: 1.0 - np.vecdot(q, q, axis=0), grad_h=lambda q: -2.0 * q)
_A = np.random.default_rng(8).uniform(-1.0, 1.0, (8, 8))
CERTIFICATE_MASSES = {
    "diagonal": np.diag([1.0, 2.5, 0.7, 1.8, 0.4, 3.0, 1.2, 0.9]),
    "skewed": _A @ _A.T + np.eye(8),
}
# What a column of the differential test is: an impact as a resolver returns
# it, or that impact with one part of the guard broken.
PAIR_KINDS = ("impact", "identity reset", "q jump", "z jump", "t jump", "off the surface",
              "not reversed")


@functools.lru_cache(maxsize=None)
def certificate_system(n, mass, formulation):
    sys = natural_lagrangian_system(n, CERTIFICATE_MASSES[mass][:n, :n], gamma=0.2)
    return sys, (sys if formulation == "lagrangian" else hamiltonian_from_lagrangian(sys))


def certificate_pair(lag, sys, kind, u, v, z, t):
    """(minus, plus) phases and times, (q, x, z, t), of one resolved impact
    at the sphere point u / |u| with velocity v made to approach it, then
    broken as kind says."""
    q = u / np.linalg.norm(u)
    v = v + (0.5 - float(q @ v)) * q   # the normal speed is 2 q . v = 1
    s_minus = ContactStateL(q=q, qdot=v, z=z, t=t)
    if sys is not lag:
        s_minus = legendre_forward(lag, s_minus)
    event = (resolve_impact_natural if sys is lag else resolve_impact_hamiltonian)(
        sys, s_minus, SPHERE)
    (q, x_minus, z, t), x_plus = (*s_minus.phase, t), event.state_plus.phase[1]
    q_plus, z_plus, t_plus = q, z, t
    if kind == "identity reset":
        x_plus = x_minus
    elif kind == "q jump":
        q_plus = q + 1e-3
    elif kind == "z jump":
        z_plus = z + 1e-3
    elif kind == "t jump":
        t_plus = t + 1e-3
    elif kind == "off the surface":
        q = q_plus = 1.01 * q
    elif kind == "not reversed":
        x_plus = 2.0 * x_minus
    return (q, x_minus, z, t), (q_plus, x_plus, z_plus, t_plus)


class TestCertificateOnColumns:
    """``impact._violations`` and ``_residuals`` at m pairs as columns equal
    their one-pair calls bit for bit, and each broken guard is inf in its
    own column only, in the verdicts and in the residual pair returned beside
    them. The columns come as C-ordered (n, m) arrays or as the transposed
    rows that ``contactsim check`` reads from its CSV."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8), m=st.integers(0, 6),
           mass=st.sampled_from(sorted(CERTIFICATE_MASSES)),
           formulation=st.sampled_from(["lagrangian", "hamiltonian"]), rows=st.booleans())
    def test_columns_equal_the_one_pair_calls(self, data, n, m, mass, formulation, rows):
        lag, sys = certificate_system(n, mass, formulation)
        vector = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).filter(
            lambda u: np.linalg.norm(u) > 0.1)
        kinds = data.draw(st.lists(st.sampled_from(PAIR_KINDS), min_size=m, max_size=m))
        pairs = [certificate_pair(lag, sys, kind, np.array(data.draw(vector)),
                                  np.array(data.draw(vector)), data.draw(st.floats(-1.0, 1.0)),
                                  data.draw(st.floats(0.0, 10.0))) for kind in kinds]

        def columns(side):
            parts = [np.array([pair[side][k] for pair in pairs], dtype=float).reshape(
                m, n if k < 2 else 1) for k in range(4)]
            if not rows:
                return tuple(np.ascontiguousarray(p.T) for p in parts[:2]) + tuple(
                    p[:, 0] for p in parts[2:])
            phase = np.column_stack(parts)   # rows [q, x, z, t], read back as columns
            return phase[:, :n].T, phase[:, n:2 * n].T, phase[:, 2 * n], phase[:, 2 * n + 1]

        minus, plus = columns(0), columns(1)
        block, residuals, velocities = impact._violations(sys, SPHERE, minus, plus)
        one_pair = np.array([impact._violations(sys, SPHERE, *pair) for pair in pairs], dtype=float)
        assert block.tobytes() == one_pair.tobytes()
        assert np.isinf(block).tolist() == [kind != "impact" for kind in kinds]
        states = [[sys.state_type(q, x, z, t) for q, x, z, t in pair] for pair in pairs]
        assert one_pair.tolist() == [check_impact_conditions(
            impact.ImpactEvent(*s, 0.0, sys, SPHERE), sys, SPHERE).max_violation for s in states]
        # the unguarded residuals, column by column; zero columns give two empty rows
        r_block = impact._residuals(sys, SPHERE.gradients(minus[0].T), minus[:3], plus[:3])
        r_pairs = [impact._residuals(sys, SPHERE.gradient(p[0][0]), p[0][:3], p[1][:3])
                   for p in pairs]
        assert np.array(r_block).shape == (2, m)
        assert np.array(r_block).tobytes() == np.array(r_pairs).T.tobytes()
        # beside the verdicts: those residuals where the guard holds, else inf, and v-, v+
        ok = np.isfinite(block)
        assert residuals[0][ok].tobytes() + residuals[1][ok].tobytes() == \
            np.array(r_block)[:, ok].tobytes()
        assert np.isinf(np.array(residuals)[:, ~ok]).all()
        for v, side in zip(velocities, (minus, plus)):
            assert v.tobytes() == np.asarray(sys.velocity(*side[:3]), dtype=float).tobytes()
        assert [impact_residuals(sys, SPHERE, *s) for s in states] == [
            tuple(map(float, r)) for r in r_pairs]

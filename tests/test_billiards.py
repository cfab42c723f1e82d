import math

import numpy as np
import pytest

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    Ellipse,
    EventConfig,
    StepperConfig,
    angular_momentum,
    circular_impact_closed_form,
    elliptical_impact_closed_form,
    free_particle_closed_form,
    herglotz_rhs,
    lagrangian_energy,
    make_circular_billiard,
    make_elliptical_billiard,
    simulate,
)


def rk4_action_oracle(gamma, T0, z0, t_final, steps=20000):
    """Brute-force reference for zdot = T0 e^(-2 gamma t) - gamma z."""
    def f(t, z):
        return T0 * math.exp(-2.0 * gamma * t) - gamma * z

    z = z0
    h = t_final / steps
    t = 0.0
    for _ in range(steps):
        k1 = f(t, z)
        k2 = f(t + h / 2, z + h / 2 * k1)
        k3 = f(t + h / 2, z + h / 2 * k2)
        k4 = f(t + h, z + h * k3)
        z += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return z


class TestClosedForms:
    def test_position_value_from_reference_data(self):
        q, v, _ = free_particle_closed_form(1e-4, [0.5], [1.0], 0.5, 1.0)
        assert f"{q[0]:.10f}".startswith("1.4999500017")
        assert v[0] == pytest.approx(math.exp(-1e-4), rel=1e-15)

    def test_time_zero_identity(self):
        q, v, z = free_particle_closed_form(0.3, [0.5, 0.1], [1.0, -2.0], 2.8, 0.0)
        assert np.allclose(q, [0.5, 0.1], atol=0)
        assert np.allclose(v, [1.0, -2.0], atol=0)
        # E0 = T0 + gamma z0 -> z0 = (2.8 - 2.5) / 0.3
        assert z == pytest.approx((2.8 - 2.5) / 0.3, rel=1e-12)

    def test_vanishing_gamma_limit_matches_tiny_gamma(self):
        t = np.linspace(0.0, 3.0, 7)
        q0, v0 = [0.5, 0.0], [1.0, 1.0]
        qa, va, za = free_particle_closed_form(0.0, q0, v0, 1.0, t)
        qb, vb, zb = free_particle_closed_form(1e-12, q0, v0, 1.0, t)
        assert np.max(np.abs(qa - qb)) < 1e-6
        assert np.max(np.abs(va - vb)) < 1e-6
        assert np.max(np.abs(za - zb)) < 1e-6

    def test_action_against_independent_quadrature(self):
        # dual route: the closed form vs a brute-force RK4 integration
        for gamma, T0, z0 in ((1e-4, 1.0, 0.0), (0.05, 0.75, 0.4), (0.5, 2.0, -1.0)):
            e0 = T0 + gamma * z0
            v0 = math.sqrt(2.0 * T0)
            for t in (0.5, 1.0, 3.0):
                _, _, z = free_particle_closed_form(gamma, [0.0], [v0], e0, t)
                ref = rk4_action_oracle(gamma, T0, z0, t)
                assert abs(float(z) - ref) < 1e-10

    def test_energy_consistency_along_closed_form(self):
        # E(t) = T(t) + gamma z(t) must equal E0 e^(-gamma t)
        gamma, e0 = 0.01, 1.0
        for t in np.linspace(0.0, 5.0, 21):
            _, v, z = free_particle_closed_form(gamma, [0.5, 0.0], [1.0, 1.0], e0, t)
            T = 0.5 * float(np.asarray(v) @ np.asarray(v))
            assert T + gamma * float(z) == pytest.approx(
                e0 * math.exp(-gamma * t), rel=1e-12)


class TestImpactClosedForms:
    def test_circle_reference_values(self):
        assert circular_impact_closed_form(1.0, 0.0, 1.0, 0.5) == (-1.0, 0.5)
        assert circular_impact_closed_form(0.0, 1.0, 1.0, 1.0) == (1.0, -1.0)

    def test_circle_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            circular_impact_closed_form(0.5, 0.0, 1.0, 0.0)

    def test_ellipse_vertex_and_covertex(self):
        a, b = 0.9, 1.1
        assert elliptical_impact_closed_form(a, b, a, 0.0, 1.0, 0.7) == \
            pytest.approx((-1.0, 0.7), abs=1e-14)
        assert elliptical_impact_closed_form(a, b, 0.0, b, 0.6, 1.0) == \
            pytest.approx((0.6, -1.0), abs=1e-14)

    def test_ellipse_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            elliptical_impact_closed_form(0.9, 1.1, 0.0, 0.0, 1.0, 0.0)

    def test_unit_ellipse_reduces_to_circle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            phi = rng.uniform(0, 2 * np.pi)
            x, y = np.cos(phi), np.sin(phi)
            vx, vy = rng.uniform(-2, 2, size=2)
            ve = elliptical_impact_closed_form(1.0, 1.0, x, y, vx, vy)
            vc = circular_impact_closed_form(x, y, vx, vy)
            assert max(abs(ve[0] - vc[0]), abs(ve[1] - vc[1])) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda: circular_impact_closed_form(math.nan, 0.0, 1.0, 0.0), "off the unit circle"),
    (lambda: elliptical_impact_closed_form(0.9, 1.1, math.nan, 0.0, 1.0, 0.0),
     "off the ellipse"),
    (lambda: BilliardSpec(boundary=Circle(1.0), gamma=math.nan), "gamma must be >= 0"),
    (lambda: free_particle_closed_form(math.nan, [0.0, 0.0], [1.0, 0.0], 0.5, 1.0),
     "gamma must be >= 0"),
], ids=["circle_point", "ellipse_point", "spec_gamma", "free_particle_gamma"])
def test_nan_is_rejected_by_every_guard(call, message):
    # each guard accepts only a good value, so a NaN, which fails every
    # comparison, is rejected rather than let through
    with pytest.raises(ValueError, match=message):
        call()


class TestBuilders:
    def test_circle_surface_values(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
        q = np.array([1.0, 0.0])
        assert hs.surface.value(q) == 0.0
        assert np.array_equal(hs.surface.gradient(q), [-2.0, 0.0])

    def test_circle_dynamics_is_linear_drag(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
        s = ContactStateL(q=[0.1, 0.2], qdot=[0.7, -0.4], z=0.0)
        qddot = herglotz_rhs(hs.dynamics, s.t, s.as_vector())[2:4]
        assert np.allclose(qddot, [-1e-4 * 0.7, -1e-4 * -0.4], atol=1e-18)

    def test_conservative_circle_preserves_energy(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=0.0))
        s0 = ContactStateL(q=[0.3, 0.1], qdot=[1.0, 0.4], z=0.0)
        traj = simulate(hs, s0, 6.0, StepperConfig(), EventConfig())
        E0 = lagrangian_energy(hs.dynamics, s0)
        for t in np.linspace(0.0, 6.0, 30):
            y = traj.state_at(float(t))
            s = ContactStateL.from_vector(y, t)
            assert abs(lagrangian_energy(hs.dynamics, s) - E0) < 1e-10

    def test_unit_ellipse_matches_circle_trajectories(self):
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        hs_c = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
        hs_e = make_elliptical_billiard(
            BilliardSpec(boundary=Ellipse(1.0, 1.0), gamma=1e-4))
        tr_c = simulate(hs_c, s0, 5.0, StepperConfig(), EventConfig())
        tr_e = simulate(hs_e, s0, 5.0, StepperConfig(), EventConfig())
        for t in np.linspace(0.0, 5.0, 50):
            assert np.max(np.abs(tr_c.state_at(float(t))
                                 - tr_e.state_at(float(t)))) < 1e-12

    def test_reference_elliptical_run_completes(self, ellipse_billiard):
        s0 = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.2], z=0.0)
        traj = simulate(ellipse_billiard, s0, 10.0, StepperConfig(), EventConfig())
        assert traj.status == "Completed"
        assert len(traj.events) >= 5
        for e in traj.events:
            assert e.residual_tangential <= 1e-10
            assert e.residual_energy <= 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BilliardSpec(boundary=Circle(-1.0))
        with pytest.raises(ValueError):
            BilliardSpec(boundary=Ellipse(0.9, 0.0))
        with pytest.raises(ValueError):
            BilliardSpec(boundary=Circle(1.0), gamma=-0.1)
        with pytest.raises(ValueError):
            BilliardSpec(boundary=Circle(1.0), mass=0.0)
        with pytest.raises(ValueError):
            make_circular_billiard(BilliardSpec(boundary=Ellipse(1.0, 2.0)))


class TestAngularQuantity:
    def test_reference_initial_value(self):
        s = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        assert angular_momentum(s) == 0.5

    def test_radial_motion_vanishes(self):
        s = ContactStateL(q=[0.3, 0.4], qdot=[0.6, 0.8], z=0.0)
        assert abs(angular_momentum(s)) < 1e-15

    def test_planar_only(self):
        with pytest.raises(ValueError):
            angular_momentum(ContactStateL(q=[0.1], qdot=[1.0], z=0.0))

    def test_decay_across_impacts(self, fig1_trajectory):
        traj = fig1_trajectory
        gamma = 1e-4
        s0 = ContactStateL.from_vector(traj.state_at(traj.t0), traj.t0)
        l0 = angular_momentum(s0)
        for t in np.linspace(traj.t0, traj.t_end, 200):
            s = ContactStateL.from_vector(traj.state_at(float(t)), t)
            ref = l0 * math.exp(-gamma * (t - traj.t0))
            assert abs(angular_momentum(s) - ref) / abs(l0) < 1e-8

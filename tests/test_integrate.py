import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from contactsim import (
    ContactStateL,
    ExteriorState,
    GrazingContact,
    MaxStepsExceeded,
    NoSignChange,
    StepperConfig,
    StepSizeUnderflow,
    SwitchingSurface,
    integrate_until_event,
    locate_event,
    simulate,
    step,
)
from contactsim import cli, integrate
from contactsim.checks import check_containment
from contactsim.impact import _GRAZING_SPEED

GAMMA = 1e-4
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")

UNIT_CIRCLE = SwitchingSurface(
    h=lambda q: 1.0 - q[0] * q[0] - q[1] * q[1],
    grad_h=lambda q: np.array([-2.0 * q[0], -2.0 * q[1]]),
)


def damped_rhs(gamma):
    """(x, v) blocks plus z with zdot = L = |v|^2/2 - gamma z."""
    def f(t, y):
        n = (y.size - 1) // 2
        v = y[n:2 * n]
        return np.concatenate([v, -gamma * v, [0.5 * float(v @ v) - gamma * y[-1]]])
    return f


def damped_closed_form(gamma, x0, v0, t):
    """Inline oracle: position, velocity, z for z0 = 0 (so E0 = T0)."""
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    stretch = -math.expm1(-gamma * t) / gamma
    x = x0 + v0 * stretch
    v = v0 * math.exp(-gamma * t)
    T0 = 0.5 * float(v0 @ v0)
    z = (T0 / gamma) * (math.exp(-gamma * t) - math.exp(-2.0 * gamma * t))
    return x, v, z


class TestStep:
    def test_scalar_linear_decay(self):
        cfg = StepperConfig(rtol=1e-10, atol=1e-10, h_init=0.01, h_max=0.5)
        run = integrate_until_event(lambda t, y: -y, 0.0, np.array([1.0]), 1.0,
                                    cfg=cfg)
        assert run.t1 == 1.0
        assert abs(run.y1[0] - math.exp(-1.0)) < 1e-9

    def test_damped_particle_position(self):
        # x(1) = 0.5 + (1/gamma)(1 - e^(-gamma)) ~ 1.4999500017
        cfg = StepperConfig()
        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 1.0, 0.0]), 1.0, cfg=cfg)
        x_ref, v_ref, _ = damped_closed_form(GAMMA, [0.5], [1.0], 1.0)
        assert abs(run.y1[0] - x_ref[0]) < 1e-9
        assert abs(run.y1[1] - v_ref[0]) < 1e-9
        assert f"{run.y1[0]:.10f}".startswith("1.4999500017")

    def test_damped_particle_action(self):
        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 1.0, 0.0]), 1.0,
                                    cfg=StepperConfig())
        _, _, z_ref = damped_closed_form(GAMMA, [0.5], [1.0], 1.0)
        assert abs(run.y1[2] - z_ref) < 1e-8

    def test_step_returns_consistent_segment(self):
        f = lambda t, y: y * np.cos(t)
        y0 = np.array([1.2])
        seg, h_next, f1 = step(f, 0.3, y0, StepperConfig(h_init=0.1), 0.1, f(0.3, y0))
        assert seg.t0 == 0.3 and np.array_equal(seg.y0, [1.2])
        assert np.array_equal(seg.eval(seg.t0), seg.y0)
        assert np.array_equal(seg.eval(seg.t1), seg.y1)
        assert seg.h_step > 0 and seg.t0 + seg.h_step == seg.t1
        assert h_next > 0
        assert np.allclose(f1, f(seg.t1, seg.y1))


class TestDenseOutput:
    def test_endpoint_identity_of_interpolant(self):
        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 1.0, 0.0]), 2.0,
                                    cfg=StepperConfig())
        for seg in run.segments:
            # raw quartic at theta = 1 (bypassing the stored-endpoint shortcut)
            y_end = seg.y0 + seg._r2
            scale = np.maximum(1.0, np.abs(seg.y1))
            assert np.max(np.abs(y_end - seg.y1) / scale) < 1e-13
            assert np.array_equal(seg.eval(seg.t0), seg.y0)
            assert np.array_equal(seg.eval(seg.t1), seg.y1)

    def test_interior_accuracy_against_closed_form(self):
        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 1.0, 0.0]), 2.0,
                                    cfg=StepperConfig())
        for seg in run.segments:
            for t in np.linspace(seg.t0, seg.t1, 7):
                x_ref, v_ref, z_ref = damped_closed_form(GAMMA, [0.5], [1.0], t)
                y = seg.eval(t)
                assert abs(y[0] - x_ref[0]) < 1e-9
                assert abs(y[1] - v_ref[0]) < 1e-9
                assert abs(y[2] - z_ref) < 1e-9

    def test_convergence_no_error_increase_when_tightening(self):
        errs = []
        for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
            cfg = StepperConfig(rtol=tol, atol=tol, h_init=0.1, h_max=2.0)
            run = integrate_until_event(damped_rhs(1e-2), 0.0,
                                        np.array([0.5, 1.0, 0.0]), 2.0, cfg=cfg)
            x_ref, v_ref, z_ref = damped_closed_form(1e-2, [0.5], [1.0], 2.0)
            errs.append(max(abs(run.y1[0] - x_ref[0]), abs(run.y1[1] - v_ref[0]),
                            abs(run.y1[2] - z_ref)))
        floor = 1e-13
        for a, b in zip(errs, errs[1:]):
            assert b <= a + floor


class TestEvents:
    def test_straight_line_to_boundary(self):
        # from the center along x: the wall is exactly one time unit away
        run = integrate_until_event(damped_rhs(0.0), 0.0,
                                    np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 5.0,
                                    surface=UNIT_CIRCLE)
        assert run.hit is not None
        assert abs(run.hit.t - 1.0) < 1e-10
        assert np.allclose(run.hit.y[:2], [1.0, 0.0], atol=1e-10)

    def test_offset_start(self):
        run = integrate_until_event(damped_rhs(0.0), 0.0,
                                    np.array([0.5, 0.0, 1.0, 0.0, 0.0]), 5.0,
                                    surface=UNIT_CIRCLE)
        assert abs(run.hit.t - 0.5) < 1e-10

    def test_hit_time_matches_scalar_root_on_closed_form(self):
        # independent oracle: bisection on |closed-form position|^2 = 1
        def radius_excess(t):
            x, _, _ = damped_closed_form(GAMMA, [0.5, 0.0], [1.0, 1.0], t)
            return float(x @ x) - 1.0

        lo, hi = 0.0, 1.0
        assert radius_excess(lo) < 0 < radius_excess(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if radius_excess(mid) < 0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)

        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 0.0, 1.0, 1.0, 0.0]), 5.0,
                                    surface=UNIT_CIRCLE)
        assert abs(run.hit.t - t_star) < 1e-8

    def test_event_state_on_surface_and_inbound(self):
        run = integrate_until_event(damped_rhs(GAMMA), 0.0,
                                    np.array([0.5, 0.0, 1.0, 1.0, 0.0]), 5.0,
                                    surface=UNIT_CIRCLE)
        q = run.hit.y[:2]
        v = run.hit.y[2:4]
        assert abs(UNIT_CIRCLE.value(q)) <= 1e-12
        assert UNIT_CIRCLE.gradient(q) @ v < 0.0
        assert run.hit.hdot < 0.0
        # the last step is cut at the hit and owns its end state
        seg = run.segments[-1]
        assert seg.t1 == run.hit.t == run.t1
        assert seg.y1.tobytes() == run.hit.y.tobytes() == run.y1.tobytes()
        assert seg.y1 is not run.hit.y and seg.y1 is not run.y1

    def test_surface_sees_only_the_q_block(self):
        # had h = 1 - q.q seen all of [q, v, z], it would fire at t = 1.2771
        ball = SwitchingSurface(h=lambda q: 1.0 - np.vecdot(q, q, axis=0),
                                grad_h=lambda q: -2.0 * q)
        y0 = np.array([0.0, 0.0, 0.6, 0.0, 0.0])
        run = integrate_until_event(damped_rhs(0.0), 0.0, y0, 5.0, surface=ball)
        assert abs(run.hit.t - 1.0 / 0.6) < 1e-10

    def test_exterior_start_is_hard_error(self):
        with pytest.raises(ExteriorState):
            integrate_until_event(damped_rhs(0.0), 0.0,
                                  np.array([2.0, 0.0, 1.0, 0.0, 0.0]), 1.0,
                                  surface=UNIT_CIRCLE)


class TestLocateEvent:
    """One-dimensional motions q(t) on [q, v, z] phase vectors, v = dq/dt."""

    def _segment_for(self, rhs, t0, y0, h):
        y0 = np.asarray(y0, float)
        seg, _, _ = step(rhs, t0, y0, StepperConfig(h_init=h, h_max=h), h, rhs(t0, y0))
        return seg

    @staticmethod
    def _bracket(seg, surface):
        bracket, _ = integrate._scan(seg, surface, armed=True)
        return bracket

    def test_quadratic_crossing(self):
        # q(t) = t against h(q) = 1 - q^2: root at t = 1
        line = SwitchingSurface(h=lambda q: 1.0 - q[0] * q[0],
                                grad_h=lambda q: np.array([-2.0 * q[0]]))
        seg = self._segment_for(lambda t, y: np.array([1.0, 0.0, 0.0]),
                                0.9, [0.9, 1.0, 0.0], 0.2)
        hit = locate_event(seg, line, bracket=self._bracket(seg, line))
        assert abs(hit.t - 1.0) <= 1e-12
        assert abs(line.value(hit.y[:1])) <= 1e-12

    def test_tangential_crossing_is_grazing(self):
        # q(t) = -(t - 1)^3 leaves the admissible side with zero slope at t = 1
        floor = SwitchingSurface(h=lambda q: q[0],
                                 grad_h=lambda q: np.ones_like(q))
        seg = self._segment_for(
            lambda t, y: np.array([-3.0 * (t - 1.0) ** 2, -6.0 * (t - 1.0), 0.0]),
            0.5, [0.125, -0.75, 0.0], 1.0)
        with pytest.raises(GrazingContact):
            locate_event(seg, floor, bracket=self._bracket(seg, floor))

    def test_no_sign_change(self):
        floor = SwitchingSurface(h=lambda q: q[0] + 10.0,
                                 grad_h=lambda q: np.ones_like(q))
        seg = self._segment_for(lambda t, y: np.array([1.0, 0.0, 0.0]),
                                0.0, [0.0, 1.0, 0.0], 1.0)
        assert self._bracket(seg, floor) is None
        with pytest.raises(NoSignChange):
            locate_event(seg, floor, bracket=(seg.t0, seg.t1))


    def test_root_on_the_exterior_checkpoint_closes_at_once(self, monkeypatch):
        # h(b) = 0 exactly at the scan's checkpoint b: the secant start is b
        # itself, and every Newton point used to land on b and be bisected
        seg = self._segment_for(lambda t, y: np.array([-1.0, 0.0, 0.0]),
                                0.0, [1.0, -1.0, 0.0], 1.6)
        b = float(integrate._checkpoints(seg.t0, seg.t1)[10])
        level = float(seg.eval(b)[0])
        wall = SwitchingSurface(h=lambda q: q[0] - level, grad_h=lambda q: np.ones_like(q))
        bracket = self._bracket(seg, wall)
        assert bracket[1] == b
        calls = []
        evaluate, derivative = integrate.DenseSegment.eval, integrate.DenseSegment.eval_derivative
        monkeypatch.setattr(integrate.DenseSegment, "eval",
                            lambda self, t: calls.append("eval") or evaluate(self, t))
        monkeypatch.setattr(integrate.DenseSegment, "eval_derivative",
                            lambda self, t: calls.append("d") or derivative(self, t))
        hit = locate_event(seg, wall, bracket=bracket)
        assert hit.t == b and abs(hit.hdot + 1.0) <= 1e-12
        assert calls == ["eval", "eval", "d"]   # h at a and b, dh/dt at b


# q'' = c on the phase vector [q, v, z]: its quadratic path is exact on the
# interpolant, and one step of length 1.6 puts the checkpoints 0.1 apart
def parabola(c):
    return lambda t, y: np.array([y[1], c, 0.0])


FLOOR = SwitchingSurface(h=lambda q: q[0], grad_h=lambda q: np.ones_like(q))


class TestScanBetweenCheckpoints:
    """The guard reads dh/dt at its checkpoints and finds the extrema of h
    between them."""

    @staticmethod
    def _step(rhs, y0):
        y0 = np.asarray(y0, float)
        cfg = StepperConfig(h_init=1.6, h_max=1.6)
        seg, _, _ = step(rhs, 0.0, y0, cfg, 1.6, rhs(0.0, y0))
        return seg

    def test_re_exit_before_the_guard_re_arms(self):
        # just after an impact on the floor the path rises to 3.1e-4 at
        # t = 0.025 and is back at t = 0.05, before the first checkpoint
        y0 = [0.0, 0.025, 0.0]
        seg = self._step(parabola(-1.0), y0)
        bracket, armed = integrate._scan(seg, FLOOR, armed=False)
        assert armed and bracket[1] == 0.1
        assert abs(bracket[0] - 0.025) <= 1e-12
        hit = locate_event(seg, FLOOR, bracket=bracket)
        assert abs(hit.t - 0.05) <= 1e-12 and hit.hdot < 0.0
        run = integrate_until_event(parabola(-1.0), 0.0, np.array(y0), 1.6, FLOOR,
                                    StepperConfig(h_init=1.6, h_max=1.6), armed=False)
        assert abs(run.hit.t - 0.05) <= 1e-12

    def test_rise_below_the_arming_threshold_stays_disarmed(self):
        seg = self._step(parabola(-1.0), [0.0, 1e-5, 0.0])   # rises to 5e-11
        assert integrate._scan(seg, FLOOR, armed=False) == (None, False)

    def test_dip_between_two_interior_checkpoints_is_bracketed(self):
        # q = (t - 0.85)^2 - 4e-4 is below the floor on (0.83, 0.87), and
        # above it at the checkpoints 0.8 and 0.9
        y0 = [0.85 ** 2 - 4e-4, -1.7, 0.0]
        seg = self._step(parabola(2.0), y0)
        bracket, armed = integrate._scan(seg, FLOOR, armed=True)
        assert armed and bracket[0] == 0.8
        assert abs(bracket[1] - 0.85) <= 1e-12
        hit = locate_event(seg, FLOOR, bracket=bracket)
        assert abs(hit.t - 0.83) <= 1e-12

    def test_dip_that_stays_inside_is_no_event(self):
        seg = self._step(parabola(2.0), [0.85 ** 2 + 4e-4, -1.7, 0.0])
        assert integrate._scan(seg, FLOOR, armed=True) == (None, True)


def cubic_motion(t_star, coefs):
    """q(t) = sum_k coefs[k] (t - t_star)^k for k = 0..3, as the field of the
    phase vector [q, v, z] (v = dq/dt, z constant) and the polynomials q_i
    in s = t - t_star. Its field is polynomial in t of degree at most 2,
    so the stepper and its quartic interpolant reproduce q to rounding."""
    c = [np.asarray(ck, float) for ck in coefs]
    n = c[0].size

    def rhs(t, y):
        s = t - t_star
        return np.concatenate([c[1] + 2.0 * c[2] * s + 3.0 * c[3] * s * s,
                               2.0 * c[2] + 6.0 * c[3] * s, [0.0]])

    polys = [Polynomial([ck[i] for ck in c]) for i in range(n)]
    return rhs, polys


_unit = st.floats(-1.0, 1.0)
_vec2 = st.tuples(_unit, _unit)


class TestLocateProperties:
    """``locate_event`` on one step of a motion whose interpolant is exact to
    rounding, so the crossing time is known in closed form."""

    @staticmethod
    def _crossing(surface, q_star, u, w, r, phase, length):
        t_star = 0.3 + phase * length
        rhs, polys = cubic_motion(t_star, (q_star, u, w, r))
        y0 = np.concatenate([[p(-phase * length) for p in polys],
                             [p.deriv()(-phase * length) for p in polys], [0.0]])
        cfg = StepperConfig(h_init=length, h_max=length)
        seg, _, _ = step(rhs, 0.3, y0, cfg, length, rhs(0.3, y0))
        return seg, t_star, polys

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(quadratic=st.booleans(), angle=st.floats(0.0, 2.0 * math.pi),
           axes=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           speed_in=st.floats(0.1, 2.0), speed_along=st.floats(-2.0, 2.0),
           w=_vec2, r=_vec2, phase=st.floats(0.05, 0.95), length=st.floats(0.05, 1.0))
    def test_transversal_root_is_found_to_rounding(self, quadratic, angle, axes, speed_in,
                                                  speed_along, w, r, phase, length):
        direction = np.array([math.cos(angle), math.sin(angle)])
        if quadratic:
            # h = 1 - a1 q1^2 - a2 q2^2 with q* on the curve h = 0
            a = np.array(axes)
            surface = SwitchingSurface(h=lambda q: 1.0 - np.vecdot(a, (q * q).T),
                                       grad_h=lambda q: (-2.0 * a * q.T).T)
            q_star = direction / np.sqrt(a)
        else:
            # h = n . (q* - q), the half-plane behind the line through q*
            surface = SwitchingSurface(h=lambda q: np.vecdot(direction, q_star - q.T),
                                       grad_h=lambda q: (np.ones_like(q).T * -direction).T)
            q_star = np.array(axes)
        g = surface.gradient(q_star)
        normal = g / np.linalg.norm(g)
        tangent = np.array([-normal[1], normal[0]])
        u = speed_along * tangent - speed_in * normal   # dh/dt = -speed_in |g| at t*
        seg, t_star, polys = self._crossing(surface, q_star, u, w, r, phase, length)
        bracket, _ = integrate._scan(seg, surface, armed=True)
        # keep draws where t* is the one crossing in the scan's bracket
        h_poly = (1.0 - sum(ai * p * p for ai, p in zip(axes, polys)) if quadratic
                  else sum(-di * p for di, p in zip(direction, polys)) + direction @ q_star)
        if bracket is None or not bracket[0] < t_star <= bracket[1]:
            return
        roots = [z.real for z in h_poly.roots() if abs(z.imag) <= 1e-9
                 and bracket[0] - 1e-9 <= t_star + z.real <= bracket[1] + 1e-9]
        if len(roots) != 1:
            return

        hit = locate_event(seg, surface, bracket=bracket)
        assert abs(hit.t - t_star) <= 2e-12
        h_end = surface.value(seg.eval(hit.t)[:2])   # before the projection
        assert h_end <= 0.0 and abs(h_end) <= 1e-12
        assert hit.hdot < 0.0
        assert abs(surface.value(hit.y[:2])) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_slope=st.floats(math.log10(1.5 * _GRAZING_SPEED), -6.0),
           cubic=st.one_of(st.just(0.0), st.floats(0.5, 2.0)), phase=st.floats(0.2, 0.8))
    def test_near_tangent_crossing_is_localized(self, log_slope, cubic, phase):
        # q(s) = -(alpha s + c s^3) against h = q, with dh/dt = -alpha just
        # above the grazing speed at the root: a straight path (c = 0), or an
        # inflection, where Newton converges linearly until |s| ~ sqrt(alpha / c)
        # and h rounds to exactly 0 on a band about 1e-17 / alpha wide
        alpha = 10.0 ** log_slope
        floor = SwitchingSurface(h=lambda q: q[0], grad_h=lambda q: np.ones_like(q))
        seg, t_star, _ = self._crossing(floor, [0.0], [-alpha], [0.0], [-cubic], phase, 0.5)
        bracket, _ = integrate._scan(seg, floor, armed=True)
        evals = []
        evaluate = integrate.DenseSegment.eval

        def counted(self, t):
            evals.append(t)
            return evaluate(self, t)

        integrate.DenseSegment.eval = counted
        try:
            hit = locate_event(seg, floor, bracket=bracket)
        finally:
            integrate.DenseSegment.eval = evaluate
        # the secant-bisection this replaced took 22 to 50 on the inflections
        assert len(evals) <= (8 if cubic == 0.0 else 64)
        h_end = float(seg.eval(hit.t)[0])
        assert h_end <= 0.0 and abs(h_end) <= 1e-12
        assert hit.hdot <= -_GRAZING_SPEED
        # the located time is t* to the width tolerance, widened by rounding: the
        # step sums q from values up to q_max, so the sign of h is settled only
        # outside a band about eps q_max / alpha wide around t*, which is up to
        # 7e-8 on the inflections with the least slopes; dh/dt is the path's
        # slope -(alpha + 3 c s^2) there
        s = hit.t - t_star
        reach = max(phase, 1.0 - phase) * 0.5
        q_max = alpha * reach + cubic * reach ** 3
        assert abs(s) <= 1e-12 + 10.0 * np.finfo(float).eps * q_max / alpha
        assert abs(hit.hdot + alpha + 3.0 * cubic * s * s) <= 1e-6 * alpha


@pytest.mark.parametrize("config, formulation, n_events", [
    ("circle.json", "lagrangian", 150), ("ellipse.json", "hamiltonian", 161)])
def test_event_localization_budget(monkeypatch, config, formulation, n_events):
    """At most 8 dense evaluations per located event on the reference
    configurations at T = 200, with their event counts."""
    cfg = cli.load_config(os.path.join(CONFIG_DIR, config))
    cfg["run"]["t_final"] = 200.0
    rc = cli.parse_config(cfg, formulation)
    hs, lag_spec, _ = cli.build_system(rc)
    per_call = []
    evaluate, locate = integrate.DenseSegment.eval, integrate.locate_event

    def counted_eval(self, t):
        if per_call:
            per_call[-1] += 1
        return evaluate(self, t)

    def counted_locate(*args, **kwargs):
        per_call.append(0)
        try:
            return locate(*args, **kwargs)
        finally:
            per_call.append(per_call.pop())

    monkeypatch.setattr(integrate.DenseSegment, "eval", counted_eval)
    monkeypatch.setattr(integrate, "locate_event", counted_locate)
    traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper,
                    rc.max_events)
    assert len(traj.events) == n_events and len(per_call) == n_events
    assert max(per_call) <= 8


@pytest.mark.parametrize("config, formulation, steps, rhs_calls, n_events", [
    ("circle.json", "lagrangian", 303, 1969, 150),
    ("circle.json", "hamiltonian", 303, 1969, 150),
    ("ellipse.json", "lagrangian", 306, 1998, 161),
    ("ellipse.json", "hamiltonian", 306, 1998, 161)])
def test_stepping_cost_is_pinned(monkeypatch, config, formulation, steps, rhs_calls,
                                 n_events):
    """Exact accepted steps, rejected steps and field evaluations on the
    reference configurations at T = 200: 6 per step and 1 per flow phase.
    Each phase after an impact resumes at the step size the last one
    proposed; when every phase restarted at h_init they were 753 and 765
    steps and 4,669 and 4,752 evaluations. A change that moves a count
    states it."""
    cfg = cli.load_config(os.path.join(CONFIG_DIR, config))
    cfg["run"]["t_final"] = 200.0
    rc = cli.parse_config(cfg, formulation)
    hs, lag_spec, _ = cli.build_system(rc)
    count = {"rhs": 0, "accepted": 0, "tried": 0}
    field, stepper = type(hs.dynamics).vector_field, integrate.step

    def counted_field(self, t, y):
        count["rhs"] += 1
        return field(self, t, y)

    def counted_step(*args, **kwargs):
        before = count["rhs"]
        out = stepper(*args, **kwargs)
        count["accepted"] += 1
        count["tried"] += (count["rhs"] - before) // 6
        return out

    monkeypatch.setattr(type(hs.dynamics), "vector_field", counted_field)
    monkeypatch.setattr(integrate, "step", counted_step)
    traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper,
                    rc.max_events)
    assert len(traj.events) == n_events
    assert count["accepted"] == steps
    assert count["tried"] - count["accepted"] == 0
    assert count["rhs"] == rhs_calls


@pytest.mark.parametrize("config, formulation, steps, h_points, grad_points", [
    ("circle.json", "lagrangian", 303, 1201, 900),
    ("circle.json", "hamiltonian", 303, 1201, 900),
    ("ellipse.json", "lagrangian", 306, 1322, 999),
    ("ellipse.json", "hamiltonian", 306, 1322, 999)])
def test_surface_calls_are_pinned(config, formulation, steps, h_points, grad_points):
    """Exact calls of h and grad h on the reference configurations at T = 200.
    The event scan makes one block call of each per accepted step, and the
    dense containment check one per dense step, plus one h per golden-section
    point (none on these runs). The calls on one configuration are the start,
    localization, projection and impacts. Read point by point, the scan and
    the check took 17 of each per step: on the circle 6,352 h and 6,051 grad h
    in simulate, 5,151 of each in the check. A change that moves a count
    states it."""
    cfg = cli.load_config(os.path.join(CONFIG_DIR, config))
    cfg["run"]["t_final"] = 200.0
    rc = cli.parse_config(cfg, formulation)
    hs, lag_spec, _ = cli.build_system(rc)
    calls = {}

    def counted(name, f):
        def call(q):
            key = (name, "block" if q.ndim == 2 else "point")
            calls[key] = calls.get(key, 0) + 1
            return f(q)
        return call

    surface = SwitchingSurface(h=counted("h", hs.surface.h),
                               grad_h=counted("grad h", hs.surface.grad_h))
    hs = dataclasses.replace(hs, surface=surface)
    traj = simulate(hs, cli.initial_state(rc, hs, lag_spec), rc.t_final, rc.stepper,
                    rc.max_events)
    assert sum(len(run.segments) for run in traj.segments) == steps
    assert calls == {("h", "block"): steps, ("grad h", "block"): steps,
                     ("h", "point"): h_points, ("grad h", "point"): grad_points}
    calls.clear()
    assert check_containment(traj, surface).passed
    assert calls == {("h", "block"): steps, ("grad h", "block"): steps}


def wobble(t, y):
    """A nonlinear field whose stage sums round differently in any other order."""
    return np.array([np.sin(y[1]) + 0.3 * t, -y[0] * y[2], np.exp(0.1 * y[0]) - y[1],
                     y[3] * y[4] - 1.7, 1.0 / (1.0 + y[0] ** 2)])


class TestFlatHotPath:
    """The vectorized interpolant, checkpoint times and stage sums reproduce
    the scalar forms bit for bit."""

    @staticmethod
    def _segment():
        y0 = np.array([0.2, -0.7, 1.1, 0.4, 2.5])
        seg, _, _ = step(wobble, 0.3, y0, StepperConfig(h_init=0.05, h_max=0.05), 0.05,
                         wobble(0.3, y0))
        return seg

    def test_eval_many_equals_eval_at_interior_times_and_both_ends(self):
        seg = self._segment()
        rng = np.random.default_rng(3)
        for ts in (np.linspace(seg.t0, seg.t1, 17),
                   np.sort(rng.uniform(seg.t0, seg.t1, 40)),
                   np.array([seg.t1, seg.t0, 0.5 * (seg.t0 + seg.t1), seg.t1])):
            rows = seg.eval_many(ts)
            assert rows.tobytes() == np.array([seg.eval(t) for t in ts]).tobytes()
        ends = seg.eval_many([seg.t0, seg.t1])
        assert ends[0].tobytes() == seg.y0.tobytes()
        assert ends[1].tobytes() == seg.y1.tobytes()

    def test_eval_derivative_many_equals_eval_derivative(self):
        seg = self._segment()
        rng = np.random.default_rng(5)
        ts = np.concatenate([np.linspace(seg.t0, seg.t1, 17),
                             np.sort(rng.uniform(seg.t0, seg.t1, 40))])
        rows = seg.eval_derivative_many(ts)
        assert rows.tobytes() == np.array([seg.eval_derivative(t) for t in ts]).tobytes()

    def test_eval_many_on_a_truncated_segment(self):
        cut = self._segment()
        t_full = cut.t1
        t_cut = cut.t0 + 0.37 * (cut.t1 - cut.t0)
        # cut in place as at an event, with a projected end state
        cut.t1, cut.y1 = t_cut, cut.eval(t_cut) + 1e-3
        ts = np.append(np.linspace(cut.t0, cut.t1, 9), [t_full])
        rows = cut.eval_many(ts)
        assert rows.tobytes() == np.array([cut.eval(t) for t in ts]).tobytes()
        assert rows[8].tobytes() == cut.y1.tobytes()

    def test_eval_segments_equals_eval_row_by_row(self):
        run = integrate_until_event(wobble, 0.0, np.array([0.2, -0.7, 1.1, 0.4, 2.5]),
                                    0.4, cfg=StepperConfig(h_init=0.05, h_max=0.05))
        segs = run.segments
        ts = np.concatenate([[d.t0 for d in segs], [d.t1 for d in segs],
                             [0.5 * (d.t0 + d.t1) for d in segs]])
        which = np.tile(np.arange(len(segs)), 3)
        rows = integrate._eval_segments(segs, which, ts)
        expected = np.array([segs[i].eval(t) for i, t in zip(which, ts)])
        assert rows.tobytes() == expected.tobytes()

    def test_checkpoint_times_equal_linspace(self):
        rng = np.random.default_rng(4)
        pairs = [(0.0, 1.0), (199.96, 200.0), (1e-300, 2e-300), (5.0, 5.0)]
        pairs += [tuple(np.sort(rng.uniform(-1e3, 1e3, 2))) for _ in range(200)]
        pairs += [(t, t + h) for t, h in zip(rng.uniform(0, 200, 200),
                                             10.0 ** rng.uniform(-12, 0, 200))]
        for t0, t1 in pairs:
            expected = np.linspace(t0, t1, integrate._N_CHECK + 1)
            assert integrate._checkpoints(t0, t1).tobytes() == expected.tobytes()

    def test_stage_sums_add_in_index_order(self):
        # reference: the scalar generator sum over each tableau row
        cfg = StepperConfig(rtol=1.0, atol=1.0, h_init=0.07, h_max=0.07)
        y = np.array([0.2, -0.7, 1.1, 0.4, 2.5])
        t, h = 0.3, 0.07
        k = np.empty((7, y.size))
        k[0] = wobble(t, y)
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(integrate._A[i]))
            k[i] = wobble(t + integrate._C[i] * h, yi)
        seg, _, f_new = step(wobble, t, y, cfg, h, wobble(t, y))
        assert seg.h_step == h
        assert seg.y1.tobytes() == (y + h * (integrate._B @ k)).tobytes()
        assert f_new.tobytes() == k[6].tobytes()
        rng = np.random.default_rng(6)
        for _ in range(50):
            rows = rng.normal(size=(6, 5)) * 10.0 ** rng.uniform(-8, 8, (6, 1))
            for i in range(1, 7):
                ref = sum(a * rows[j] for j, a in enumerate(integrate._A[i]))
                got = (integrate._A_COL[i] * rows[:i]).sum(axis=0)
                assert got.tobytes() == ref.tobytes()


class TestBudgets:
    def test_max_steps_exceeded(self):
        cfg = StepperConfig(h_init=0.01, h_max=0.01, max_steps=5)
        with pytest.raises(MaxStepsExceeded):
            integrate_until_event(lambda t, y: -y, 0.0, np.array([1.0]), 10.0,
                                  cfg=cfg)

    def test_step_size_underflow_on_discontinuity(self):
        def f(t, y):
            return np.array([1.0 if t < 1.0 else 1e9])

        cfg = StepperConfig(rtol=1e-10, atol=1e-10, h_init=0.1, h_max=0.5,
                            max_steps=10 ** 6)
        with pytest.raises(StepSizeUnderflow):
            integrate_until_event(f, 0.0, np.array([0.0]), 2.0, cfg=cfg)

    @pytest.mark.parametrize("t0, t_final, named", [
        (0.0, math.inf, "t_final=inf"), (0.0, math.nan, "t_final=nan"),
        (math.nan, 1.0, "t0=nan"), (-math.inf, 1.0, "t0=-inf"),
    ])
    def test_non_finite_time_rejected(self, t0, t_final, named):
        # an infinite horizon used to return one step ending at t = inf,
        # and a NaN horizon an empty run
        with pytest.raises(ValueError, match=f"{named} is not finite"):
            integrate_until_event(lambda t, y: -y, t0, np.array([1.0]), t_final)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(rtol=0.0)
        with pytest.raises(ValueError):
            StepperConfig(max_steps=0)

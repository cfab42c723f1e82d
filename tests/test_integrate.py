import math

import numpy as np
import pytest

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
    step,
)
from contactsim import integrate

GAMMA = 1e-4

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
        ball = SwitchingSurface(h=lambda q: 1.0 - float(q @ q), grad_h=lambda q: -2.0 * q)
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
                                 grad_h=lambda q: np.array([1.0]))
        seg = self._segment_for(
            lambda t, y: np.array([-3.0 * (t - 1.0) ** 2, -6.0 * (t - 1.0), 0.0]),
            0.5, [0.125, -0.75, 0.0], 1.0)
        with pytest.raises(GrazingContact):
            locate_event(seg, floor, bracket=self._bracket(seg, floor))

    def test_no_sign_change(self):
        floor = SwitchingSurface(h=lambda q: q[0] + 10.0,
                                 grad_h=lambda q: np.array([1.0]))
        seg = self._segment_for(lambda t, y: np.array([1.0, 0.0, 0.0]),
                                0.0, [0.0, 1.0, 0.0], 1.0)
        assert self._bracket(seg, floor) is None
        with pytest.raises(NoSignChange):
            locate_event(seg, floor, bracket=(seg.t0, seg.t1))


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

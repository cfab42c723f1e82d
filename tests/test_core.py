import ast
import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateH,
    ContactStateL,
    DimensionMismatch,
    HamiltonianSpec,
    HybridSystem,
    NonFiniteValue,
    SingularHessian,
    SingularMassMatrix,
    SwitchingSurface,
    SystemSpec,
    Ellipse,
    check_energy_decay,
    finite_difference_partials,
    hamiltonian_from_lagrangian,
    hamiltonian_rhs,
    herglotz_rhs,
    lagrangian_energy,
    legendre_forward,
    legendre_inverse,
    make_circular_billiard,
    make_elliptical_billiard,
    natural_lagrangian_system,
    simulate,
)
from contactsim import core
from contactsim.core import evaluate_partials
from conftest import dot_left_to_right, matvec_left_to_right


def field(rhs, sys, s):
    """The blocks (qdot, xdot, zdot) of the flat field rhs at the state s."""
    d = rhs(sys, s.t, s.as_vector())
    return d[:sys.n], d[sys.n:2 * sys.n], d[2 * sys.n]


def billiard_system(gamma=0.1, mass=1.0):
    return natural_lagrangian_system(n=2, mass=mass * np.eye(2), gamma=gamma)


def quartic_system(eps=0.1, n=2, analytic=True, gamma=0.0):
    """Hyper-regular non-quadratic L = |v|^2/2 + eps |v|^4 / 4 - gamma z."""
    def L(q, v, z):
        s = float(v @ v)
        return 0.5 * s + 0.25 * eps * s * s - gamma * z

    if not analytic:
        return SystemSpec(n=n, lagrangian=L)
    return SystemSpec(
        n=n,
        lagrangian=L,
        dL_dq=lambda q, v, z: np.zeros(n),
        dL_dv=lambda q, v, z: v * (1.0 + eps * float(v @ v)),
        dL_dz=lambda q, v, z: -gamma,
        d2L_dvdv=lambda q, v, z: (1.0 + eps * float(v @ v)) * np.eye(n)
        + 2.0 * eps * np.outer(v, v),
        d2L_dqdv=lambda q, v, z: np.zeros((n, n)),
        d2L_dzdv=lambda q, v, z: np.zeros(n),
    )


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestStates:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            ContactStateL(q=[np.nan, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(NonFiniteValue):
            ContactStateH(q=[0.0], p=[1.0], z=np.inf)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ContactStateL(q=[0.0, 0.0], qdot=[1.0], z=0.0)
        with pytest.raises(DimensionMismatch, match="but p has length 3"):
            ContactStateH(q=[0.0, 0.0], p=[1.0, 0.0, 0.0], z=0.0)

    def test_arrays_are_immutable(self):
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.0], z=0.0)
        with pytest.raises(ValueError):
            s.q[0] = 3.0

    @pytest.mark.parametrize("cls, second", [(ContactStateL, "qdot"), (ContactStateH, "p")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_component_rejects_non_finite(self, cls, second, bad):
        good = {"q": [0.5, -0.5], second: [1.0, 2.0], "z": 0.25, "t": 1.0}
        for name in ("q", second):
            with pytest.raises(NonFiniteValue, match=f"{name} contains non-finite"):
                cls(**{**good, name: [1.0, bad]})
        for name in ("z", "t"):
            with pytest.raises(NonFiniteValue, match=f"{name} is not finite"):
                cls(**{**good, name: bad})

    @pytest.mark.parametrize("cls, second", [(ContactStateL, "qdot"), (ContactStateH, "p")])
    def test_huge_finite_values_are_accepted_and_locked(self, cls, second):
        source = np.array([1e308, -1e308])
        s = cls(**{"q": source, second: [1e308, 0.0], "z": 1e308, "t": -1e308})
        assert s.z == 1e308 and s.t == -1e308
        for name in ("q", second):
            arr = getattr(s, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        source[0] = 0.0   # the state holds a copy
        assert s.q[0] == 1e308

    @pytest.mark.parametrize("cls, second", [(ContactStateL, "qdot"), (ContactStateH, "p")])
    def test_scalar_components_follow_the_size_rule(self, cls, second):
        # a one-entry z or t used to end in numpy's untyped TypeError
        good = {"q": [0.5, -0.5], second: [1.0, 2.0], "z": 0.25, "t": 1.0}
        for name in ("z", "t"):
            s = cls(**{**good, name: np.array([-0.75])})
            assert type(getattr(s, name)) is float and getattr(s, name) == -0.75
            with pytest.raises(DimensionMismatch, match=rf"^{name} has shape \(2,\), expected \(\)"):
                cls(**{**good, name: np.zeros(2)})

    @settings(max_examples=200, deadline=None)
    @given(y=st.integers(1, 4).flatmap(
               lambda n: st.lists(_FINITE, min_size=2 * n + 1, max_size=2 * n + 1)),
           t=_FINITE)
    @example(y=[0.5, -0.25, 1.0, 2.0, 0.75], t=1.5)
    def test_vector_round_trip(self, y, t):
        # every finite vector of length 2n + 1, n = 1..4, round-trips bit for
        # bit through either class
        y = np.array(y)
        n = y.size // 2
        s = ContactStateL(q=y[:n], qdot=y[n:2 * n], z=y[2 * n], t=t)
        assert s.as_vector().tobytes() == y.tobytes()
        back = ContactStateL.from_vector(y, t=t)
        assert back.n == n
        assert back.q.tobytes() == s.q.tobytes()
        assert back.qdot.tobytes() == s.qdot.tobytes()
        assert back.z == s.z and back.t == s.t
        sh = ContactStateH.from_vector(y, t=t)
        assert sh.as_vector().tobytes() == y.tobytes()
        assert sh.p.tobytes() == s.qdot.tobytes() and (sh.z, sh.t) == (s.z, s.t)

    @pytest.mark.parametrize("cls, second", [(ContactStateL, "qdot"), (ContactStateH, "p")])
    def test_states_compare_and_hash_by_value(self, cls, second):
        # the generated __eq__ compared the arrays (ValueError) and __hash__
        # hashed them (TypeError)
        good = {"q": [1.0, 0.0], second: [1.0, 0.5], "z": 0.0, "t": 0.0}
        s, same = cls(**good), cls(**good)
        assert s == same and not s != same and hash(s) == hash(same)
        for name, moved in (("q", [1.0, 1e-300]), (second, [1.0, -0.5]), ("z", 1e-3),
                            ("t", 2.0)):
            other = cls(**{**good, name: moved})
            assert s != other and not s == other
        signed = cls(q=[-0.0, 0.0], z=-0.0, t=-0.0, **{second: [1.0, -0.0]})
        plain = cls(q=[0.0, 0.0], z=0.0, t=0.0, **{second: [1.0, 0.0]})
        assert signed == plain and hash(signed) == hash(plain)
        assert len({s, same, signed, plain}) == 2
        assert repr(s) == (f"{cls.__name__}(q=array([1., 0.]), {second}=array([1. , 0.5]), "
                           "z=0.0, t=0.0)")

    def test_a_lagrangian_state_never_equals_a_hamiltonian_one(self):
        sl = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.25, t=1.0)
        sh = ContactStateH(q=[1.0, 0.0], p=[1.0, 0.5], z=0.25, t=1.0)
        assert sl != sh and sh != sl and len({sl, sh}) == 2

    def test_two_resolves_of_one_state_give_equal_hashable_events(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4))
        s = ContactStateL(q=[1.0, 0.0], qdot=[1.0, 0.5], z=0.0)
        a, b = hs.resolve(s), hs.resolve(s)
        assert a.state_plus is not b.state_plus
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("cls", [ContactStateL, ContactStateH])
    @given(length=st.one_of(st.just(1), st.integers(0, 30).map(lambda k: 2 * k)))
    def test_vector_of_no_phase_space_length_is_rejected(self, cls, length):
        # a phase vector has length 2n + 1 with n >= 1
        with pytest.raises(DimensionMismatch, match=f"n >= 1, got {length}$"):
            cls.from_vector(np.arange(float(length)))


class TestEnergy:
    def test_billiard_value(self):
        # E = 1/2 (1 + 1) + 0.1 * 2 = 1.2
        sys = billiard_system(gamma=0.1)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=2.0)
        assert lagrangian_energy(sys, s) == pytest.approx(1.2, abs=1e-14)

    def test_rest_state_is_potential_plus_action_term(self):
        gamma = 0.3
        sys = natural_lagrangian_system(
            n=2, mass=np.eye(2), gamma=gamma,
            potential=lambda q: float(q[0] ** 2 + 2.0 * q[1] ** 2),
            grad_potential=lambda q: np.array([2.0 * q[0], 4.0 * q[1]]))
        s = ContactStateL(q=[1.0, -1.0], qdot=[0.0, 0.0], z=0.5)
        expected = (1.0 + 2.0) + gamma * 0.5
        assert lagrangian_energy(sys, s) == pytest.approx(expected, abs=1e-13)

    def test_reference_initial_energy(self):
        sys = billiard_system(gamma=1e-4)
        s = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        assert lagrangian_energy(sys, s) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            lagrangian_energy(billiard_system(), ContactStateL(q=[0.0], qdot=[1.0], z=0.0))


class TestHerglotzRhs:
    def test_billiard_drag(self):
        sys = billiard_system(gamma=0.1)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.0], z=0.0)
        qdot, qddot, zdot = field(herglotz_rhs, sys, s)
        assert np.allclose(qddot, [-0.1, 0.0], atol=1e-14)
        assert zdot == pytest.approx(0.5, abs=1e-14)

    def test_conservative_limit_has_no_force(self):
        sys = billiard_system(gamma=0.0)
        s = ContactStateL(q=[0.3, -0.2], qdot=[1.0, 2.0], z=5.0)
        _, qddot, _ = field(herglotz_rhs, sys, s)
        assert np.allclose(qddot, 0.0, atol=1e-14)

    def test_polar_chart_centripetal_terms(self):
        # L = (rdot^2 + r^2 thetadot^2)/2 with configuration-dependent mass;
        # partials come from the finite-difference fallback here.
        sys = natural_lagrangian_system(
            n=2, mass=lambda q: np.diag([1.0, q[0] ** 2]), gamma=0.0)
        s = ContactStateL(q=[0.5, 0.0], qdot=[0.0, 1.0], z=0.0)
        _, qddot, zdot = field(herglotz_rhs, sys, s)
        assert qddot[0] == pytest.approx(0.5, abs=1e-6)    # rddot = r thetadot^2
        assert qddot[1] == pytest.approx(0.0, abs=1e-6)    # thetaddot = -2 rdot thetadot / r
        assert zdot == pytest.approx(0.125, abs=1e-12)

    def test_polar_chart_with_drag(self):
        gamma = 0.2
        sys = natural_lagrangian_system(
            n=2, mass=lambda q: np.diag([1.0, q[0] ** 2]), gamma=gamma)
        s = ContactStateL(q=[0.8, 0.3], qdot=[0.4, 1.5], z=0.7)
        _, qddot, _ = field(herglotz_rhs, sys, s)
        r, rdot, thdot = 0.8, 0.4, 1.5
        assert qddot[0] == pytest.approx(r * thdot ** 2 - gamma * rdot, abs=1e-5)
        assert qddot[1] == pytest.approx(-2 * rdot * thdot / r - gamma * thdot, abs=1e-5)

    def test_sode_property_returns_stored_velocity(self):
        sys = billiard_system()
        s = ContactStateL(q=[0.1, 0.2], qdot=[0.3, -0.4], z=1.0)
        qdot, _, _ = field(herglotz_rhs, sys, s)
        assert np.array_equal(qdot, s.qdot)

    def test_singular_hessian_raises(self):
        sys = SystemSpec(n=2, lagrangian=lambda q, v, z: 0.5 * v[0] ** 2)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0)
        with pytest.raises(SingularHessian):
            field(herglotz_rhs, sys, s)

    def test_singular_constant_mass_raises_at_evaluation(self):
        # constructing the system succeeds; the field takes the generic solve
        sys = natural_lagrangian_system(n=2, mass=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                        gamma=0.1)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.5], z=0.0)
        with pytest.raises(SingularHessian):
            field(herglotz_rhs, sys, s)

    def test_hamiltonian_route_shares_the_mass_gate(self):
        # det = 1e-12 passes np.linalg.inv but not the determinant gate
        nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        for mass in (np.array([[1.0, 1.0], [1.0, 1.0]]), nearly):
            sys = natural_lagrangian_system(n=2, mass=mass, gamma=0.1)
            with pytest.raises(SingularMassMatrix):
                hamiltonian_from_lagrangian(sys)
        sys = natural_lagrangian_system(n=2, mass=np.array([[2.0, 0.3], [0.3, 1.0]]))
        hsys = hamiltonian_from_lagrangian(sys)
        p = np.array([0.7, -1.3])
        assert hsys.grad_p(np.zeros(2), p, 0.0).tobytes() == (sys._minv @ p).tobytes()


class TestSolveRegular:
    """One LU with partial pivoting gives the regularity gate and the solve."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_numpy_on_well_conditioned_matrices(self, n):
        rng = np.random.default_rng(40 + n)
        eps = np.finfo(float).eps
        for _ in range(200):
            W = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
            for rhs in (rng.uniform(-1.0, 1.0, n), np.eye(n)):
                got, ref = core._solve_regular(W, rhs), np.linalg.solve(W, rhs)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 4.0 * eps * np.max(np.abs(ref))

    def test_zero_leading_pivot_solves_exactly(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(core._solve_regular(W, np.array([2.0, 3.0])), [3.0, 2.0])
        assert np.array_equal(core._solve_regular(W, np.eye(2)), W)

    @pytest.mark.parametrize("W, rhs", [
        (np.ones((2, 3)), np.ones(2)), (np.ones((1, 1)), np.ones(2)),
        (np.ones(2), np.ones(2)), (np.eye(3), np.eye(2))])
    def test_shape_mismatch_is_typed(self, W, rhs):
        with pytest.raises(DimensionMismatch):
            core._solve_regular(W, rhs)

    @pytest.mark.parametrize("W, message", [
        ([[1.0, 1.0], [1.0, 1.0]], "|det| / row max-norms = 0.000e+00"),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-12]], "|det| / row max-norms = 1.000e-12"),
    ], ids=["exact", "nearly"])
    def test_singular_matrices_fail_the_gate(self, W, message):
        with pytest.raises(SingularHessian) as err:
            core._solve_regular(np.array(W), np.ones(2))
        assert str(err.value) == f"velocity Hessian is numerically singular ({message})"

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("W", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-12]]],
                             ids=["exact", "nearly"])
    def test_singular_matrices_fail_the_gate_at_every_scale(self, W, scale):
        with pytest.raises(SingularHessian):
            core._solve_regular(scale * np.array(W), np.ones(2))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), k=st.integers(-100, 100))
    def test_gate_and_solution_are_scale_invariant(self, data, n, k):
        # small-integer matrices are exactly singular or have |det| >= 1, so
        # rounding the scaled entries cannot move a draw across the gate
        ints = st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n)
        W = np.array(data.draw(ints), dtype=float).reshape(n, n)
        b = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
                     dtype=float)

        def solve(A):
            try:
                return core._solve_regular(A, b)
            except SingularHessian:
                return None

        x, x_dec = solve(W), solve(10.0 ** k * W)
        j = round(k * np.log2(10.0))
        x_bin = solve(2.0 ** j * W)
        assert (x is None) == (x_dec is None) == (x_bin is None)
        if x is not None:
            # a power-of-two scale is exact, and so is every step of the LU
            assert (x_bin * 2.0 ** j).tobytes() == x.tobytes()
            # a decimal scale rounds each entry once, which moves the solution
            # by at most a few ulp times the condition number
            bound = 4.0 * np.finfo(float).eps * np.linalg.cond(W, np.inf)
            assert np.max(np.abs(x_dec * 10.0 ** k - x)) <= bound * np.max(np.abs(x))

    def test_no_other_matrix_solve_in_the_package(self):
        pattern = re.compile(r"linalg\.(solve|inv|det|lstsq)\b|from numpy\.linalg import")
        package = os.path.dirname(core.__file__)
        hits = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name)) as fh:
                    hits += [f"{name}:{i}" for i, line in enumerate(fh, 1) if pattern.search(line)]
        assert hits == []


# What produces a trajectory: the fields, the solve inside them, the stepper,
# the event search, the hybrid loop and the impact resolvers
SOLVER_PATH = {"herglotz_rhs", "hamiltonian_rhs", "vector_field", "_solve_regular", "step",
               "integrate_until_event", "_scan", "locate_event", "simulate", "resolve"}


def test_checks_never_reach_the_solver_path():
    # a check that called the solver could certify the solver's own bug;
    # reading a stored interpolant (seg.eval) or the impact law stays allowed
    with open(os.path.join(os.path.dirname(core.__file__), "checks.py")) as fh:
        tree = ast.parse(fh.read())
    hits = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in SOLVER_PATH or (name or "").startswith("resolve_impact_"):
            hits.append(f"checks.py:{node.lineno}: {name}")
    assert hits == []


# The impact certificate's routines, in impact.py
CERTIFICATE = {"_residuals", "impact_residuals", "_violations"}


def test_resolvers_never_compute_the_certificate():
    # the certificate owns the impact residuals, read from an event on demand;
    # a resolver that computed them would pay for them at every impact again
    with open(os.path.join(os.path.dirname(core.__file__), "impact.py")) as fh:
        tree = ast.parse(fh.read())
    resolvers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("resolve_impact_")]
    hits = []
    for resolver in resolvers:
        for node in ast.walk(resolver):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in CERTIFICATE:
                hits.append(f"impact.py:{node.lineno}: {resolver.name} names {name}")
    assert len(resolvers) == 3 and hits == []


def test_only_integrate_reads_the_interpolant_slots():
    # many interpolant rows have one reader, integrate._rows; a module that
    # gathered a dense step's slots itself would be a second copy of eval
    package = os.path.dirname(core.__file__)
    hits = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "integrate.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            named = (node.id if isinstance(node, ast.Name) else node.value
                     if isinstance(node, ast.Constant) else getattr(node, "attr", None))
            if named in ("_r2", "_r3", "_r4", "_r5") or (
                    named == "__slots__" and ast.unparse(node.value).endswith("DenseSegment")):
                hits.append(f"{name}:{node.lineno}: {named}")
    assert hits == []


# Calls whose summation order the BLAS kernel picks
BLAS_CALLS = {"dot", "vdot", "vecdot", "matmul", "inner", "tensordot", "polyfit"}


def test_every_sum_of_products_goes_through_core_dot():
    # core._dot owns the order of every sum of products, so no output depends
    # on the BLAS kernel; billiards.py's closed forms are oracles that share
    # nothing with the solver. An einsum without optimize makes no BLAS call
    package = os.path.dirname(core.__file__)
    hits = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "billiards.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            imported = ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                        [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            if (isinstance(getattr(node, "op", None), ast.MatMult) or called in BLAS_CALLS
                    or called == "einsum" and any(k.arg == "optimize" for k in node.keywords)
                    or getattr(node, "attr", None) == "linalg"
                    or any("linalg" in module for module in imported)):
                hits.append(f"{name}:{node.lineno}: {ast.unparse(node)[:60]}")
    assert hits == []


def test_every_field_is_assembled_behind_the_one_gate():
    # herglotz_rhs and hamiltonian_rhs are each one _one_gate call, and only
    # _one_gate reads the phase vector through _phase_split, so no field is
    # assembled outside the gate
    with open(core.__file__) as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("herglotz_rhs", "hamiltonian_rhs"):
        body = [s for s in functions[name].body
                if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        call = body[0].value
        assert isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_one_gate", name
    callers = {name for name, fn in functions.items() for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_phase_split"}
    assert callers == {"_one_gate"}


def test_no_module_level_import_goes_unused():
    # an import that nothing reads is left over from code that moved away; a
    # name a module re-exports through __all__ counts as read
    package = os.path.dirname(core.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{name}:{node.lineno}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unused == []


def _package_modules(path: str) -> set:
    """The contactsim modules that a source file imports, by name."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "contactsim"):
            module = (node.module or "").removeprefix("contactsim").strip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("contactsim.")}
    return found


def test_impact_imports_only_core_and_errors():
    # the impact law states its own precondition (an outward, non-grazing
    # approach), which the event search reads from it: impact sits below
    # integrate, hybrid, checks, cli and io and imports none of them
    path = os.path.join(os.path.dirname(core.__file__), "impact.py")
    assert _package_modules(path) <= {"core", "errors"}


def _forbid_solve(monkeypatch):
    def fail(*args):
        raise AssertionError("the resolved natural field solved with W")
    monkeypatch.setattr(core, "_solve_regular", fail)


class TestResolvedNaturalField:
    """A natural form with a constant, regular mass takes
    qddot = M^-1 dL/dq + (dL/dz) qdot instead of the assembled solve."""

    def test_unit_mass_free_particle_is_bit_identical_to_the_assembly(self, monkeypatch):
        sys = billiard_system(gamma=1e-4)
        generic = dataclasses.replace(sys, natural=None)
        rng = np.random.default_rng(5)
        states = [ContactStateL(q=rng.uniform(-1, 1, 2), qdot=rng.uniform(-2, 2, 2),
                                z=rng.uniform(-1, 1)) for _ in range(50)]
        states.append(ContactStateL(q=[0.5, 0.0], qdot=[1.0, 0.0], z=0.0))
        expected = [field(herglotz_rhs, generic, s) for s in states]
        _forbid_solve(monkeypatch)
        for s, (qdot_g, qddot_g, zdot_g) in zip(states, expected):
            qdot, qddot, zdot = field(herglotz_rhs, sys, s)
            assert qdot.tobytes() == qdot_g.tobytes()
            assert qddot.tobytes() == qddot_g.tobytes()
            assert zdot == zdot_g
            assert qdot is not s.qdot and qdot.flags.writeable

    def test_skewed_mass_with_potential_agrees_with_the_assembly(self, monkeypatch):
        sys = natural_lagrangian_system(
            n=2, mass=np.array([[2.0, 0.3], [0.3, 1.0]]), gamma=0.7,
            potential=lambda q: float(q[0] ** 4 + np.cos(q[1])),
            grad_potential=lambda q: np.array([4.0 * q[0] ** 3, -np.sin(q[1])]))
        generic = dataclasses.replace(sys, natural=None)
        rng = np.random.default_rng(9)
        states = [ContactStateL(q=rng.uniform(-1, 1, 2), qdot=rng.uniform(-2, 2, 2),
                                z=rng.uniform(-1, 1)) for _ in range(200)]
        expected = [field(herglotz_rhs, generic, s) for s in states]
        _forbid_solve(monkeypatch)
        for s, (_, qddot_g, zdot_g) in zip(states, expected):
            _, qddot, zdot = field(herglotz_rhs, sys, s)
            assert np.max(np.abs(qddot - qddot_g)) <= 1e-15 * np.max(np.abs(qddot_g))
            assert zdot == zdot_g

    def test_other_systems_keep_the_assembly(self):
        # the generic branch reads W once per evaluation and solves with it
        solves = []
        s = ContactStateL(q=[0.5, 0.1], qdot=[1.0, 0.5], z=0.0)
        for sys in (natural_lagrangian_system(n=2, mass=lambda q: np.diag([1.0, q[0] ** 2])),
                    dataclasses.replace(billiard_system(), natural=None), quartic_system()):
            object.__setattr__(sys, "hess_vv",
                               lambda *args, W=sys.hess_vv: solves.append(1) or W(*args))
            field(herglotz_rhs, sys, s)
        assert len(solves) == 3

    def test_non_finite_constant_mass_is_rejected_at_evaluation(self):
        sys = natural_lagrangian_system(n=2, mass=np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteValue):
            field(herglotz_rhs, sys, ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0))

    def test_non_finite_partial_is_still_rejected(self):
        sys = dataclasses.replace(billiard_system(),
                                  dL_dq=lambda q, v, z: np.array([np.inf, 0.0]))
        with pytest.raises(NonFiniteValue, match="dL_dq"):
            field(herglotz_rhs, sys, ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0))


def harmonic_system(dL_dq):
    """L = |v|^2/2 - |q|^2/2 with every partial supplied and no natural form,
    so the field assembles the partials and solves with W."""
    n = 2
    return SystemSpec(
        n=n,
        lagrangian=lambda q, v, z: 0.5 * float(v @ v) - 0.5 * float(q @ q),
        dL_dq=dL_dq,
        dL_dv=lambda q, v, z: v.copy(),
        dL_dz=lambda q, v, z: 0.0,
        d2L_dvdv=lambda q, v, z: np.eye(n),
        d2L_dqdv=lambda q, v, z: np.zeros((n, n)),
        d2L_dzdv=lambda q, v, z: np.zeros(n),
    )


class TestSpecGate:
    """Every supplied evaluator goes through one gate that checks the size of
    its value as well as its finiteness."""

    @pytest.mark.parametrize("partial, bad", [
        ("dL_dq", np.zeros(1)), ("dL_dv", np.zeros(3)), ("d2L_dvdv", np.ones(2)),
        ("d2L_dqdv", np.zeros((3, 3))), ("d2L_dzdv", np.zeros(4)),
        ("dH_dq", np.zeros(1)), ("dH_dp", np.zeros((2, 2))),
        ("lagrangian", np.zeros(2)), ("dL_dz", np.zeros(2)),
        ("hamiltonian", np.zeros(2)), ("dH_dz", np.zeros(2))],
        ids=["dL_dq", "dL_dv", "d2L_dvdv", "d2L_dqdv", "d2L_dzdv", "dH_dq", "dH_dp",
             "lagrangian", "dL_dz", "hamiltonian", "dH_dz"])
    def test_supplied_partial_of_the_wrong_size_is_rejected(self, partial, bad):
        # a two-entry L, H, dL/dz or dH/dz used to end in numpy's untyped TypeError
        if partial.startswith(("dH", "hamiltonian")):
            rhs, sys = hamiltonian_rhs, hamiltonian_from_lagrangian(billiard_system())
            s = ContactStateH(q=[0.3, 0.7], p=[0.1, 0.2], z=0.0)
        else:
            rhs, sys = herglotz_rhs, quartic_system()
            s = ContactStateL(q=[0.3, 0.7], qdot=[0.1, 0.2], z=0.0)
        rhs(sys, s.t, s.as_vector())   # every partial of the field is supplied
        sys = dataclasses.replace(sys, **{partial: lambda q, x, z: bad})
        with pytest.raises(DimensionMismatch,
                           match=rf"^{partial} has shape {re.escape(str(bad.shape))}, expected"):
            rhs(sys, s.t, s.as_vector())

    @pytest.mark.parametrize("name", ["lagrangian", "hamiltonian"])
    def test_differenced_function_of_the_wrong_size_is_named(self, name):
        # with every partial left to differences, a two-entry L or H used to
        # end in numpy's untyped ValueError inside _fd_jacobian
        if name == "lagrangian":
            spec, rhs = SystemSpec, herglotz_rhs
        else:
            spec, rhs = HamiltonianSpec, hamiltonian_rhs
        y = np.array([0.3, 0.7, 0.1, 0.2, 0.0])
        sys = spec(2, lambda q, x, z: 0.5 * float(x @ x) - 0.1 * z)
        rhs(sys, 0.0, y)
        sys = spec(2, lambda q, x, z: np.array([0.5 * float(x @ x), z]))
        with pytest.raises(DimensionMismatch, match=rf"^{name} has shape \(2,\), expected \(\)"):
            rhs(sys, 0.0, y)
        if spec is SystemSpec:
            with pytest.raises(DimensionMismatch, match=r"^lagrangian has shape"):
                finite_difference_partials(sys, ContactStateL.from_vector(y))
        # a NaN at a stencil point is named by the same gate: NaN right of q0 = 0.3
        sys = spec(2, lambda q, x, z: 0.5 * float(x @ x) if q[0] <= 0.3 else float("nan"))
        with pytest.raises(NonFiniteValue, match=rf"^{name} is not finite at"):
            rhs(sys, 0.0, y)

    def test_short_position_partial_no_longer_broadcasts_into_the_field(self):
        # with dL/dq = (-q0,) the field read qddot = (-0.3, -0.3) instead of
        # (-0.3, -0.7), and the run completed
        s0 = ContactStateL(q=[0.3, 0.7], qdot=[0.1, 0.2], z=0.0)
        good = harmonic_system(lambda q, v, z: -q)
        _, qddot, _ = field(herglotz_rhs, good, s0)
        assert qddot.tolist() == [-0.3, -0.7]
        hs = HybridSystem(dynamics=harmonic_system(lambda q, v, z: np.array([-q[0]])),
                          surface=SwitchingSurface(h=lambda q: 4.0 - np.vecdot(q, q, axis=0),
                                                   grad_h=lambda q: -2.0 * q))
        with pytest.raises(DimensionMismatch,
                           match=r"^dL_dq has shape \(1,\), expected \(2,\).*"
                                 r"\[flow phase before event 0\]$"):
            simulate(hs, s0, 1.0)

    def test_short_velocity_partial_of_a_hamiltonian_is_typed(self):
        # dH/dp = (p0,) used to end in numpy's untyped ValueError
        sys = HamiltonianSpec(n=2, hamiltonian=lambda q, p, z: 0.5 * float(p @ p),
                              dH_dq=lambda q, p, z: np.zeros(2),
                              dH_dp=lambda q, p, z: np.array([p[0]]),
                              dH_dz=lambda q, p, z: 0.0)
        s = ContactStateH(q=[0.3, 0.7], p=[0.1, 0.2], z=0.0)
        with pytest.raises(DimensionMismatch, match=r"^dH_dp has shape \(1,\), expected \(2,\)"):
            field(hamiltonian_rhs, sys, s)
        with pytest.raises(DimensionMismatch, match="^dH_dp"):
            sys.velocity(*s.phase)

    def test_scalar_position_partial_of_a_1d_system_gives_the_same_field(self):
        # a 1-D dL/dq may be a scalar: it holds the one entry and is reshaped
        def system(dL_dq, natural):
            if natural:
                return natural_lagrangian_system(
                    n=1, mass=np.eye(1), gamma=0.2, potential=lambda q: 1.5 * q[0] ** 2,
                    grad_potential=lambda q: -dL_dq(q, None, None))
            return SystemSpec(n=1, lagrangian=lambda q, v, z: 0.5 * v[0] ** 2
                              - 1.5 * q[0] ** 2 - 0.2 * z,
                              dL_dq=dL_dq, dL_dv=lambda q, v, z: v.copy(),
                              dL_dz=lambda q, v, z: -0.2)

        rng = np.random.default_rng(4)
        for natural in (False, True):
            vector = system(lambda q, v, z: np.array([-3.0 * q[0]]), natural)
            scalar = system(lambda q, v, z: -3.0 * float(q[0]), natural)
            for y in rng.uniform(-2.0, 2.0, (20, 3)):
                assert herglotz_rhs(scalar, 0.0, y).tobytes() == \
                    herglotz_rhs(vector, 0.0, y).tobytes()
            assert scalar.grad_q(np.array([0.5]), np.array([1.0]), 0.0).shape == (1,)

    def test_one_entry_action_partial_gives_the_field_of_the_float_it_holds(self):
        # dL/dz = (-gamma,) used to end in numpy's untyped TypeError
        rng = np.random.default_rng(5)
        for sys in (quartic_system(gamma=0.3), billiard_system(gamma=0.3)):
            held = dataclasses.replace(
                sys, dL_dz=lambda q, v, z, f=sys.dL_dz: np.array([f(q, v, z)]))
            for y in rng.uniform(-2.0, 2.0, (20, 5)):
                assert herglotz_rhs(held, 0.0, y).tobytes() == herglotz_rhs(sys, 0.0, y).tobytes()
            assert type(held.rate(y[:2], y[2:4], y[4])) is float

    @pytest.mark.parametrize("held", [0.75, np.float64(0.75), np.array(0.75), np.array([0.75])],
                             ids=["float", "float64", "0-d", "(1,)"])
    def test_a_scalar_value_is_the_python_float_it_holds(self, held):
        # a finite float takes the gate's fast path and an array its general
        # path; both give the same Python float for L, h and a state's z
        q = np.array([0.3, 0.7])
        values = (SystemSpec(2, lambda q, v, z: held).value(q, q, 0.0),
                  SwitchingSurface(h=lambda q: held, grad_h=lambda q: -q).value(q),
                  ContactStateL(q=q, qdot=q, z=held).z)
        for got in values:
            assert type(got) is float and got == 0.75

    @pytest.mark.parametrize("bad", [np.nan, np.float64(np.inf), np.array(-np.inf),
                                     np.array([np.nan])], ids=["float", "float64", "0-d", "(1,)"])
    def test_a_non_finite_scalar_is_named_on_either_path(self, bad):
        q = np.array([0.3, 0.7])
        with pytest.raises(NonFiniteValue, match=r"^lagrangian is not finite at"):
            SystemSpec(2, lambda q, v, z: bad).value(q, q, 0.0)
        with pytest.raises(NonFiniteValue, match=r"^h is not finite at"):
            SwitchingSurface(h=lambda q: bad, grad_h=lambda q: -q).value(q)
        with pytest.raises(NonFiniteValue, match=r"^z is not finite at"):
            ContactStateL(q=q, qdot=q, z=bad)

    def test_accessors_and_aliases_are_bound_once(self):
        lag = quartic_system()
        ham = hamiltonian_from_lagrangian(lag)
        for sys, aliases in ((lag, {"momentum": "grad_v", "rate": "grad_z"}),
                             (ham, {"energy": "value", "velocity": "grad_p"})):
            for alias, accessor in aliases.items():
                assert getattr(sys, alias) is getattr(sys, accessor)
            for name in ("value", "grad_q", "grad_z", *aliases, *aliases.values()):
                assert name in vars(sys) and not hasattr(type(sys), name)


class TestHamiltonianRhs:
    def test_billiard_momentum_drag(self):
        hsys = hamiltonian_from_lagrangian(billiard_system(gamma=0.1))
        s = ContactStateH(q=[0.0, 0.0], p=[1.0, 0.0], z=0.0)
        qdot, pdot, zdot = field(hamiltonian_rhs, hsys, s)
        assert np.allclose(qdot, [1.0, 0.0], atol=1e-14)
        assert np.allclose(pdot, [-0.1, 0.0], atol=1e-14)
        assert zdot == pytest.approx(0.5, abs=1e-14)   # p . dH/dp - H = 1 - 0.5

    def test_conservative_limit(self):
        hsys = hamiltonian_from_lagrangian(billiard_system(gamma=0.0))
        s = ContactStateH(q=[0.2, 0.1], p=[0.6, -0.8], z=3.0)
        _, pdot, zdot = field(hamiltonian_rhs, hsys, s)
        assert np.allclose(pdot, 0.0, atol=1e-14)
        assert zdot == pytest.approx(0.5, abs=1e-14)   # zdot = |p|^2/2

    def test_rest_state_decay(self):
        gamma = 0.25
        hsys = hamiltonian_from_lagrangian(billiard_system(gamma=gamma))
        s = ContactStateH(q=[0.0, 0.0], p=[0.0, 0.0], z=2.0)
        qdot, pdot, zdot = field(hamiltonian_rhs, hsys, s)
        assert np.allclose(qdot, 0.0) and np.allclose(pdot, 0.0)
        assert zdot == pytest.approx(-gamma * 2.0, abs=1e-14)


def state_path_reference(sys, s):
    """The field as it was computed from a state, concatenated: the closed
    form for a constant natural mass, else the assembled solve, and the
    contact Hamiltonian field."""
    q, x, z = s.as_vector()[:sys.n], s.as_vector()[sys.n:2 * sys.n], s.z
    if isinstance(s, ContactStateH):
        Hp, Hq, Hz = sys.grad_p(q, x, z), sys.grad_q(q, x, z), sys.grad_z(q, x, z)
        return np.concatenate([Hp, -Hq - x * Hz, [dot_left_to_right(x, Hp) - sys.value(q, x, z)]])
    if sys._minv is not None:
        qddot = matvec_left_to_right(sys._minv, sys.grad_q(q, x, z)) + sys.grad_z(q, x, z) * x
        return np.concatenate([x, qddot, [sys.value(q, x, z)]])
    d = evaluate_partials(sys, s.q, s.qdot, s.z)
    L = sys.value(q, x, z)
    rhs = d.dL_dq - matvec_left_to_right(d.d2L_dqdv, x) - d.d2L_dzdv * L + d.dL_dz * d.dL_dv
    return np.concatenate([x, core._solve_regular(d.W, rhs), [L]])


class TestFlatField:
    """herglotz_rhs and hamiltonian_rhs on the flat phase vector."""

    @pytest.mark.parametrize("make", [
        lambda: make_circular_billiard(
            BilliardSpec(boundary=Circle(1.0), gamma=1e-4)).dynamics,
        lambda: hamiltonian_from_lagrangian(make_elliptical_billiard(
            BilliardSpec(boundary=Ellipse(0.9, 1.1), gamma=1e-4)).dynamics),
        lambda: quartic_system(eps=0.1, gamma=1e-3),
    ], ids=["natural-circle", "ellipse-hamiltonian", "quartic-assembly"])
    def test_bit_identical_to_the_state_path(self, make):
        sys = make()
        rng = np.random.default_rng(21)
        for _ in range(100):
            y = np.concatenate([rng.uniform(-0.6, 0.6, 2), rng.uniform(-2, 2, 2),
                                [rng.uniform(-1, 1)]])
            t = rng.uniform(0, 200)
            s = sys.state_type.from_vector(y, t)
            d = sys.vector_field(t, y)
            assert d.shape == (5,) and d.flags.writeable
            assert d.tobytes() == state_path_reference(sys, s).tobytes()
            assert np.array_equal(y, s.as_vector())   # the input is left as it was

    @pytest.mark.parametrize("rhs, sys", [
        (herglotz_rhs, billiard_system()),
        (herglotz_rhs, quartic_system()),
        (hamiltonian_rhs, hamiltonian_from_lagrangian(billiard_system())),
    ], ids=["natural", "assembly", "hamiltonian"])
    def test_rejects_non_finite_entries_and_wrong_lengths(self, rhs, sys):
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(5):
                y = np.array([0.1, 0.2, 1.0, 0.5, 0.0])
                y[i] = bad
                with pytest.raises(NonFiniteValue):
                    rhs(sys, 0.0, y)
        for y in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
            with pytest.raises(DimensionMismatch):
                rhs(sys, 0.0, y)

    def test_evaluators_cannot_write_into_the_phase_vector(self):
        def grad_q(q, v, z):
            q[0] = 0.0
            return np.zeros(2)

        sys = dataclasses.replace(billiard_system(), dL_dq=grad_q)
        y = np.array([0.1, 0.2, 1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            herglotz_rhs(sys, 0.0, y)
        assert y[0] == 0.1


def gated_pass(sys, t, y):
    """The field's arithmetic on the gated accessors, after the phase vector's
    own gate: what ``_one_gate`` falls back to."""
    field = (core._contact_field if sys.formulation == "hamiltonian" else
             core._natural_field if sys._minv is not None else core._herglotz_field)
    return np.array(field(sys, *core._phase_split(sys, t, y), *sys._gated))


def reference_field(formulation):
    """The reference circle's Herglotz field or the ellipse's closed-form
    contact Hamiltonian, both at gamma = 1e-4 and unit mass, or the generic
    field of the quartic reference run's Lagrangian."""
    if formulation == "quartic":
        return counted_quartic_system()[0]
    if formulation == "lagrangian":
        return make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-4)).dynamics
    return hamiltonian_from_lagrangian(make_elliptical_billiard(
        BilliardSpec(boundary=Ellipse(0.9, 1.1), gamma=1e-4)).dynamics)


RAW_EVALUATORS = {"lagrangian": ("lagrangian", "dL_dq", "dL_dz"),
                  "hamiltonian": ("hamiltonian", "dH_dq", "dH_dp", "dH_dz"),
                  "quartic": ("lagrangian", "dL_dq", "dL_dv", "dL_dz")}


class TestOneGate:
    """Every field, natural, contact Hamiltonian or generic Herglotz, runs its
    arithmetic once on the raw evaluators, behind one finiteness test of y and
    the field together; any other value takes the gated pass, which gives the
    same bits or today's typed error."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           potential=st.sampled_from(["none", "differenced", "supplied"]),
           formulation=st.sampled_from(["lagrangian", "hamiltonian"]),
           zeros=st.lists(st.integers(0, 16), max_size=4))
    def test_fast_pass_equals_the_gated_pass(self, n, seed, potential, formulation, zeros):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (n, n))
        c = rng.uniform(0.5, 2.0, n)
        sys = natural_lagrangian_system(
            n, A @ A.T + n * np.eye(n), gamma=float(rng.uniform(0.0, 0.5)),
            potential=None if potential == "none" else lambda q: float(np.sum(c * np.cos(q))),
            grad_potential=(lambda q: -c * np.sin(q)) if potential == "supplied" else None)
        if formulation == "hamiltonian":
            sys = hamiltonian_from_lagrangian(sys)
        y = rng.uniform(-2.0, 2.0, 2 * n + 1)
        y[[k for k in zeros if k < y.size]] = -0.0
        t = float(rng.uniform(0.0, 100.0))
        fast = sys.vector_field(t, y)
        assert fast.dtype == np.float64 and fast.shape == y.shape and fast.flags.writeable
        assert fast.tobytes() == gated_pass(sys, t, y).tobytes()
        # at a point, the helpers run their column path's IEEE operations, -0.0 included
        q, x, M = y[:n], y[n:2 * n], sys.natural.mass
        bits = lambda v: np.float64(v).tobytes()
        assert bits(core._dot(x, q)) == bits(core._dot(x[:, None], q[:, None])[0])
        assert core._matvec(M, x).tobytes() == core._matvec(M, x[:, None])[:, 0].tobytes()
        assert bits(core._kinetic(M, x)) == bits(core._kinetic(M, x[:, None])[0])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["momentum", "lagrangian-alone", "callable-mass"]),
           zeros=st.lists(st.integers(0, 8), max_size=4))
    def test_generic_field_equals_the_gated_pass(self, n, seed, kind, zeros):
        # a supplied dL/dqdot with W differenced from it, L alone, or a
        # configuration-dependent mass through the natural form
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 2.0, n)
        eps, gamma = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.0, 0.5))
        if kind == "callable-mass":
            A = rng.uniform(-1.0, 1.0, (n, n))
            sys = natural_lagrangian_system(
                n, lambda q: A @ A.T + np.diag(n + 0.4 * c * np.cos(q)), gamma=gamma,
                potential=lambda q: float(np.sum(c * np.cos(q))))
        else:
            def L(q, v, z):
                s = dot_left_to_right(v, v)
                return 0.5 * s + 0.25 * eps * s * s + float(np.sum(c * np.cos(q))) - gamma * z

            sys = SystemSpec(n=n, lagrangian=L) if kind == "lagrangian-alone" else SystemSpec(
                n=n, lagrangian=L, dL_dq=lambda q, v, z: -c * np.sin(q),
                dL_dv=lambda q, v, z: (1.0 + eps * dot_left_to_right(v, v)) * v,
                dL_dz=lambda q, v, z: -gamma)
        assert sys._minv is None
        y = rng.uniform(-2.0, 2.0, 2 * n + 1)
        y[[k for k in zeros if k < y.size]] = -0.0
        t = float(rng.uniform(0.0, 100.0))
        fast = sys.vector_field(t, y)
        assert fast.dtype == np.float64 and fast.shape == y.shape and fast.flags.writeable
        assert fast.tobytes() == gated_pass(sys, t, y).tobytes()

    @pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian", "quartic"])
    def test_other_value_types_take_the_gated_pass_to_the_same_bits(self, monkeypatch,
                                                                     formulation):
        # a numpy scalar or an (n, 1) array fails the type test; the gated pass
        # reads the same floats from it and gives the same field
        sys = reference_field(formulation)
        value, grad_q, *_, grad_z = RAW_EVALUATORS[formulation]
        f_value, f_q, f_z = (getattr(sys, name) for name in (value, grad_q, grad_z))
        variants = [{value: lambda q, x, z: np.float64(f_value(q, x, z))},
                    {grad_z: lambda q, x, z: np.float64(f_z(q, x, z))},
                    {grad_q: lambda q, x, z: f_q(q, x, z).reshape(-1, 1)}]
        checked, on_checked = [], core._checked
        monkeypatch.setattr(core, "_checked", lambda *a: checked.append(a) or on_checked(*a))
        rng = np.random.default_rng(8)
        for changed in variants:
            other = dataclasses.replace(sys, **changed)
            for y in rng.uniform(-1.0, 1.0, (10, 5)):
                checked.clear()
                assert other.vector_field(0.0, y).tobytes() == sys.vector_field(0.0, y).tobytes()
                assert len(checked) == len(RAW_EVALUATORS[formulation])   # one gated pass

    def test_short_position_partial_is_still_a_dimension_mismatch(self):
        # the (1,)-shaped dL/dq of a 2-D system would broadcast in M^-1 dL/dq
        sys = dataclasses.replace(billiard_system(), dL_dq=lambda q, v, z: np.zeros(1))
        with pytest.raises(DimensionMismatch, match=r"^dL_dq has shape \(1,\), expected \(2,\)"):
            herglotz_rhs(sys, 0.0, np.array([0.1, 0.2, 1.0, 0.5, 0.0]))

    def test_dot_of_two_int_vectors_is_a_python_float(self):
        got = core._dot(np.array([1, 2, 3]), np.array([4, 5, 6]))
        assert type(got) is float and got == 32.0

    @pytest.mark.parametrize("formulation, tests, repeated", [
        ("lagrangian", 1, {}), ("hamiltonian", 1, {}), ("quartic", 3, {"dL_dv": 7}),
    ], ids=["lagrangian", "hamiltonian", "quartic"])
    def test_a_clean_evaluation_passes_one_gate(self, monkeypatch, formulation, tests,
                                                repeated):
        # no _checked call, one finiteness test, and one call of each raw
        # evaluator that the field reads (the circle's field never reads dL/dqdot);
        # the quartic's W and drift difference dL/dqdot, 2n + 2 more calls, and
        # test each of their two Jacobians for finiteness
        calls = []
        sys = reference_field(formulation)
        sys = dataclasses.replace(sys, **{
            name: lambda *a, name=name, f=getattr(sys, name): calls.append(name) or f(*a)
            for name in RAW_EVALUATORS[formulation]})
        checked, tested = [], []
        on_checked, on_finite = core._checked, core._all_finite
        monkeypatch.setattr(core, "_checked", lambda *a: checked.append(a) or on_checked(*a))
        monkeypatch.setattr(core, "_all_finite", lambda v: tested.append(v) or on_finite(v))
        sys.vector_field(0.0, np.array([0.5, 0.0, 1.0, 1.2, 0.0]))
        assert (len(checked), len(tested)) == (0, tests)
        assert sorted(calls) == sorted(name for name in RAW_EVALUATORS[formulation]
                                       for _ in range(repeated.get(name, 1)))


class TestLegendre:
    def test_unit_mass_is_identity_on_velocities(self):
        sys = billiard_system(gamma=0.1)
        s = ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0)
        sh = legendre_forward(sys, s)
        assert np.allclose(sh.p, [1.0, 1.0], atol=1e-15)
        assert np.array_equal(sh.q, s.q) and sh.z == s.z and sh.t == s.t

    def test_diagonal_mass(self):
        sys = natural_lagrangian_system(n=2, mass=np.diag([2.0, 3.0]), gamma=0.0)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0)
        assert np.allclose(legendre_forward(sys, s).p, [2.0, 3.0], atol=1e-15)
        sh = ContactStateH(q=[0.0, 0.0], p=[2.0, 3.0], z=0.0)
        assert np.allclose(legendre_inverse(sys, sh).qdot, [1.0, 1.0], atol=1e-15)

    def test_zero_velocity_maps_to_zero_momentum(self):
        sys = billiard_system()
        s = ContactStateL(q=[0.1, 0.2], qdot=[0.0, 0.0], z=1.0)
        assert np.allclose(legendre_forward(sys, s).p, 0.0, atol=1e-15)

    def test_unit_mass_inverse(self):
        sys = billiard_system()
        sh = ContactStateH(q=[0.0, 0.0], p=[1.0, -1.0], z=0.0)
        assert np.allclose(legendre_inverse(sys, sh).qdot, [1.0, -1.0], atol=1e-15)

    def test_round_trip_newton_path(self):
        # no natural-form data: exercises the Newton inversion
        sys = quartic_system(eps=0.1, n=3)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            v = rng.uniform(-2.0, 2.0, size=3)
            s = ContactStateL(q=np.zeros(3), qdot=v, z=0.0)
            sh = legendre_forward(sys, s)
            back = legendre_inverse(sys, sh)
            again = legendre_forward(sys, back)
            worst = max(worst, float(np.max(np.abs(back.qdot - v))))
            worst = max(worst, float(np.max(np.abs(again.p - sh.p))))
        assert worst < 1e-12

    def test_round_trip_natural_path(self):
        sys = natural_lagrangian_system(n=2, mass=np.array([[2.0, 0.5], [0.5, 3.0]]),
                                        gamma=0.2)
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(-2.0, 2.0, size=2)
            s = ContactStateL(q=rng.uniform(-1, 1, 2), qdot=v, z=rng.uniform(-1, 1))
            back = legendre_inverse(sys, legendre_forward(sys, s))
            assert np.max(np.abs(back.qdot - v)) < 1e-12

    def test_singular_configuration_mass_is_typed_on_both_routes(self):
        # M(q) = diag(1, q0^2) is singular on the line q0 = 0
        sys = natural_lagrangian_system(
            n=2, mass=lambda q: np.diag([1.0, q[0] ** 2]), gamma=0.0)
        q = np.array([0.0, 0.5])
        with pytest.raises(SingularMassMatrix):
            legendre_inverse(sys, ContactStateH(q=q, p=[1.0, 1.0], z=0.0))
        hsys = hamiltonian_from_lagrangian(sys)
        with pytest.raises(SingularMassMatrix):
            hsys.grad_p(q, np.array([1.0, 1.0]), 0.0)
        assert np.array_equal(hsys.grad_p(np.array([2.0, 0.5]), np.array([1.0, 1.0]), 0.0),
                              np.linalg.inv(np.diag([1.0, 4.0])) @ [1.0, 1.0])

    def test_nearly_singular_configuration_mass_is_typed(self):
        # the same gate as for a constant mass: det = 1e-13 fails it, though
        # an LU without the gate returns qdot near (1e13, -1e13)
        sys = natural_lagrangian_system(n=2, mass=lambda q: [[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        with pytest.raises(SingularMassMatrix):
            legendre_inverse(sys, ContactStateH(q=[0.0, 0.0], p=[1.0, 0.0], z=0.0))

    def test_small_mass_is_regular(self):
        sys = natural_lagrangian_system(n=2, mass=1e-6 * np.eye(2))
        back = legendre_inverse(sys, ContactStateH(q=[0.0, 0.0], p=[1e-6, -2e-6], z=0.0))
        assert np.array_equal(back.qdot, [1.0, -2.0])
        assert np.array_equal(hamiltonian_from_lagrangian(sys).grad_p(
            np.zeros(2), np.array([1e-6, -2e-6]), 0.0), [1.0, -2.0])

    def test_newton_inversion_builds_only_the_result(self, states_built):
        sys = quartic_system(eps=0.1)
        sh = ContactStateH(q=[0.1, 0.2], p=[3.0, 3.0], z=0.0)
        states_built.clear()
        legendre_inverse(sys, sh)
        assert states_built == [ContactStateL]


def counted_quartic_system(gamma=1e-3, first_derivatives=True):
    """L = |v|^2/2 + 0.025 |v|^4 - gamma z with analytic first derivatives
    only (or none), and the number of calls of L and of dL_dv."""
    calls = {"L": 0, "dL_dv": 0}

    def L(q, v, z):
        calls["L"] += 1
        s = float(v @ v)
        return 0.5 * s + 0.025 * s * s - gamma * z

    def dL_dv(q, v, z):
        calls["dL_dv"] += 1
        return (1.0 + 0.1 * float(v @ v)) * v

    if not first_derivatives:
        return SystemSpec(n=2, lagrangian=L), calls
    return SystemSpec(
        n=2,
        lagrangian=L,
        dL_dq=lambda q, v, z: np.zeros(2),
        dL_dv=dL_dv,
        dL_dz=lambda q, v, z: -gamma,
    ), calls


def coupled_analytic_system(gamma=0.3):
    """L = (1+q0^2)|v|^2/2 + 0.1|v|^4 - gamma z (1+|v|^2) + sin(q1) v0 with
    every partial analytic; all three second partials are nonzero."""
    def L(q, v, z):
        s = float(v @ v)
        return (0.5 * (1.0 + q[0] ** 2) * s + 0.1 * s * s - gamma * z * (1.0 + s)
                + float(np.sin(q[1])) * v[0])

    def dL_dv(q, v, z):
        s = float(v @ v)
        p = (1.0 + q[0] ** 2 + 0.4 * s - 2.0 * gamma * z) * v
        p[0] += np.sin(q[1])
        return p

    def d2L_dqdv(q, v, z):
        out = np.zeros((2, 2))
        out[:, 0] = 2.0 * q[0] * v
        out[0, 1] = np.cos(q[1])
        return out

    return SystemSpec(
        n=2,
        lagrangian=L,
        dL_dq=lambda q, v, z: np.array([q[0] * float(v @ v), np.cos(q[1]) * v[0]]),
        dL_dv=dL_dv,
        dL_dz=lambda q, v, z: -gamma * (1.0 + float(v @ v)),
        d2L_dvdv=lambda q, v, z: ((1.0 + q[0] ** 2 + 0.4 * float(v @ v) - 2.0 * gamma * z)
                                  * np.eye(2) + 0.8 * np.outer(v, v)),
        d2L_dqdv=d2L_dqdv,
        d2L_dzdv=lambda q, v, z: -2.0 * gamma * v,
    )


def without_second_partials(sys):
    return dataclasses.replace(sys, d2L_dvdv=None, d2L_dqdv=None, d2L_dzdv=None)


_coordinate = st.floats(-2.0, 2.0, allow_nan=False)


_FD_STEP_1 = np.finfo(float).eps ** (1.0 / 3.0)


def reference_gradient(f, x):
    """The fallbacks' first-derivative rule written out coordinate by
    coordinate: central differences with step eps^(1/3) max(1, |x_i|) on
    fresh copies of x. Every gradient fallback must equal it bit for bit."""
    g = np.empty(x.size)
    for i in range(x.size):
        h = _FD_STEP_1 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (float(f(xp)) - float(f(xm))) / (2.0 * h)
    return g


def reference_derivative(f, x):
    """``reference_gradient`` for a scalar argument, on Python floats."""
    h = _FD_STEP_1 * max(1.0, abs(x))
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def fd_grid():
    """25 fixed (q, v, z) points with coordinates on both sides of the
    max(1, |x|) step switch, zero included."""
    coords = (-1.7, -0.3, 0.0, 0.45, 2.2)
    return [(np.array([a, b]), np.array([b - 0.5, 1.3 * a + 0.2]), 1.5 * coords[k % 5])
            for k, (a, b) in enumerate((a, b) for a in coords for b in coords)]


def coupled_fd_system():
    """All-FD Lagrangian whose six partials are all nonzero."""
    def L(q, v, z):
        s = float(v @ v)
        return (0.5 * (1.0 + 0.2 * q[0] ** 2) * s + 0.025 * s * s
                - float(np.cos(q[1])) - 0.01 * z * (1.0 + 0.3 * v[0]))

    return SystemSpec(n=2, lagrangian=L)


class TestFiniteDifferences:
    def test_only_missing_partials_sample_the_lagrangian(self):
        # n = 2 with analytic first derivatives: the three second partials
        # difference the supplied dL/dv, 2n + 2n + 2 = 10 calls, and the
        # bundle's own dL/dv takes one more; L is never called
        sys, calls = counted_quartic_system()
        s = ContactStateL(q=[0.1, 0.2], qdot=[1.0, -0.5], z=0.3)
        evaluate_partials(sys, s.q, s.qdot, s.z)
        assert calls == {"L": 0, "dL_dv": 11}

    def test_generic_field_reads_the_flat_vector(self, states_built):
        # one generic field at n = 2: dL/dv once, 2n times for W and twice for
        # the drift, one difference along the flow; L once, no state
        sys, calls = counted_quartic_system()
        herglotz_rhs(sys, 0.0, np.array([0.1, 0.2, 1.0, -0.5, 0.3]))
        assert calls == {"L": 1, "dL_dv": 7}
        assert states_built == []

    def test_field_from_the_lagrangian_alone(self, states_built):
        # all-FD at n = 2: L once, 2n + 2n + 2 times for the first partials,
        # 9 for W and 4n for the drift's cross difference in (e, v)
        sys, calls = counted_quartic_system(first_derivatives=False)
        herglotz_rhs(sys, 0.0, np.array([0.1, 0.2, 1.0, -0.5, 0.3]))
        assert calls == {"L": 28, "dL_dv": 0}
        assert states_built == []

    def test_second_partials_without_dL_dv_difference_the_lagrangian(self):
        # all-FD, n = 2: W takes 9 calls of L, d2L/dq dv 16 and d2L/dz dv 8
        sys, calls = counted_quartic_system(first_derivatives=False)
        q, v, z = np.array([0.1, 0.2]), np.array([1.0, -0.5]), 0.3
        sys.hess_vv(q, v, z)
        sys.hess_qv(q, v, z)
        sys.hess_zv(q, v, z)
        assert calls == {"L": 33, "dL_dv": 0}

    def test_energy_reads_only_the_momentum(self):
        sys, calls = counted_quartic_system()
        lagrangian_energy(sys, ContactStateL(q=[0.1, 0.2], qdot=[1.0, -0.5], z=0.3))
        assert calls == {"L": 1, "dL_dv": 1}

    @settings(max_examples=200, deadline=None)
    @given(q=st.tuples(_coordinate, _coordinate), v=st.tuples(_coordinate, _coordinate),
           z=st.floats(-3.0, 3.0, allow_nan=False))
    def test_differenced_momentum_matches_analytic_second_partials(self, q, v, z):
        exact = coupled_analytic_system()
        s = ContactStateL(q=q, qdot=v, z=z)
        an = evaluate_partials(exact, s.q, s.qdot, s.z)
        fd = evaluate_partials(without_second_partials(exact), s.q, s.qdot, s.z)
        for name in ("W", "d2L_dqdv", "d2L_dzdv"):
            a, b = getattr(an, name), getattr(fd, name)
            assert np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(a)))) < 1e-9, name
        assert np.array_equal(fd.W, fd.W.T)

    @settings(max_examples=200, deadline=None)
    @given(q=st.tuples(_coordinate, _coordinate), v=st.tuples(_coordinate, _coordinate),
           z=st.floats(-3.0, 3.0, allow_nan=False))
    def test_drift_matches_the_analytic_cross_partials(self, q, v, z):
        # c = (d2L/dq dv) qdot + (d2L/dz dv) L, differenced once along the flow
        # from dL/dv or from L alone; the reference is the contraction of the
        # two differenced cross partials, which meets the same tolerance
        exact = coupled_analytic_system()
        q, v = np.array(q), np.array(v)
        Lval = exact.value(q, v, z)
        c = matvec_left_to_right(exact.hess_qv(q, v, z), v) + exact.hess_zv(q, v, z) * Lval
        assert np.array_equal(exact.drift(q, v, z, Lval), c)
        scale = max(1.0, float(np.max(np.abs(c))))
        for sys, tol in ((without_second_partials(exact), 1e-8),
                         (dataclasses.replace(without_second_partials(exact), dL_dv=None), 5e-6)):
            reference = matvec_left_to_right(sys.hess_qv(q, v, z), v) + sys.hess_zv(q, v, z) * Lval
            for got in (sys.drift(q, v, z, Lval), reference):
                assert np.max(np.abs(got - c)) / scale < tol

    @pytest.mark.parametrize("moved", [0, 2], ids=["q", "z"])
    @pytest.mark.parametrize("differenced, message", [
        ("dL_dv", "finite-difference Jacobian"), ("lagrangian", "lagrangian is not finite")])
    def test_nan_off_the_state_in_the_drift_stencil_raises(self, differenced, message, moved):
        # dL/dv or L is NaN wherever q (or z) leaves the state, which only the
        # drift's stencil does: the Jacobian's test names the difference, and
        # L's own gate names the stencil point before the cross difference
        exact = coupled_analytic_system()
        q, v, z = np.array([0.3, -0.2]), np.array([0.5, 1.0]), 0.4
        f = getattr(exact, differenced)

        def nan_off_the_state(*args):
            if np.array_equal(np.atleast_1d(args[moved]), np.atleast_1d((q, v, z)[moved])):
                return f(*args)
            return np.full(2, np.nan) if differenced == "dL_dv" else float("nan")

        sys = dataclasses.replace(without_second_partials(exact), **{differenced: nan_off_the_state})
        if differenced == "lagrangian":
            sys = dataclasses.replace(sys, dL_dv=None)
        with pytest.raises(NonFiniteValue, match=message):
            herglotz_rhs(sys, 0.0, np.concatenate([q, v, [z]]))

    @pytest.mark.parametrize("accessor, moved", [
        ("hess_vv", 1), ("hess_qv", 0), ("hess_zv", 2)])
    def test_nan_momentum_at_a_stencil_point_raises(self, accessor, moved):
        # dL/dv is NaN wherever the argument named by `moved` leaves the state
        exact = coupled_analytic_system()
        q, v, z = np.array([0.3, -0.2]), np.array([0.5, 1.0]), 0.4

        def dL_dv(*args):
            here = np.array_equal(np.atleast_1d(args[moved]), np.atleast_1d((q, v, z)[moved]))
            return exact.dL_dv(*args) if here else np.full(2, np.nan)

        sys = dataclasses.replace(without_second_partials(exact), dL_dv=dL_dv)
        with pytest.raises(NonFiniteValue, match="Jacobian"):
            getattr(sys, accessor)(q, v, z)

    def test_differenced_partial_is_tested_for_finiteness_once(self, monkeypatch):
        # the stencil tests the Jacobian of the supplied dL/dv, and the
        # accessor does not test it again
        sys, _ = counted_quartic_system()
        tested = []
        all_finite = core._all_finite
        monkeypatch.setattr(core, "_all_finite", lambda v: tested.append(v) or all_finite(v))
        sys.hess_vv(np.array([0.1, 0.2]), np.array([1.0, -0.5]), 0.3)
        assert len(tested) == 1

    def test_per_partial_fallback_is_bit_identical_to_full_fd(self):
        sys = coupled_fd_system()
        L = sys.lagrangian
        rng = np.random.default_rng(7)
        states = [ContactStateL(q=rng.uniform(-1, 1, 2), qdot=rng.uniform(-2, 2, 2),
                                z=rng.uniform(-3, 3)) for _ in range(5)]
        states += [ContactStateL(q=q, qdot=v, z=z) for q, v, z in fd_grid()]
        for s in states:
            got = evaluate_partials(sys, s.q, s.qdot, s.z)
            ref = finite_difference_partials(sys, s)
            for f in dataclasses.fields(ref):
                assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), f.name
            # and the first partials are the written-out central differences
            q, v, z = s.q, s.qdot, s.z
            assert np.array_equal(got.dL_dq, reference_gradient(lambda qq: L(qq, v, z), q))
            assert np.array_equal(got.dL_dv, reference_gradient(lambda vv: L(q, vv, z), v))
            assert got.dL_dz == reference_derivative(lambda zz: L(q, v, zz), z)
            assert got.dL_dz == sys.grad_z(q, v, z)

    def test_hamiltonian_fallbacks_equal_the_reference_differences(self):
        def H(q, p, z):
            s = float(p @ p)
            return (0.5 * (1.0 + 0.2 * q[0] ** 2) * s + 0.05 * s * s
                    + float(np.cos(q[1])) + 0.3 * z * (1.0 + 0.1 * p[0]))

        sys = HamiltonianSpec(n=2, hamiltonian=H)
        for q, p, z in fd_grid():
            assert np.array_equal(sys.grad_q(q, p, z),
                                  reference_gradient(lambda qq: H(qq, p, z), q))
            assert np.array_equal(sys.grad_p(q, p, z),
                                  reference_gradient(lambda pp: H(q, pp, z), p))
            assert sys.grad_z(q, p, z) == reference_derivative(lambda zz: H(q, p, zz), z)

    def test_velocity_partial(self):
        sys = billiard_system(gamma=0.1)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.0], z=0.0)
        fd = finite_difference_partials(sys, s)
        assert fd.dL_dv[0] == pytest.approx(1.0, abs=1e-8)

    def test_action_partial_is_minus_gamma(self):
        sys = billiard_system(gamma=0.1)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 0.0], z=2.0)
        fd = finite_difference_partials(sys, s)
        assert fd.dL_dz == pytest.approx(-0.1, abs=1e-10)

    def test_hessian_of_quadratic_kinetic_energy(self):
        sys = billiard_system(gamma=0.0)
        s = ContactStateL(q=[0.0, 0.0], qdot=[0.7, -0.3], z=0.0)
        fd = finite_difference_partials(sys, s)
        assert np.max(np.abs(fd.W - np.eye(2))) < 1e-6

    def test_hessian_is_symmetric(self):
        sys = quartic_system(eps=0.3)
        s = ContactStateL(q=[0.0, 0.0], qdot=[1.1, -0.4], z=0.0)
        fd = finite_difference_partials(sys, s)
        assert np.array_equal(fd.W, fd.W.T)

    def test_agreement_with_analytic_partials(self):
        rng = np.random.default_rng(3)
        systems = [
            billiard_system(gamma=1e-4),
            billiard_system(gamma=0.5, mass=2.0),
            natural_lagrangian_system(
                n=2, mass=np.eye(2), gamma=0.3,
                potential=lambda q: float(np.sin(q[0]) + q[1] ** 2),
                grad_potential=lambda q: np.array([np.cos(q[0]), 2.0 * q[1]])),
        ]
        for sys in systems:
            for _ in range(10):
                s = ContactStateL(q=rng.uniform(-1, 1, 2),
                                  qdot=rng.uniform(-2, 2, 2),
                                  z=rng.uniform(-1, 1))
                an = evaluate_partials(sys, s.q, s.qdot, s.z)
                fd = finite_difference_partials(sys, s)
                for a, b in ((an.dL_dq, fd.dL_dq), (an.dL_dv, fd.dL_dv),
                             (an.W, fd.W), (an.d2L_dqdv, fd.d2L_dqdv),
                             (an.d2L_dzdv, fd.d2L_dzdv)):
                    scale = max(1.0, float(np.max(np.abs(a))))
                    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) / scale < 1e-6
                assert abs(an.dL_dz - fd.dL_dz) < 1e-6


class TestNonFinitePartials:
    @staticmethod
    def nan_rate(sys):
        # one NaN per state: at one state, or at each of a block's columns
        return dataclasses.replace(sys, dL_dz=lambda q, v, z: np.full(np.shape(z), np.nan))

    def test_evaluate_partials_rejects_nan_action_partial(self):
        sys = self.nan_rate(billiard_system())
        with pytest.raises(NonFiniteValue, match="dL_dz"):
            s = ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0)
            evaluate_partials(sys, s.q, s.qdot, s.z)

    def test_herglotz_rhs_rejects_nan_action_partial(self):
        sys = self.nan_rate(billiard_system())
        with pytest.raises(NonFiniteValue, match="dL_dz"):
            field(herglotz_rhs, sys, ContactStateL(q=[0.0, 0.0], qdot=[1.0, 1.0], z=0.0))

    def test_energy_check_does_not_pass_on_nan_action_partial(self):
        hs = make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=1e-3))
        traj = simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0], z=0.0), 5.0)
        with pytest.raises(NonFiniteValue, match="dL_dz"):
            check_energy_decay(traj, self.nan_rate(hs.dynamics))


def _directional_derivative(f, y, d, eps=None):
    eps = eps or (np.finfo(float).eps ** (1 / 3)) / max(1.0, float(np.max(np.abs(d))))
    return (f(y + eps * d) - f(y - eps * d)) / (2 * eps)


def potential_system():
    return natural_lagrangian_system(
        n=2, mass=np.eye(2), gamma=0.0,
        potential=lambda q: float(q[0] ** 2 + 0.5 * q[1] ** 2),
        grad_potential=lambda q: np.array([2.0 * q[0], q[1]]))


# Lagrangian system, seed, state count, and the half-widths of the uniform
# q and z draws (z = 0 when its half-width is 0); p is drawn in [-2, 2]^2
HAMILTONIAN_IDENTITY_CASES = {
    "billiard_gamma_0.3": (lambda: billiard_system(gamma=0.3), 12, 20, 0.5, 1.0),
    "circle_billiard": (lambda: make_circular_billiard(
        BilliardSpec(boundary=Circle(1.0), gamma=1e-4)).dynamics, 31, 100, 0.5, 1.0),
    "conservative": (lambda: billiard_system(gamma=0.0), 32, 50, 1.0, 0.0),
    "potential_only": (potential_system, 33, 50, 1.0, 1.0),
}


class TestStructuralIdentities:
    def test_energy_dissipation_identity(self):
        # dE/dt along the flow equals (dL/dz) E
        rng = np.random.default_rng(11)
        for gamma in (0.0, 1e-4, 0.5):
            sys = billiard_system(gamma=gamma)
            for _ in range(20):
                s = ContactStateL(q=rng.uniform(-0.5, 0.5, 2),
                                  qdot=rng.uniform(-2, 2, 2),
                                  z=rng.uniform(-1, 1))
                qdot, qddot, zdot = field(herglotz_rhs, sys, s)
                d = np.concatenate([qdot, qddot, [zdot]])

                def energy_of(y):
                    return lagrangian_energy(
                        sys, ContactStateL(q=y[:2], qdot=y[2:4], z=y[4]))

                lhs = _directional_derivative(energy_of, s.as_vector(), d)
                E = lagrangian_energy(sys, s)
                dLdz = evaluate_partials(sys, s.q, s.qdot, s.z).dL_dz
                assert abs(lhs - dLdz * E) / max(1.0, abs(E)) < 1e-6

    @pytest.mark.parametrize("case", sorted(HAMILTONIAN_IDENTITY_CASES))
    def test_hamiltonian_identity(self, case):
        # X_H(H) = -(dH/dz) H holds identically for the contact Hamilton
        # equations; with dH/dz = 0 it is conservation of H
        lagrangian, seed, count, q_range, z_range = HAMILTONIAN_IDENTITY_CASES[case]
        rng = np.random.default_rng(seed)
        hsys = hamiltonian_from_lagrangian(lagrangian())
        for _ in range(count):
            s = ContactStateH(q=rng.uniform(-q_range, q_range, 2),
                              p=rng.uniform(-2, 2, 2),
                              z=rng.uniform(-z_range, z_range) if z_range else 0.0)
            qdot, pdot, zdot = field(hamiltonian_rhs, hsys, s)
            d = np.concatenate([qdot, pdot, [zdot]])

            def H_of(y):
                return hsys.value(y[:2], y[2:4], y[4])

            lhs = _directional_derivative(H_of, s.as_vector(), d)
            H = hsys.value(s.q, s.p, s.z)
            Hz = hsys.grad_z(s.q, s.p, s.z)
            assert abs(lhs + Hz * H) / max(1.0, abs(H)) < 1e-6

    def test_legendre_duality_of_vector_fields(self):
        # pushing the Lagrangian field through T Leg gives the Hamiltonian field
        rng = np.random.default_rng(13)
        sys = billiard_system(gamma=0.1)
        hsys = hamiltonian_from_lagrangian(sys)
        for _ in range(20):
            s = ContactStateL(q=rng.uniform(-0.5, 0.5, 2),
                              qdot=rng.uniform(-2, 2, 2),
                              z=rng.uniform(-1, 1))
            qdot, qddot, zdot = field(herglotz_rhs, sys, s)
            d = evaluate_partials(sys, s.q, s.qdot, s.z)
            pdot_pushed = d.d2L_dqdv @ qdot + d.W @ qddot + d.d2L_dzdv * zdot
            sh = legendre_forward(sys, s)
            qdot_h, pdot_h, zdot_h = field(hamiltonian_rhs, hsys, sh)
            assert np.max(np.abs(qdot_h - qdot)) < 1e-8
            assert np.max(np.abs(pdot_h - pdot_pushed)) < 1e-8
            assert abs(zdot_h - zdot) < 1e-8

    def test_natural_form_matches_assembled_lagrangian(self):
        rng = np.random.default_rng(14)
        sys = natural_lagrangian_system(
            n=2, mass=np.array([[2.0, 0.3], [0.3, 1.5]]), gamma=0.7,
            potential=lambda q: float(q[0] ** 4 + q[1] ** 2),
            grad_potential=lambda q: np.array([4.0 * q[0] ** 3, 2.0 * q[1]]))
        M = sys.natural.mass_matrix(np.zeros(2))
        for _ in range(20):
            q = rng.uniform(-1, 1, 2)
            v = rng.uniform(-2, 2, 2)
            z = rng.uniform(-1, 1)
            direct = 0.5 * v @ M @ v - (q[0] ** 4 + q[1] ** 2) - 0.7 * z
            assert sys.value(q, v, z) == pytest.approx(direct, rel=1e-15, abs=1e-15)


class TestNaturalForm:
    @staticmethod
    def potential(q):
        return float(np.sin(q[0]) * q[1] + 0.5 * q[1] ** 4)

    def test_potential_gradient_fallback_equals_the_reference_differences(self):
        nat = core.NaturalForm(mass=np.eye(2), potential=self.potential)
        for q, _, _ in fd_grid():
            ref = reference_gradient(self.potential, q)
            assert np.array_equal(nat.potential_gradient(q), ref)
            assert np.array_equal(nat.potential_gradient(q, sign=-1.0), -1.0 * ref)

    def test_configuration_dependent_mass_force_equals_the_reference_differences(self):
        def mass(q):
            return np.array([[1.0 + q[0] ** 2, 0.2 * q[1]], [0.2 * q[1], 2.0]])

        def kinetic(q, v):
            return 0.5 * dot_left_to_right(v, matvec_left_to_right(mass(q), v))

        sys = natural_lagrangian_system(n=2, mass=mass, gamma=0.1, potential=self.potential)
        for q, v, z in fd_grid():
            expected = (reference_gradient(lambda qq: kinetic(qq, v), q)
                        + -1.0 * reference_gradient(self.potential, q))
            assert np.array_equal(sys.grad_q(q, v, z), expected)

    def test_nan_potential_at_a_stencil_point_raises(self):
        # V is NaN only to the right of q0 = 0.3, where the stencil samples it
        def V(q):
            return float(q @ q) if q[0] <= 0.3 else float("nan")

        q, v = np.array([0.3, 0.1]), np.array([1.0, 0.5])
        with pytest.raises(NonFiniteValue, match="finite-difference"):
            core.NaturalForm(mass=np.eye(2), potential=V).potential_gradient(q)
        with pytest.raises(NonFiniteValue):
            natural_lagrangian_system(n=2, mass=np.eye(2), potential=V).grad_q(q, v, 0.0)
        with pytest.raises(NonFiniteValue):
            hamiltonian_from_lagrangian(natural_lagrangian_system(
                n=2, mass=np.eye(2), potential=V)).grad_q(q, v, 0.0)

    def test_one_entry_potential_runs_as_the_float_it_holds(self):
        # V = (q.q,) used to end in numpy's untyped TypeError from float()
        y = np.array([0.3, 0.1, 1.0, 0.5, 0.2])
        held, plain = (natural_lagrangian_system(n=2, mass=np.eye(2), gamma=0.1, potential=V)
                       for V in (lambda q: np.array([q @ q]), lambda q: float(q @ q)))
        assert herglotz_rhs(held, 0.0, y).tobytes() == herglotz_rhs(plain, 0.0, y).tobytes()
        wide = natural_lagrangian_system(n=2, mass=np.eye(2), potential=lambda q: q * q)
        with pytest.raises(DimensionMismatch,
                           match=r"^potential has shape \(2,\), expected \(\), at q="):
            herglotz_rhs(wide, 0.0, y)

    def test_grad_potential_without_potential_is_rejected(self):
        # the Lagrangian side ignored this gradient while the Hamiltonian side used it
        with pytest.raises(ValueError, match="grad_potential"):
            natural_lagrangian_system(n=2, mass=np.eye(2),
                                      grad_potential=lambda q: np.array([1.0, 0.0]))

    @pytest.mark.parametrize("potential, grad_potential", [
        (None, None),
        (lambda q: float(np.sin(q[0]) + q[1] ** 2), None),
        (lambda q: float(np.sin(q[0]) + q[1] ** 2),
         lambda q: np.array([np.cos(q[0]), 2.0 * q[1]])),
    ], ids=["free", "fd-gradient", "analytic-gradient"])
    def test_both_formulations_see_one_force(self, potential, grad_potential):
        sys = natural_lagrangian_system(n=2, mass=np.eye(2), gamma=0.1,
                                        potential=potential,
                                        grad_potential=grad_potential)
        hsys = hamiltonian_from_lagrangian(sys)
        q, v = np.array([0.3, -0.2]), np.array([0.5, 1.0])
        dL_dq, dH_dq = sys.grad_q(q, v, 0.0), hsys.grad_q(q, v, 0.0)
        assert np.array_equal(dH_dq, -dL_dq)
        if potential is None:
            # no force is +0 on both sides, as before the shared gradient
            assert not np.signbit(dL_dq).any() and not np.signbit(dH_dq).any()

    def test_configuration_dependent_mass_uses_the_supplied_gradient(self):
        # only the kinetic term's q-derivatives are finite differences
        calls = {"V": 0, "gradV": 0}

        def V(q):
            calls["V"] += 1
            return float(q[0] ** 2 + np.sin(q[1]))

        def grad_V(q):
            calls["gradV"] += 1
            return np.array([2.0 * q[0], np.cos(q[1])])

        sys = natural_lagrangian_system(n=2, mass=lambda q: np.diag([1.0 + q[0] ** 2, 1.0]),
                                        gamma=0.3, potential=V, grad_potential=grad_V)
        q, v, z = np.array([0.4, 0.2]), np.array([0.7, -0.5]), 0.1
        _, qddot, zdot = field(herglotz_rhs, sys, ContactStateL(q=q, qdot=v, z=z))
        assert calls == {"V": 1, "gradV": 1}
        m = 1.0 + q[0] ** 2
        # m x'' + m' x'^2 = m' x'^2 / 2 - dV/dx - gamma m x', with m' = 2x
        expected = np.array([(-q[0] * v[0] ** 2 - 2.0 * q[0] - 0.3 * m * v[0]) / m,
                             -np.cos(q[1]) - 0.3 * v[1]])
        assert np.max(np.abs(qddot - expected)) < 1e-6
        assert zdot == pytest.approx(0.5 * (m * v[0] ** 2 + v[1] ** 2) - V(q) - 0.3 * z,
                                     rel=1e-15)

    def test_varying_mass_field_takes_the_drift_along_the_flow(self):
        # L, dL/dq (2n), dL/dqdot, W and the drift's two calls of M(q) qdot
        # along the flow; no differenced cross partial
        calls = []

        def mass(q):
            calls.append(1)
            return np.diag([1.0 + q[0] ** 2, 2.0])

        sys = natural_lagrangian_system(n=2, mass=mass, gamma=0.3)
        calls.clear()
        _, qddot, _ = field(herglotz_rhs, sys, ContactStateL(q=[0.4, 0.2], qdot=[0.7, -0.5],
                                                             z=0.1))
        assert len(calls) == 9
        # m x'' + m' x'^2 = m' x'^2 / 2 - gamma m x', with m' = 2x
        m = 1.0 + 0.4 ** 2
        expected = np.array([(-0.4 * 0.7 ** 2 - 0.3 * m * 0.7) / m, 0.3 * 0.5])
        assert np.max(np.abs(qddot - expected)) < 1e-6

    def test_short_potential_gradient_is_rejected_under_a_varying_mass(self):
        # the gradient joins the differenced kinetic force before the spec's
        # gate sees it: a (1,)-shaped one gave qddot_2 = -0.306, not -0.673
        def system(grad_potential):
            return natural_lagrangian_system(
                n=2, mass=lambda q: np.diag([1.0, 1.0 + q[0] ** 2]), gamma=0.1,
                potential=lambda q: 0.5 * float(q @ q), grad_potential=grad_potential)

        s = ContactStateL(q=[0.3, 0.7], qdot=[0.1, 0.2], z=0.0)
        _, qddot, _ = field(herglotz_rhs, system(lambda q: q), s)
        assert qddot[1] == pytest.approx(-0.673211, abs=1e-6)
        bad = system(lambda q: np.array([q[0]]))
        with pytest.raises(DimensionMismatch,
                           match=r"^grad_potential has shape \(1,\), expected \(2,\)"):
            field(herglotz_rhs, bad, s)
        with pytest.raises(DimensionMismatch, match="^grad_potential"):
            bad.natural.potential_gradient(s.q)

    def test_callable_mass_of_the_wrong_shape_is_rejected(self):
        # it used to end in numpy's untyped matmul ValueError from the kinetic term
        sys = natural_lagrangian_system(2, mass=lambda q: np.eye(3))
        with pytest.raises(DimensionMismatch,
                           match=r"^mass has shape \(3, 3\), expected \(2, 2\), at q="):
            herglotz_rhs(sys, 0.0, np.array([0.3, 0.7, 0.1, 0.2, 0.0]))
        with pytest.raises(DimensionMismatch, match="^mass"):
            sys.natural.mass_matrix(np.array([0.3, 0.7]))

    def test_configuration_dependent_mass_cross_partial_differences_the_momentum(self):
        # M = diag(1, q0^2): dL/dv = (v0, q0^2 v1), so d2L/dq0 dv1 = 2 q0 v1 is
        # the only nonzero cross partial; one central difference of M(q) v per
        # q-coordinate, 2n = 4 mass calls
        calls = []

        def mass(q):
            calls.append(1)
            return np.diag([1.0, q[0] ** 2])

        sys = natural_lagrangian_system(n=2, mass=mass, gamma=0.2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            q, v, z = rng.uniform(0.2, 2.0, 2), rng.uniform(-2.0, 2.0, 2), rng.uniform(-1, 1)
            calls.clear()
            got = sys.hess_qv(q, v, z)
            assert len(calls) == 4
            exact = np.array([[0.0, 0.0], [2.0 * q[0] * v[1], 0.0]])
            assert np.max(np.abs(got - exact)) / max(1.0, float(np.max(np.abs(exact)))) < 1e-9


class TestFormulationInterface:
    @pytest.mark.parametrize("make", [
        lambda: natural_lagrangian_system(
            n=2, mass=np.array([[2.0, 0.3], [0.3, 1.5]]), gamma=0.7,
            potential=lambda q: float(q[0] ** 4 + q[1] ** 2),
            grad_potential=lambda q: np.array([4.0 * q[0] ** 3, 2.0 * q[1]])),
        lambda: quartic_system(eps=0.2, gamma=0.3),
    ], ids=["natural", "quartic"])
    def test_legendre_pair_agrees_on_every_member(self, make):
        sys = make()
        hsys = hamiltonian_from_lagrangian(sys)
        assert (sys.formulation, hsys.formulation) == ("lagrangian", "hamiltonian")
        rng = np.random.default_rng(15)
        for _ in range(10):
            s = ContactStateL(q=rng.uniform(-1, 1, 2), qdot=rng.uniform(-2, 2, 2),
                              z=rng.uniform(-1, 1))
            sh = legendre_forward(sys, s)
            assert isinstance(s, sys.state_type) and isinstance(sh, hsys.state_type)
            x, xh = s.phase, sh.phase
            assert np.array_equal(hsys.momentum(*xh), sys.momentum(*x))
            assert np.max(np.abs(hsys.velocity(*xh) - sys.velocity(*x))) < 1e-10
            assert hsys.energy(*xh) == pytest.approx(sys.energy(*x), rel=1e-10, abs=1e-12)
            assert hsys.rate(*xh) == pytest.approx(sys.rate(*x), rel=1e-10, abs=1e-12)
            assert sys.rate(*x) != 0.0


class TestHamiltonianFromGeneralLagrangian:
    def test_quartic_system_hamiltonian_is_energy(self):
        sys = quartic_system(eps=0.2)
        hsys = hamiltonian_from_lagrangian(sys)
        s = ContactStateL(q=[0.1, -0.2], qdot=[0.8, 0.5], z=0.0)
        sh = legendre_forward(sys, s)
        assert hsys.value(sh.q, sh.p, sh.z) == pytest.approx(
            lagrangian_energy(sys, s), rel=1e-10)

    def test_field_builds_no_state(self, states_built):
        # each of the four evaluators inverts the Legendre map on arrays
        hsys = hamiltonian_from_lagrangian(quartic_system(eps=0.1))
        hamiltonian_rhs(hsys, 0.0, np.array([0.1, 0.2, 3.0, 3.0, 0.0]))
        assert states_built == []

    def test_general_duality(self):
        sys = quartic_system(eps=0.2)
        hsys = hamiltonian_from_lagrangian(sys)
        s = ContactStateL(q=[0.1, -0.2], qdot=[0.8, 0.5], z=0.0)
        sh = legendre_forward(sys, s)
        qdot_h, _, zdot_h = field(hamiltonian_rhs, hsys, sh)
        qdot, _, zdot = field(herglotz_rhs, sys, s)
        assert np.max(np.abs(qdot_h - qdot)) < 1e-8
        assert abs(zdot_h - zdot) < 1e-8

import numpy as np
import pytest

from contactsim import (
    BilliardSpec,
    Circle,
    ContactStateL,
    Ellipse,
    StepperConfig,
    make_circular_billiard,
    make_elliptical_billiard,
    simulate,
)
from contactsim import core, integrate

GAMMA_PAPER = 1e-4
Q0_PAPER = np.array([0.5, 0.0])
V0_PAPER = np.array([1.0, 1.0])


def interpolant_rows(seg, ts):
    """``seg.eval`` and ``seg.eval_derivative`` at every time in ts, one row
    per time, from the owner of the row broadcast."""
    ts = np.asarray(ts, dtype=float)
    return integrate._rows([seg], np.zeros(ts.size, int), ts, derivative=True)


def dot_left_to_right(a, b) -> float:
    """sum of a[i] b[i] on Python floats, the first product then each next one
    added in index order: the reference for the package's one sum of products."""
    products = [x * y for x, y in zip(np.ravel(a).tolist(), np.ravel(b).tolist())]
    total = products[0]
    for p in products[1:]:
        total += p
    return total


def matvec_left_to_right(M, x) -> np.ndarray:
    """M x, each entry ``dot_left_to_right`` of a row of M with x."""
    return np.array([dot_left_to_right(row, x) for row in np.asarray(M, dtype=float)])


@pytest.fixture(scope="session")
def circle_billiard():
    return make_circular_billiard(BilliardSpec(boundary=Circle(1.0), gamma=GAMMA_PAPER))


@pytest.fixture(scope="session")
def ellipse_billiard():
    return make_elliptical_billiard(
        BilliardSpec(boundary=Ellipse(0.9, 1.1), gamma=GAMMA_PAPER))


@pytest.fixture(scope="session")
def fig1_trajectory(circle_billiard):
    """The reference circular run: gamma = 1e-4 from (0.5, 0) with v = (1, 1)."""
    s0 = ContactStateL(q=Q0_PAPER, qdot=V0_PAPER, z=0.0, t=0.0)
    return simulate(circle_billiard, s0, 20.0, StepperConfig())


@pytest.fixture
def states_built(monkeypatch):
    """The type of every state validated from here on, in order: both state
    classes validate through the shared base."""
    built = []
    validate = core._ContactState._validate

    def counted(self):
        built.append(type(self))
        validate(self)

    monkeypatch.setattr(core._ContactState, "_validate", counted)
    return built

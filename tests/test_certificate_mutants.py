"""Planted-bug gate for the certificate: the reset rows and the field rows.

Each reset mutant wraps the impact law that ``HybridSystem.resolve`` looks
up at call time and rewrites only the post-impact velocity (momentum on the
Hamiltonian side) by a relative 1e-5, leaving the multiplier and the
resolver's own residuals as they were. Each field mutant wraps the vector
field that the specs reach through ``core``'s globals and scales one block
of it by 1 - 1e-5, or drops its dissipation term. A run under a mutant must end in a typed error, or
``simulate`` and ``check`` must both exit 2 with at least one failing
report, so a wrong reset or a wrong flow cannot certify itself.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from contactsim import ContactStateL, core, impact
from contactsim.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
EPS = 1e-5


def scale(x):
    return (1.0 + EPS) * x


def rotate(x):
    c, s = math.cos(EPS), math.sin(EPS)
    return np.array([[c, -s], [s, c]]) @ x


def mutated(law, transform):
    """The law with its post-impact velocity or momentum transformed."""
    def resolver(sys, s_minus, surface, **kwargs):
        event = law(sys, s_minus, surface, **kwargs)
        s = event.state_plus
        field = "qdot" if isinstance(s, ContactStateL) else "p"
        s_plus = dataclasses.replace(s, **{field: transform(getattr(s, field))})
        return dataclasses.replace(event, state_plus=s_plus)
    return resolver


def failing_reports(path):
    with open(path) as fh:
        return [c["name"] for c in json.load(fh)["checks"] if not c["passed"]]


# impact residuals are divided by max(1, |p-|) and max(1, |E-|), so at a
# small mass a norm-keeping rotation reads far below IMPACT_TOL; on the
# circle the angular-quantity law still sees it, on the ellipse nothing does
SMALL_SCALE_ROTATION = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 10: the impact residuals are not unit-invariant")


def assert_caught(tmp_path, capsys, geometry, formulation, **system):
    """Run the CLI pair on the reference config with the system keys replaced:
    a typed error, or both commands exit 2 with a failing report."""
    with open(os.path.join(CONFIG_DIR, f"{geometry}.json")) as fh:
        cfg = json.load(fh)
    cfg["system"].update(system)
    cfg["run"]["formulation"] = formulation
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"

    code = main(["simulate", "--config", str(config), "--out", str(out)])
    if code == 1:
        # a typed error ends the run, named by the CLI
        assert capsys.readouterr().err.startswith("error: ")
        return
    assert code == 2
    assert failing_reports(out / "summary.json")
    check_json = tmp_path / "check.json"
    assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(config),
                 "--out", str(check_json)]) == 2
    assert failing_reports(check_json)


@pytest.mark.parametrize("mutant", ["scale", "rotate"])
@pytest.mark.parametrize("mass", [1.0, 1e-6])
@pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian"])
@pytest.mark.parametrize("geometry", ["circle", "ellipse"])
def test_reset_mutant_is_caught(tmp_path, monkeypatch, capsys, request,
                                geometry, formulation, mass, mutant):
    if (geometry, mass, mutant) == ("ellipse", 1e-6, "rotate"):
        request.applymarker(SMALL_SCALE_ROTATION)
    transform = {"scale": scale, "rotate": rotate}[mutant]
    for name in ("resolve_impact_natural", "resolve_impact_hamiltonian"):
        monkeypatch.setattr(impact, name, mutated(getattr(impact, name), transform))
    assert_caught(tmp_path, capsys, geometry, formulation, mass=mass)


def scaled_block(field, block):
    """The vector field with one block of its output, q-dot, the acceleration
    or p-dot, or z-dot, scaled by 1 - EPS."""
    def mutant(sys, t, y):
        out = field(sys, t, y)
        out[{"qdot": slice(0, sys.n), "xdot": slice(sys.n, 2 * sys.n),
             "zdot": slice(2 * sys.n, None)}[block]] *= 1.0 - EPS
        return out
    return mutant


# no report reads the flow equations: with no potential the energy never reads
# q, and a field error in the drag moves the energy's decay by about EPS gamma t,
# under FLOW_TOL at the reference gamma = 1e-4 (4e-8 for xdot, 2e-8 for zdot)
UNCHECKED_FLOW = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 9: no motion-balance check reads the vector field")


@pytest.mark.parametrize("block", ["qdot", "xdot", "zdot"])
@pytest.mark.parametrize("gamma", [1e-4, 0.05])
@pytest.mark.parametrize("geometry, formulation", [("circle", "lagrangian"),
                                                   ("ellipse", "hamiltonian")])
def test_field_mutant_is_caught(tmp_path, monkeypatch, capsys, request,
                                geometry, formulation, gamma, block):
    if block == "qdot" or gamma == 1e-4:
        request.applymarker(UNCHECKED_FLOW)
    for name in ("herglotz_rhs", "hamiltonian_rhs"):
        monkeypatch.setattr(core, name, scaled_block(getattr(core, name), block))
    assert_caught(tmp_path, capsys, geometry, formulation, gamma=gamma)


def dropped_dissipation(field):
    """The field with dL/dz (dH/dz on the Hamiltonian side) read as 0.0, so the
    flow conserves the energy that the drag should dissipate."""
    def mutant(sys, q, x, z, value, grad_q, grad_x, grad_z):
        return field(sys, q, x, z, value, grad_q, grad_x, lambda q, x, z: 0.0)
    return mutant


@pytest.mark.parametrize("geometry, formulation", [("circle", "lagrangian"),
                                                   ("ellipse", "hamiltonian")])
def test_dropped_dissipation_is_caught(tmp_path, monkeypatch, capsys, geometry, formulation):
    for name in ("_natural_field", "_contact_field"):
        monkeypatch.setattr(core, name, dropped_dissipation(getattr(core, name)))
    assert_caught(tmp_path, capsys, geometry, formulation)
    assert "energy_decay" in failing_reports(tmp_path / "out" / "summary.json")

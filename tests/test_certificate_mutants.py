"""Planted-bug gate for the certificate: the reset rows.

Each mutant wraps the impact law that ``HybridSystem.resolve`` looks up at
call time and rewrites only the post-impact velocity (momentum on the
Hamiltonian side) by a relative 1e-5, leaving the multiplier and the
resolver's own residuals as they were. A run under a mutant must end in a
typed error, or ``simulate`` and ``check`` must both exit 2 with at least
one failing report, so a wrong reset cannot certify itself.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from contactsim import ContactStateL, impact
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

    with open(os.path.join(CONFIG_DIR, f"{geometry}.json")) as fh:
        cfg = json.load(fh)
    cfg["system"]["mass"] = mass
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

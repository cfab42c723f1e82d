"""The benchmark's tracer still wraps and counts the program's public names.

``perfbench/tracer.py`` rebinds functions and methods by name from outside
the program, so a rename in ``src/`` breaks the traced benchmark run. This
drives one short CLI simulate + check and one short library run of the
quartic workload under the tracer.
"""

import json
import os
import sys

import numpy as np
import pytest

import contactsim
from contactsim import ContactStateL, cli, impact

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.mark.parametrize("config, formulation, resolver, rhs", [
    ("circle.json", "lagrangian", "resolve_impact_natural", "core.herglotz_rhs"),
    ("ellipse.json", "hamiltonian", "resolve_impact_hamiltonian", "core.hamiltonian_rhs"),
], ids=["circle-lagrangian", "ellipse-hamiltonian"])
def test_tracer_counts_resolver_impact_check_and_check_command(
        tmp_path, monkeypatch, config, formulation, resolver, rhs):
    # the specs reach the field through core's module globals, where the
    # tracer rebinds it, and each state class keeps its own __post_init__
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    import tracer

    with open(os.path.join(ROOT, "demos", "configs", config)) as fh:
        config = json.load(fh)
    config["run"]["t_final"] = 2.0
    config["run"]["formulation"] = formulation
    config["output"]["svg"] = False
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "out")
    resolve, cmd_check = getattr(impact, resolver), cli.cmd_check
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["simulate", "--config", cfg, "--out", out,
                         "--formulation", formulation]) == 0
        assert cli.main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                         "--config", cfg]) == 0
    finally:
        t.uninstall()
    assert getattr(impact, resolver) is resolve and cli.cmd_check is cmd_check
    resolves = t.calls["impact." + resolver]
    assert resolves >= 1
    # both commands certify the table's pre/post rows in one column pass
    assert t.calls["checks.check_impact_conditions"] == 0
    assert t.calls["cli.cmd_check"] == 1
    assert t.calls[rhs] > 0
    m = t.layer_metrics()
    assert m["impact.resolves"] == resolves
    assert m["core.rhs_calls"] == t.calls[rhs]
    assert m["core.states_built"] > 0
    # the billiard's unit mass is factored once, so the Herglotz field never
    # assembles the partial bundle; the Hamiltonian field never did
    assert m["core.partials_calls"] == 0


def test_quartic_library_run_evaluates_no_bundle(monkeypatch):
    # the generic Herglotz field reads its partials and the drift one by one,
    # and the Newton resolver, the energy and the checks read one partial each
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    import workloads

    hs = workloads.quartic_system()
    t = tracer.Tracer()
    t.install()
    try:
        traj = contactsim.simulate(hs, ContactStateL(q=workloads.QUARTIC_Q0,
                                                     qdot=workloads.QUARTIC_V0, z=0.0), 2.0)
        traj.sample(np.linspace(traj.t0, traj.t_end, 50))
        reports = [contactsim.check_energy_decay(traj, hs.dynamics)]
        reports += [contactsim.check_impact_conditions(e, hs.dynamics, hs.surface)
                    for e in traj.events]
    finally:
        t.uninstall()
    assert traj.status == contactsim.COMPLETED and traj.events
    assert all(r.passed for r in reports)
    m = t.layer_metrics()
    assert m["impact.resolves"] == len(traj.events)
    assert m["core.rhs_calls"] > 0
    assert m["core.partials_calls"] == 0
    assert m["impact.partials_calls"] == 0


def test_circle_library_run_traces_the_flat_field_and_builds_no_state_per_rhs(monkeypatch):
    # the spec's vector_field reaches core.herglotz_rhs through core's module
    # globals, where the tracer rebinds it; the field itself builds no state,
    # so the only states are each impact's two one-sided limits (and the start)
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    hs = contactsim.make_circular_billiard(
        contactsim.BilliardSpec(boundary=contactsim.Circle(1.0), gamma=1e-4))
    t = tracer.Tracer()
    t.install()
    try:
        traj = contactsim.simulate(hs, ContactStateL(q=[0.5, 0.0], qdot=[1.0, 1.0],
                                                     z=0.0), 2.0)
    finally:
        t.uninstall()
    assert traj.status == contactsim.COMPLETED and traj.events
    m = t.layer_metrics()
    assert m["core.rhs_calls"] > 0
    assert m["core.states_built"] <= 2 * len(traj.events) + 2

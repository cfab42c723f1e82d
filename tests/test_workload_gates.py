"""Each benchmark workload still passes its own gate.

``perfbench/workloads.py`` reads the program's outputs and records (the CLI
exit codes, ``summary.json``, ``check.json``, and each ``ImpactEvent``'s
residuals), and its gate fails a run whose outputs changed shape or whose
checks fail. This runs each workload in-process for one start at
t_final = 2, so a change in ``src/`` that breaks a gate fails here rather
than first in a benchmark run.
"""

import os
import sys

import pytest

from contactsim import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.mark.parametrize("name", ["circle_lagrangian", "ellipse_hamiltonian",
                                  "quartic_newton"])
def test_workload_passes_its_gate(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    monkeypatch.setattr(cli, "simulate", cli.simulate)      # CliWorkload rebinds it
    import workloads

    workload = workloads.make(name, 3, ROOT, str(tmp_path), 2.0)
    workload.setup()
    reason, digest = workload.gate(0, workload.rep(0))
    assert reason is None
    assert len(digest) == 64 and workload.n_events[0] >= 1

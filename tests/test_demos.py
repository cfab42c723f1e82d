"""Every demo runs to completion, and the demo outputs that are tracked in
demos/output/ are reproduced byte for byte.

Each demo runs from a copy in a temporary directory: a demo writes next to
its own file, so the tracked outputs are never rewritten.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEMOS = os.path.join(ROOT, "demos")
TRACKED = {
    "03_circular_billiard.py": ("circle_trajectory.csv", "circle_trajectory.svg"),
    "04_elliptical_billiard.py": ("ellipse_trajectory.svg",),
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_and_reproduces_its_tracked_output(demo, tmp_path):
    shutil.copy(os.path.join(DEMOS, demo), tmp_path / demo)
    run = subprocess.run([sys.executable, demo], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert run.returncode == 0, run.stderr
    for name in TRACKED.get(demo, ()):
        with open(tmp_path / "output" / name, "rb") as new, \
                open(os.path.join(DEMOS, "output", name), "rb") as tracked:
            assert new.read() == tracked.read(), name

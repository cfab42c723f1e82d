import copy
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsim import checks, cli, impact
from contactsim.checks import CheckReport
from contactsim.errors import NonFiniteValue
from contactsim.cli import build_system, load_config, main, parse_config
from contactsim.hybrid import MAX_EVENTS
from contactsim.integrate import StepperConfig
from contactsim.io import read_trajectory_csv, write_trajectory_csv
from conftest import dot_left_to_right

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
CIRCLE_CONFIG = os.path.join(CONFIG_DIR, "circle.json")
ELLIPSE_CONFIG = os.path.join(CONFIG_DIR, "ellipse.json")


# Non-diagonal mass: momentum is M v, which no scalar mass reproduces.
SKEWED_MASS_CONFIG = {
    "system": {"kind": "custom", "n": 2, "mass_matrix": [[2.0, 0.3], [0.3, 1.0]],
               "gamma": 0.05, "surface": {"kind": "sphere", "radius": 1.0}},
    "initial": {"q": [0.2, -0.1], "v": [0.7, 0.4], "z": 0.0},
    "run": {"t_final": 10.0},
    "output": {"samples": 200, "svg": False},
}


def strict_json(text):
    """json.loads that refuses the non-standard tokens NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def short_config(tmp_path, base=CIRCLE_CONFIG, **overrides):
    """Copy of a config file (or dict) at T=5 with 200 samples, then the
    dotted-path overrides."""
    if isinstance(base, dict):
        cfg = copy.deepcopy(base)
    else:
        with open(base) as fh:
            cfg = json.load(fh)
    cfg["run"]["t_final"] = 5.0
    cfg["output"]["samples"] = 200
    for path, value in overrides.items():
        node = cfg
        parts = path.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulate:
    def test_exit_zero_and_artifacts(self, tmp_path):
        cfg = short_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trajectory.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "trajectory.svg"))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "Completed"
        assert summary["n_events"] >= 3
        assert all(c["passed"] for c in summary["checks"])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = short_config(tmp_path)
        out1 = str(tmp_path / "out1")
        out2 = str(tmp_path / "out2")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        for name in ("trajectory.csv", "summary.json", "trajectory.svg"):
            with open(os.path.join(out1, name), "rb") as fh:
                b1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                b2 = fh.read()
            assert b1 == b2, name

    def test_no_svg_flag(self, tmp_path):
        cfg = short_config(tmp_path, **{"output.svg": False})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert not os.path.exists(os.path.join(out, "trajectory.svg"))

    def test_samples_flag(self, tmp_path):
        cfg = short_config(tmp_path, **{"output.samples": 50})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv")) as fh:
            rows = fh.read().strip().splitlines()
        # 50 flow samples plus two rows per event
        with open(os.path.join(out, "summary.json")) as fh:
            n_events = json.load(fh)["n_events"]
        assert len(rows) == 1 + 50 + 2 * n_events

    def test_hamiltonian_formulation(self, tmp_path):
        cfg = short_config(tmp_path, **{"run.formulation": "hamiltonian"})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["formulation"] == "hamiltonian"

    def test_formulation_override_flag(self, tmp_path):
        cfg = short_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--formulation", "hamiltonian"]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["formulation"] == "hamiltonian"

    def test_malformed_geometry_exits_one(self, tmp_path, capsys):
        cfg = short_config(tmp_path)
        with open(cfg) as fh:
            data = json.load(fh)
        data["system"] = {"kind": "ellipse", "a": -0.5, "b": 1.0, "gamma": 0.0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(bad), "--out",
                     str(tmp_path / "o")]) == 1
        assert "system.a" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, named", [
        ("stepper.rtol", None, "stepper.rtol"),
        ("initial.z", None, "initial.z"),
        ("system.gamma", None, "system.gamma"),
        ("output.samples", None, "output.samples"),
        ("stepper.rtoll", 1e-3, "stepper.rtoll"),
        ("output.svg", "false", "output.svg"),
        ("output.samples", 10.7, "output.samples"),
        ("stepper", [1, 2], "'stepper'"),
        ("initial.q", [0.5, None], "initial.q"),
        pytest.param("stepper.rtol", 10 ** 400, "stepper.rtol", id="stepper.rtol-10**400"),
        # a key that no setting reads
        ("output.sampels", 50, "'output.sampels'"),
        ("run.t_finall", 5, "'run.t_finall'"),
        ("initial.qdot", [1.0, 1.0], "'initial.qdot'"),
        ("system.radius_", 2.0, "'system.radius_'"),
        # runs are always deterministic, so no key asks for it
        ("run.deterministic", True, "'run.deterministic'"),
        # the event policy is a set of constants of the program, so no
        # section sets it; a config that still has one is refused
        pytest.param("events", {"t_tol": 1e-12, "h_tol": 1e-12, "grazing_threshold": 1e-9},
                     "'events.t_tol'", id="events-section"),
        # a budget below 1 used to run to the first impact and exit 2
        ("run.max_events", 0, "run.max_events"),
        pytest.param("system.surface", {"kind": "sphere", "radius": 1.0},
                     "'system.surface.kind'", id="system.surface-on-a-circle"),
        pytest.param("plot", {}, "'plot'", id="unknown-empty-section"),
        # the stepper section is read key by key like the others
        ("stepper.h_min", 1e-6, "'stepper.h_min' is not a config setting"),
    ])
    def test_malformed_value_exits_one_naming_its_path(self, tmp_path, capsys,
                                                       path, value, named):
        cfg = short_config(tmp_path, **{path: value})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not os.path.exists(out)

    def test_sweep_section_is_let_through(self, tmp_path):
        # the sweep command's section is the one key that parse_config leaves
        cfg = short_config(tmp_path, sweep={"path": "system.gamma", "values": [0.0]})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_readme_config_schema_parses_to_the_defaults(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            readme = fh.read()
        block = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1]
        block = block.split("```", 1)[0]
        rc = parse_config(json.loads(re.sub(r"//[^\n]*", "", block)))
        assert rc.stepper == StepperConfig()
        assert rc.max_events == MAX_EVENTS and rc.samples == 1000 and rc.svg

    def test_json_parse_error_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": {kind: "circle"}}')
        assert main(["simulate", "--config", str(bad), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_exterior_initial_state_rejected(self, tmp_path, capsys):
        cfg = short_config(tmp_path, **{"initial.q": [2.0, 0.0]})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "interior" in capsys.readouterr().err

    def test_non_finite_violation_prints_in_the_report(self, tmp_path, capsys, monkeypatch):
        report = CheckReport(name="energy_decay", max_violation=np.inf, tolerance=1e-7)
        monkeypatch.setattr(cli, "run_simulation", lambda *a: {
            "status": "Completed", "n_events": 0, "checks": [report.to_dict()]})
        assert main(["simulate", "--config", short_config(tmp_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert ("[FAIL] energy_decay: max violation non-finite (tol 1.0e-07)"
                in capsys.readouterr().out)


class TestImpactTest:
    def test_circle_oracle_agreement(self, capsys):
        assert main(["impact-test", "circle", "--point", "1", "0",
                     "--velocity", "1", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "solver post-impact" in out and "closed-form oracle" in out
        assert "(-1, 0.5)" in out
        diff_line = [ln for ln in out.splitlines() if "max difference" in ln][0]
        assert float(diff_line.split()[-1]) < 1e-12

    def test_circle_of_radius_two_is_compared_with_its_oracle(self, capsys):
        # a radius other than 1 used to print the solver result and no oracle
        assert main(["impact-test", "circle", "--radius", "2", "--point", "2", "0",
                     "--velocity", "1", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "closed-form oracle:   (-1, 0.5)" in out
        diff_line = [ln for ln in out.splitlines() if "max difference" in ln][0]
        assert float(diff_line.split()[-1]) < 1e-12

    def test_ellipse_vertex(self, capsys):
        assert main(["impact-test", "ellipse", "--a", "0.9", "--b", "1.1",
                     "--point", "0.9", "0", "--velocity", "1", "0.7"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "solver post-impact" in ln][0]
        vx, vy = line.split("(")[1].rstrip(")").split(",")
        assert float(vx) == pytest.approx(-1.0, abs=1e-12)
        assert float(vy) == pytest.approx(0.7, abs=1e-12)

    def test_grazing_exits_two(self, capsys):
        assert main(["impact-test", "circle", "--point", "1", "0",
                     "--velocity", "0", "1"]) == 2
        assert "grazing" in capsys.readouterr().out.lower()

    def test_receding_velocity_is_an_error_not_grazing(self, capsys):
        # moving inward at normal speed 0.6 used to print "grazing contact", exit 2
        assert main(["impact-test", "circle", "--point", "1", "0",
                     "--velocity", "-0.3", "0.8"]) == 1
        captured = capsys.readouterr()
        assert "error: normal velocity 6.000e-01 points into the admissible region" \
            in captured.err
        assert "grazing" not in (captured.out + captured.err).lower()

    def test_off_boundary_exits_one(self, capsys):
        assert main(["impact-test", "circle", "--point", "0.5", "0",
                     "--velocity", "1", "0"]) == 1

    def test_nan_gamma_is_named(self, capsys):
        # a NaN gamma used to pass the spec and fail later on a non-finite L
        assert main(["impact-test", "circle", "--point", "1", "0",
                     "--velocity", "1", "0.5", "--gamma", "nan"]) == 1
        assert "gamma must be >= 0, got nan" in capsys.readouterr().err

    def test_infinite_semiaxis_is_named(self, capsys):
        # an infinite semi-axis used to exit 0 with a NaN oracle and difference
        assert main(["impact-test", "ellipse", "--a", "inf", "--b", "1", "--point", "0", "1",
                     "--velocity", "0.3", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: semiaxes must be > 0 with a^4 and b^4 finite and "
                                "nonzero, got a=inf, b=1.0\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["ellipse", "--a", "1e-200", "--b", "1", "--point", "1e-200", "0"],
         "semiaxes must be > 0 with a^4 and b^4 finite and nonzero, got a=1e-200, b=1.0"),
        (["ellipse", "--a", "1e200", "--b", "1", "--point", "1e200", "0"],
         "semiaxes must be > 0 with a^4 and b^4 finite and nonzero, got a=1e+200, b=1.0"),
        (["circle", "--radius", "1e100", "--point", "1e100", "0"],
         "radius must be > 0 with r^4 finite and nonzero, got 1e+100"),
    ], ids=["square_underflows", "square_overflows", "fourth_power_overflows"])
    def test_extreme_semiaxis_is_an_error(self, capsys, argv, message):
        # these ended in a ZeroDivisionError or an OverflowError traceback
        assert main(["impact-test", *argv, "--velocity", "-1", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_non_finite_residual_is_an_error(self, capsys):
        # the momenta m v overflow: this printed a NaN residual and exited 0
        assert main(["impact-test", "circle", "--point", "1", "0", "--velocity", "1", "0.5",
                     "--mass", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the impact residual (tan, en) is not finite: [nan")
        assert captured.out == ""


class TestCheck:
    def _fresh_run(self, tmp_path):
        cfg = short_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        return cfg, os.path.join(out, "trajectory.csv")

    @pytest.mark.parametrize("base, formulation, t_final", [
        (CIRCLE_CONFIG, "lagrangian", 5.0),
        (ELLIPSE_CONFIG, "hamiltonian", 5.0),
        (SKEWED_MASS_CONFIG, "lagrangian", 10.0),
        (SKEWED_MASS_CONFIG, "hamiltonian", 10.0),
    ], ids=["circle-lagrangian", "ellipse-hamiltonian",
            "skewed-mass-lagrangian", "skewed-mass-hamiltonian"])
    def test_round_trip_passes(self, tmp_path, base, formulation, t_final):
        cfg = short_config(tmp_path, base, **{"run.formulation": formulation,
                                              "run.t_final": t_final})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--formulation", formulation]) == 0
        report_path = str(tmp_path / "report.json")
        assert main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                     "--config", cfg, "--out", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        impact = [c for c in report["checks"] if c["name"] == "impact_conditions"][0]
        assert impact["location"] is not None   # at least one impact was checked

    def test_hamiltonian_csv_is_checked_as_momenta(self, tmp_path):
        # the config names no formulation: only the CSV header says that its
        # second block holds momenta, which differ from velocities here
        cfg = short_config(tmp_path, SKEWED_MASS_CONFIG, **{"run.t_final": 10.0})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--formulation", "hamiltonian"]) == 0
        csv_path = os.path.join(out, "trajectory.csv")
        with open(csv_path) as fh:
            assert fh.readline() == "t,q1,q2,p1,p2,z,E,ell,event_flag\n"
        assert read_trajectory_csv(csv_path)["formulation"] == "hamiltonian"
        report_path = str(tmp_path / "report.json")
        assert main(["check", "--csv", csv_path, "--config", cfg,
                     "--out", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert all(c["passed"] for c in report["checks"])
        impact = [c for c in report["checks"] if c["name"] == "impact_conditions"][0]
        assert impact["location"] is not None

    def test_summary_reports_velocities_in_both_formulations(self, tmp_path):
        # with a non-diagonal mass the momenta p = M v differ from the velocities
        events = {}
        for formulation in ("lagrangian", "hamiltonian"):
            cfg = short_config(tmp_path, SKEWED_MASS_CONFIG, **{"run.t_final": 10.0})
            out = str(tmp_path / formulation)
            assert main(["simulate", "--config", cfg, "--out", out,
                         "--formulation", formulation]) == 0
            with open(os.path.join(out, "summary.json")) as fh:
                events[formulation] = json.load(fh)["events"]
        lag, ham = events["lagrangian"], events["hamiltonian"]
        assert lag and len(lag) == len(ham)
        # the two runs integrate different fields, so they agree to the stepper
        # tolerance (1e-10), not bit for bit
        for a, b in zip(lag, ham):
            for key in ("v_minus", "v_plus"):
                assert max(abs(x - y) for x, y in zip(a[key], b[key])) < 1e-9
        # M^-1 p; the momentum p itself is (1.439, 0.578) here
        assert ham[0]["v_minus"] == pytest.approx([0.6627, 0.3787], abs=1e-4)

    def test_lagrangian_csv_header_names_velocities(self, tmp_path):
        cfg, csv_path = self._fresh_run(tmp_path)
        with open(csv_path) as fh:
            assert fh.readline() == "t,q1,q2,v1,v2,z,E,ell,event_flag\n"
        assert read_trajectory_csv(csv_path)["formulation"] == "lagrangian"

    def test_corrupted_energy_fails_with_row_index(self, tmp_path, capsys):
        cfg, csv_path = self._fresh_run(tmp_path)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        parts = lines[40].split(",")
        parts[-3] = "9.9"   # energy column
        lines[40] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg]) == 2
        report = json.loads(capsys.readouterr().out)
        col = [c for c in report["checks"] if c["name"] == "column_consistency"][0]
        assert not col["passed"]
        assert col["location"] == 41.0   # 1-based file row of the corruption

    def test_tampered_velocities_fail_the_decay_law(self, tmp_path, capsys):
        # from one flow row on the speeds are 1e-5 too high, and E and ell are
        # rewritten from the tampered states, so only the decay law can tell
        cfg, csv_path = self._fresh_run(tmp_path)
        data = read_trajectory_csv(csv_path)
        k = 80
        assert data["flag"][k] == 0
        v = data["v"].copy()
        v[k:] *= 1.0 + 1e-5
        states = np.column_stack([data["q"], v, data["z"]])
        hs, _, _ = build_system(parse_config(load_config(cfg)))
        rows = [hs.dynamics.state_type.from_vector(y, t) for y, t in zip(states, data["t"])]
        bad = tmp_path / "bad.csv"
        write_trajectory_csv(str(bad), data["t"], states, data["flag"],
                             [hs.dynamics.energy(*s.phase) for s in rows],
                             [s.q[0] * s.qdot[1] - s.q[1] * s.qdot[0] for s in rows],
                             "lagrangian")
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg]) == 2
        report = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert report["column_consistency"]["passed"]
        assert report["impact_conditions"]["passed"]
        assert not report["energy_decay"]["passed"]
        assert report["energy_decay"]["location"] == data["t"][k]

    def test_copied_pre_impact_row_fails_the_impact_check(self, tmp_path, capsys):
        # the identity reset: zero residuals, but the velocity never reverses
        cfg, csv_path = self._fresh_run(tmp_path)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        data = read_trajectory_csv(csv_path)
        i = int(np.flatnonzero(data["flag"] == 1)[1])
        assert data["flag"][i + 1] == 2
        lines[i + 2] = lines[i + 1][:-1] + "2"   # file row = data row + 1
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out == out.read_text()
        report = {c["name"]: c for c in strict_json(out.read_text())["checks"]}
        assert not report["impact_conditions"]["passed"]
        assert report["impact_conditions"]["max_violation"] is None   # inf, written as null
        assert report["impact_conditions"]["location"] == data["t"][i]
        assert all(c["passed"] for name, c in report.items() if name != "impact_conditions")

    def test_pair_moved_to_the_centre_reads_null_without_a_warning(self, tmp_path, capsys):
        # grad h = 0 at the centre, so a tangent basis there divides 0 by 0;
        # the guard fails first and no residual of that column is computed
        cfg, csv_path = self._fresh_run(tmp_path)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        data = read_trajectory_csv(csv_path)
        i = int(np.flatnonzero(data["flag"] == 1)[1])
        for row in (i + 1, i + 2):   # file row = data row + 1
            lines[row] = ",".join(["0.0" if k in (1, 2) else cell
                                   for k, cell in enumerate(lines[row].split(","))])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--csv", str(bad), "--config", cfg, "--out", str(out)]) == 2
        report = {c["name"]: c for c in strict_json(out.read_text())["checks"]}
        assert report["impact_conditions"]["max_violation"] is None   # inf, written as null
        assert report["impact_conditions"]["location"] == data["t"][i]

    def test_run_without_impacts_passes_the_impact_check(self, tmp_path, capsys):
        # no pre/post pair: the impact pass reads zero columns, with no warning
        cfg = short_config(tmp_path, **{"run.t_final": 0.2})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert not np.any(read_trajectory_csv(str(out / "trajectory.csv"))["flag"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", cfg]) == 0
        report = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert report["impact_conditions"] == {"name": "impact_conditions", "max_violation": 0.0,
                                               "tolerance": checks.IMPACT_TOL,
                                               "location": None, "passed": True}

    def test_empty_csv_exits_one(self, tmp_path, capsys):
        cfg = short_config(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: "):
            read_trajectory_csv(str(empty))
        assert main(["check", "--csv", str(empty), "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {empty}: ")

    def test_header_only_csv_exits_one(self, tmp_path, capsys):
        # caught before np.loadtxt, whose "input contained no data" warning
        # the suite turns into an error
        cfg = short_config(tmp_path)
        stub = tmp_path / "stub.csv"
        stub.write_text("t,q1,q2,v1,v2,z,E,ell,event_flag\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(stub))}: "):
            read_trajectory_csv(str(stub))
        assert main(["check", "--csv", str(stub), "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {stub}: ")

    @pytest.mark.parametrize("tamper, message", [
        ("flag 7", r"row 11 has event_flag 7, expected 0, 1 or 2"),
        ("flag 0.5", r"row 11 has event_flag 0\.5, expected 0, 1 or 2"),
        ("pair as flow", r"row {post} is out of order"),
        ("swapped flow rows", r"row 12 is out of order"),
    ], ids=["flag 7", "flag 0.5", "pair as flow", "swapped flow rows"])
    def test_mislabelled_rows_exit_one_naming_the_row(self, tmp_path, capsys, tamper, message):
        # each of these used to pass every check with exit 0
        cfg, csv_path = self._fresh_run(tmp_path)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        flags = read_trajectory_csv(csv_path)["flag"]
        pre = int(np.flatnonzero(flags == 1)[0]) + 2   # 1-based file rows
        assert flags[8:11].tolist() == [0, 0, 0] and pre > 12
        if tamper.startswith("flag"):
            lines[10] = lines[10][:-1] + tamper.split()[1]
        elif tamper == "pair as flow":
            lines[pre - 1], lines[pre] = lines[pre - 1][:-1] + "0", lines[pre][:-1] + "0"
        else:
            lines[10], lines[11] = lines[11], lines[10]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        message = f"^{re.escape(str(bad))}: " + message.format(pre=pre, post=pre + 1)
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg]) == 1
        assert re.match("error: " + message[1:], capsys.readouterr().err)
        args = cli.build_parser().parse_args(["check", "--csv", str(bad), "--config", cfg])
        with pytest.raises(ValueError, match=message):
            cli.cmd_check(args)

    @pytest.mark.parametrize("case", ["malformed header", "ragged row", "unparsable cell",
                                      "# in a cell"])
    def test_unreadable_csv_is_named_and_exits_one(self, tmp_path, capsys, case):
        # the empty and header-only files are the two tests above
        cfg, csv_path = self._fresh_run(tmp_path)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        parts = lines[40].split(",")
        if case == "malformed header":
            lines[0] = "t,q1,v1,z,E,ell"
        elif case == "ragged row":
            lines[40] = ",".join(parts[:-1])
        else:   # a '#' must not cut the row short and leave a float behind
            parts[1] = "abc" if case == "unparsable cell" else parts[1] + "#1"
            lines[40] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: "):
            read_trajectory_csv(str(bad))
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("case, blank, message", [
        ("ragged row", 0, "row 6 does not parse into 9 numbers"),
        ("unparsable cell", 0, "row 6 does not parse into 9 numbers"),
        ("unparsable cell", 2, "row 8 does not parse into 9 numbers"),
        ("flag 7", 2, "row 8 has event_flag 7, expected 0, 1 or 2")],
        ids=["ragged row", "unparsable cell", "cell after blank lines",
             "flag after blank lines"])
    def test_a_bad_row_is_named_by_its_file_row(self, tmp_path, capsys, case, blank,
                                                  message):
        # numpy named the bad cell of file row 6 "row 4" and the ragged one
        # "row 5", counting the data rows only; the header is row 1 of the
        # file, after any blank lines above it
        cfg, csv_path = self._fresh_run(tmp_path)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        parts = lines[5].split(",")
        if case == "ragged row":
            lines[5] = ",".join(parts[:-1])
        elif case == "unparsable cell":
            lines[5] = ",".join([parts[0], parts[1] + "#"] + parts[2:])
        else:
            lines[5] = ",".join(parts[:-1] + ["7"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n" * blank + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {message}$"):
            read_trajectory_csv(str(bad))
        capsys.readouterr()   # drain the simulate output
        assert main(["check", "--csv", str(bad), "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("case, message", [
        ("non-finite cell", "row 9 has a non-finite t or state"),
        ("swapped flow rows", "row 15 is out of order: "),
        ("corrupted energy", None)], ids=["non-finite", "out of order", "column consistency"])
    def test_row_messages_name_file_rows_across_blank_lines(self, tmp_path, capsys, case,
                                                            message):
        # two blank lines above the header and one after the third data row:
        # data row k (0-based) from the fourth on is file row k + 5, which
        # these messages counted as k + 2
        cfg, csv_path = self._fresh_run(tmp_path)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        k = {"non-finite cell": 5, "corrupted energy": 40}.get(case)
        if k is None:
            lines[10], lines[11] = lines[11], lines[10]
        else:
            parts = lines[k].split(",")
            parts[1 if case == "non-finite cell" else -3] = "nan" if k == 5 else "9.9"
            lines[k] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n\n" + "\n".join(lines[:4] + [""] + lines[4:]) + "\n")
        capsys.readouterr()   # drain the simulate output
        code = main(["check", "--csv", str(bad), "--config", cfg])
        if message is not None:
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
            return
        assert code == 2
        report = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert report["column_consistency"]["location"] == 44.0

    def test_report_written_to_file(self, tmp_path):
        cfg, csv_path = self._fresh_run(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert main(["check", "--csv", csv_path, "--config", cfg,
                     "--out", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert all(c["passed"] for c in report["checks"])


def reference_csv_text(times, states, flags, energies, ells, formulation):
    """The trajectory CSV rendered value by value: each float by
    format(float(x), ".17g"), the flag by str(int(flag)), joined by commas."""
    n = states.shape[1] // 2
    x = {"lagrangian": "v", "hamiltonian": "p"}[formulation]
    lines = [",".join(["t"] + [f"q{i + 1}" for i in range(n)] + [f"{x}{i + 1}" for i in range(n)]
                      + ["z", "E", "ell", "event_flag"])]
    for k in range(times.size):
        row = [times[k], *states[k], energies[k], ells[k]]
        lines.append(",".join([format(float(v), ".17g") for v in row] + [str(int(flags[k]))]))
    return "\n".join(lines) + "\n"


# Floats with the edge cases of a 17-digit rendering: signed zeros,
# subnormals and infinities. NaN is math.nan, whose bits a file can carry.
_CELL = st.one_of(st.floats(allow_nan=False), st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf]))
_MONITOR = st.one_of(_CELL, st.just(math.nan))


@st.composite
def trajectory_tables(draw):
    n, m = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 6))

    def column(cells, size):
        return np.array(draw(st.lists(cells, min_size=size, max_size=size)), dtype=float)

    states = column(_CELL, m * (2 * n + 1)).reshape(m, 2 * n + 1)
    flags = np.array(draw(st.lists(st.sampled_from([0, 1, 2]), min_size=m, max_size=m)))
    return (column(_CELL, m), states, flags, column(_MONITOR, m), column(_MONITOR, m),
            draw(st.sampled_from(["lagrangian", "hamiltonian"])))


class TestTrajectoryCsv:
    @settings(max_examples=200, deadline=None)
    @given(table=trajectory_tables())
    def test_written_text_is_the_per_value_rendering_and_reads_back_bit_for_bit(self, table):
        times, states, flags, energies, ells, formulation = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trajectory.csv")
            write_trajectory_csv(path, times, states, flags, energies, ells, formulation)
            with open(path) as fh:
                assert fh.read() == reference_csv_text(*table)
            back = read_trajectory_csv(path)
        n = states.shape[1] // 2
        assert (back["n"], back["formulation"]) == (n, formulation)
        for key, want in (("t", times), ("q", states[:, :n]), ("v", states[:, n:2 * n]),
                          ("z", states[:, 2 * n]), ("E", energies), ("ell", ells)):
            assert back[key].tobytes() == np.ascontiguousarray(want).tobytes(), key
        assert back["flag"].tolist() == flags.tolist()


class TestOneCertificationStandard:
    """Every check tolerance is a constant of `checks`: no check takes one,
    and every CLI report carries the constant for its name."""

    def test_no_check_takes_a_tolerance(self):
        own = [obj for obj in vars(checks).values()
               if callable(obj) and getattr(obj, "__module__", None) == checks.__name__]
        assert checks.check_row_containment in own and checks._decay_reports in own
        for obj in own:
            assert "tol" not in inspect.signature(obj).parameters, obj.__name__

    def test_cli_reports_carry_the_checks_constants(self, tmp_path):
        cfg = short_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        report = str(tmp_path / "check.json")
        assert main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                     "--config", cfg, "--out", report]) == 0
        constants = {"energy_decay": checks.FLOW_TOL,
                     "angular_quantity_decay": checks.FLOW_TOL,
                     "impact_conditions": checks.IMPACT_TOL,
                     "containment": checks.CONTAINMENT_TOL,
                     "column_consistency": checks.COLUMN_TOL}
        seen = set()
        for path in (os.path.join(out, "summary.json"), report):
            with open(path) as fh:
                for c in json.load(fh)["checks"]:
                    assert c["tolerance"] == constants[c["name"]], c
                    seen.add(c["name"])
        assert seen == set(constants)

    def test_simulate_judges_containment_on_the_dense_steps(self, tmp_path, monkeypatch):
        # the trajectory's own interpolants, not the sampled rows; check has
        # only rows and keeps the row check
        dense, rows = [], []
        on_steps, on_rows = checks.check_containment, checks.check_row_containment
        monkeypatch.setattr(cli, "check_containment",
                            lambda *a: dense.append(on_steps(*a)) or dense[-1])
        monkeypatch.setattr(cli, "check_row_containment",
                            lambda *a: rows.append(on_rows(*a)) or rows[-1])
        cfg = short_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert len(dense) == 1 and rows == []
        with open(os.path.join(out, "summary.json")) as fh:
            reported = [c for c in json.load(fh)["checks"] if c["name"] == "containment"]
        assert reported == [dense[0].to_dict()]
        assert main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                     "--config", cfg]) == 0
        assert len(dense) == 1 and len(rows) == 1


class TestSweep:
    def test_two_gamma_sweep(self, tmp_path):
        with open(CIRCLE_CONFIG) as fh:
            cfg = json.load(fh)
        cfg["run"]["t_final"] = 3.0
        cfg["output"]["samples"] = 100
        cfg["output"]["svg"] = False
        cfg["sweep"] = {"path": "system.gamma", "values": [0.0, 1e-4]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "sweep_out")
        assert main(["sweep", "--config", str(path), "--out", out]) == 0
        with open(os.path.join(out, "sweep_summary.json")) as fh:
            merged = json.load(fh)
        assert merged["sweep_path"] == "system.gamma"
        assert [r["value"] for r in merged["runs"]] == [0.0, 1e-4]
        for r in merged["runs"]:
            assert r["status"] == "Completed" and r["all_checks_passed"]
            assert os.path.exists(os.path.join(out, r["out_dir"], "summary.json"))

    def test_workers_option_is_rejected(self, tmp_path, capsys):
        # sweeps run in one process: the process-pool option is gone
        with open(CIRCLE_CONFIG) as fh:
            cfg = json.load(fh)
        cfg["sweep"] = {"path": "system.gamma", "values": [1e-4, 1e-3]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "par")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path), "--out", out, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_sweep_section_exits_one(self, tmp_path):
        cfg = short_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestCustomSystem:
    def _config(self, tmp_path, formulation="lagrangian"):
        cfg = {
            "system": {"kind": "custom", "n": 2,
                       "mass_matrix": [[2.0, 0.0], [0.0, 2.0]],
                       "gamma": 1e-3,
                       "surface": {"kind": "sphere", "radius": 1.0}},
            "initial": {"q": [0.25, 0.0], "v": [1.0, 0.5], "z": 0.0},
            "run": {"t_final": 4.0, "formulation": formulation},
            "output": {"samples": 100, "svg": False},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_lagrangian_run_and_check_round_trip(self, tmp_path):
        cfg = self._config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                     "--config", cfg]) == 0

    def test_hamiltonian_run(self, tmp_path):
        cfg = self._config(tmp_path, formulation="hamiltonian")
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "Completed"
        assert all(c["passed"] for c in summary["checks"])

    def test_momentum_initial_state(self, tmp_path):
        with open(self._config(tmp_path, formulation="hamiltonian")) as fh:
            cfg = json.load(fh)
        cfg["initial"] = {"q": [0.25, 0.0], "p": [2.0, 1.0], "z": 0.0}
        path = tmp_path / "mom.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        # p = M v with M = 2 I: same trajectory as v = (1, 0.5)
        assert main(["simulate", "--config", str(path), "--out", out]) == 0

    @pytest.mark.parametrize("formulation, second", [("lagrangian", "v"), ("hamiltonian", "p")])
    @pytest.mark.parametrize("n", [1, 3])
    def test_simulate_and_check_away_from_the_plane(self, tmp_path, n, formulation, second):
        # the CLI reads n from the config alone: identity mass in the unit
        # ball, q0 = (0.3, 0, ...), v0 = (1, 0.4, 0, ...) cut to length n
        cfg = {
            "system": {"kind": "custom", "n": n, "mass_matrix": np.eye(n).tolist(),
                       "gamma": 0.05, "surface": {"kind": "sphere", "radius": 1.0}},
            "initial": {"q": [0.3] + [0.0] * (n - 1), "v": [1.0, 0.4, 0.0][:n], "z": 0.0},
            "run": {"t_final": 10.0, "formulation": formulation},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        csv_path = os.path.join(out, "trajectory.csv")
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        assert main(["check", "--csv", csv_path, "--config", str(path)]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "Completed" and summary["n_events"] == 4
        assert all(c["passed"] for c in summary["checks"])
        with open(csv_path) as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert header == (["t"] + [f"q{i}" for i in range(1, n + 1)]
                          + [f"{second}{i}" for i in range(1, n + 1)]
                          + ["z", "E", "ell", "event_flag"])

    @pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian"])
    def test_both_commands_certify_an_n5_skewed_run_as_its_resolves_did(self, tmp_path,
                                                                        formulation):
        # from n = 4 a dot over a strided column sums in another order than
        # the point call: the table pass of `simulate` and `check` must still
        # equal the worst residual of the resolves, which take one pair each
        cfg = {
            "system": {"kind": "custom", "n": 5, "gamma": 0.05,
                       "mass_matrix": [[2.0, 0.3, 0.0, 0.1, 0.0], [0.3, 1.0, 0.2, 0.0, 0.1],
                                       [0.0, 0.2, 1.5, 0.3, 0.0], [0.1, 0.0, 0.3, 1.2, 0.2],
                                       [0.0, 0.1, 0.0, 0.2, 0.8]],
                       "surface": {"kind": "sphere", "radius": 1.0}},
            "initial": {"q": [0.2, -0.1, 0.3, 0.0, 0.1], "v": [0.7, 0.4, -0.3, 0.5, 0.2],
                        "z": 0.0},
            "run": {"t_final": 20.0, "formulation": formulation},
            "output": {"samples": 200, "svg": False},
        }
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(path),
                     "--out", str(tmp_path / "check.json")]) == 0
        summary = json.loads((out / "summary.json").read_text())
        checked = json.loads((tmp_path / "check.json").read_text())["checks"]
        assert summary["status"] == "Completed" and summary["n_events"] > 0
        assert all(c["passed"] for c in summary["checks"] + checked)
        simulated = {c["name"]: c for c in summary["checks"]}["impact_conditions"]
        assert {c["name"]: c for c in checked}["impact_conditions"] == simulated
        assert simulated["max_violation"] == max(
            max(e["residual_tangential"], e["residual_energy"]) for e in summary["events"])

    def test_bad_mass_matrix_shape(self, tmp_path, capsys):
        with open(self._config(tmp_path)) as fh:
            cfg = json.load(fh)
        cfg["system"]["mass_matrix"] = [[1.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 1
        assert "mass_matrix" in capsys.readouterr().err


class TestShippedConfigs:
    def test_reference_circle_config_runs(self, tmp_path):
        out = str(tmp_path / "fig1")
        assert main(["simulate", "--config", CIRCLE_CONFIG, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["n_events"] >= 10

    @pytest.mark.parametrize("formulation", ["lagrangian", "hamiltonian"])
    def test_small_mass_runs_and_checks(self, tmp_path, formulation):
        # the regularity gate is relative, so a 1e-6 mass is not singular
        cfg = short_config(tmp_path, **{"system.mass": 1e-6})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--formulation", formulation]) == 0
        assert main(["check", "--csv", os.path.join(out, "trajectory.csv"),
                     "--config", cfg]) == 0

    def test_reference_ellipse_config_runs(self, tmp_path):
        out = str(tmp_path / "fig2")
        assert main(["simulate", "--config", ELLIPSE_CONFIG, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "Completed"
        assert all(c["passed"] for c in summary["checks"])


# SHA-256 of what `simulate` writes and prints and of the `checks` list of
# `check`'s report (not its `csv` path), on the reference configs at T = 20.
# Like the golden CSV, a change that moves a digest regenerates it and
# states why.
OUTPUT_DIGESTS = {
    ("circle.json", "lagrangian"): {
        "summary.json": "ee83b7b45e05fa09a6a24b815ca6d0816876a600dde67af93282948818ae78e1",
        "trajectory.csv": "9280ebbfb6ebf7b7f7e85d63fd9fdaefc659b6802242bbf267521517ad76edfc",
        "trajectory.svg": "e6fb8272e850b528d5387d8a6044b4ecf5433d57f1cde79ec07f36d9b5e15872",
        "stdout": "7e44b67c1ead459b90a61d8d93818056a8eaac6c8d3ebc227a3028475fad922b",
        "checks": "69e6165b93191a9cceb2683422fc9ee6fb8e6055a6600d1dbc9e663830367279",
    },
    ("circle.json", "hamiltonian"): {
        "summary.json": "688e68cc68dc1fa0dfe6a46b2797094efca7364c4cc81c06c9696a786759c876",
        "trajectory.csv": "54238df72f901095fd7f72253944a630c601138d09acdc9e7b50855f9e7ff0b7",
        "trajectory.svg": "e6fb8272e850b528d5387d8a6044b4ecf5433d57f1cde79ec07f36d9b5e15872",
        "stdout": "f55022a4bf620b50c333ed33ab97cdd6ad915db8a7ba01cf8da714a617321ca6",
        "checks": "93c71149c6b18ab720b2627c7a4bf6bff2dade23c9c47fc1c8b9a8fead3b1642",
    },
    ("ellipse.json", "lagrangian"): {
        "summary.json": "581f734fafb9746a4586c6143499f7e8ea5b6cfd5afc25fc56b9831544dffb8b",
        "trajectory.csv": "fe1c46f8afc18f09fc0a81053c20cda9c42991fff35eebf1ca78e13e2693b96e",
        "trajectory.svg": "18f70139e06a7bf998b80b12d19e2e493981b4cf782d3c35b51d0a79c1bc583e",
        "stdout": "410a89eca54bfb8858ac8643813f1fe6a995c41ad087c3a3e4ee41e469e727fd",
        "checks": "0e027a21b5ba052ef6c1b18d704f85e934c4113badf94a2612c56875ba1ac9d5",
    },
    ("ellipse.json", "hamiltonian"): {
        "summary.json": "dc627cf2215ec4ad7e2ab25f81a2b0bb0d0b158e31b7f3bb284d75caa5c9a17b",
        "trajectory.csv": "b3ba96d6b59798f0b64e7d14040e6f07fc32c388dcca372b30090417225f56c3",
        "trajectory.svg": "18f70139e06a7bf998b80b12d19e2e493981b4cf782d3c35b51d0a79c1bc583e",
        "stdout": "96f0fe0b7208bbfc7bb53d0354aaffaee52d390b8c0a5cdee65895f89c4618f6",
        "checks": "ccdf5858d6ac5b332fef864437112c54be79b040a267cfc0463849c47374ac0a",
    },
}


@pytest.mark.parametrize("config, formulation", sorted(OUTPUT_DIGESTS),
                         ids=lambda v: v.removesuffix(".json"))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, config, formulation):
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 20.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--formulation", formulation]) == 0
    got = {"stdout": capsys.readouterr().out.encode()}
    for name in ("summary.json", "trajectory.csv", "trajectory.svg"):
        got[name] = (out / name).read_bytes()
    assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(cfg_path),
                 "--out", str(tmp_path / "check.json")]) == 0
    checks = json.loads((tmp_path / "check.json").read_text())["checks"]
    got["checks"] = json.dumps(checks, sort_keys=True).encode()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} \
        == OUTPUT_DIGESTS[config, formulation]


@pytest.mark.parametrize("config, formulation", sorted(OUTPUT_DIGESTS),
                         ids=lambda v: v.removesuffix(".json"))
def test_summary_residuals_are_the_certificates(tmp_path, monkeypatch, config, formulation):
    # summary.json reads them from one block pass over the table's pre/post
    # rows; each equals impact_residuals of its event, bit for bit
    runs, simulate = [], cli.simulate

    def kept(hs, *args):
        runs.append((hs, simulate(hs, *args)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "simulate", kept)
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 20.0
    summary = cli.run_simulation(cfg, str(tmp_path / "out"), formulation)
    (hs, traj), = runs
    written = json.loads((tmp_path / "out" / "summary.json").read_text())["events"]
    assert len(written) == len(summary["events"]) == len(traj.events) >= 15
    assert [(e["residual_tangential"], e["residual_energy"]) for e in written] == [
        impact.impact_residuals(hs.dynamics, hs.surface, e.state_minus, e.state_plus)
        for e in traj.events]


@pytest.mark.parametrize("config, formulation", [("circle.json", "lagrangian"),
                                                 ("ellipse.json", "hamiltonian")],
                         ids=["circle-lagrangian", "ellipse-hamiltonian"])
def test_simulate_reads_the_impact_pairs_once(tmp_path, monkeypatch, config, formulation):
    """`simulate` makes one ``impact._residuals`` call and one block call of grad h
    over its m impact pairs: the summary's residuals and velocities come from the
    impact report's own pass. Every binding of ``_residuals`` is counted. Before,
    a second pass for the summary made two of each."""
    residual_calls, gradient_calls = [], []
    residuals, gradients = impact._residuals, impact.SwitchingSurface.gradients

    def counted_residuals(*args):
        residual_calls.append(args)
        return residuals(*args)

    def counted_gradients(self, qs):
        gradient_calls.append(np.array(qs))
        return gradients(self, qs)

    for module in (impact, checks, cli):
        if hasattr(module, "_residuals"):
            monkeypatch.setattr(module, "_residuals", counted_residuals)
    monkeypatch.setattr(impact.SwitchingSurface, "gradients", counted_gradients)
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 20.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--formulation", formulation]) == 0
    data = read_trajectory_csv(str(tmp_path / "out" / "trajectory.csv"))
    pre_q = data["q"][data["flag"] == 1]
    assert len(pre_q) in (15, 17)
    assert len(residual_calls) == 1
    assert sum(np.array_equal(qs, pre_q) for qs in gradient_calls) == 1


def test_summary_writes_null_for_a_pair_the_guard_rejects(tmp_path, monkeypatch):
    """From the second impact on, the resolver returns the identity reset, which
    the impact law's guard rejects: that pair's residuals are null, not the zeros
    its unguarded residuals read, and the file parses under a strict JSON reader."""
    law, resolved = impact.resolve_impact_natural, []

    def identity_after_the_first(sys, s_minus, surface):
        resolved.append(s_minus.t)
        if len(resolved) == 1:
            return law(sys, s_minus, surface)
        return impact.ImpactEvent(s_minus, s_minus, 0.0, sys, surface)

    monkeypatch.setattr(impact, "resolve_impact_natural", identity_after_the_first)
    with open(CIRCLE_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 20.0
    cli.run_simulation(cfg, str(tmp_path / "out"))

    def no_constant(name):
        raise AssertionError(f"summary.json holds {name}")

    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=no_constant)
    first, rejected = summary["events"]
    assert max(first["residual_tangential"], first["residual_energy"]) <= 1e-15
    assert (rejected["residual_tangential"], rejected["residual_energy"]) == (None, None)
    assert rejected["v_minus"] == rejected["v_plus"]
    report = {c["name"]: c for c in summary["checks"]}["impact_conditions"]
    assert (report["max_violation"], report["location"]) == (None, resolved[1])


@pytest.mark.parametrize("config, formulation", [("circle.json", "lagrangian"),
                                                 ("ellipse.json", "hamiltonian")],
                         ids=["circle-lagrangian", "ellipse-hamiltonian"])
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path, config, formulation):
    """The T=20 CLI pair writes the same bytes whichever OpenBLAS kernel numpy
    runs: the default for this CPU, Haswell and Prescott. Each pair runs in
    its own processes, since OPENBLAS_CORETYPE is read once at import, and in
    its own directory, with the same relative paths, which check prints."""
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 20.0
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))
    outputs, cores = [], set()
    for kernel in (None, "Haswell", "Prescott"):
        cwd = tmp_path / (kernel or "default")
        cwd.mkdir()
        (cwd / "config.json").write_text(json.dumps(cfg))
        runs = [subprocess.run([sys.executable, "-m", "contactsim", *args], cwd=cwd,
                               capture_output=True, text=True, timeout=300,
                               env=dict(env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})))
                for args in (["simulate", "--config", "config.json", "--out", "out",
                              "--formulation", formulation],
                             ["check", "--csv", "out/trajectory.csv", "--config", "config.json"])]
        for run in runs:
            assert run.returncode == 0, run.stderr
            cores |= set(re.findall(r"^Core: (\S+)", run.stderr, re.MULTILINE))
        outputs.append([run.stdout for run in runs] + [
            (cwd / "out" / name).read_bytes() for name in ("summary.json", "trajectory.csv",
                                                           "trajectory.svg")])
    if not cores:
        pytest.skip("this numpy's OpenBLAS does not name the kernel it runs")
    assert len(cores) >= 2, cores
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("column", ["t", "q1", "v1", "z"])
def test_check_names_the_row_of_a_non_finite_state_cell(tmp_path, capsys, column):
    cfg = short_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    k = lines[0].split(",").index(column)
    parts = lines[40].split(",")
    parts[k] = "nan"
    lines[40] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--csv", str(bad), "--config", cfg]) == 1
    assert "row 41 " in capsys.readouterr().err   # 1-based file row, header included
    args = cli.build_parser().parse_args(["check", "--csv", str(bad), "--config", cfg])
    with pytest.raises(NonFiniteValue, match="row 41 "):
        cli.cmd_check(args)


@pytest.mark.parametrize("config, formulation, simulate_states, check_states", [
    ("circle.json", "lagrangian", 301, 0),
    ("ellipse.json", "hamiltonian", 324, 0),
], ids=["circle-lagrangian", "ellipse-hamiltonian"])
def test_states_built_by_the_cli_pair_are_pinned(tmp_path, monkeypatch, states_built, config,
                                                 formulation, simulate_states, check_states):
    """States are built only at the edges: the start (and its Legendre
    image), and both sides of each of the 150 (circle) or 161 (ellipse)
    impacts in `simulate`. Row columns, decay laws and `check`'s impact pass
    read arrays. Before, the pair built 2,358 + 1,300 and 2,420 + 1,322,
    then 301 + 300 and 324 + 322 while `check` built each impact's pair."""
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 200.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for name in ("_table_columns", "check_decay_laws", "check_row_decay_laws"):
        def building_none(*args, _f=getattr(cli, name), **kwargs):
            before = len(states_built)
            result = _f(*args, **kwargs)
            assert len(states_built) == before, "a row or node pass built a state"
            return result
        monkeypatch.setattr(cli, name, building_none)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--formulation", formulation]) == 0
    assert len(states_built) == simulate_states
    states_built.clear()
    assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(cfg_path)]) == 0
    assert len(states_built) == check_states


def reference_tangent_basis(grad):
    """``impact.tangent_basis`` of one normal as it was before the column form,
    its sums of products left to right."""
    n = grad.size
    u = grad / math.sqrt(dot_left_to_right(grad, grad))
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0.0 else -1.0
    P = np.eye(n) - 2.0 * np.outer(w, w) / dot_left_to_right(w, w)
    return P[:, 1:]


def reference_impact_violation(sys, surface, s_minus, s_plus):
    """The impact law one pair at a time, the body that the one-pair
    certificate and its residuals had before the column form: the reference
    for it."""
    g = surface.gradient(s_minus.q)
    if not (np.array_equal(s_minus.q, s_plus.q) and (s_minus.z, s_minus.t) == (s_plus.z, s_plus.t)
            and abs(surface.value(s_minus.q)) <= 1e-9
            and dot_left_to_right(g, sys.velocity(*s_minus.phase)) < 0.0
            < dot_left_to_right(g, sys.velocity(*s_plus.phase))):
        return np.inf
    p_minus, p_plus = sys.momentum(*s_minus.phase), sys.momentum(*s_plus.phase)
    T = reference_tangent_basis(g)
    p_scale = max(1.0, float(np.max(np.abs(p_minus))))
    jump = [dot_left_to_right(p_plus - p_minus, column) for column in T.T]
    r_tan = max(map(abs, jump)) / p_scale if jump else 0.0
    e_minus = sys.energy(*s_minus.phase)
    r_en = abs(sys.energy(*s_plus.phase) - e_minus) / max(1.0, abs(e_minus))
    return max(r_tan, r_en)


@pytest.fixture(scope="module", params=[
    ("circle.json", "lagrangian"), ("circle.json", "hamiltonian"),
    ("ellipse.json", "lagrangian"), ("ellipse.json", "hamiltonian")],
    ids=["circle-lagrangian", "circle-hamiltonian", "ellipse-lagrangian", "ellipse-hamiltonian"])
def reference_run(request, tmp_path_factory):
    """A reference config at T=200 and its `simulate` output directory."""
    config, formulation = request.param
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 200.0
    tmp = tmp_path_factory.mktemp("reference")
    (tmp / "config.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(tmp / "config.json"), "--out", str(tmp / "out"),
                 "--formulation", formulation]) == 0
    return tmp / "config.json", tmp / "out"


def test_check_certifies_the_impacts_as_simulate_and_the_per_pair_reference_do(reference_run,
                                                                               tmp_path):
    """`simulate` and `check` both read the pre/post rows as columns, one from
    the sampled table and one from the CSV; both report the same worst impact,
    and `check`'s report equals the one the per-pair reference makes from
    states built of the rows."""
    cfg_path, out = reference_run
    assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(cfg_path),
                 "--out", str(tmp_path / "check.json")]) == 0
    checked = {c["name"]: c for c in json.loads((tmp_path / "check.json").read_text())["checks"]}
    simulated = {c["name"]: c for c in json.loads((out / "summary.json").read_text())["checks"]}
    checked, simulated = checked["impact_conditions"], simulated["impact_conditions"]
    assert (checked["max_violation"], checked["location"]) == (
        simulated["max_violation"], simulated["location"])
    data = read_trajectory_csv(str(out / "trajectory.csv"))
    hs, _, _ = build_system(parse_config(load_config(str(cfg_path)), data["formulation"]))
    rows = np.column_stack([data["q"], data["v"], data["z"]])
    state = lambda j: hs.dynamics.state_type.from_vector(rows[j], data["t"][j])
    reports = [CheckReport(name="impact_conditions", tolerance=checks.IMPACT_TOL,
                           location=data["t"][i], max_violation=reference_impact_violation(
                               hs.dynamics, hs.surface, state(i), state(i + 1)))
               for i in np.flatnonzero(data["flag"] == 1).tolist()]
    assert len(reports) in (150, 161)
    # every pair, not only the worst, as `check` reads the rows as columns
    t, pre = data["t"], np.flatnonzero(data["flag"] == 1)
    minus, plus = ((data["q"][j].T, data["v"][j].T, data["z"][j], t[j]) for j in (pre, pre + 1))
    assert impact._violations(hs.dynamics, hs.surface, minus, plus)[0].tolist() == [
        r.max_violation for r in reports]
    reference = max([CheckReport(name="impact_conditions", max_violation=0.0,
                                 tolerance=checks.IMPACT_TOL), *reports],
                    key=lambda r: r.max_violation)
    assert checked == reference.to_dict()


def test_check_reads_h_and_grad_h_once_for_every_impact(reference_run, monkeypatch, tmp_path):
    """The impact report of both commands, `simulate` on its sampled table and
    `check` on the CSV, makes one block call of h and one of grad h for all 150
    or 161 pairs and no point call, and neither command calls
    `check_impact_conditions`. Before, `check` made one point call of each per
    pair, and `simulate` one per event through `check_impact_conditions`."""
    cfg_path, out = reference_run
    calls, inside, build, report = [], [], cli.build_system, cli.check_impact_rows

    def counted(name, f):
        def wrapped(q):
            if inside:
                calls.append((name, q.shape))
            return f(q)
        return wrapped

    def counting(rc):
        hs, lag_spec, boundary = build(rc)
        surface = impact.SwitchingSurface(h=counted("h", hs.surface.h),
                                          grad_h=counted("grad h", hs.surface.grad_h))
        return dataclasses.replace(hs, surface=surface), lag_spec, boundary

    def within(*args):
        inside.append(True)
        try:
            return report(*args)
        finally:
            inside.pop()

    def per_event(*args):
        raise AssertionError("an impact was certified one event at a time")

    monkeypatch.setattr(cli, "build_system", counting)
    monkeypatch.setattr(cli, "check_impact_rows", within)
    monkeypatch.setattr(checks, "check_impact_conditions", per_event)
    assert not hasattr(cli, "check_impact_conditions")
    data = read_trajectory_csv(str(out / "trajectory.csv"))
    m = int(np.sum(data["flag"] == 1))
    assert m in (150, 161)
    for argv in (["simulate", "--out", str(tmp_path / "out"), "--formulation", data["formulation"]],
                 ["check", "--csv", str(out / "trajectory.csv")]):
        calls.clear()
        assert main([*argv, "--config", str(cfg_path)]) == 0
        assert sorted(calls) == [("grad h", (2, m)), ("h", (2, m))], argv[0]


@pytest.mark.parametrize("config, formulation, field", [
    ("circle.json", "lagrangian", "lagrangian"),
    ("ellipse.json", "hamiltonian", "hamiltonian"),
], ids=["circle-lagrangian", "ellipse-hamiltonian"])
def test_value_calls_of_the_row_and_node_passes_are_pinned(tmp_path, monkeypatch, config,
                                                           formulation, field):
    """L (or H) is called once by each pass that reads the energy: the CSV's
    E column in `simulate` and in `check`, and the energy law's node pass;
    the row decay law reads only the rate. Before, they called it once per
    table row and node: 2,057 + 1,300 (circle) and 2,096 + 1,322 (ellipse)."""
    with open(os.path.join(CONFIG_DIR, config)) as fh:
        cfg = json.load(fh)
    cfg["run"]["t_final"] = 200.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out, calls, inside = tmp_path / "out", [], []
    build = cli.build_system

    def counting(rc):
        hs, lag_spec, boundary = build(rc)
        f = getattr(hs.dynamics, field)

        def counted(q, x, z):
            if inside:
                calls.append(np.shape(z))
            return f(q, x, z)
        dynamics = dataclasses.replace(hs.dynamics, **{field: counted})
        return dataclasses.replace(hs, dynamics=dynamics), lag_spec, boundary

    monkeypatch.setattr(cli, "build_system", counting)
    for name in ("_table_columns", "check_decay_laws", "check_row_decay_laws"):
        def within(*args, _f=getattr(cli, name), **kwargs):
            inside.append(name)
            try:
                return _f(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(cli, name, within)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--formulation", formulation]) == 0
    assert len(calls) == 2
    calls.clear()
    assert main(["check", "--csv", str(out / "trajectory.csv"), "--config", str(cfg_path)]) == 0
    assert len(calls) == 1


def test_impact_test_prints_the_certificates_residuals(capsys, monkeypatch):
    # a resolver that rotates the reset by 1e-3; impact-test prints the
    # certificate's residuals of the pair, from its own system and surface
    honest = impact.resolve_impact_natural

    def rotating(sys, s_minus, surface):
        event = honest(sys, s_minus, surface)
        c, s = math.cos(1e-3), math.sin(1e-3)
        v = event.state_plus.qdot
        state_plus = dataclasses.replace(event.state_plus,
                                         qdot=np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]]))
        return dataclasses.replace(event, state_plus=state_plus)

    monkeypatch.setattr(impact, "resolve_impact_natural", rotating)
    assert main(["impact-test", "circle", "--point", "1", "0", "--velocity", "1", "0.5"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("residuals")][0]
    r_tan, r_en = (float(r) for r in line.split(":")[1].split(","))
    assert r_tan > 1e-4   # the rotation moves the tangential momentum
    assert r_en < 1e-12   # a rotation keeps the speed, so the energy matches

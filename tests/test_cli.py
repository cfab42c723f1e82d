import copy
import inspect
import json
import os
import re

import numpy as np
import pytest

from contactsim import checks, cli
from contactsim.checks import CheckReport
from contactsim.cli import build_system, load_config, main, parse_config
from contactsim.hybrid import MAX_EVENTS
from contactsim.integrate import EventConfig, StepperConfig
from contactsim.io import read_trajectory_csv, write_trajectory_csv

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
        # a key that no setting reads, in every section but stepper/events
        ("output.sampels", 50, "'output.sampels'"),
        ("run.t_finall", 5, "'run.t_finall'"),
        ("initial.qdot", [1.0, 1.0], "'initial.qdot'"),
        ("system.radius_", 2.0, "'system.radius_'"),
        # runs are always deterministic, so no key asks for it
        ("run.deterministic", True, "'run.deterministic'"),
        pytest.param("system.surface", {"kind": "sphere", "radius": 1.0},
                     "'system.surface.kind'", id="system.surface-on-a-circle"),
        pytest.param("plot", {}, "'plot'", id="unknown-empty-section"),
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
        assert rc.stepper == StepperConfig() and rc.events == EventConfig()
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

    def test_off_boundary_exits_one(self, capsys):
        assert main(["impact-test", "circle", "--point", "0.5", "0",
                     "--velocity", "1", "0"]) == 1

    def test_nan_gamma_is_named(self, capsys):
        # a NaN gamma used to pass the spec and fail later on a non-finite L
        assert main(["impact-test", "circle", "--point", "1", "0",
                     "--velocity", "1", "0.5", "--gamma", "nan"]) == 1
        assert "gamma must be >= 0, got nan" in capsys.readouterr().err


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
        rows = [hs.state_from_vector(y, t) for y, t in zip(states, data["t"])]
        bad = tmp_path / "bad.csv"
        write_trajectory_csv(str(bad), data["t"], states, data["flag"],
                             [hs.dynamics.energy(s) for s in rows],
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

    def test_empty_csv_exits_one(self, tmp_path, capsys):
        cfg = short_config(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["check", "--csv", str(empty), "--config", cfg]) == 1

    def test_header_only_csv_exits_one(self, tmp_path):
        cfg = short_config(tmp_path)
        stub = tmp_path / "stub.csv"
        stub.write_text("t,q1,q2,v1,v2,z,E,ell,event_flag\n")
        assert main(["check", "--csv", str(stub), "--config", cfg]) == 1

    def test_report_written_to_file(self, tmp_path):
        cfg, csv_path = self._fresh_run(tmp_path)
        report_path = str(tmp_path / "report.json")
        assert main(["check", "--csv", csv_path, "--config", cfg,
                     "--out", report_path]) == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert all(c["passed"] for c in report["checks"])


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

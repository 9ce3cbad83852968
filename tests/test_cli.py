import json
import math
import os
import subprocess
import sys

import pytest

import afmass
import afmass.mass
from afmass.cli import ConfigInvalid, RunConfig, main, run
from afmass.reports import read_csv, read_json, strip_volatile


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def load_strict(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SCHWARZSCHILD_N3 = {
    "n": 3,
    "family": "Schwarzschild",
    "params": {"m": 1.0},
    "derivative_mode": "analytic",
}


class TestAdmMassCommand:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "adm-mass",
            "spec": SCHWARZSCHILD_N3,
            "radii": [50, 100, 200, 400],
            "q": 32,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out / "adm_mass.json")
        assert doc["result"]["value"] == pytest.approx(1.0, rel=1e-3)
        assert doc["config"]["command"] == "adm-mass"
        for key in ("value", "error", "radii", "raw", "model"):
            assert key in doc["result"]

    def test_quadrature_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3,
            "radii": [50, 100], "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quadrature", "16"]) == 0
        assert read_json(out / "adm_mass.json")["config"]["q"] == 16


class TestConfigValidation:
    def test_empty_radii_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3, "radii": [],
        })
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["--config", str(path)]) == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2

    def test_unknown_command_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "explode"})
        assert main(["--config", cfg]) == 2

    def test_quadrature_flag_limit_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3, "radii": [50, 100],
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quadrature", "257"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()
        assert RunConfig({"command": "adm-mass"}, quadrature=256).q == 256

    @pytest.mark.parametrize("n,resolution", [(7, 4), (3, 93)])
    def test_window_limit_admits(self, tmp_path, monkeypatch, n, resolution):
        # resolution^n n^4 <= 2^26: the window reaches the experiment
        import afmass.sequences

        seen = []

        def stub(kind, **kw):
            seen.append(kw["grid_q"])
            raise ValueError("stopped before any window is built")

        monkeypatch.setattr(afmass.sequences, "run_semicontinuity_experiment", stub)
        cfg = write_config(tmp_path, {"command": "sequence", "kind": "escaping",
                                      "n": n, "resolution": resolution})
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert seen == [resolution]

    def test_decreasing_radii_rejected(self):
        with pytest.raises(ConfigInvalid):
            RunConfig({"command": "adm-mass", "radii": [100, 50]}).radii()

    @pytest.mark.parametrize("q", ["abc", 2.5])
    def test_non_integer_q_exit_2(self, tmp_path, capsys, q):
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3,
            "radii": [50, 100], "q": q,
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_nan_parameter_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            '{"command": "adm-mass", "radii": [50, 100], "q": 8, "spec": '
            '{"n": 3, "family": "Schwarzschild", "params": {"m": NaN}}}'
        )
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) != 0

    @pytest.mark.parametrize("doc", [
        {"command": "sequence", "kind": "shells", "indices": [0, 1]},
        {"command": "sequence", "kind": "blow_up", "n": 2},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {"n": 9, "family": "Schwarzschild", "params": {"m": 1.0}}},
        {"command": "adm-mass", "radii": [50, 100], "q": 257,
         "spec": SCHWARZSCHILD_N3},
        {"command": "sequence", "kind": "shells", "n": 3, "resolution": 1000},
        {"command": "sequence", "kind": "blow_up", "n": 7, "resolution": 5},
    ], ids=["shells-index-0", "blow_up-n2", "adm-mass-n9", "q-257",
            "window-n3-resolution-1000", "window-n7-resolution-5"])
    def test_out_of_range_exit_2(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("doc", [
        {"command": "adm-mass", "spec": SCHWARZSCHILD_N3, "radii": 5},
        {"command": "adm-mass", "spec": SCHWARZSCHILD_N3, "radii": ["x"]},
        {"command": "cone-angle", "alpha": 0.7, "perturbation": 3},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {**SCHWARZSCHILD_N3, "derivative_mode": "fd", "fd_step": "x"}},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {"n": 3, "family": "Schwarzschild",
                  "params": {"m": 1.0, "inner_radius": "a"}}},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {"n": 3, "family": "Scaled",
                  "params": {"base": {**SCHWARZSCHILD_N3, "n": 2}, "lambda": 2.0}}},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {"n": 3, "family": "Scaled",
                  "params": {"base": {**SCHWARZSCHILD_N3, "n": 40}, "lambda": 2.0}}},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {"n": 3, "family": "Cone2D", "params": {"alpha": 0.5}}},
        {"command": "adm-mass", "radii": [50, 100], "q": 4,
         "spec": {**SCHWARZSCHILD_N3, "derivative_mode": "bogus"}},
        {"command": "sequence", "kind": "blow_up", "resolution": 0},
        {"command": "sequence", "kind": "escaping", "resolution": -2},
        {"command": "sequence", "kind": "shells", "window_L": 0},
        {"command": "sequence", "kind": "blow_up", "window_L": -0.5},
    ], ids=["radii-number", "radii-string", "perturbation-number", "fd-step-string",
            "inner-radius-string", "scaled-base-n2", "scaled-base-n40",
            "cone-in-n3", "derivative-mode-bogus", "resolution-0",
            "resolution-negative", "window-L-0", "window-L-negative"])
    def test_wrong_shape_exit_2(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_rejected(self):
        cfg = RunConfig({"command": "adm-mass", "spec": {"n": 3, "family": "Nope"}})
        with pytest.raises(ConfigInvalid):
            cfg.spec()


class TestComputationFailure:
    def test_error_report_and_exit_1(self, tmp_path):
        # fg is undefined where the induced curvature dips below zero
        cfg = write_config(tmp_path, {
            "command": "fg-profile",
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": -40.0}},
            "radii": [2.0],
            "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        err = read_json(out / "error.json")
        assert "error" in err["result"] and "message" in err["result"]

    def test_non_positive_conformal_factor_exit_1(self, tmp_path):
        # U = 1 + m/(2r) = -4 at r = 0.1: the closed forms must not be used
        cfg = write_config(tmp_path, {
            "command": "fg-profile",
            "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": -1.0}},
            "radii": [0.1, 0.2],
            "q": 4,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        err = load_strict(out / "error.json")["result"]
        assert err["error"] == "NonPositiveConformalFactor"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_overflow_exit_1(self, tmp_path):
        # the closed-form area U^4 r^2 overflows a float at r = 1e-300
        cfg = write_config(tmp_path, {
            "command": "fg-profile",
            "spec": SCHWARZSCHILD_N3,
            "radii": [1e-300],
            "q": 4,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "OverflowError"

    def test_indefinite_metric_exit_1(self, tmp_path):
        # g = 1.5^4 I - 25 e1 e1 at (1, 0, 0): no flux mass of it
        cfg = write_config(tmp_path, {
            "command": "adm-mass",
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": -50.0}},
            "radii": [1.0, 2.0, 4.0],
            "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        err = load_strict(out / "error.json")["result"]
        assert err["error"] == "NotPositiveDefinite"

    @pytest.mark.parametrize("exc", [KeyError, MemoryError])
    def test_any_handler_exception_exit_1(self, tmp_path, monkeypatch, capsys, exc):
        import afmass.cli

        def failing(cfg):
            raise exc("handler failed")

        monkeypatch.setitem(afmass.cli._DISPATCH, "adm-mass", failing)
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3, "radii": [50, 100],
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert "computation failed:" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == exc.__name__

    def test_nan_result_exit_1(self, tmp_path):
        # m = 1e400 parses as inf; the flux of that metric is NaN
        path = tmp_path / "config.json"
        path.write_text(
            '{"command": "adm-mass", "radii": [50, 100], "q": 8, "spec": '
            '{"n": 3, "family": "Schwarzschild", "params": {"m": 1e400}}}'
        )
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "ValueError"


class TestConeCommands:
    def test_cone_angle(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "cone-angle", "alpha": 0.7})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out / "cone_mass.json")
        assert doc["result"]["value"] == pytest.approx(0.3, abs=1e-9)

    def test_cone_angle_rejects_bad_alpha(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "cone-angle", "alpha": 2.0})
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 2

    def test_cone_sequence(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "cone-sequence", "kind": "blow_up", "alpha": 0.7,
            "indices": [4, 8, 16, 32],
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out / "experiment.json")
        assert doc["result"]["verdict"] is True
        assert doc["result"]["drop"] == pytest.approx(0.3, abs=1e-9)
        header, rows = read_csv(out / "experiment.csv")
        assert header == ["index", "mass", "distance"]
        assert len(rows) == 4


class TestConstantExperiments:
    @pytest.mark.parametrize("command", ["sequence", "cone-sequence"])
    def test_report_is_strict_json(self, tmp_path, command):
        cfg = write_config(tmp_path, {"command": command, "kind": "constant"})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        result = load_strict(out / "experiment.json")["result"]
        assert result["exponent"] == "Infinity"
        assert float(result["exponent"]) == math.inf


class TestSequenceCommand:
    def test_shells(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "sequence", "kind": "shells", "n": 3,
            "indices": [2, 4, 8],
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "experiment.csv")
        assert header == ["index", "mass", "distance"]
        masses = [float(r[1]) for r in rows]
        assert all(m == pytest.approx(masses[0], rel=1e-10) for m in masses)

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "sequence", "kind": "bogus"})
        assert main(["--config", cfg, "--out", str(tmp_path)]) == 2


class TestWeightedMassCommand:
    def test_single_spec(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "weighted-mass", "spec": SCHWARZSCHILD_N3, "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out / "defect_report.json")["result"]
        assert doc["mass"] == pytest.approx(1.0, rel=1e-6)
        assert doc["matter"] == pytest.approx(0.0, abs=1e-8)
        assert doc["mass_via_divergence"]["value"] == pytest.approx(1.0, rel=1e-3)

    def test_shell_sequence_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "weighted-mass", "n": 3, "indices": [1, 2], "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "shell_defects.csv")
        assert header == ["i", "mass", "matter", "defect"]
        assert len(rows) == 2


class TestFgProfileCommand:
    def test_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "fg-profile", "spec": SCHWARZSCHILD_N3,
            "radii": [20, 40], "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "fg_profile.csv")
        assert header == ["r", "fg", "area", "maxH2", "rho_min",
                          "hypothesis_holds"]
        assert rows[0][5] == "true"
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)


    def test_one_sphere_report_per_radius(self, tmp_path, monkeypatch):
        calls = []
        original = afmass.mass.sphere_report

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(afmass.mass, "sphere_report", counting)
        cfg = write_config(tmp_path, {
            "command": "fg-profile",
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": 0.2}},
            "radii": [20, 40, 80, 160], "q": 4,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert calls == [20.0, 40.0, 80.0, 160.0]
        header, rows = read_csv(out / "fg_profile.csv")
        result = read_json(out / "fg_limit.json")["result"]
        assert result["raw"] == [float(row[1]) for row in rows]


class TestDeterminism:
    def test_identical_runs_modulo_timestamp(self, tmp_path):
        doc = {
            "command": "adm-mass", "spec": SCHWARZSCHILD_N3,
            "radii": [50, 100], "q": 8, "seed": 7,
        }
        cfg = write_config(tmp_path, doc)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["--config", cfg, "--out", str(out1)]) == 0
        assert main(["--config", cfg, "--out", str(out2)]) == 0
        a = strip_volatile(read_json(out1 / "adm_mass.json"))
        b = strip_volatile(read_json(out2 / "adm_mass.json"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestVersion:
    """The version comes from the source tree, installed or not."""

    SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def test_version_flag_from_source_tree(self):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-m", "afmass.cli", "--version"], cwd=self.SRC,
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == afmass.__version__ == "0.1.0"

    def test_error_report_carries_the_version(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "adm-mass",
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": -50.0}},
            "radii": [1.0, 2.0, 4.0],
            "q": 8,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        doc = load_strict(out / "error.json")
        assert doc["version"] == "0.1.0"
        assert doc["result"]["error"] == "NotPositiveDefinite"

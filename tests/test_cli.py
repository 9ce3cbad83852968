import copy
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmass
import afmass.mass
from afmass.cli import ConfigInvalid, RunConfig, main, run
from afmass.reports import strip_volatile

from report_files import read_csv, read_json


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

    def test_direction_reaches_the_metric(self, tmp_path, monkeypatch):
        # an AS metric whose direction has no axis takes the full grid
        specs = []
        original = afmass.mass.adm_flux

        def recording(spec, r, q):
            specs.append(spec)
            return original(spec, r, q=q)

        monkeypatch.setattr(afmass.mass, "adm_flux", recording)
        direction = [[0.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -1.0]]
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "radii": [50, 100, 200, 400], "q": 8,
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": 0.3, "direction": direction}},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert specs[0].family.B.tolist() == direction
        assert specs[0].family.symmetry is False
        doc = read_json(out / "adm_mass.json")
        assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-3)
        assert doc["config"]["spec"]["params"]["direction"] == direction


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

    @pytest.mark.parametrize("direction", [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
        [1.0, 0.0, 0.0],
        "diag",
        [[1.0, 0.0, 0.0], [0.0, "x", 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["2x2", "ragged", "vector", "string", "string-entry", "bool-entry"])
    def test_malformed_direction_exit_2(self, tmp_path, capsys, direction):
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "radii": [50, 100], "q": 4,
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": 0.3, "direction": direction}},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_direction_entry_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            '{"command": "adm-mass", "radii": [50, 100], "q": 4, "spec": '
            '{"n": 3, "family": "AsymptoticallySchwarzschild", "params": '
            '{"m": 1.0, "direction": [[1, 0, 0], [0, 1e400, 0], [0, 0, 1]]}}}'
        )
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "direction entry must be a finite number" in capsys.readouterr().err

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

    def test_overflowing_fit_exit_1(self, tmp_path):
        # finite flux samples near 1e198, whose fit residual overflows
        # when squared: no report with an infinite error
        cfg = write_config(tmp_path, {
            "command": "adm-mass", "q": 4, "radii": [20.0, 40.0, 80.0, 160.0],
            "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                     "params": {"m": 1.0, "c": 1e200}},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "FitIllConditioned"

    def test_nan_result_exit_1(self, tmp_path):
        # m = 1e400 parses as inf, so U = inf and U^4 is no metric
        path = tmp_path / "config.json"
        path.write_text(
            '{"command": "adm-mass", "radii": [50, 100], "q": 8, "spec": '
            '{"n": 3, "family": "Schwarzschild", "params": {"m": 1e400}}}'
        )
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "NotPositiveDefinite"


# documents whose arithmetic overflows, and the error each one reports
OVERFLOWING_DOCS = {
    "adm-mass": ({
        "command": "adm-mass", "q": 4, "radii": [20.0, 40.0, 80.0, 160.0],
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 1e300}},
    }, "FitIllConditioned"),
    "cone-angle": ({
        "command": "cone-angle", "alpha": 0.5,
        "perturbation": {"amplitude": 1e300, "tau": 1},
    }, "EstimatesDisagree"),
    # U = 1 + m / (2r) is finite, but U^4 overflows
    "adm-mass-factor": ({
        "command": "adm-mass", "q": 4, "radii": [50, 100, 200, 400],
        "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": 1e308}},
    }, "NotPositiveDefinite"),
    "weighted-mass": ({
        "command": "weighted-mass", "q": 4, "radii": [50, 100, 200, 400],
        "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": 1e300}},
    }, "NotPositiveDefinite"),
    # near the origin U itself and its derivatives overflow
    "weighted-mass-profile": ({
        "command": "weighted-mass", "q": 4,
        "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": 1e308}},
    }, "NotPositiveDefinite"),
    # c w is finite, but c d2w overflows near the origin
    "weighted-mass-perturbation": ({
        "command": "weighted-mass", "q": 4,
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 1e308}},
    }, "NotPositiveDefinite"),
    # c B is finite, but det g overflows in the scalar-curvature density
    "weighted-mass-det": ({
        "command": "weighted-mass", "q": 4,
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 1e300}},
    }, "FitIllConditioned"),
    # c B itself overflows: the family is never built
    **{f"{command}-{mode}-direction": ({
        "command": command, "q": 4, "radii": [20.0, 40.0, 80.0, 160.0],
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 1e308,
                            "direction": [[10, 0, 0], [0, 0, 0], [0, 0, 0]]},
                 "derivative_mode": mode},
    }, "NotPositiveDefinite") for command, mode in (
        ("adm-mass", "analytic"), ("adm-mass", "fd"), ("fg-profile", "analytic"),
        ("weighted-mass", "fd"),
    )},
}


@pytest.mark.parametrize("command", sorted(OVERFLOWING_DOCS))
def test_same_error_whatever_the_warnings_filter(tmp_path, capsys, command):
    doc, error = OVERFLOWING_DOCS[command]
    cfg = write_config(tmp_path, doc)
    for action in ("default", "error"):
        out = tmp_path / action
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["--config", cfg, "--out", str(out)]) == 1
        assert [str(w.message) for w in caught] == []
        assert load_strict(out / "error.json")["result"]["error"] == error, action
        # one line on stderr: the failure, no numpy warning
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            f"computation failed: {error}: "), (action, err)


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

    def test_growing_perturbation_exit_2(self, tmp_path, capsys):
        # tau = -1: the perturbation grows like r and opens the surface at 0.6
        cfg = write_config(tmp_path, {"command": "cone-angle", "alpha": 0.5,
                                      "perturbation": {"tau": -1}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 2
        assert "tau must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_profile_exit_1(self, tmp_path):
        # amplitude -10 makes f < 0 on part of 1 < r < 40: no surface
        cfg = write_config(tmp_path, {"command": "cone-angle", "alpha": 0.5,
                                      "perturbation": {"amplitude": -10}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "NotPositiveDefinite"

    def test_nan_curvature_route_exit_1(self, tmp_path):
        # amplitude 1e300: the Gauss-Bonnet route is NaN at every radius
        cfg = write_config(tmp_path, {
            "command": "cone-angle", "alpha": 0.5,
            "perturbation": {"amplitude": 1e300, "tau": 1},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["error.json"]
        assert load_strict(out / "error.json")["result"]["error"] == "EstimatesDisagree"

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


# ---------------------------------------------------------------------------
# fuzz: one field of a valid config document mutated

FUZZ_DOCS = {
    "adm-mass": {
        "command": "adm-mass", "q": 4, "radii": [20.0, 40.0, 80.0, 160.0],
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 0.2}, "derivative_mode": "analytic"},
    },
    "fg-profile": {
        "command": "fg-profile", "q": 4, "radii": [20.0, 40.0, 80.0, 160.0],
        "spec": {"n": 3, "family": "Schwarzschild", "params": {"m": 1.0}},
    },
    "cone-angle": {
        "command": "cone-angle", "q": 4, "alpha": 0.7,
        "radii": [4.0, 8.0, 16.0, 32.0],
        "perturbation": {"amplitude": 0.1, "tau": 1.0},
    },
    "sequence": {
        "command": "sequence", "q": 4, "kind": "blow_up", "n": 3,
        "indices": [2, 4], "resolution": 2, "window_L": 0.5,
    },
    "cone-sequence": {
        "command": "cone-sequence", "q": 4, "kind": "escaping", "alpha": 0.7,
        "indices": [4, 8],
    },
    "weighted-mass": {
        "command": "weighted-mass", "q": 4,
        "spec": {"n": 3, "family": "AsymptoticallySchwarzschild",
                 "params": {"m": 1.0, "c": 0.2}, "derivative_mode": "analytic"},
    },
    "weighted-mass-shells": {
        "command": "weighted-mass", "q": 4, "n": 3, "indices": [1, 2],
    },
}

# the key paths of FUZZ_DOCS that a mutation may replace or delete
FUZZ_PATHS = {
    name: [path for path in (
        ("command",), ("q",), ("radii",), ("radii", 0), ("radii", -1),
        ("spec",), ("spec", "n"), ("spec", "family"), ("spec", "params"),
        ("spec", "params", "m"), ("spec", "params", "c"),
        ("spec", "derivative_mode"), ("spec", "fd_step"),
        ("alpha",), ("perturbation",), ("perturbation", "amplitude"),
        ("perturbation", "tau"), ("kind",), ("n",), ("indices",),
        ("indices", 0), ("resolution",), ("window_L",),
    ) if path[0] in doc]
    for name, doc in FUZZ_DOCS.items()
}

MISSING = object()

# wrong types, non-finite, huge, tiny and negative numbers; the integers stay
# small where they are valid q or n, so no example asks for much work
FUZZ_VALUES = st.sampled_from([
    MISSING, None, "x", "", True, [], {}, [1.0], {"a": 1},
    math.nan, math.inf, -math.inf, 1e300, -1e300, 10 ** 400,
    -1, 0, 1, 2, 3, 7, 0.5, -0.5, 1e-300, 2.5,
])


def _mutated(name, path, value):
    doc = copy.deepcopy(FUZZ_DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is not MISSING:
        parent[path[-1]] = value
    elif isinstance(parent, list) or path[-1] in parent:
        del parent[path[-1]]
    return doc


# the report writer's strings for +-inf
INFINITIES = ("Infinity", "-Infinity")
# a constant experiment's documented infinite exponent (see README)
EXEMPT_INFINITIES = {("experiment.json", ("result", "exponent")),
                     ("experiment.json", ("result", "expected_exponent"))}


def _json_values(obj, path=()):
    """(key path, value) of every leaf; list items share their list's path."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_values(v, path + (k,))
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_values(v, path)
    else:
        yield path, obj


def _json_numbers(name, doc):
    """The numbers of a report, with the writer's infinities as floats,
    except the exempt ones."""
    for path, v in _json_values(doc):
        if (name, path) in EXEMPT_INFINITIES:
            continue
        if v in INFINITIES:
            yield float(v)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield v


def _csv_numbers(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    yield float(cell)
                except ValueError:
                    pass


@st.composite
def fuzz_configs(draw):
    name = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    path = draw(st.sampled_from(FUZZ_PATHS[name]))
    return _mutated(name, path, draw(FUZZ_VALUES))


def _check_outcome(code, out):
    """Assert that an exit code and the output directory out form one of
    the documented outcomes of TestConfigFuzz."""
    assert code in (0, 1, 2)
    written = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if code == 2:
        assert written == []
    else:
        assert ("error.json" in written) == (code == 1)
        assert written
    for name in written:
        path = os.path.join(out, name)
        if name.endswith(".json"):
            numbers = list(_json_numbers(name, load_strict(path)))
        else:
            numbers = list(_csv_numbers(path))
        # an integer literal of any size is finite; 1e400 is not
        assert all(isinstance(v, int) or math.isfinite(v)
                   for v in numbers), (name, numbers)


def _error_class(out):
    path = os.path.join(out, "error.json")
    return load_strict(path)["result"]["error"] if os.path.exists(path) else None


class TestConfigFuzz:
    """Every mutated document gets a documented outcome: exit 0 with finite
    strict-JSON reports, exit 1 with error.json, or exit 2 and no output.
    An "Infinity" string counts as a non-finite number, except the exponents
    of an experiment report.  The outcome is the same under the default
    warnings filters and with RuntimeWarnings turned into errors."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(fuzz_configs())
    def test_documented_outcome(self, doc):
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "config.json")
            with open(cfg, "w") as fh:
                # NaN and Infinity go out as the non-strict literals a
                # hand-written document may hold
                json.dump(doc, fh)
            for action in ("default", "error"):
                out = os.path.join(tmp, action)
                with warnings.catch_warnings():
                    warnings.simplefilter(action, RuntimeWarning)
                    code = main(["--config", cfg, "--out", out])
                _check_outcome(code, out)
                outcomes.append((code, _error_class(out)))
        assert outcomes[0] == outcomes[1], (doc, outcomes)

"""README.md's library quick start and CLI config run as documented."""

import contextlib
import io
import json
import math
import os
import re

import pytest

from afmass.cli import main

from report_files import read_json

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(lang):
    with open(README) as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


def test_quick_start():
    (code,) = _blocks("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    values = [float(v) for v in printed.getvalue().split()]
    # Schwarzschild m = 1 by flux and by fg, then the n = 3 shell mass
    assert values == pytest.approx([1.0, 1.0, 1.0 / (2.0 * math.pi)], rel=1e-3)


def test_adm_mass_config(tmp_path):
    (doc,) = [json.loads(b) for b in _blocks("json")]
    assert doc["command"] == "adm-mass"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "adm_mass.json")["result"]["value"] == pytest.approx(
        1.0, abs=1e-3
    )

import json

import pytest

from afmass.mass import MassEstimate
from afmass.reports import (
    defect_report_to_json,
    strip_volatile,
    write_csv,
    write_json_report,
)
from afmass.weighted import DefectReport

from report_files import read_csv, read_json


def test_defect_report_roundtrip():
    rep = DefectReport(mass=0.5, matter=0.4)
    back = json.loads(json.dumps(defect_report_to_json(rep)))
    assert back == {"mass": 0.5, "matter": 0.4, "defect": rep.defect}
    assert back["defect"] == pytest.approx(0.1)


def test_json_report_wrapper(tmp_path):
    path = tmp_path / "report.json"
    doc = write_json_report(path, {"value": 1.0}, config={"command": "adm-mass"})
    loaded = read_json(path)
    assert loaded["result"] == {"value": 1.0}
    assert loaded["config"] == {"command": "adm-mass"}
    assert "version" in loaded and "timestamp" in loaded
    assert strip_volatile(loaded) == strip_volatile(doc)


def test_json_round_trips_losslessly(tmp_path):
    est = MassEstimate(value=1.0 / 3.0, error=1e-5, radii=(50.0,),
                       raw=(0.3333333333333333,),
                       model={"c0": 1.0 / 3.0, "c1": 0.0, "p": 1.0})
    path = tmp_path / "est.json"
    write_json_report(path, est.to_json())
    with open(path) as fh:
        assert json.load(fh)["result"] == est.to_json()


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[1, 0.5, True], [2, 0.25, False]]
    write_csv(path, ("i", "value", "flag"), rows)
    header, data = read_csv(path)
    assert header == ["i", "value", "flag"]
    assert data[0] == ["1", "0.5", "true"]
    assert data[1] == ["2", "0.25", "false"]


def test_csv_uses_plain_decimal_point(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x",), [[1234.5]])
    text = path.read_text()
    assert "1234.5" in text
    assert "," not in text.splitlines()[1]


def test_csv_full_float_precision(tmp_path):
    path = tmp_path / "t.csv"
    value = 0.1234567890123456789
    write_csv(path, ("x",), [[value]])
    _, data = read_csv(path)
    assert float(data[0][0]) == value

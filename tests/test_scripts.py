"""The experiment scripts run end to end at a tiny size and write their CSVs."""

import csv
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, args, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert module.main() == 0


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_coverage_experiment(tmp_path, monkeypatch):
    out = tmp_path / "coverage.csv"
    _run_script("coverage_experiment",
                ["--replicates", "1", "--length", "2000", "--out", str(out)],
                monkeypatch)
    header, *rows = _rows(out)
    assert header == ["kind", "pass", "e_pass", "t_pass", "erg_pass"]
    assert [r[0] for r in rows] == [
        "ar1", "iid_normal", "random_phase_sine", "constant", "sine",
        "monotone", "unique_peak", "block_mixture"]
    # one replicate: every fraction is a whole pass or a whole fail
    assert all(f in ("0.00", "1.00") for r in rows for f in r[1:])
    by_kind = {r[0]: r for r in rows}
    assert by_kind["constant"][1] == "1.00"
    assert by_kind["monotone"][3] == "0.00"


def test_rejection_density_sweep(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    _run_script("rejection_density_sweep",
                ["--length", "20000", "--windows", "10,20", "--out", str(out)],
                monkeypatch)
    header, *rows = _rows(out)
    assert header == ["path", "test", "n", "upper_density"]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (path, test, n) for path in ("iid_normal", "trend")
        for n in ("10", "20")
        for test in ("threshold_exceedance", "mean_split")]
    for path, _, _, density in rows:
        if path == "trend":
            assert float(density) == 1.0
        else:
            assert 0.0 < float(density) < 0.1

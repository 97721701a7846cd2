"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from metrics import PRINTED_ONLY, per_layer  # noqa: E402
from tracer import TEST_KINDS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py",
           "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        readable = "\n".join(lines[:-1])
        for name in [m["name"] for m in declared] + list(PRINTED_ONLY):
            assert f"  {name} " in readable


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == per_layer()
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def _expand(token: str) -> list[str]:
    """`a.{b,c}.<kind>` -> a.b..., one name per brace choice and test kind."""
    names = [token]
    while any("{" in n or "<kind>" in n for n in names):
        out = []
        for n in names:
            if "<kind>" in n:
                out += [n.replace("<kind>", kind, 1) for kind in TEST_KINDS]
            elif "{" in n:
                head, rest = n.split("{", 1)
                choices, tail = rest.split("}", 1)
                out += [head + c + tail for c in choices.split(",")]
            else:
                out.append(n)
        names = out
    return names


def test_layer_map_is_written_down():
    text = (ROOT / "perfbench" / "LAYERS.md").read_text()
    table = text.split("| per-layer metric |", 1)[1]
    mapped = set()
    for row in table.splitlines()[2:]:
        if not row.startswith("| `"):
            break
        first_cell = row.split(" | ")[0]
        for token in re.findall(r"`([^`]+)`", first_cell):
            mapped.update(_expand(token))
    unmapped = [name for name in per_layer()
                if name not in mapped and not name.endswith(".self_s")
                and name != "trace.overhead_frac"]
    assert unmapped == []


def test_tracer_restores_every_rebinding(tmp_path):
    import pathstat
    from pathstat import cli, contraction, properties, suite

    modules = [m for n, m in sys.modules.items()
               if n == "pathstat" or n.startswith("pathstat.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original_run_suite = suite.run_suite
    with Tracer() as tracer:
        assert cli.run_suite is not original_run_suite
        assert suite.run_suite is cli.run_suite
        assert contraction.cell_tail_stats is properties.cell_tail_stats
        assert contraction.cell_tail_stats is not before[
            ("pathstat.properties", "cell_tail_stats")]
        assert pathstat.run_suite is cli.run_suite
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert tracer.spans == []

    # the untraced run sees the original functions: nothing is recorded
    path = tmp_path / "path.txt"
    path.write_text("\n".join(str((i * 7919) % 101 / 10.0) for i in range(3000)))
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "a")]) in (0, 2)
    assert tracer.spans == []


def test_report_bytes_identical_traced_and_untraced(tmp_path):
    from pathstat import cli

    path = tmp_path / "path.txt"
    path.write_text("\n".join(str(((i * 7919) % 1009) / 100.0) for i in range(5000)))
    cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "plain")])
    with Tracer() as tracer:
        cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "traced")])
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.counts["properties.cell_tail_stats.calls"] > 0
    totals = tracer.totals()
    assert 0.0 < totals["cli.main"]["self_s"] <= totals["cli.main"]["s"]
    for name in ("report.json", "density_trajectories.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

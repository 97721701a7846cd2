"""Command-line front end: generate, analyze, testbench, montecarlo, contract.

Exit codes: 0 all diagnostics pass, 2 violations found, 1 error.  Reports are
JSON with sorted keys so identical configs and seeds reproduce byte-identical
files.  The environment variable PATHSTAT_SEED supplies a seed when neither
the flag nor the generator spec carries one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path as FsPath
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .contraction import (
    M_SCHEDULE,
    adversarial_contraction,
    validate_contraction,
)
from .generators import GeneratorSpec, format_spec, generate, parse_spec
from .pathcore import (
    IntervalPattern,
    Path,
    read_path_file,
    write_path,
)
from .stattests import (
    CALIBRATION_REPLICATES,
    TEST_SLACK,
    CalibrationError,
    RejectionRecord,
    apply_moving_window,
    calibrate_test_size,
    make_builtin_test,
    window_starts,
)
from .suite import montecarlo, report_dict, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


# the AnalysisConfig fields a command may take as flags and --config keys;
# each flag's default and type are DEFAULT_CONFIG's
CONFIG_FLAGS = ("grid_cells", "k_max", "tail_fraction", "tolerance",
                "violation_floor_count", "positive_floor_count", "t_slack",
                "ergodicity_tolerance")


def _add_config_flags(parser: argparse.ArgumentParser,
                      fields: tuple[str, ...]) -> None:
    """--config, a flag per field of ``fields`` (the CONFIG_FLAGS the command
    reads) and --seed; the fields are recorded on the parsed args."""
    parser.add_argument("--config", help="JSON file whose keys override flags")
    for name in fields:
        default = getattr(DEFAULT_CONFIG, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default)
    parser.add_argument("--seed", type=int, default=None)
    parser.set_defaults(config_fields=fields)


def _analysis_config(args: argparse.Namespace) -> AnalysisConfig:
    """The AnalysisConfig of the command's flags after the --config overrides,
    which replace the flags' values in ``args``.  The keys are the command's
    analysis fields, each typed by its default, ``seed`` and, where the
    command has --out-dir, ``out_dir``."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        kinds = {name: INTEGER if isinstance(getattr(DEFAULT_CONFIG, name), int)
                 else NUMBER for name in args.config_fields}
        kinds["seed"] = INTEGER_OR_NULL
        if hasattr(args, "out_dir"):
            kinds["out_dir"] = TEXT
        _check_keys(overrides, tuple(kinds), "config")
        for key in overrides:
            value = _spec_value(overrides, key, kinds[key], "config")
            if key == "seed" and value is not None and value < 0:
                raise ValueError(f"config key 'seed' must be non-negative, "
                                 f"got {value}")
            setattr(args, key, float(value) if kinds[key] == NUMBER else value)
    return AnalysisConfig(**{name: getattr(args, name)
                             for name in args.config_fields})


def _seed(flag: int | None, spec_seed: int | None = None) -> int | None:
    """The run's seed: the --seed flag, then the generator spec's seed=,
    then the PATHSTAT_SEED environment variable."""
    if flag is not None:
        if flag < 0:
            raise ValueError(f"--seed must be non-negative, got {flag}")
        return flag
    if spec_seed is not None:
        return spec_seed
    raw = os.environ.get("PATHSTAT_SEED")
    try:
        seed = int(raw) if raw else None
    except ValueError:
        raise ValueError(f"PATHSTAT_SEED must be an integer, got {raw!r}") \
            from None
    if seed is not None and seed < 0:
        raise ValueError(f"PATHSTAT_SEED must be non-negative, got {raw!r}")
    return seed


def _seeded_spec(text: str, flag: int | None) -> GeneratorSpec:
    spec = parse_spec(text)
    seed = _seed(flag, spec.seed)
    return spec if seed is None else spec.with_seed(seed)


def _resolve_input(text: str, seed: int | None) -> tuple[Path, dict]:
    """A file path, or "generate:<spec>" for a synthetic path."""
    if text.startswith("generate:"):
        spec = _seeded_spec(text[len("generate:"):], seed)
        return generate(spec), {"generator": format_spec(spec),
                                "seed": spec.seed}
    return read_path_file(text), {"file": text}


def _write_json(path: FsPath | None, payload: dict) -> None:
    """Strict JSON to ``path``, or to stdout when it is None: a NaN or
    infinite float is a ValueError, not a token that JSON readers refuse."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args: argparse.Namespace) -> int:
    path = generate(_seeded_spec(args.spec, args.seed))
    if args.out and args.out != "-":
        write_path(path.values, args.out)
    else:
        write_path(path.values, sys.stdout)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    path, provenance = _resolve_input(args.input, args.seed)
    result = run_suite(path, config)
    report = report_dict(result)
    report["input"] = provenance
    report["length"] = path.length

    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    _write_trajectories(out_dir / "density_trajectories.csv", path, result)

    status = "pass" if report["overall_pass"] else "violations found"
    print(f"analyze: {status}; report written to {out_dir / 'report.json'}")
    return EXIT_OK if report["overall_pass"] else EXIT_VIOLATIONS


def _write_trajectories(target: FsPath, path: Path, result) -> None:
    """Level-1 cell density trajectories d(n) = N(n)/n at every step-th n
    and at n = L, for plotting: each cell's count per block of step marginal
    codes, summed block after block.  The numeric rows are formatted in one
    pass and written with one call; csv.writer quotes the header's labels."""
    table = result.diagnostics.table
    grid = table.grids[1]
    step = max(1, path.length // 4000)
    rows = -(-path.length // step)  # the last block may be partial
    ns = np.minimum(np.arange(1, rows + 1) * step, path.length)
    # code -1, which counts in no cell, fills out the partial last block
    codes = np.full(rows * step, -1, dtype=table.marg.dtype)
    codes[:path.length] = table.marg
    blocks = codes.reshape(rows, step)
    columns = [np.cumsum(np.count_nonzero(blocks == c, axis=1)) / ns
               for c in range(grid.n_cells)]
    line = "%d" + ",%.8g" * grid.n_cells + "\r\n"
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["n"] + [cell.label() for cell in grid.cells])
        fh.write("".join(line % row for row in zip(ns.tolist(), *(
            col.tolist() for col in columns))))


def _load_test_specs(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        specs = json.load(fh)
    if not isinstance(specs, list) or not specs:
        raise ValueError("test spec file must hold a non-empty JSON list")
    if not all(isinstance(spec, dict) for spec in specs):
        raise ValueError("each test spec must be a JSON object")
    return specs


def _check_keys(block: dict, allowed: tuple[str, ...], what: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}")


# the JSON values a spec or --config key may take, by name; a boolean is
# none of them
INTEGER, NUMBER, TEXT = "an integer", "a finite number", "a string"
INTEGER_OR_NULL = "an integer or null"
_SPEC_TYPES = {
    INTEGER: lambda v: isinstance(v, int),
    INTEGER_OR_NULL: lambda v: v is None or isinstance(v, int),
    NUMBER: lambda v: (isinstance(v, float) and math.isfinite(v)
                       or isinstance(v, int) and abs(v) <= sys.float_info.max),
    TEXT: lambda v: isinstance(v, str),
}


def _spec_value(block: dict, key: str, kind: str, what: str,
                default=None, required: bool = False):
    """``block[key]``, which must be ``kind``; ``default`` when absent, or an
    error naming the key when it is ``required``."""
    if key not in block:
        if required:
            raise ValueError(f"{what} is missing {key!r}")
        return default
    value = block[key]
    if isinstance(value, bool) or not _SPEC_TYPES[kind](value):
        raise ValueError(f"{what} key {key!r} must be {kind}, got {value!r}")
    return value


def _test_from_spec(spec: dict, default_seed: int | None, length: int):
    """The spec's test, its calibration (or None), start and stride, checked
    against a path of ``length`` values."""
    _check_keys(spec, ("kind", "n", "alpha", "tau", "calibration", "name",
                       "start", "stride"), "test spec")
    kind = _spec_value(spec, "kind", TEXT, "test spec", required=True)
    n = _spec_value(spec, "n", INTEGER, "test spec", required=True)
    alpha = float(_spec_value(spec, "alpha", NUMBER, "test spec", 0.05))
    start = _spec_value(spec, "start", INTEGER, "test spec", 0)
    stride = _spec_value(spec, "stride", INTEGER, "test spec", 1)
    window_starts(length, n, start, stride)
    if "tau" in spec:
        if "calibration" in spec:
            raise ValueError(
                f"test {kind!r} has both tau and a calibration block")
        tau = float(_spec_value(spec, "tau", NUMBER, "test spec"))
        calibration = None
    else:
        cal_spec = spec.get("calibration")
        if not isinstance(cal_spec, dict) or not cal_spec:
            raise ValueError(
                f"test {kind!r} needs either tau or a calibration block")
        _check_keys(cal_spec, ("generator", "replicates", "seed"),
                    "calibration")
        gen = parse_spec(_spec_value(cal_spec, "generator", TEXT,
                                     "calibration", required=True))
        if gen.length != n:
            raise ValueError(f"calibration generator has L={gen.length} but "
                             f"test {kind!r} has n={n}; they must be equal")
        block_seed = _spec_value(cal_spec, "seed", INTEGER, "calibration")
        if block_seed is not None and block_seed < 0:
            raise ValueError(f"calibration key 'seed' must be non-negative, "
                             f"got {block_seed}")
        # the block's seed, then its generator's seed=, then the run's seed
        seed = next((s for s in (block_seed, gen.seed, default_seed)
                     if s is not None), 0)
        calibration = calibrate_test_size(
            kind, n, alpha, gen,
            replicates=_spec_value(cal_spec, "replicates", INTEGER,
                                   "calibration", CALIBRATION_REPLICATES),
            seed=seed)
        tau = calibration.tau
    name = _spec_value(spec, "name", TEXT, "test spec")
    test = make_builtin_test(kind, n, tau, alpha, name=name)
    return test, calibration, start, stride


# rows encoded per write of an indicator CSV; keeps the buffers to a few MiB
INDICATOR_CHUNK_ROWS = 65_536

# "%04d" of 0..9999, each as the little-endian uint32 of its four ASCII digits
_DIGIT_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)),
                             dtype="<u4")
# the bytes after an offset, ",<indicator>\r\n", with indicator 0
_ROW_END = int.from_bytes(b",0\r\n", "little")


def _indicator_rows(offsets: np.ndarray, indicators: np.ndarray) -> np.ndarray:
    """The ASCII bytes of one ``offset,indicator\\r\\n`` row per entry, for
    ascending non-negative offsets: the rows of each digit width form one
    run, laid out as a (rows, width + 4) block with no padding to drop."""
    first, last = len(str(offsets[0])), len(str(offsets[-1]))
    cuts = np.searchsorted(offsets, 10 ** np.arange(first, last, dtype=np.int64))
    bounds = [0, *cuts.tolist(), offsets.size]
    runs = [(lo, hi, width) for lo, hi, width
            in zip(bounds, bounds[1:], range(first, last + 1)) if hi > lo]
    out = np.empty(sum((hi - lo) * (width + 4) for lo, hi, width in runs),
                   dtype=np.uint8)
    pos = 0
    for lo, hi, width in runs:
        size = (hi - lo) * (width + 4)
        lines = out[pos:pos + size].reshape(hi - lo, width + 4)
        pos += size
        # the last four bytes of a row as one little-endian uint32 store
        lines[:, width:].view("<u4")[:, 0] = _ROW_END + (
            indicators[lo:hi].astype(np.uint32) << 8)
        # on narrow unsigned types floor division and a subtraction run about
        # three times as fast as np.divmod
        rest = offsets[lo:hi].astype(np.min_scalar_type(offsets[hi - 1]))
        end = width
        while end >= 4:  # four digits a store, from the right
            q = rest // 10_000
            lines[:, end - 4:end].view("<u4")[:, 0] = _DIGIT_QUADS[
                rest - q * 10_000]
            rest, end = q, end - 4
        for col in range(end - 1, -1, -1):  # at most three leading digits
            q = rest // 10
            lines[:, col] = rest - q * 10 + ord("0")
            rest = q
    return out


def _write_indicators(target: FsPath, record: RejectionRecord) -> None:
    """The record's ``offset,indicator`` CSV, offset = start + stride * i:
    the bytes csv.writer's default dialect writes, CRLF line ends included,
    encoded and written one chunk of rows at a time."""
    indicators = record.indicators
    with open(target, "wb") as fh:
        fh.write(b"offset,indicator\r\n")
        for lo in range(0, indicators.size, INDICATOR_CHUNK_ROWS):
            chunk = indicators[lo:lo + INDICATOR_CHUNK_ROWS]
            offsets = record.start + record.stride * np.arange(
                lo, lo + chunk.size, dtype=np.int64)
            fh.write(_indicator_rows(offsets, chunk))


def cmd_testbench(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    path, provenance = _resolve_input(args.input, args.seed)
    specs = _load_test_specs(args.tests)
    # a generated input carries the run's seed, its spec's seed= included
    seed = provenance.get("seed", _seed(args.seed))
    # every spec is checked, calibrated and applied before any file is written
    tests = [_test_from_spec(spec, seed, path.length) for spec in specs]
    runs = [(test, calibration,
             apply_moving_window(path, test, start=start, stride=stride,
                                 config=config))
            for test, calibration, start, stride in tests]
    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for i, (test, calibration, record) in enumerate(runs):
        csv_name = f"rejections_{i:02d}_{test.params.get('kind', 'test')}.csv"
        _write_indicators(out_dir / csv_name, record)
        entry = {
            "name": test.name,
            "kind": test.params["kind"],
            "n": test.window,
            "alpha": test.nominal_size,
            "tau": test.params["tau"],
            "upper_density": record.upper_density,
            "tail_profile": [[r, v] for r, v in record.tail_profile],
            "compliant": record.upper_density
                         <= test.nominal_size + TEST_SLACK,
            "indicators_csv": csv_name,
        }
        if calibration is not None:
            entry["calibration"] = {
                "tau_stderr": calibration.stderr,
                "replicates": calibration.replicates,
                "seed": calibration.seed,
            }
        summary.append(entry)
        print(f"{test.name}: upper_density={record.upper_density:.4f} "
              f"alpha={test.nominal_size} "
              f"{'compliant' if entry['compliant'] else 'EXCEEDS'}")
    _write_json(out_dir / "testbench_summary.json",
                {"input": provenance, "tests": summary})
    return EXIT_OK


DEFAULT_MC_GENERATORS = (
    "ar1(0.5),L=100000",
    "iid_normal(0,1),L=100000",
    "random_phase_sine(theta=1.4142135623730951),L=100000",
    "constant(2),L=100000",
)


def cmd_montecarlo(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    specs = [parse_spec(text)
             for text in args.generators or DEFAULT_MC_GENERATORS]
    seed = _seed(args.seed)
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
        print(f"montecarlo: no seed given, recording generated seed {seed}")
    table = [row.summary()
             for row in montecarlo(specs, args.replicates, seed, config)]
    for spec, row in zip(specs, table):
        print(f"{spec.kind}: {row['passes']}/{row['replicates']} pass "
              f"({row['fraction']:.3f} +- {row['stderr']:.3f})")
    out_dir = FsPath(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "montecarlo.json", {"seed": seed, "table": table})
    return EXIT_OK


def cmd_contract(args: argparse.Namespace) -> int:
    config = _analysis_config(args)
    path, provenance = _resolve_input(args.input, args.seed)
    pattern = IntervalPattern.of((args.cell[0], args.cell[1]))
    try:
        schedule = M_SCHEDULE if args.m_schedule is None else \
            tuple(int(m) for m in args.m_schedule.split(","))
    except ValueError:
        raise ValueError(f"--m-schedule must be integers separated by "
                         f"commas, got {args.m_schedule!r}") from None
    trace = adversarial_contraction(path, pattern, schedule,
                                    threshold=args.threshold, config=config)
    payload: dict = {
        "input": provenance,
        "pattern": pattern.label(),
        "threshold": trace.threshold,
        "m_schedule": list(trace.m_schedule),
        "failed": trace.failed,
    }
    if trace.failed:
        payload["failure_reason"] = trace.failure_reason
        payload["last_feasible_m"] = trace.last_feasible_m
    else:
        assert trace.result is not None
        validation = validate_contraction(trace.result, path.length, config)
        payload["contraction"] = trace.result.to_json_dict()
        payload["target_density"] = trace.target_density
        payload["validation"] = {
            "ordering_ok": validation.ordering_ok,
            "growth_ok": validation.growth_ok,
            "coverage_ok": validation.coverage_ok,
            "passed": validation.passed,
        }
    _write_json(FsPath(args.out) if args.out else None, payload)
    if args.trace:
        trace_payload = {
            "m_schedule": list(trace.m_schedule),
            "threshold": trace.threshold,
            "n_markers": list(trace.n_markers),
            "v0": {str(m): v.tolist() for m, v in trace.v0.items()},
            "v1": {str(m): v.tolist() for m, v in trace.v1.items()},
            "v2": {str(m): v.tolist() for m, v in trace.v2.items()},
            "h_blocks": {str(m): [[j, j + m - 1] for j in v.tolist()]
                         for m, v in trace.v2.items()},
        }
        _write_json(FsPath(args.trace), trace_payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathstat",
        description="Path-level stationarity diagnostics and moving-window tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic path")
    p_gen.add_argument("--spec", required=True,
                       help='e.g. "ar1(0.5),L=100000,seed=7"')
    p_gen.add_argument("--out", default="-")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze", help="full diagnostic suite on one path")
    p_an.add_argument("input", help='path file or "generate:<spec>"')
    _add_config_flags(p_an, CONFIG_FLAGS)
    p_an.add_argument("--out-dir", default=".")
    p_an.set_defaults(func=cmd_analyze)

    p_tb = sub.add_parser("testbench", help="moving-window rejection densities")
    p_tb.add_argument("input")
    p_tb.add_argument("--tests", required=True,
                      help="JSON file with a list of test specs")
    _add_config_flags(p_tb, ())
    p_tb.add_argument("--out-dir", default=".")
    p_tb.set_defaults(func=cmd_testbench)

    p_mc = sub.add_parser("montecarlo", help="suite pass rates over seeds")
    p_mc.add_argument("--generators", nargs="*", default=None)
    p_mc.add_argument("--replicates", type=int, default=20)
    _add_config_flags(p_mc, CONFIG_FLAGS)
    p_mc.add_argument("--out-dir", default=".")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_ct = sub.add_parser("contract", help="adversarial contraction search")
    p_ct.add_argument("input")
    p_ct.add_argument("--cell", nargs=2, type=float, required=True,
                      metavar=("A", "B"))
    p_ct.add_argument("--threshold", type=float, default=None)
    p_ct.add_argument("--m-schedule", default=None)
    p_ct.add_argument("--trace", default=None,
                      help="write the full construction trace to this file")
    p_ct.add_argument("--out", default=None)
    # read by the search and validate_contraction
    _add_config_flags(p_ct, ("tail_fraction", "tolerance"))
    p_ct.set_defaults(func=cmd_contract)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

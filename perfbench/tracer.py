"""Timing spans around pathstat's public functions, installed from outside.

The program carries no instrumentation of its own.  A ``Tracer`` rebinds each
probed function to a timing wrapper in its home module and in every
``pathstat`` module that imported it with ``from ... import`` (the rebinding
follows object identity, so ``contraction.cell_tail_stats`` and
``cli.run_suite`` are caught as well as the home names).  Calls made inside a
module resolve the global name at call time, so they are caught too.  Leaving
the ``with`` block puts every original function back.

Spans are kept in memory as (name, start, end, parent index).  A span's self
time is its duration minus the durations of its direct children; the program
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

Counter = Callable[[tuple, dict, object], dict]


def _fingerprint(arr: np.ndarray) -> tuple:
    """Cheap content key: equal arrays give equal keys; distinct ones almost
    never collide (length, both ends and a strided sum)."""
    a = np.asarray(arr)
    return (a.size, a[:8].tobytes(), a[-8:].tobytes(), float(a[::97].sum()))


def _bytes_of_file(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    return {"bytes": os.path.getsize(source) if isinstance(source, str) else 0}


def _window_counts(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"windows": int(result.size),
            "_inputs": (_fingerprint(values), grid.k, tuple(grid.edges))}


def _tail_counts(args, kwargs, result):
    ids = args[0] if args else kwargs["cell_ids"]
    return {"windows": int(ids.size), "_inputs": _fingerprint(ids)}


@dataclass(frozen=True)
class Probe:
    """One public function to time: ``module.function`` in pathstat."""

    module: str
    function: str
    counter: Counter | None = None
    # span name from the call's arguments, for per-kind breakdowns
    namer: Callable[[tuple, dict], str] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


def _test_kind(args, kwargs) -> str:
    test = args[1] if len(args) > 1 else kwargs["test"]
    return f"stattests.apply_moving_window.{test.params.get('kind', 'custom')}"


PROBES: tuple[Probe, ...] = (
    Probe("pathcore", "read_path_file", _bytes_of_file),
    Probe("pathcore", "occurrence_set"),
    Probe("pathcore", "density_trajectory"),
    Probe("properties", "quantile_edges"),
    Probe("properties", "window_cell_ids", _window_counts),
    Probe("properties", "cell_tail_stats", _tail_counts),
    Probe("properties", "scan_property_e"),
    Probe("properties", "induced_fdd"),
    Probe("properties", "check_property_t"),
    Probe("properties", "analyze_path"),
    Probe("contraction", "default_contraction_family"),
    Probe("contraction", "build_alternating_contraction"),
    Probe("contraction", "adversarial_contraction",
          lambda a, k, r: {"succeeded": int(not r.failed)}),
    Probe("contraction", "contract_path",
          lambda a, k, r: {"values": r.length}),
    Probe("contraction", "ergodicity_diagnostic",
          lambda a, k, r: {"records": len(r.records)}),
    Probe("stattests", "apply_moving_window",
          lambda a, k, r: {"windows": int(r.indicators.size)}, _test_kind),
    Probe("stattests", "calibrate_test_size",
          lambda a, k, r: {"replicates": r.replicates}),
    Probe("generators", "generate", lambda a, k, r: {"values": r.length}),
    Probe("suite", "run_suite"),
    Probe("suite", "report_dict"),
    Probe("cli", "main"),
)

TEST_KINDS = ("threshold_exceedance", "mean_split", "variance_split",
              "kpss_like")


def span_names() -> list[str]:
    """Every span name the probes can record."""
    names = []
    for probe in PROBES:
        if probe.namer is None:
            names.append(probe.name)
        else:
            names.extend(f"{probe.name}.{kind}" for kind in TEST_KINDS)
    return names


class Tracer:
    """Records spans and counts while installed; restores on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = probe.namer(args, kwargs) if probe.namer else probe.name
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            self.counts[f"{name}.calls"] += 1
            if probe.counter is not None:
                for key, value in probe.counter(args, kwargs, result).items():
                    if key == "_inputs":
                        self.inputs[name].add(value)
                    else:
                        self.counts[f"{name}.{key}"] += value
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pathstat" or n.startswith("pathstat."))]
        for probe in PROBES:
            home = sys.modules[f"pathstat.{probe.module}"]
            original = getattr(home, probe.function)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child_time[i]
        return out

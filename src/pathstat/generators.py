"""Seeded synthetic paths: the validation zoo.

Deterministic kinds (constant, monotone ramp, fixed-phase sine) ignore the
seed.  Stochastic kinds require one; randomness comes from numpy's PCG64
(``numpy.random.default_rng``), and batch runs derive per-replicate seeds
with ``numpy.random.SeedSequence`` so results are reproducible regardless of
execution order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.signal import lfilter

from .pathcore import Path

__all__ = [
    "GeneratorSpec",
    "ExpectedProfile",
    "generate",
    "generate_rows",
    "expected_profile",
    "parse_spec",
    "format_spec",
    "KINDS",
]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    length: int
    seed: int | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be at least 1")
        declared = KINDS[self.kind].params
        # the defaults in declared order, then the supplied keys
        merged = {k: v for k, v in declared.items() if v is not None}
        for key, val in dict(self.params).items():
            if key not in declared:
                raise ValueError(f"{self.kind} has no parameter {key!r}")
            merged[key] = float(val)
        missing = [p for p in declared if p not in merged]
        if missing:
            raise ValueError(f"{self.kind} requires parameters {missing}")
        _validate_params(self.kind, merged)
        object.__setattr__(self, "params", merged)

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=int(seed))


def _validate_params(kind: str, p: Mapping[str, float]) -> None:
    if kind in ("sine", "random_phase_sine") and not 0.0 < p["theta"] < 2.0 * math.pi:
        raise ValueError("theta must be in (0, 2*pi)")
    if kind == "ar1" and not abs(p["rho"]) < 1.0:
        raise ValueError("|rho| must be below 1")
    if kind in ("iid_normal", "ar1") and p["sigma"] <= 0.0:
        raise ValueError("sigma must be positive")
    if kind == "block_mixture":
        if p["noise_sigma"] < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if p["level_a"] == p["level_b"]:
            raise ValueError("mixture levels must differ")


def _rng(spec: GeneratorSpec) -> np.random.Generator:
    if spec.seed is None:
        raise ValueError(f"generator kind {spec.kind!r} requires a seed")
    return np.random.default_rng(spec.seed)


def _truncated_normal(rng: np.random.Generator, size: int,
                      bound: float = 4.0) -> np.ndarray:
    x = rng.standard_normal(size)
    bad = np.abs(x) >= bound
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) >= bound
    return x


def _block_layout(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Alternating block labels (0/1) with the m-th pair having length m."""
    n_pairs = math.isqrt(length) + 2  # pairs cover m*(m+1) >= length
    block_lengths = np.repeat(np.arange(1, n_pairs + 1), 2)
    labels = np.tile(np.array([0, 1]), n_pairs)
    per_index = np.repeat(labels, block_lengths)[:length]
    return per_index, block_lengths


def _draw(spec: GeneratorSpec, rng: np.random.Generator | None) -> np.ndarray:
    """The values of one path; only stochastic kinds draw from ``rng``."""
    n = spec.length
    p = spec.params
    if spec.kind == "constant":
        values = np.full(n, p["c"])
    elif spec.kind == "monotone":
        values = p["slope"] * np.arange(n, dtype=np.float64)
    elif spec.kind == "sine":
        values = np.sin(np.arange(n) * p["theta"] + p["phi0"])
    elif spec.kind == "random_phase_sine":
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        values = np.sin(np.arange(n) * p["theta"] + phi0)
    elif spec.kind == "iid_normal":
        values = p["mu"] + p["sigma"] * rng.standard_normal(n)
    elif spec.kind == "ar1":
        rho, sigma = p["rho"], p["sigma"]
        innovations = np.empty(n)
        # stationary start, then the recursion x_{t} = rho x_{t-1} + sigma xi_t
        innovations[0] = rng.normal(0.0, sigma / math.sqrt(1.0 - rho * rho))
        if n > 1:
            innovations[1:] = sigma * rng.standard_normal(n - 1)
        values = lfilter([1.0], [1.0, -rho], innovations)
    elif spec.kind == "unique_peak":
        values = _truncated_normal(rng, n)
        values[n // 2] = p["peak_height"]
    elif spec.kind == "block_mixture":
        labels, _ = _block_layout(n)
        levels = np.where(labels == 0, p["level_a"], p["level_b"])
        values = levels + p["noise_sigma"] * rng.standard_normal(n)
    else:  # pragma: no cover - guarded by __post_init__
        raise ValueError(spec.kind)
    return values


def generate(spec: GeneratorSpec) -> Path:
    """Deterministic given (spec, seed)."""
    return Path(_draw(spec, _rng(spec) if KINDS[spec.kind].stochastic
                      else None))


def generate_rows(spec: GeneratorSpec, seeds: Sequence[int]) -> np.ndarray:
    """One path of ``spec.length`` values per seed, stacked as rows: row i
    equals ``generate(spec.with_seed(seeds[i])).values`` bit for bit."""
    rows = np.empty((len(seeds), spec.length))
    for i, seed in enumerate(seeds):
        rows[i] = _draw(spec, np.random.default_rng(int(seed)))
    if not np.isfinite(rows).all():
        raise ValueError("path values must all be finite")
    return rows


@dataclass(frozen=True)
class ExpectedProfile:
    """Oracle verdict table; None means no expectation is asserted."""

    property_e_pass: bool | None
    property_t_pass: bool | None
    ergodicity_pass: bool | None

    @property
    def suite_pass(self) -> bool:
        return bool(self.property_e_pass and self.property_t_pass
                    and self.ergodicity_pass)


@dataclass(frozen=True)
class GeneratorKind:
    """A kind's parameters in positional order with their defaults (None
    marks a required one), whether it draws from a seed, its verdicts."""

    params: Mapping[str, float | None]
    stochastic: bool
    profile: ExpectedProfile


_PASSES = ExpectedProfile(True, True, True)

KINDS: dict[str, GeneratorKind] = {
    "constant": GeneratorKind({"c": 0.0}, False, _PASSES),
    "monotone": GeneratorKind({"slope": 1.0}, False,
                              ExpectedProfile(False, False, None)),
    "unique_peak": GeneratorKind({"peak_height": 10.0}, True,
                                 ExpectedProfile(False, True, None)),
    "sine": GeneratorKind({"theta": None, "phi0": 0.0}, False, _PASSES),
    "random_phase_sine": GeneratorKind({"theta": None}, True, _PASSES),
    "iid_normal": GeneratorKind({"mu": 0.0, "sigma": 1.0}, True, _PASSES),
    "ar1": GeneratorKind({"rho": None, "sigma": 1.0}, True, _PASSES),
    "block_mixture": GeneratorKind(
        {"level_a": 0.0, "level_b": 5.0, "noise_sigma": 0.25}, True,
        ExpectedProfile(True, True, False)),
}


def expected_profile(spec: GeneratorSpec) -> ExpectedProfile:
    return KINDS[spec.kind].profile


# ---------------------------------------------------------------------------
# spec strings, e.g. "ar1(0.5),L=100000,seed=7" or "sine(1.5707,phi0=0),L=64"

_SPEC_RE = re.compile(r"^\s*([a-z_0-9]+)\s*\(([^)]*)\)\s*(?:,(.*))?$")


def parse_spec(text: str) -> GeneratorSpec:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse generator spec {text!r}")
    kind, arg_text, kv_text = m.group(1), m.group(2), m.group(3) or ""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    # the parameters, and the length (as L) and seed, each given once
    params: dict[str, float] = {}
    run: dict[str, int] = {}

    def give(store: dict, key: str, raw: str, cast: type = float) -> None:
        if key in store:
            raise ValueError(f"generator spec gives {key} twice")
        try:
            store[key] = cast(raw)
        except ValueError:
            what = "an integer" if cast is int else "a number"
            raise ValueError(f"generator spec {text!r}: {key} must be "
                             f"{what}, got {raw!r}") from None

    positional = list(KINDS[kind].params)
    pos = 0
    for token in filter(None, (t.strip() for t in arg_text.split(","))):
        if "=" in token:
            key, val = (s.strip() for s in token.split("=", 1))
            give(params, key, val)
        else:
            if pos >= len(positional):
                raise ValueError(f"too many positional arguments for {kind}")
            give(params, positional[pos], token)
            pos += 1
    for token in filter(None, (t.strip() for t in kv_text.split(","))):
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, val = (s.strip() for s in token.split("=", 1))
        if key in ("L", "length"):
            give(run, "L", val, int)
        elif key == "seed":
            give(run, "seed", val, int)
        else:
            give(params, key, val)
    if "L" not in run:
        raise ValueError("generator spec must set L=<length>")
    return GeneratorSpec(kind=kind, length=run["L"], seed=run.get("seed"),
                         params=params)


def _format_param(v: float) -> str:
    """``v`` in 6 significant digits when that parses back to ``v``, else in
    the shortest digits that do."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def format_spec(spec: GeneratorSpec) -> str:
    """The spec as a string that ``parse_spec`` reads back to an equal spec."""
    args = ",".join(f"{k}={_format_param(v)}" for k, v in spec.params.items())
    text = f"{spec.kind}({args}),L={spec.length}"
    if spec.seed is not None:
        text += f",seed={spec.seed}"
    return text

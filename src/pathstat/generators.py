"""Seeded synthetic paths: the validation zoo.

Deterministic kinds (constant, monotone ramp, fixed-phase sine) ignore the
seed.  Stochastic kinds require one; randomness comes from numpy's PCG64
(``numpy.random.default_rng``), and batch runs derive per-replicate seeds
with ``numpy.random.SeedSequence`` so results are reproducible regardless of
execution order.  ``generate_rows`` draws many seeds' paths from one reused
generator, setting its state per row from a vectorised port of the seeding
that ``default_rng(seed)`` performs, so each row equals that generator's
draw bit for bit.  scipy is loaded only when an ar1 path is drawn, and then
only its filter extension, not the ``scipy.signal`` package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"generator spec seed= must be non-negative, "
                             f"got {self.seed}")
        kind = KINDS[self.kind]
        # the defaults in declared order, then the supplied keys
        merged = {k: v for k, v in kind.params.items() if v is not None}
        for key, val in dict(self.params).items():
            if key not in kind.params:
                raise ValueError(f"{self.kind} has no parameter {key!r}")
            merged[key] = float(val)
            if not math.isfinite(merged[key]):
                raise ValueError(f"{self.kind} parameter {key!r} must be "
                                 f"finite, got {merged[key]}")
        missing = [p for p in kind.params if p not in merged]
        if missing:
            raise ValueError(f"{self.kind} requires parameters {missing}")
        for holds, message in kind.checks:
            if not holds(merged):
                raise ValueError(message)
        object.__setattr__(self, "params", merged)

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=int(seed))


def _rng(spec: GeneratorSpec) -> np.random.Generator:
    if spec.seed is None:
        raise ValueError(f"generator kind {spec.kind!r} requires a seed")
    return np.random.default_rng(spec.seed)


def _not_finite(spec: GeneratorSpec) -> ValueError:
    return ValueError(f"generator spec {format_spec(spec)!r} draws values "
                      f"that overflow; path values must all be finite")


def generate(spec: GeneratorSpec) -> Path:
    """Deterministic given (spec, seed)."""
    kind = KINDS[spec.kind]
    # an overflow is reported once, as an error naming the spec
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = kind.draw(spec.length, spec.params,
                               _rng(spec) if kind.stochastic else None)
    except MemoryError:
        raise ValueError(f"generator spec {format_spec(spec)!r} is too long "
                         f"to hold in memory") from None
    if not np.isfinite(values).all():
        raise _not_finite(spec)
    return Path(values)


def generate_rows(spec: GeneratorSpec, seeds: Sequence[int]) -> np.ndarray:
    """One path of ``spec.length`` values per seed, stacked as rows: row i
    equals ``generate(spec.with_seed(seeds[i])).values`` bit for bit.

    The seeds must be integers in [0, 2**32).  Rather than building a
    generator per seed, one PCG64 generator is reused and its state set
    before each row to the state ``default_rng(seed)`` starts from."""
    draw = KINDS[spec.kind].draw
    starts = _pcg64_states(_seed_words(seeds))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    rows = np.empty((len(starts), spec.length))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (state, inc) in enumerate(starts):
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            rows[i] = draw(spec.length, spec.params, rng)
    if not np.isfinite(rows).all():
        raise _not_finite(spec)
    return rows


# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """The seeds as uint32; any that is not an integer in [0, 2**32) is an
    error naming it."""
    arr = np.asarray(seeds)
    if arr.ndim == 1 and arr.dtype.kind in "iu":
        bad = np.flatnonzero((arr < 0) | (arr > _MASK32))
        if bad.size:
            raise _bad_seed(arr[bad[0]])
        return arr.astype(np.uint32)
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK32:
            raise _bad_seed(seed)
    return np.array(seeds, dtype=np.uint32)


def _bad_seed(seed: object) -> ValueError:
    if isinstance(seed, np.generic):
        seed = seed.item()
    return ValueError(f"generate_rows seeds must be integers in [0, 2**32), "
                      f"got {seed!r}")


def _hasher(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix over uint32 arrays.  The constant it hashes
    with steps by ``mult`` (mod 2**32) on every call, whatever the values,
    so it stays a Python int and only the arrays wrap."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16
    return hashmix


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) that ``PCG64(SeedSequence(w))`` starts from, per
    uint32 seed w: SeedSequence's ``mix_entropy`` and ``generate_state(4,
    uint64)`` over all seeds at once, one array per pool word, then PCG64's
    seeding, two 128-bit LCG steps."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    # a one-word entropy, padded to the pool with zeros
    pool = [hashmix(words)] + [hashmix(np.zeros_like(words))
                               for _ in range(_POOL_SIZE - 1)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src]))
                pool[dst] = mixed ^ mixed >> 16
    # eight words cycling the pool, paired little-endian into four uint64
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    starts = []
    for hi_s, lo_s, hi_q, lo_q in state.astype("<u4").view("<u8").tolist():
        inc = ((hi_q << 64 | lo_q) << 1 | 1) & _MASK128
        start = ((inc + (hi_s << 64 | lo_s)) * _PCG64_MULT + inc) & _MASK128
        starts.append((start, inc))
    return starts


@dataclass(frozen=True)
class ExpectedProfile:
    """Oracle verdict table; None means no expectation is asserted."""

    property_e_pass: bool | None
    property_t_pass: bool | None
    ergodicity_pass: bool | None


class Check(NamedTuple):
    """A condition the parameters must meet, and the error when they do
    not; written so that it fails on NaN."""

    holds: Callable[[Mapping[str, float]], bool]
    message: str


@dataclass(frozen=True)
class GeneratorKind:
    """A kind's parameters in positional order with their defaults (None
    marks a required one), whether it draws from a seed, its verdicts, its
    ``draw(n, params, rng)`` of n values (only a stochastic kind draws from
    ``rng``) and its parameter checks."""

    params: Mapping[str, float | None]
    stochastic: bool
    profile: ExpectedProfile
    draw: Callable[[int, Mapping[str, float], np.random.Generator | None],
                   np.ndarray]
    checks: tuple[Check, ...] = ()


def _sigtools_file() -> str | None:
    """The path of scipy's ``signal/_sigtools`` extension file, or None when
    scipy's layout has no such file.  Finding it imports the ``scipy``
    package alone, not ``scipy.signal``."""
    spec = importlib.util.find_spec("scipy.signal")
    for folder in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_sigtools" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def _linear_filter() -> Callable[..., np.ndarray]:
    """``f(b, a, x, axis)``: the C recursion that ``scipy.signal.lfilter``
    runs for a denominator of two or more terms, taken from its extension
    module.  Importing ``scipy.signal`` loads much of scipy; the extension
    alone loads in milliseconds.  It is registered under its own name, so a
    later ``import scipy.signal`` reuses it.  When scipy has no such file,
    ``lfilter`` itself runs the same computation."""
    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        path = _sigtools_file()
        if path is None:
            from scipy.signal import lfilter
            return lfilter
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        sys.modules[name] = module
        loader.exec_module(module)
    return module._linear_filter


def _ar1(n: int, p: Mapping[str, float],
         rng: np.random.Generator) -> np.ndarray:
    rho, sigma = p["rho"], p["sigma"]
    innovations = np.empty(n)
    # stationary start, then the recursion x_{t} = rho x_{t-1} + sigma xi_t,
    # run by lfilter([1], [1, -rho], innovations)'s own C code
    innovations[0] = rng.normal(0.0, sigma / math.sqrt(1.0 - rho * rho))
    if n > 1:
        innovations[1:] = sigma * rng.standard_normal(n - 1)
    return _linear_filter()(np.array([1.0]), np.array([1.0, -rho]),
                            innovations, -1)


def _unique_peak(n: int, p: Mapping[str, float],
                 rng: np.random.Generator) -> np.ndarray:
    # normal noise truncated to (-4, 4) by redrawing, one spike at the middle
    values = rng.standard_normal(n)
    bad = np.abs(values) >= 4.0
    while bad.any():
        values[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(values) >= 4.0
    values[n // 2] = p["peak_height"]
    return values


def _block_layout(length: int) -> np.ndarray:
    """Alternating block labels (0/1) with the m-th pair having length m."""
    n_pairs = math.isqrt(length) + 2  # pairs cover m*(m+1) >= length
    block_lengths = np.repeat(np.arange(1, n_pairs + 1), 2)
    labels = np.tile(np.array([0, 1]), n_pairs)
    return np.repeat(labels, block_lengths)[:length]


def _block_mixture(n: int, p: Mapping[str, float],
                   rng: np.random.Generator) -> np.ndarray:
    levels = np.where(_block_layout(n) == 0, p["level_a"], p["level_b"])
    return levels + p["noise_sigma"] * rng.standard_normal(n)


_PASSES = ExpectedProfile(True, True, True)
_THETA = Check(lambda p: 0.0 < p["theta"] < 2.0 * math.pi,
               "theta must be in (0, 2*pi)")
_SIGMA = Check(lambda p: p["sigma"] > 0.0, "sigma must be positive")

KINDS: dict[str, GeneratorKind] = {
    "constant": GeneratorKind(
        {"c": 0.0}, False, _PASSES,
        lambda n, p, rng: np.full(n, p["c"])),
    "monotone": GeneratorKind(
        {"slope": 1.0}, False, ExpectedProfile(False, False, None),
        lambda n, p, rng: p["slope"] * np.arange(n, dtype=np.float64)),
    "unique_peak": GeneratorKind(
        {"peak_height": 10.0}, True, ExpectedProfile(False, True, None),
        _unique_peak),
    "sine": GeneratorKind(
        {"theta": None, "phi0": 0.0}, False, _PASSES,
        lambda n, p, rng: np.sin(np.arange(n) * p["theta"] + p["phi0"]),
        (_THETA,)),
    "random_phase_sine": GeneratorKind(
        {"theta": None}, True, _PASSES,
        lambda n, p, rng: np.sin(np.arange(n) * p["theta"]
                                 + rng.uniform(0.0, 2.0 * math.pi)),
        (_THETA,)),
    "iid_normal": GeneratorKind(
        {"mu": 0.0, "sigma": 1.0}, True, _PASSES,
        lambda n, p, rng: p["mu"] + p["sigma"] * rng.standard_normal(n),
        (_SIGMA,)),
    "ar1": GeneratorKind(
        {"rho": None, "sigma": 1.0}, True, _PASSES, _ar1,
        (Check(lambda p: abs(p["rho"]) < 1.0, "|rho| must be below 1"),
         _SIGMA)),
    "block_mixture": GeneratorKind(
        {"level_a": 0.0, "level_b": 5.0, "noise_sigma": 0.25}, True,
        ExpectedProfile(True, True, False), _block_mixture,
        (Check(lambda p: p["noise_sigma"] >= 0.0,
               "noise_sigma must be non-negative"),
         Check(lambda p: abs(p["level_a"] - p["level_b"]) > 0.0,
               "mixture levels must differ"))),
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

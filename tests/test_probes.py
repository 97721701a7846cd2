"""The benchmark's probes name functions that exist.

``perfbench/tracer.py`` rebinds each probed ``pathstat`` function by name;
a change that deletes or renames one fails here, in the tier-1 suite, and
not only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PROBES = _load_tracer().PROBES


@pytest.mark.parametrize("probe", PROBES, ids=[p.name for p in PROBES])
def test_every_probe_names_a_function(probe):
    module = importlib.import_module(f"pathstat.{probe.module}")
    assert callable(getattr(module, probe.function, None))


def test_the_traced_tail_statistics_are_re_exported():
    # the benchmark's own tests trace cell_tail_stats through contraction
    from pathstat import contraction, properties
    assert contraction.cell_tail_stats is properties.cell_tail_stats

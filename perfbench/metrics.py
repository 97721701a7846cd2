"""Names and units of every metric the benchmark emits.

End-to-end metrics come from the untraced run (``--trace 0``), per-layer
metrics from the traced run (``--trace 1``).  Per-layer figures are totals per
round: one pass over a workload's rotation (1 file for ``analyze_file``, 6
paths for ``suite_zoo``, 4 test specs for ``testbench_offset``).  LAYERS.md
says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from tracer import TEST_KINDS, span_names

END_TO_END = {
    "throughput_values_per_s": "1/s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# printed with the end-to-end metrics but not in the result line: see LAYERS.md
PRINTED_ONLY = ("item_tail_s", "ops_failed_frac")

COUNTS = {
    "pathcore.read_path_file.bytes": "B/round",
    "pathcore.occurrence_set.calls": "1/round",
    "pathcore.density_trajectory.calls": "1/round",
    "properties.window_cell_ids.calls": "1/round",
    "properties.window_cell_ids.windows": "1/round",
    "properties.window_cell_ids.calls_per_path": "ratio",
    "properties.cell_tail_stats.calls": "1/round",
    "properties.cell_tail_stats.windows": "1/round",
    "properties.cell_tail_stats.calls_per_path": "ratio",
    "contraction.adversarial_contraction.calls": "1/round",
    "contraction.adversarial_contraction.succeeded": "1/round",
    "contraction.adversarial_contraction.success_ratio": "ratio",
    "contraction.contract_path.calls": "1/round",
    "contraction.contract_path.values": "1/round",
    "contraction.ergodicity_diagnostic.records": "1/round",
    **{f"stattests.apply_moving_window.{kind}.windows": "1/round"
       for kind in TEST_KINDS},
    "stattests.calibrate_test_size.replicates": "1/round",
    "generators.generate.calls": "1/round",
    "generators.generate.values": "1/round",
    "cli.bytes_written": "B/round",
    "trace.overhead_frac": "ratio",
}


def per_layer() -> dict[str, str]:
    """Metric name -> unit, in a fixed order."""
    out: dict[str, str] = {}
    for name in span_names():
        out[f"{name}.s"] = "s/round"
        out[f"{name}.self_s"] = "s/round"
    out.update(COUNTS)
    return out

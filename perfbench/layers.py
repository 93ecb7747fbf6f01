"""The layers the traced run times, and where the library binds them.

Each span is named `<defining module>.<function>`; `sim._run`, the engine
entry, is named `sim.engine`. The set is what the engine calls per step or
per interval (the names bound in `socdvfs.sim`), the top-level API calls,
and the set-up path (trace loading and synthesis, the corpus, the
threshold fit).
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Tuple

# (span name, defining module, attribute path inside it)
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # top-level API
    ("sim.simulate", "sim", "simulate"),
    ("sim.compare_policies", "sim", "compare_policies"),
    ("sim.tdp_sweep", "sim", "tdp_sweep"),
    ("sim.calibrate_coefficients", "sim", "calibrate_coefficients"),
    # engine, per run / step / interval
    ("sim.engine", "sim", "_run"),
    ("workload.slice_at", "workload", "WorkloadTrace.slice_at"),
    ("soc.with_compute", "soc", "with_compute"),
    ("power.soc_power", "power", "soc_power"),
    ("sim.build_activity", "sim", "build_activity"),
    ("workload.relative_performance", "workload", "relative_performance"),
    ("telemetry.sample_counters", "telemetry", "sample_counters"),
    ("telemetry.average_window", "telemetry", "average_window"),
    ("governor.predict", "governor", "predict"),
    ("governor.redistribute_budget", "governor", "redistribute_budget"),
    ("governor.select_compute_pstate", "governor", "select_compute_pstate"),
    ("governor.project_perf_boost", "governor", "project_perf_boost"),
    ("soc.operating_point", "soc", "operating_point"),
    ("soc.mrc_lookup", "soc", "mrc_lookup"),
    ("workload.static_demand", "workload", "static_demand"),
    ("transition.plan_transition", "transition", "plan_transition"),
    ("transition.execute_transition", "transition", "execute_transition"),
    # set-up
    ("sim.bundled_trace", "sim", "bundled_trace"),
    ("workload.load_trace", "workload", "load_trace"),
    ("workload.synthesize", "workload", "synthesize"),
    ("corpus.synthetic_corpus", "corpus", "synthetic_corpus"),
    ("corpus.compute_bound_corpus", "corpus", "compute_bound_corpus"),
    ("corpus.calibration_entries", "corpus", "calibration_entries"),
    ("corpus.trace_degradation", "corpus", "trace_degradation"),
    ("sim.fit_thresholds", "sim", "fit_thresholds"),
    ("governor.calibrate_thresholds", "governor", "calibrate_thresholds"),
)

LAYER_SUFFIXES = (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))

# Derived per-layer metrics: (name, unit, better).
DERIVED = (
    ("sim.engine.passes_per_run", "ratio", "lower"),
    ("governor.switch_frac", "ratio", "lower"),
    ("governor.dwell_held", "count", "lower"),
    ("model.sim_ms", "ms", "higher"),
    ("model.transitions", "count", "lower"),
    ("model.stall_us", "us", "lower"),
    ("model.energy_j", "J", "lower"),
    ("model.perf_ratio_mean", "ratio", "higher"),
    ("model.rail_gap_rel", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every metric the traced run prints: (name, unit, better)."""
    return [(f"{span}.{suffix}", unit, "lower")
            for span, _, _ in LAYERS for suffix, unit in LAYER_SUFFIXES] + list(DERIVED)


def targets(package) -> Iterator[Tuple[str, object, List[object]]]:
    """(span name, original, owners) for `Tracer.install`. A module-level
    function is patched in every socdvfs module that binds it; a method on
    its class."""
    prefix = package.__name__
    modules = [m for name, m in sys.modules.items()
               if name == prefix or name.startswith(prefix + ".")]
    for span, module, path in LAYERS:
        owner = getattr(package, module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        yield span, vars(owner)[attr], [owner] if classes else modules

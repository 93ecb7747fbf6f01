"""socdvfs benchmark: simulated-ms throughput of the public API.

    python3 perfbench/run.py --workload long-trace --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. The unit of work is one simulated millisecond of one requested
policy on one trace; internal baseline re-runs are cost, not work. All
times are host times, scaled to a reference host speed (see `measure.py`).
The model is unvalidated against hardware, so no accuracy figure is
reported.

`--trace 0` prints the end-to-end metrics. `--trace 1` times the same round
of calls once more with a span wrapped around every layer in `layers.py`,
and prints per-layer metrics, the simulated statistics (`model.*`) and the
tracing overhead. Spans are written to `.bench_build/perfbench/` at exit.
The last stdout line is the JSON result. See METRICS.md for what moves what.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from checks import rail_gap_rel
from layers import per_layer_metrics, targets
from measure import attempt, closed_loop, run_round, slowdown, tail, throughput
from tracer import Tracer
from workloads import WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
# Set-up is timed a few times at the start and again before every round, so
# its median samples the whole run and not one moment of the host's load.
SETUPS_FIRST = 3
SETUPS_PER_ROUND = 2


def loaded_socdvfs():
    return {name: m for name, m in sys.modules.items()
            if name == "socdvfs" or name.startswith("socdvfs.")}


def import_socdvfs():
    """Import the package afresh from the checkout's `src/`."""
    for name in loaded_socdvfs():
        del sys.modules[name]
    pkg = importlib.import_module("socdvfs")
    if Path(pkg.__file__).resolve().parent != SRC / "socdvfs":
        raise ImportError(f"socdvfs imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed):
    gc.collect()    # garbage left by earlier work is not set-up's cost
    t0 = time.perf_counter()
    env = prepare(import_socdvfs(), workload, seed)
    return time.perf_counter() - t0, env


def rerun_first(calls, out, env):
    """Re-run the first call: it must match its first result. Counts the
    simulated ms it requests, which only `calibrate_coefficients` needs."""
    requested = [0.0]

    def on_simulate(args, kwargs, report):
        requested[0] += report.duration_ms

    first = calls[0]
    counter = Tracer()
    with counter:
        counter.install([("sim.simulate", env.api.sim.simulate, [env.api.sim])],
                        {"sim.simulate": on_simulate})
        _, result, problems = attempt(first)
    if not problems:
        problems = out.verdicts[0] if result == out.reference[0] else \
            ["re-run differs from the first result"]
    out.record(f"re-run {first.label}", problems)
    if first.sim_ms is None:
        first.sim_ms = requested[0]
    elif requested[0] != first.sim_ms:
        raise RuntimeError(f"{first.label}: requested {requested[0]} simulated ms, "
                           f"expected {first.sim_ms}")


def end_to_end(calls, out, setup_s):
    """Times are scaled to reference host speed (see `measure.slowdown`);
    the summary also shows them as measured."""
    slow = slowdown(out)
    ms = [s * 1e3 for s in out.call_s]
    pct, tail_ms = tail(ms)     # runs make enough calls to have a tail
    raw = {
        "setup_s": (statistics.median(setup_s), "s"),
        "sim_ms_per_s": (throughput(calls, out), "sim-ms/s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_tail_ms": (tail_ms, "ms"),
    }
    metrics = {name: (value * slow if name == "sim_ms_per_s" else value / slow, unit)
               for name, (value, unit) in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {name: f"measured {value:.6g}" for name, (value, _) in raw.items()}
    notes["setup_s"] += f", median of {len(setup_s)}"
    notes["call_tail_ms"] += f", p{pct:.1f} of {len(ms)} calls"
    notes["host"] = f"slowdown {slow:.4g} over {len(out.probe_s)} probes"
    return metrics, notes


def per_layer(env, tracer, asks, traced_s, untraced_s):
    values = {}
    for span, (calls, self_s, incl_s) in tracer.totals().items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
        values[f"{span}.us_per_call"] = incl_s / calls * 1e6 if calls else 0.0

    def ratio(num, den):
        return values[num] / values[den] if values[den] else 0.0

    reports = env.checked
    values.update({
        "sim.engine.passes_per_run": ratio("sim.engine.calls", "sim.simulate.calls"),
        "governor.switch_frac": ratio("transition.execute_transition.calls",
                                      "governor.predict.calls"),
        "governor.dwell_held": asks - values["transition.execute_transition.calls"],
        "model.sim_ms": sum(r.duration_ms for r in reports),
        "model.transitions": sum(r.transitions_count for r in reports),
        "model.stall_us": sum(r.total_stall_us for r in reports),
        "model.energy_j": sum(r.total_energy_j for r in reports),
        "model.perf_ratio_mean": statistics.fmean(r.performance_ratio for r in reports),
        "model.rail_gap_rel": max(rail_gap_rel(r) for r in reports),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}


def traced_run(workload, seed, seconds):
    api = import_socdvfs()
    tracer = Tracer()
    asks = [0]
    bind = inspect.signature(api.governor.predict).bind

    def on_predict(args, kwargs, decision):
        current = bind(*args, **kwargs).arguments["current_level"]
        asks[0] += decision.target_level != current

    observers = {"governor.predict": on_predict}
    with tracer:
        tracer.install(targets(api), observers)
        env = prepare(api, workload, seed)
    calls = workload.round(env)
    out = closed_loop(calls, seconds)
    with tracer:
        tracer.install(targets(api), observers)
        traced_s = run_round(calls, out)
    rerun_first(calls, out, env)
    metrics = per_layer(env, tracer, asks[0], traced_s, statistics.median(out.round_s))
    tracer.dump(OUT / f"spans-{workload.name}.npz")
    return out, metrics, {}


def untraced_run(workload, seed, seconds):
    setup_s = []

    def time_setups(n):
        for _ in range(n):
            secs, env = set_up(workload, seed)
            setup_s.append(secs)
        return env

    env = time_setups(SETUPS_FIRST)
    in_use = loaded_socdvfs()

    def between_rounds():
        time_setups(SETUPS_PER_ROUND)
        # Imports made inside library calls must find the modules in use.
        for name in loaded_socdvfs():
            del sys.modules[name]
        sys.modules.update(in_use)

    calls = workload.round(env)
    out = closed_loop(calls, seconds, before_round=between_rounds)
    rerun_first(calls, out, env)
    metrics, notes = end_to_end(calls, out, setup_s)
    return out, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "socdvfs" / "__init__.py").is_file():
        print(f"error: no socdvfs sources under {SRC}", file=sys.stderr)
        return 2
    # bundled_trace stages files in a temp dir; keep them inside the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    out, metrics, notes = run(workload, args.seed, args.seconds)

    failed_frac = out.failed / out.attempted
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{out.attempted} calls, {out.failed} failed (failed_frac {failed_frac:.4g})")
    for line in out.failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit:9s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:42s} {note}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

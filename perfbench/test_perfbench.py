"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check_report  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from measure import Call, closed_loop, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (pytest.approx(100 / 11), 0)
    pct, value = tail([float(v) for v in range(30, 0, -1)])
    assert pct == pytest.approx(100 * 20 / 30)
    assert value == 20.0                      # 21..30 lie beyond it
    assert sum(v > value for v in range(1, 31)) == 10


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "top")
    top()
    totals = tracer.totals()
    # Clock readings: top 1..10, mid 2..7 (leaves 3..4, 5..6), leaf 8..9.
    assert totals["leaf"] == (3, 3.0, 3.0)
    assert totals["mid"] == (1, 5.0 - 2.0, 5.0)
    assert totals["top"] == (1, 9.0 - 5.0 - 1.0, 9.0)
    assert sum(s for _, s, _ in totals.values()) == totals["top"][2]


def test_wrappers_are_restored_even_after_an_error():
    def fn():
        return 1

    class Owner:
        def method(self):
            return 2

    method = Owner.__dict__["method"]
    mod_a = types.ModuleType("a")
    mod_b = types.ModuleType("b")
    mod_a.fn = mod_b.alias = fn
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError), tracer:
        tracer.install([("fn", fn, [mod_a, mod_b]), ("method", method, [Owner])])
        assert mod_a.fn is not fn and mod_b.alias is mod_a.fn
        assert mod_a.fn() == 1 and Owner().method() == 2
        1 / 0
    assert mod_a.fn is fn and mod_b.alias is fn
    assert Owner.__dict__["method"] is method
    assert {name: calls for name, (calls, _, _) in tracer.totals().items()} == \
        {"fn": 1, "method": 1}


def test_report_breaking_an_invariant_counts_as_failed():
    import socdvfs
    cfg = socdvfs.default_config()
    trace = socdvfs.bundled_trace("compute-bound-like")
    good = socdvfs.simulate(trace, "baseline", cfg)
    assert check_report(good, baseline=True) == []
    broken = dataclasses.replace(good, c_state_residencies={"C0": 0.9})
    calls = [Call("good", lambda: good, lambda r: check_report(r, baseline=True), 1.0),
             Call("broken", lambda: broken, check_report, 1.0)]
    out = closed_loop(calls, seconds=0.0, min_calls=4)
    assert (out.attempted, out.failed) == (4, 2)
    assert all(f.startswith("broken: ") for f in out.failures)


def test_a_raising_call_counts_as_failed():
    out = closed_loop([Call("boom", lambda: 1 / 0, lambda r: [], 1.0)],
                      seconds=0.0, min_calls=2)
    assert (out.attempted, out.failed) == (2, 2)


def test_benchmark_json_lists_what_the_traced_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        per_layer_metrics()

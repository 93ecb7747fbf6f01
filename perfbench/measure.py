"""Closed-loop load generator and the statistics the benchmark reports.

One caller issues a fixed round of calls, waits for each reply, and repeats
the round until the timed calls add up to the run length and the run has
enough calls for a tail percentile. Only whole rounds are measured, so every
run weighs the same mix of calls.

Each call is checked: in the first round in depth, in later rounds by
equality with the first round's result for the same inputs. A call fails if
it raises or any check fails.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

# A fixed pure-Python loop probes the host's current speed before every call.
# REF_S is its time on the host the benchmark was built on; a run's times
# are divided by (its mean probe time / REF_S), so the shared host's changing
# load cancels out while a change to the library does not.
REF_LOOPS = 300_000
REF_S = 0.025
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# Runs make at least this many calls, so the tail sits above the median.
MIN_CALLS = 2 * TAIL_BEYOND + 1


@dataclass
class Call:
    """One top-level API call with fixed inputs.

    `sim_ms` is the simulated time of the policy runs the call requests;
    None means it is counted on the closing re-run (see `run.py`).
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    sim_ms: Optional[float]


@dataclass
class Outcome:
    call_s: List[float] = field(default_factory=list)      # every call, in order
    round_s: List[float] = field(default_factory=list)     # timed seconds per round
    reference: List[Any] = field(default_factory=list)     # first-round results
    verdicts: List[List[str]] = field(default_factory=list)  # their problems
    probe_s: List[float] = field(default_factory=list)     # reference-loop times
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def attempt(call: Call) -> Tuple[float, Any, List[str]]:
    """Time one call; a raised exception is its failure, not the run's."""
    t0 = time.perf_counter()
    try:
        result = call.run()
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc(limit=3)]
    return time.perf_counter() - t0, result, []


def verdict(call: Call, result: Any) -> List[str]:
    """The call's checks on a result; a check that raises finds a problem."""
    try:
        return call.check(result)
    except Exception:
        return [traceback.format_exc(limit=3)]


def run_round(calls: Sequence[Call], out: Outcome) -> float:
    """Issue one round; returns the timed seconds of its calls."""
    first = not out.reference
    timed = 0.0
    for i, call in enumerate(calls):
        out.probe_s += [probe(), probe()]
        secs, result, problems = attempt(call)
        timed += secs
        out.call_s.append(secs)
        if first:
            problems = problems or verdict(call, result)
            out.reference.append(result)
            out.verdicts.append(problems)
        elif not problems:
            problems = out.verdicts[i] if result == out.reference[i] else \
                ["result differs from the first round's"]
        out.record(call.label, problems)
    return timed


def closed_loop(calls: Sequence[Call], seconds: float,
                min_calls: int = MIN_CALLS,
                before_round: Callable[[], None] = lambda: None) -> Outcome:
    """Repeat the round until `seconds` of timed calls and `min_calls` calls.
    `before_round` runs untimed ahead of each round."""
    out = Outcome()
    while sum(out.round_s) < seconds or len(out.call_s) < min_calls:
        before_round()
        out.round_s.append(run_round(calls, out))
    return out


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with `TAIL_BEYOND`
    samples beyond it: the value is the 11th-largest sample. None when there
    are too few samples to have one."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def slowdown(out: Outcome) -> float:
    """How much slower the host ran than the reference host during the run."""
    return statistics.fmean(out.probe_s) / REF_S


def throughput(calls: Sequence[Call], out: Outcome) -> float:
    """Requested simulated ms per timed host second, as measured."""
    sim_ms = sum(calls[k % len(calls)].sim_ms for k in range(len(out.call_s)))
    return sim_ms / sum(out.call_s)

"""Emulation of the four governor performance counters.

The governor watches one counter per demand source: graphics LLC misses
(graphics bandwidth), an LLC occupancy tracer (CPU requests waiting on the
memory controller, i.e. core bandwidth pressure), LLC stall events (memory
latency sensitivity) and IO read-pending-queue occupancy (IO pressure).
Counters are deterministic functions of the active slice and operating
point. For robustness experiments the engine can scale each sample period's
reading by lognormal noise, drawn here one evaluation interval at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .soc import OperatingPoint, SocConfig
from .workload import TraceSlice

COUNTER_FIELDS = ("gfx_llc_misses", "llc_occupancy_tracer", "llc_stalls", "io_rpq")


@dataclass(frozen=True)
class PerfCounterSample:
    gfx_llc_misses: float = 0.0       # events/ms
    llc_occupancy_tracer: float = 0.0  # waiting requests
    llc_stalls: float = 0.0           # stall events/ms
    io_rpq: float = 0.0               # queue occupancy
    timestamp: float = 0.0            # ms

    def __post_init__(self):
        for name in COUNTER_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def sample_counters(slice_: TraceSlice, op: OperatingPoint, cfg: SocConfig,
                    timestamp: float = 0.0) -> PerfCounterSample:
    """One noise-free counter reading for a slice at an operating point.

    Occupancy and IO pressure rise as demand approaches the point's capacity,
    so the same workload reads hotter at a slower point.
    """
    g = cfg.counter_gains
    peak = cfg.peak_bandwidth(op.dram_freq)
    io_cap = cfg.io_capacity(op.io_interconnect_freq)
    lat = cfg.memory_latency_ns(op)
    return PerfCounterSample(
        g.gfx_events_per_gbps * slice_.gfx_bw_demand,
        g.occupancy_at_full_util * slice_.core_bw_demand / peak,
        g.stall_events_per_latency * slice_.frac_mem_latency * lat,
        g.io_rpq_at_full_util * slice_.io_bw_demand / io_cap,
        timestamp=timestamp)


def average_window(samples: Sequence[PerfCounterSample],
                   weights: Optional[Sequence[float]] = None) -> PerfCounterSample:
    """Field-wise mean over an evaluation window; timestamp of the last sample.

    `weights` holds the time each reading covers; without them every sample
    counts the same.
    """
    if not samples:
        raise ValueError("cannot average an empty sample window")
    if weights is None:
        weights = [1.0] * len(samples)
    total = sum(weights)
    means = [sum(w * getattr(s, f) for s, w in zip(samples, weights, strict=True)) / total
             for f in COUNTER_FIELDS]
    return PerfCounterSample(*means, timestamp=samples[-1].timestamp)


def period_noise(sigma: float, seed: int, interval: int, periods: int) -> np.ndarray:
    """Lognormal noise factors for one evaluation interval: a row per sample
    period and a column per counter, from one draw seeded by (seed, interval)."""
    rng = np.random.default_rng((seed, interval))
    return rng.lognormal(0.0, sigma, (periods, len(COUNTER_FIELDS)))


def noisy_reading(sample: PerfCounterSample, factors: np.ndarray, start_ms: float,
                  end_ms: float, period_ms: float) -> PerfCounterSample:
    """A reading held over [start_ms, end_ms) of its interval, scaled by the
    factors of the sample periods it overlaps, weighted by the overlap."""
    edges = period_ms * np.arange(len(factors) + 1)
    cover = np.clip(np.minimum(end_ms, edges[1:]) - np.maximum(start_ms, edges[:-1]),
                    0.0, None)
    scale = cover @ factors / (end_ms - start_ms)
    return PerfCounterSample(*(getattr(sample, f) * float(x)
                               for f, x in zip(COUNTER_FIELDS, scale)),
                             timestamp=sample.timestamp)


def write_counters_csv(samples: Sequence[PerfCounterSample], path) -> None:
    """Dump samples for offline threshold work."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("timestamp",) + COUNTER_FIELDS)
        for s in samples:
            w.writerow([s.timestamp] + [getattr(s, f) for f in COUNTER_FIELDS])


def read_counters_csv(path) -> list[PerfCounterSample]:
    out = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(PerfCounterSample(
                timestamp=float(row["timestamp"]),
                **{f: float(row[f]) for f in COUNTER_FIELDS}))
    return out

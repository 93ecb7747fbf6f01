import numpy as np
import pytest

from socdvfs.telemetry import (PerfCounterSample, average_window, noisy_reading,
                               period_noise, read_counters_csv, sample_counters,
                               write_counters_csv)
from socdvfs.workload import TraceSlice


def _slice(core=0.0, gfx=0.0, io=0.0, frac_lat=0.0):
    fc = 1.0 - frac_lat
    return TraceSlice(duration_ms=30.0, frac_compute=fc, frac_mem_latency=frac_lat,
                      frac_mem_bandwidth=0.0, core_bw_demand=core,
                      gfx_bw_demand=gfx, io_bw_demand=io)


def test_zero_demand_zero_counters(cfg, high_point):
    s = sample_counters(_slice(), high_point, cfg)
    assert (s.gfx_llc_misses, s.llc_occupancy_tracer, s.llc_stalls, s.io_rpq) == \
        (0.0, 0.0, 0.0, 0.0)


def test_occupancy_higher_at_slower_point(cfg, high_point, low_point):
    s = _slice(core=4.0)
    hi = sample_counters(s, high_point, cfg)
    lo = sample_counters(s, low_point, cfg)
    assert lo.llc_occupancy_tracer > hi.llc_occupancy_tracer
    assert lo.llc_occupancy_tracer / hi.llc_occupancy_tracer == \
        pytest.approx(1.6 / 1.06, rel=1e-12)


def test_gfx_counter_proportional_to_demand(cfg, high_point):
    one = sample_counters(_slice(gfx=2.0), high_point, cfg)
    two = sample_counters(_slice(gfx=4.0), high_point, cfg)
    assert two.gfx_llc_misses == pytest.approx(2 * one.gfx_llc_misses, rel=1e-12)


def test_counters_monotone_in_their_driver(cfg, high_point):
    base = sample_counters(_slice(core=2.0, gfx=1.0, io=0.5, frac_lat=0.1),
                           high_point, cfg)
    more_lat = sample_counters(_slice(core=2.0, gfx=1.0, io=0.5, frac_lat=0.2),
                               high_point, cfg)
    assert more_lat.llc_stalls > base.llc_stalls
    more_io = sample_counters(_slice(core=2.0, gfx=1.0, io=1.5, frac_lat=0.1),
                              high_point, cfg)
    assert more_io.io_rpq > base.io_rpq


def test_sampling_deterministic_without_noise(cfg, high_point):
    s = _slice(core=3.0, gfx=1.0, io=0.4, frac_lat=0.05)
    assert sample_counters(s, high_point, cfg) == sample_counters(s, high_point, cfg)


def test_noise_reproducible_per_seed():
    a = period_noise(0.2, seed=11, interval=3, periods=30)
    b = period_noise(0.2, seed=11, interval=3, periods=30)
    c = period_noise(0.2, seed=12, interval=3, periods=30)
    d = period_noise(0.2, seed=11, interval=4, periods=30)
    assert a.shape == (30, 4)
    assert (a == b).all()
    assert (a != c).all() and (a != d).all()


def test_noisy_reading_weights_periods_by_overlap():
    # [0.5, 2.5) covers half of period 0, all of period 1, half of period 2.
    s = PerfCounterSample(1.0, 2.0, 3.0, 4.0, timestamp=2.5)
    factors = np.repeat([[1.0], [2.0], [3.0]], 4, axis=1)
    assert noisy_reading(s, factors, 0.5, 2.5, 1.0) == \
        PerfCounterSample(2.0, 4.0, 6.0, 8.0, timestamp=2.5)


def test_average_window_mean_and_timestamp():
    xs = [PerfCounterSample(0, 0, 0, 0, timestamp=0.0),
          PerfCounterSample(2, 2, 2, 2, timestamp=1.0)]
    avg = average_window(xs)
    assert avg.gfx_llc_misses == 1.0
    assert avg.timestamp == 1.0


def test_average_window_constant_idempotent_and_permutation_invariant():
    s = PerfCounterSample(3, 4, 5, 6, timestamp=29.0)
    assert average_window([s] * 30) == s
    xs = [PerfCounterSample(i, 2 * i, 3 * i, i, timestamp=i) for i in range(5)]
    a, b = average_window(xs), average_window(list(reversed(xs)))
    for f in ("gfx_llc_misses", "llc_occupancy_tracer", "llc_stalls", "io_rpq"):
        assert getattr(a, f) == pytest.approx(getattr(b, f))


def test_average_window_empty_rejected():
    with pytest.raises(ValueError):
        average_window([])


def test_one_average_per_interval(cfg, high_point):
    # 30 one-millisecond samples reduce to a single averaged sample.
    samples = [sample_counters(_slice(core=1.0 + 0.1 * i), high_point, cfg,
                               timestamp=float(i)) for i in range(30)]
    avg = average_window(samples)
    assert avg.timestamp == 29.0
    expected = sum(s.llc_occupancy_tracer for s in samples) / 30
    assert avg.llc_occupancy_tracer == pytest.approx(expected)


def test_counter_csv_round_trip(cfg, high_point, tmp_path):
    samples = [sample_counters(_slice(core=float(i), gfx=0.5), high_point, cfg,
                               timestamp=float(i)) for i in range(5)]
    write_counters_csv(samples, tmp_path / "c.csv")
    assert read_counters_csv(tmp_path / "c.csv") == samples


def test_negative_counter_rejected():
    with pytest.raises(ValueError):
        PerfCounterSample(gfx_llc_misses=-1.0)

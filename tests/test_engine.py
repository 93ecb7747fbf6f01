"""The segment engine against the stepping oracle and against closed forms."""

import dataclasses
import math

import pytest

from socdvfs.sim import POLICIES, bundled_trace, compare_policies, simulate
from socdvfs.workload import TraceSlice, WorkloadTrace

from step_oracle import step_reports

BUNDLED = ("astar-like", "cactusadm-like", "compute-bound-like", "graphics-like",
           "lbm-like", "perlbench-like", "video-playback-like")
REL = 1e-9


def _assert_close(got, want, path):
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), f"{path}: lengths differ"
        for n, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{n}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", BUNDLED)
def test_matches_stepping_oracle_on_bundled_traces(name, cfg, thresholds):
    """Bundled slices are whole sample periods, so integrating each constant
    segment once must reproduce the 1 ms loop to rounding. Rail power is
    left out: the loop ignored the transition's service gap on the rails."""
    trace = bundled_trace(name)
    policies = list(POLICIES)
    got = compare_policies(trace, cfg, thresholds, policies)
    want = step_reports(trace, cfg, thresholds, policies)
    for policy in policies:
        g, w = got[policy].to_dict(), want[policy].to_dict()
        del g["avg_rail_power_w"], w["avg_rail_power_w"]
        _assert_close(g, w, f"{name}/{policy}")


@pytest.mark.parametrize("name", BUNDLED)
def test_rails_domains_and_soc_energy_agree(name, cfg, thresholds):
    reports = compare_policies(bundled_trace(name), cfg, thresholds, list(POLICIES))
    for policy, r in reports.items():
        soc = r.avg_power_w["soc"]
        domains = sum(r.avg_power_w[d]
                      for d in ("memory_domain", "io_domain", "compute_domain"))
        rails = sum(r.avg_rail_power_w.values())
        assert domains == pytest.approx(soc, rel=1e-12, abs=0), policy
        assert rails == pytest.approx(soc, rel=1e-12, abs=0), policy


def _slice(ms, state):
    return TraceSlice(duration_ms=ms, frac_compute=0.8, frac_mem_latency=0.1,
                      frac_mem_bandwidth=0.1, core_bw_demand=2.0, gfx_bw_demand=0.5,
                      io_bw_demand=0.3, cpu_scalability=0.6, power_state=state)


def test_sub_period_slices_are_not_aliased(cfg):
    """0.4 ms of C0 then 0.6 ms of C8, repeated over 100 ms: every interval
    starts on a C0 slice, so the C0 slices draw what a pure C0 run draws and
    the C8 slices draw only the DRAM refresh floor."""
    trace = WorkloadTrace("flicker", (_slice(0.4, "C0"), _slice(0.6, "C8")) * 100)
    r = simulate(trace, "baseline", cfg)
    assert r.c_state_residencies["C0"] == pytest.approx(0.4, rel=1e-12)
    assert r.c_state_residencies["C8"] == pytest.approx(0.6, rel=1e-12)
    c0_w = simulate(WorkloadTrace("c0", (_slice(100.0, "C0"),)), "baseline",
                    cfg).avg_power_w["soc"]
    want = 0.4 * c0_w + 0.6 * cfg.power_coefficients.p_refresh
    assert r.avg_power_w["soc"] == pytest.approx(want, rel=1e-12)


def test_trace_shorter_than_a_sample_period(cfg):
    """A 0.4 ms trace integrates 0.4 ms, not a whole 1 ms step: its average
    power is the power of its one slice, as in a 30 ms run of that slice."""
    short = simulate(WorkloadTrace("short", (_slice(0.4, "C0"),)), "baseline", cfg)
    full = simulate(WorkloadTrace("full", (_slice(30.0, "C0"),)), "baseline", cfg)
    assert short.duration_ms == 0.4
    assert short.avg_power_w["soc"] == pytest.approx(full.avg_power_w["soc"], rel=1e-12)
    assert short.total_energy_j == pytest.approx(
        full.avg_power_w["soc"] * 0.4e-3, rel=1e-12)
    assert short.avg_power_w["soc"] < cfg.tdp_watts


def test_noisy_runs_are_byte_identical(cfg, thresholds):
    noisy = cfg.replace(counter_gains=dataclasses.replace(cfg.counter_gains,
                                                          noise_sigma=0.2))
    trace = bundled_trace("astar-like")
    a = simulate(trace, "sysscale", noisy, thresholds, seed=5)
    b = simulate(trace, "sysscale", noisy, thresholds, seed=5)
    assert a.to_json() == b.to_json()
    quiet = simulate(trace, "sysscale", cfg, thresholds, seed=5)
    assert a.intervals[1]["counters"] != quiet.intervals[1]["counters"]

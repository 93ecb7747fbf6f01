"""Simulation engine and the policy drivers.

An engine pass walks a trace one evaluation interval (30 ms by default) at a
time. At each interval start the governor averages the previous interval's
counters, decides a level, executes the transition flow if the level
changed, re-splits the TDP between domains and picks compute P-states.
Within the interval nothing changes except at slice boundaries and where the
transition's service gap ends (its total latency, with DRAM in self-refresh
and no work done), so power, performance and counters are evaluated once per
constant segment and multiplied by its duration, exactly for any slice
length. Counters are averaged weighted by active time; with noise on, every
sample period (1 ms by default) gets its own lognormal factor, drawn once per
interval from (seed, interval index).

Policies:
  baseline          pinned at the high point, fixed worst-case IO/mem budget
  md-dvfs           pinned at the low point, budget still allocated as high
  sysscale          governor-driven full ladder, register reload on every
                    switch, savings redistributed to the compute domain
  memscale          governor-driven memory-only scaling (interconnect and
                    rails untouched, registers left tuned for the high point)
  coscale           memscale plus compute-clock coordination on memory-bound
                    phases
  memscale-redist / coscale-redist
                    same runs, with the redistribution benefit projected
                    from the measured power saving instead of simulated
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import corpus as corpus_mod
from .governor import (CalibrationError, Decision, DomainBudgets, InfeasibleTdpError,
                       PowerToFreqMap, PstateChoice, ThresholdSet, predict,
                       project_perf_boost, redistribute_budget, select_compute_pstate)
from .power import (DRAM_ACTIVE_STATES, ActivitySample, PowerBreakdown,
                    PowerCoefficients, soc_power)
from .soc import (OperatingPoint, SocConfig, mrc_lookup, operating_point,
                  with_compute)
from .telemetry import (PerfCounterSample, average_window, noisy_reading, period_noise,
                        sample_counters)
from .transition import SocState, execute_transition, plan_transition
from .workload import TraceSlice, WorkloadTrace, relative_performance, static_demand


class FitError(Exception):
    """Coefficient calibration could not reach its targets."""

    def __init__(self, message: str, residuals: Optional[Mapping[str, float]] = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True)
class PolicyDesc:
    name: str
    pinned_level: Optional[int] = None   # None = governor-driven
    full_ladder: bool = True             # False = memory-only scaling
    reoptimize_mrc: bool = True
    redistribute: bool = False
    coordinate_compute: bool = False
    projected_redistribution: bool = False


POLICIES: Mapping[str, PolicyDesc] = {
    "baseline": PolicyDesc("baseline", pinned_level=-1),
    "md-dvfs": PolicyDesc("md-dvfs", pinned_level=0),
    "sysscale": PolicyDesc("sysscale", redistribute=True),
    "memscale": PolicyDesc("memscale", full_ladder=False, reoptimize_mrc=False),
    "memscale-redist": PolicyDesc("memscale-redist", full_ladder=False,
                                  reoptimize_mrc=False, projected_redistribution=True),
    "coscale": PolicyDesc("coscale", full_ladder=False, reoptimize_mrc=False,
                          coordinate_compute=True),
    "coscale-redist": PolicyDesc("coscale-redist", full_ladder=False,
                                 reoptimize_mrc=False, coordinate_compute=True,
                                 projected_redistribution=True),
}


def policy_by_name(name: str) -> PolicyDesc:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; expected one of "
                         f"{', '.join(sorted(POLICIES))}") from None


@dataclass(frozen=True)
class SimReport:
    trace: str
    policy: str
    seed: int
    tdp_watts: float
    duration_ms: float
    total_energy_j: float
    avg_power_w: Mapping[str, float]
    avg_rail_power_w: Mapping[str, float]
    performance_ratio: float
    edp: float
    transitions_count: int
    total_stall_us: float
    c_state_residencies: Mapping[str, float]
    intervals: Tuple[Mapping, ...] = ()
    projected_gain: float = 0.0
    power_saving_w: float = 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["intervals"] = [dict(r) for r in self.intervals]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def interval_csv_rows(self) -> List[dict]:
        rows = []
        for r in self.intervals:
            flat = dict(r)
            flat.update({f"counter_{k}": v for k, v in flat.pop("counters").items()})
            flat.update({f"budget_{k}": v for k, v in flat.pop("budgets").items()})
            flat["triggered"] = "+".join(flat["triggered"])
            rows.append(flat)
        return rows


@dataclass
class _RunAccum:
    """Mutable integrators for one run; private to the engine."""

    energy_j: float = 0.0
    work: float = 0.0
    c0_work_ms: float = 0.0
    domain_energy: Dict[str, float] = field(default_factory=lambda: {
        "memory_subsystem": 0.0, "memory_domain": 0.0, "io_domain": 0.0,
        "compute_domain": 0.0})
    rail_energy: Dict[str, float] = field(default_factory=dict)
    cstate_ms: Dict[str, float] = field(default_factory=dict)
    core_freq_ms: float = 0.0
    gfx_freq_ms: float = 0.0
    transitions: int = 0
    stall_us: float = 0.0
    intervals: List[dict] = field(default_factory=list)


def _point_for_level(cfg: SocConfig, level: int, full_ladder: bool) -> OperatingPoint:
    if full_ladder or level == cfg.high_level:
        return operating_point(cfg, level)
    # Memory-only scaling: DRAM and MC clocks move, interconnect and rails
    # keep their high-point values, installed registers stay the boot set.
    high = operating_point(cfg, cfg.high_level)
    spec = cfg.levels[level]
    return dataclasses.replace(
        high, level=level, dram_freq=spec.dram_freq,
        mc_freq=spec.dram_freq * cfg.mc_freq_ratio)


def build_activity(slice_: TraceSlice, point: OperatingPoint,
                   cfg: SocConfig) -> ActivitySample:
    """Translate a trace slice into activity factors at an operating point.

    Interface utilization tracks the point's peak bandwidth (the same demand
    keeps the wires busier at a slower clock); the engine utilizations are
    properties of the workload alone, anchored to the nominal point.
    """
    state = slice_.power_state
    if state not in DRAM_ACTIVE_STATES:
        return ActivitySample(power_state=state)
    peak = cfg.peak_bandwidth(point.dram_freq)
    served = min(slice_.total_bw_demand, peak)
    util = served / peak if peak > 0 else 0.0
    active = state == "C0"
    u_core = min(1.0, slice_.frac_compute +
                 0.5 * (slice_.frac_mem_latency + slice_.frac_mem_bandwidth)) \
        if active else 0.0
    gfx_ref = 0.25 * cfg.peak_bandwidth(cfg.levels[-1].dram_freq)
    u_gfx = min(1.0, slice_.gfx_bw_demand / gfx_ref) if active and gfx_ref > 0 else 0.0
    io_cap = cfg.io_capacity(point.io_interconnect_freq)
    io_act = min(1.0, slice_.io_bw_demand / io_cap) if io_cap > 0 else 0.0
    return ActivitySample(dram_read_write_bw=served, interface_utilization=util,
                          core_utilization=u_core, gfx_utilization=u_gfx,
                          io_engine_activity=io_act, power_state=state)


def _split_budget(cfg: SocConfig, policy: PolicyDesc, state: SocState,
                  ref_op: OperatingPoint, slice_: TraceSlice,
                  wl_class: str) -> Tuple[DomainBudgets, PstateChoice]:
    """Re-split the TDP and choose compute P-states for a new interval."""
    coef = cfg.power_coefficients
    act = build_activity(slice_, state.point, cfg)
    bd_high = soc_power(ref_op, build_activity(slice_, ref_op, cfg), coef, True)
    bd_cur = soc_power(state.point, act, coef, state.mrc_optimized)
    iomem_high = bd_high.io_domain + bd_high.memory_domain
    iomem_cur = bd_cur.io_domain + bd_cur.memory_domain
    # Without redistribution the compute domain keeps the worst-case
    # (high-point) allocation even while the IO/memory domains idle low.
    alloc_low = policy.redistribute and state.level < cfg.high_level
    alloc_bd = bd_cur if alloc_low else bd_high
    budgets = redistribute_budget(
        cfg.tdp_watts, max(iomem_cur, iomem_high), min(iomem_cur, iomem_high),
        Decision(target_level=0 if alloc_low else 1),
        io_w=alloc_bd.io_domain, memory_w=alloc_bd.memory_domain)
    choice = select_compute_pstate(
        budgets.compute_w, act, coef, cfg.vf_curves["V_CORE"], cfg.vf_curves["V_GFX"],
        cfg.core_max_freq, cfg.gfx_max_freq, workload_class=wl_class,
        graphics_core_share=cfg.graphics_core_share)
    return budgets, choice


def _hold(acc: _RunAccum, bd: PowerBreakdown, ms: float, duty: float,
          gfx_duty: float) -> Tuple[float, float]:
    """Integrate a breakdown held constant for `ms` into the run totals.

    Returns the (SoC, memory subsystem) energy in J for the interval log.
    """
    sec = ms / 1000.0
    compute_w = bd.core * duty + bd.gfx * gfx_duty
    soc_w = bd.memory_domain + bd.io_domain + compute_w
    acc.energy_j += soc_w * sec
    domains = acc.domain_energy
    domains["memory_subsystem"] += bd.memory_subsystem * sec
    domains["memory_domain"] += bd.memory_domain * sec
    domains["io_domain"] += bd.io_domain * sec
    domains["compute_domain"] += compute_w * sec
    for rail, w in bd.per_rail().items():
        if rail == "V_CORE":
            w *= duty
        elif rail == "V_GFX":
            w *= gfx_duty
        acc.rail_energy[rail] = acc.rail_energy.get(rail, 0.0) + w * sec
    return soc_w * sec, bd.memory_subsystem * sec


def _run(trace: WorkloadTrace, policy: PolicyDesc, cfg: SocConfig,
         thr: Optional[ThresholdSet], seed: int) -> _RunAccum:
    """One engine pass of a policy over a trace."""
    acc = _RunAccum()
    if not trace.slices:
        return acc

    high_level = cfg.high_level
    if policy.pinned_level is None and thr is None:
        raise CalibrationError(
            f"policy {policy.name!r} needs calibrated thresholds")

    level = high_level if policy.pinned_level in (None, -1) else policy.pinned_level
    point = _point_for_level(cfg, level, policy.full_ladder)
    if policy.reoptimize_mrc:
        mrc_opt = mrc_lookup(cfg.mrc_bank, point.dram_freq) is not None
    else:
        mrc_opt = level == high_level
    state = SocState(point=point, level=level, mrc_optimized=mrc_opt)

    ref_op = operating_point(cfg, high_level)
    rails = {r.name: r for r in cfg.rails}
    coef = cfg.power_coefficients
    core_pn = cfg.vf_curves["V_CORE"].max_freq_at_floor()
    sigma = cfg.counter_gains.noise_sigma

    # An interval is a whole number of sample periods.
    dt_ms = cfg.sample_period_ms
    periods = max(1, round(cfg.evaluation_interval_ms / dt_ms))
    interval_ms = periods * dt_ms
    ends = list(accumulate(s.duration_ms for s in trace.slices))
    end_ms = ends[-1]

    # Counter readings of the previous interval's active segments, weighted
    # by the time each one covers.
    samples: List[PerfCounterSample] = []
    weights: List[float] = []
    dwell = cfg.min_dwell_intervals  # allow a switch at the first boundary
    i = 0                            # slice cursor: first slice ending after the time
    k = 0
    t0 = 0.0
    while t0 < end_ms:
        while ends[i] <= t0:
            i += 1
        slice_ = trace.slices[i]

        # Per-interval decision.
        counters = average_window(samples, weights) if samples else PerfCounterSample()
        transitioned = False
        triggered: Sequence[str] = ()
        stall_us = 0.0
        static_bw = static_demand(slice_.peripheral_config, cfg.static_demand_table)
        if policy.pinned_level is None and samples and \
                slice_.power_state in DRAM_ACTIVE_STATES:
            decision = predict(counters, static_bw, thr, state.level, cfg.n_levels)
            if decision.target_level != state.level and dwell >= cfg.min_dwell_intervals:
                target = _point_for_level(cfg, decision.target_level, policy.full_ladder)
                plan = plan_transition(state.point, target, cfg.mrc_bank, rails,
                                       reoptimize_mrc=policy.reoptimize_mrc)
                state, stall_us = execute_transition(plan, state, t0)
                if not policy.reoptimize_mrc:
                    # Registers never move; they match only the boot (high) freq.
                    state = SocState(state.point, state.level, state.level == high_level)
                acc.transitions += 1
                acc.stall_us += stall_us
                transitioned = True
                dwell = 0
            else:
                dwell += 1
            triggered = sorted(decision.triggering_conditions)
        else:
            dwell += 1
        budgets, choice = _split_budget(cfg, policy, state, ref_op, slice_, trace.wl_class)
        row = {
            "t_ms": t0, "level": state.level,
            "power_state": slice_.power_state,
            "static_bw_gbps": static_bw,
            "counters": {"gfx": counters.gfx_llc_misses,
                         "core": counters.llc_occupancy_tracer,
                         "lat": counters.llc_stalls,
                         "io": counters.io_rpq},
            "triggered": list(triggered),
            "transitioned": transitioned,
            "stall_us": stall_us,
            "budgets": {"compute_w": budgets.compute_w,
                        "io_w": budgets.io_w,
                        "memory_w": budgets.memory_w},
            "mrc_optimized": state.mrc_optimized,
            "core_freq": choice.core_freq, "gfx_freq": choice.gfx_freq,
            "duty": choice.duty_cycle,
        }

        # Integration over [t0, t1), one constant segment at a time: a slice
        # piece, split where the transition's memory-service gap ends.
        t1 = min((k + 1) * interval_ms, end_ms)
        noise = period_noise(sigma, seed, k, periods) if sigma > 0 else None
        # Graphics-class duty gates only the cores; otherwise the domain.
        duty = choice.duty_cycle
        gfx_duty = 1.0 if trace.wl_class == "graphics" else duty
        gap_left = stall_us / 1000.0
        samples, weights = [], []
        energy_j = mem_sub_j = active_ms = 0.0
        a = t0
        while a < t1:
            while ends[i] <= a:
                i += 1
            s = trace.slices[i]
            b = min(ends[i], t1)
            ms = b - a
            gap = min(ms, gap_left)
            gap_left -= gap

            core_f = choice.core_freq
            if policy.coordinate_compute and s.frac_compute < cfg.coscale_compute_bound:
                core_f = min(core_f, core_pn)
            run_op = with_compute(cfg, state.point, core_f, choice.gfx_freq)
            bd = soc_power(run_op, build_activity(s, run_op, cfg), coef, state.mrc_optimized)
            e, m = _hold(acc, bd, ms - gap, duty, gfx_duty)
            energy_j += e
            mem_sub_j += m
            if gap > 0:
                # Service gap: DRAM in self-refresh draws only its refresh
                # floor on VDDQ, and no work is done.
                e, m = _hold(acc, dataclasses.replace(
                    bd, dram_background=coef.p_refresh, dram_array=0.0,
                    termination=0.0, ddrio=0.0), gap, duty, gfx_duty)
                energy_j += e
                mem_sub_j += m
            acc.cstate_ms[s.power_state] = acc.cstate_ms.get(s.power_state, 0.0) + ms

            if s.power_state in DRAM_ACTIVE_STATES:
                active_ms += ms
                sample = sample_counters(s, state.point, cfg, timestamp=b)
                if noise is not None:
                    sample = noisy_reading(sample, noise, a - t0, b - t0, dt_ms)
                samples.append(sample)
                weights.append(ms)

            if s.power_state == "C0":
                eff_core = duty * core_f
                work_op = with_compute(cfg, state.point, max(eff_core, 1e-9),
                                       gfx_duty * choice.gfx_freq)
                index = relative_performance(s, work_op, ref_op,
                                             mrc_optimized=state.mrc_optimized,
                                             model=cfg.perf_model)
                acc.work += (ms - gap) * index
                acc.c0_work_ms += ms
                acc.core_freq_ms += eff_core * ms
                acc.gfx_freq_ms += gfx_duty * choice.gfx_freq * ms
            a = b

        sec = (t1 - t0) / 1000.0
        row.update(energy_j=energy_j, soc_w=energy_j / sec,
                   memory_subsystem_w=mem_sub_j / sec, active_ms=active_ms)
        acc.intervals.append(row)
        k += 1
        t0 = k * interval_ms
    return acc


def _report_from(trace: WorkloadTrace, policy: PolicyDesc, cfg: SocConfig,
                 seed: int, acc: _RunAccum, base: Optional[_RunAccum]) -> SimReport:
    duration_ms = trace.duration_ms
    sec = duration_ms / 1000.0
    avg = {"soc": acc.energy_j / sec if sec else 0.0}
    for k, e in acc.domain_energy.items():
        avg[k] = e / sec if sec else 0.0
    rails = {k: (e / sec if sec else 0.0) for k, e in sorted(acc.rail_energy.items())}

    if base is None or base.work == 0.0:
        ratio = 1.0
    else:
        ratio = acc.work / base.work

    projected_gain = 0.0
    saving = 0.0
    if policy.projected_redistribution and base is not None and sec:
        saving = max(0.0, (base.energy_j - acc.energy_j) / sec)
        if trace.wl_class == "graphics":
            f_base = base.gfx_freq_ms / base.c0_work_ms if base.c0_work_ms else cfg.gfx_base_freq
        else:
            f_base = base.core_freq_ms / base.c0_work_ms if base.c0_work_ms else cfg.core_base_freq
        pmap = PowerToFreqMap(ghz_per_watt=cfg.ghz_per_watt, f_base_ghz=f_base)
        projected_gain = project_perf_boost(saving, pmap, trace.mean_scalability())
        ratio *= 1.0 + projected_gain

    delay_s = sec / ratio if ratio > 0 else sec
    residencies = {k: v / duration_ms for k, v in sorted(acc.cstate_ms.items())} \
        if duration_ms else {}
    return SimReport(
        trace=trace.name, policy=policy.name, seed=seed, tdp_watts=cfg.tdp_watts,
        duration_ms=duration_ms, total_energy_j=acc.energy_j,
        avg_power_w=avg, avg_rail_power_w=rails,
        performance_ratio=ratio, edp=acc.energy_j * delay_s,
        transitions_count=acc.transitions, total_stall_us=acc.stall_us,
        c_state_residencies=residencies, intervals=tuple(acc.intervals),
        projected_gain=projected_gain, power_saving_w=saving,
    )


def simulate(trace: WorkloadTrace, policy: str, cfg: SocConfig,
             thr: Optional[ThresholdSet] = None, seed: int = 0, *,
             _baseline: Optional[_RunAccum] = None) -> SimReport:
    """Run one policy over a trace; deterministic for a fixed seed.

    The performance ratio is measured against a baseline pass over the same
    trace (1.0 for the baseline itself, and for an empty trace). `_baseline`
    is private to this module: a baseline pass of the same trace, config,
    thresholds and seed, reused instead of running another.
    """
    desc = policy_by_name(policy)
    base = _baseline if _baseline is not None else \
        _run(trace, POLICIES["baseline"], cfg, thr, seed)
    if desc.name == "baseline":
        return _report_from(trace, desc, cfg, seed, base, None)
    return _report_from(trace, desc, cfg, seed, _run(trace, desc, cfg, thr, seed), base)


def compare_policies(trace: WorkloadTrace, cfg: SocConfig,
                     thr: Optional[ThresholdSet],
                     policies: Sequence[str], seed: int = 0) -> Dict[str, SimReport]:
    """Run several policies on the identical trace and seed, sharing one
    baseline pass between them."""
    base = _run(trace, POLICIES["baseline"], cfg, thr, seed) if policies else None
    return {name: simulate(trace, name, cfg, thr, seed, _baseline=base)
            for name in policies}


def comparison_table(reports: Mapping[str, SimReport]) -> str:
    cols = ("policy", "avg_power_w", "perf_ratio", "edp", "transitions", "stall_us")
    rows = [cols]
    for name, r in reports.items():
        rows.append((name, f"{r.avg_power_w['soc']:.4f}", f"{r.performance_ratio:.4f}",
                     f"{r.edp:.4f}", str(r.transitions_count), f"{r.total_stall_us:.1f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(cols))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)


def tdp_sweep(traces: Sequence[WorkloadTrace], cfg: SocConfig,
              tdps: Sequence[float], thr: Optional[ThresholdSet],
              policy: str = "sysscale", seed: int = 0) -> List[dict]:
    """Per-TDP mean performance gain of a policy over baseline."""
    if any(t <= 0 for t in tdps) or list(tdps) != sorted(tdps):
        raise ValueError("TDP list must be positive and ascending")
    rows = []
    for tdp in tdps:
        c = cfg.replace(tdp_watts=tdp)
        gains = [simulate(t, policy, c, thr, seed).performance_ratio - 1.0
                 for t in traces]
        rows.append({"tdp_watts": tdp,
                     "mean_gain": sum(gains) / len(gains) if gains else 0.0,
                     "gains": gains})
    return rows


def oracle_decide(slice_: TraceSlice, op_high: OperatingPoint,
                  op_low: OperatingPoint, bound: float,
                  cfg: SocConfig) -> int:
    """Brute-force reference decision between two adjacent points: the low
    level exactly when the true degradation stays below the bound."""
    perf = relative_performance(slice_, op_low, op_high, model=cfg.perf_model)
    degradation = 1.0 - perf
    return op_low.level if degradation < bound else op_high.level


# --------------------------------------------------------------------------
# Coefficient calibration


STRUCTURAL_TARGETS = ("mc_dynamic_scale", "mrc_power_penalty")


def _memlight_reduction(cfg: SocConfig, trace: WorkloadTrace) -> float:
    r = compare_policies(trace, cfg, None, ("baseline", "md-dvfs"))
    return 1.0 - r["md-dvfs"].avg_power_w["soc"] / r["baseline"].avg_power_w["soc"]


def _mc_dynamic_scale(cfg: SocConfig) -> float:
    hi = operating_point(cfg, cfg.high_level)
    lo = operating_point(cfg, 0)
    num = lo.rail_voltages["V_SA"] ** 2 * lo.mc_freq
    den = hi.rail_voltages["V_SA"] ** 2 * hi.mc_freq
    return num / den


@dataclass(frozen=True)
class CoefficientFit:
    coefficients: PowerCoefficients
    scale: float
    residuals: Mapping[str, float]


def calibrate_coefficients(targets: Mapping[str, float], cfg: SocConfig,
                           trace: Optional[WorkloadTrace] = None,
                           tol: float = 1e-4, max_iter: int = 80) -> CoefficientFit:
    """Fit the IO/memory coefficient group so scenario ratios hit `targets`.

    Supported targets: `memlight_soc_power_reduction` (fitted by scaling the
    IO/memory coefficients; monotone, solved by bisection on the log scale),
    plus the structural ratios `mc_dynamic_scale` and `mrc_power_penalty`,
    which are checked rather than fitted. Returns the fitted coefficients
    with per-target residuals; unreachable targets raise `FitError`.
    """
    known = {"memlight_soc_power_reduction"} | set(STRUCTURAL_TARGETS)
    unknown = set(targets) - known
    if unknown:
        raise FitError(f"unknown calibration targets: {sorted(unknown)}")
    if trace is None:
        trace = bundled_trace("perlbench-like")

    residuals: Dict[str, float] = {}
    if "mc_dynamic_scale" in targets:
        residuals["mc_dynamic_scale"] = abs(_mc_dynamic_scale(cfg)
                                            - targets["mc_dynamic_scale"])
    if "mrc_power_penalty" in targets:
        residuals["mrc_power_penalty"] = abs(
            cfg.power_coefficients.mrc_power_penalty - targets["mrc_power_penalty"])

    scale = 1.0
    if "memlight_soc_power_reduction" in targets:
        goal = targets["memlight_soc_power_reduction"]

        def reduction_at(s: float) -> float:
            c = cfg.replace(power_coefficients=cfg.power_coefficients.scaled_io_memory(s))
            return _memlight_reduction(c, trace)

        r0 = reduction_at(1.0)
        if abs(r0 - goal) <= tol:
            residuals["memlight_soc_power_reduction"] = abs(r0 - goal)
        else:
            # Bracket the target; reduction grows monotonically with the
            # scale until the IO/memory floor eats the whole TDP.
            lo_s, hi_s = 1.0, 1.0
            best_r = r0
            try:
                if r0 < goal:
                    while reduction_at(hi_s) < goal:
                        hi_s *= 2.0
                        best_r = max(best_r, reduction_at(hi_s / 2.0))
                        if hi_s > 1e6:
                            raise InfeasibleTdpError("scale diverged")
                else:
                    while reduction_at(lo_s) > goal:
                        lo_s /= 2.0
                        if lo_s < 1e-9:
                            break
            except InfeasibleTdpError:
                residuals["memlight_soc_power_reduction"] = abs(best_r - goal)
                raise FitError(
                    f"target reduction {goal:.4f} unreachable within the TDP "
                    f"(best {best_r:.4f})", residuals) from None
            if reduction_at(lo_s) > goal:
                residuals["memlight_soc_power_reduction"] = abs(reduction_at(lo_s) - goal)
                raise FitError(
                    f"target reduction {goal:.4f} below the achievable floor",
                    residuals)
            for _ in range(max_iter):
                mid = math.sqrt(lo_s * hi_s)
                if reduction_at(mid) < goal:
                    lo_s = mid
                else:
                    hi_s = mid
                if hi_s / lo_s < 1 + 1e-9:
                    break
            scale = math.sqrt(lo_s * hi_s)
            residuals["memlight_soc_power_reduction"] = abs(reduction_at(scale) - goal)

    bad = {k: v for k, v in residuals.items() if v > max(tol, 1e-3)}
    if bad:
        raise FitError(f"unreachable calibration targets: {sorted(bad)}", residuals)
    coef = cfg.power_coefficients.scaled_io_memory(scale)
    return CoefficientFit(coefficients=coef, scale=scale, residuals=residuals)


def bundled_trace(name: str) -> WorkloadTrace:
    """Load one of the traces shipped in socdvfs/data (by bare name)."""
    import tempfile
    from pathlib import Path

    from .workload import load_trace
    root = resources.files("socdvfs.data")
    with tempfile.TemporaryDirectory() as td:
        csv_path = Path(td) / f"{name}.trace"
        csv_path.write_text(root.joinpath(f"{name}.trace").read_text())
        sidecar = root.joinpath(f"{name}.trace.json")
        if sidecar.is_file():
            Path(f"{csv_path}.json").write_text(sidecar.read_text())
        return load_trace(csv_path)


def fit_thresholds(traces: Sequence[WorkloadTrace], cfg: SocConfig,
                   bound: float = 0.01) -> ThresholdSet:
    """Offline pass: label every trace with its oracle degradation, then fit
    the counter thresholds and derive the static-demand threshold."""
    from .governor import calibrate_thresholds, static_threshold_from_ladder
    entries = corpus_mod.calibration_entries(list(traces), cfg)
    return calibrate_thresholds(entries, bound, static_threshold_from_ladder(cfg))

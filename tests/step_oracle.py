"""Reference engine for the differential tests: the original 1 ms stepping loop.

This is a frozen copy of the engine that walked a trace one sample period
at a time, looking each slice up by time and evaluating the whole power,
performance and counter chain on every step. It is slow and aliases slices
shorter than the sample period, but on traces whose slices are multiples of
the sample period it defines the expected noise-free report to rounding.
Do not change it to follow the engine; it is the yardstick the engine is
held to. Counter noise is left out: the engine draws it differently.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from socdvfs.governor import (Decision, DomainBudgets, ThresholdSet, predict,
                              redistribute_budget, select_compute_pstate)
from socdvfs.power import DRAM_ACTIVE_STATES, PowerBreakdown, soc_power
from socdvfs.sim import (POLICIES, PolicyDesc, _report_from, _RunAccum, build_activity,
                         policy_by_name)
from socdvfs.soc import OperatingPoint, SocConfig, mrc_lookup, operating_point, with_compute
from socdvfs.telemetry import PerfCounterSample, average_window, sample_counters
from socdvfs.transition import SocState, execute_transition, plan_transition
from socdvfs.workload import TraceSlice, WorkloadTrace, relative_performance, static_demand


def _point_for_level(cfg: SocConfig, level: int, full_ladder: bool) -> OperatingPoint:
    if full_ladder or level == cfg.high_level:
        return operating_point(cfg, level)
    high = operating_point(cfg, cfg.high_level)
    spec = cfg.levels[level]
    return dataclasses.replace(
        high, level=level, dram_freq=spec.dram_freq,
        mc_freq=spec.dram_freq * cfg.mc_freq_ratio)


def _io_mem_power(point: OperatingPoint, slice_: TraceSlice, cfg: SocConfig,
                  mrc_optimized: bool) -> PowerBreakdown:
    act = build_activity(slice_, point, cfg)
    return soc_power(point, act, cfg.power_coefficients, mrc_optimized)


def step_run(trace: WorkloadTrace, policy: PolicyDesc, cfg: SocConfig,
             thr: Optional[ThresholdSet]) -> _RunAccum:
    acc = _RunAccum()
    if not trace.slices:
        return acc

    high_level = cfg.high_level
    level = high_level if policy.pinned_level in (None, -1) else policy.pinned_level
    point = _point_for_level(cfg, level, policy.full_ladder)
    if policy.reoptimize_mrc:
        mrc_opt = mrc_lookup(cfg.mrc_bank, point.dram_freq) is not None
    else:
        mrc_opt = level == high_level
    state = SocState(point=point, level=level, mrc_optimized=mrc_opt)

    ref_op = operating_point(cfg, high_level)
    coef = cfg.power_coefficients
    core_curve = cfg.vf_curves["V_CORE"]
    gfx_curve = cfg.vf_curves["V_GFX"]
    core_pn = core_curve.max_freq_at_floor()

    dt_ms = cfg.sample_period_ms
    samples_per_interval = max(1, round(cfg.evaluation_interval_ms / dt_ms))
    n_steps = max(1, round(trace.duration_ms / dt_ms))

    window: List[PerfCounterSample] = []
    budgets: Optional[DomainBudgets] = None
    choice = None
    dwell = cfg.min_dwell_intervals
    interval_acc = {"energy_j": 0.0, "mem_sub_j": 0.0, "ms": 0.0, "active_ms": 0.0}
    interval_row: Optional[dict] = None

    def flush_interval():
        if interval_row is not None and interval_acc["ms"] > 0:
            sec = interval_acc["ms"] / 1000.0
            interval_row["energy_j"] = interval_acc["energy_j"]
            interval_row["soc_w"] = interval_acc["energy_j"] / sec
            interval_row["memory_subsystem_w"] = interval_acc["mem_sub_j"] / sec
            interval_row["active_ms"] = interval_acc["active_ms"]
            acc.intervals.append(interval_row)

    def set_budgets(slice_: TraceSlice) -> None:
        nonlocal budgets, choice
        bd_high = _io_mem_power(operating_point(cfg, high_level), slice_, cfg, True)
        bd_cur = _io_mem_power(state.point, slice_, cfg, state.mrc_optimized)
        iomem_high = bd_high.io_domain + bd_high.memory_domain
        iomem_cur = bd_cur.io_domain + bd_cur.memory_domain
        alloc_low = policy.redistribute and state.level < high_level
        alloc_bd = bd_cur if alloc_low else bd_high
        budgets = redistribute_budget(
            cfg.tdp_watts, max(iomem_cur, iomem_high), min(iomem_cur, iomem_high),
            Decision(target_level=0 if alloc_low else 1),
            io_w=alloc_bd.io_domain, memory_w=alloc_bd.memory_domain)
        act = build_activity(slice_, state.point, cfg)
        choice = select_compute_pstate(
            budgets.compute_w, act, coef, core_curve, gfx_curve,
            cfg.core_max_freq, cfg.gfx_max_freq,
            workload_class=trace.wl_class,
            graphics_core_share=cfg.graphics_core_share)

    for step in range(n_steps):
        t_ms = step * dt_ms
        slice_ = trace.slice_at(t_ms)
        boundary = step % samples_per_interval == 0
        stall_us = 0.0

        if boundary:
            flush_interval()
            interval_acc = {"energy_j": 0.0, "mem_sub_j": 0.0, "ms": 0.0, "active_ms": 0.0}
            transitioned = False
            triggered: Sequence[str] = ()
            static_bw = static_demand(slice_.peripheral_config, cfg.static_demand_table)
            if policy.pinned_level is None and window and \
                    slice_.power_state in DRAM_ACTIVE_STATES:
                avg = average_window(window)
                decision = predict(avg, static_bw, thr, state.level, cfg.n_levels)
                if decision.target_level != state.level and dwell >= cfg.min_dwell_intervals:
                    target = _point_for_level(cfg, decision.target_level,
                                              policy.full_ladder)
                    plan = plan_transition(state.point, target, cfg.mrc_bank,
                                           {r.name: r for r in cfg.rails},
                                           reoptimize_mrc=policy.reoptimize_mrc)
                    state, stall_us = execute_transition(plan, state, t_ms)
                    if not policy.reoptimize_mrc:
                        state = SocState(state.point, state.level,
                                         state.level == high_level)
                    acc.transitions += 1
                    acc.stall_us += stall_us
                    transitioned = True
                    dwell = 0
                else:
                    dwell += 1
                triggered = sorted(decision.triggering_conditions)
                counters = avg
            else:
                dwell += 1
                counters = average_window(window) if window else PerfCounterSample()
            window = []
            set_budgets(slice_)
            interval_row = {
                "t_ms": t_ms, "level": state.level,
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

        if slice_.power_state in DRAM_ACTIVE_STATES:
            window.append(sample_counters(slice_, state.point, cfg, timestamp=t_ms))

        core_f = choice.core_freq
        if policy.coordinate_compute and \
                slice_.frac_compute < cfg.coscale_compute_bound:
            core_f = min(core_f, core_pn)
        eff_core = choice.duty_cycle * core_f
        run_op = with_compute(cfg, state.point, core_f, choice.gfx_freq)

        act = build_activity(slice_, run_op, cfg)
        bd = soc_power(run_op, act, coef, state.mrc_optimized)
        gfx_duty = 1.0 if trace.wl_class == "graphics" else choice.duty_cycle
        compute_w = bd.core * choice.duty_cycle + bd.gfx * gfx_duty
        mem_sub_w = bd.memory_subsystem
        total_w = bd.memory_domain + bd.io_domain + compute_w
        if stall_us > 0:
            w = min(1.0, stall_us / (dt_ms * 1000.0))
            gap_mem = coef.p_refresh
            total_w += (gap_mem - bd.memory_subsystem) * w
            mem_sub_w += (gap_mem - bd.memory_subsystem) * w

        dt_s = dt_ms / 1000.0
        step_energy = total_w * dt_s
        acc.energy_j += step_energy
        acc.domain_energy["memory_subsystem"] += mem_sub_w * dt_s
        acc.domain_energy["memory_domain"] += (bd.memory_domain
                                               + (mem_sub_w - bd.memory_subsystem)) * dt_s
        acc.domain_energy["io_domain"] += bd.io_domain * dt_s
        acc.domain_energy["compute_domain"] += compute_w * dt_s
        for rail, w_ in bd.per_rail().items():
            if rail == "V_CORE":
                w_ *= choice.duty_cycle
            elif rail == "V_GFX":
                w_ *= gfx_duty
            acc.rail_energy[rail] = acc.rail_energy.get(rail, 0.0) + w_ * dt_s
        acc.cstate_ms[slice_.power_state] = \
            acc.cstate_ms.get(slice_.power_state, 0.0) + dt_ms

        if slice_.power_state == "C0":
            work_op = with_compute(cfg, state.point, max(eff_core, 1e-9),
                                   gfx_duty * choice.gfx_freq)
            index = relative_performance(slice_, work_op, ref_op,
                                         mrc_optimized=state.mrc_optimized,
                                         model=cfg.perf_model)
            useful_ms = dt_ms - stall_us / 1000.0
            acc.work += useful_ms * index
            acc.c0_work_ms += dt_ms
            acc.core_freq_ms += eff_core * dt_ms
            acc.gfx_freq_ms += gfx_duty * choice.gfx_freq * dt_ms

        interval_acc["energy_j"] += step_energy
        interval_acc["mem_sub_j"] += mem_sub_w * dt_s
        interval_acc["ms"] += dt_ms
        if slice_.power_state in DRAM_ACTIVE_STATES:
            interval_acc["active_ms"] += dt_ms

    flush_interval()
    return acc


def step_reports(trace: WorkloadTrace, cfg: SocConfig, thr: Optional[ThresholdSet],
                 policies: Sequence[str], seed: int = 0) -> dict:
    """Reports of the stepping engine, one per policy, as `simulate` built them."""
    base = step_run(trace, POLICIES["baseline"], cfg, thr)
    reports = {}
    for name in policies:
        desc = policy_by_name(name)
        if desc.name == "baseline":
            reports[name] = _report_from(trace, desc, cfg, seed, base, None)
        else:
            acc = step_run(trace, desc, cfg, thr)
            reports[name] = _report_from(trace, desc, cfg, seed, acc, base)
    return reports


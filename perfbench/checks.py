"""Invariants every simulation report must satisfy.

They hold for any policy, trace, TDP and noise level, so a report that
breaks one is wrong whatever produced it. The known per-rail energy gap
(the rails overshoot SoC power on runs with transitions) is not among them:
`rail_gap_rel` reports it as a model statistic instead.
"""

from __future__ import annotations

import math
from typing import List

REL_TOL = 1e-9
DOMAINS = ("memory_domain", "io_domain", "compute_domain")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_report(report, baseline: bool = False) -> List[str]:
    """Problems found in one `SimReport`; empty when it is sound."""
    problems = []
    where = f"{report.trace}/{report.policy}@{report.tdp_watts}W"
    avg = report.avg_power_w
    gap = _rel(sum(avg[d] for d in DOMAINS), avg["soc"])
    if not gap <= REL_TOL:
        problems.append(f"{where}: domain energy misses SoC energy by {gap:.3g}")
    for row in report.intervals:
        split = sum(row["budgets"].values())
        if not _rel(split, report.tdp_watts) <= REL_TOL:
            problems.append(f"{where}: interval at {row['t_ms']} ms splits "
                            f"{split!r} W of a {report.tdp_watts!r} W TDP")
            break
    residency = sum(report.c_state_residencies.values())
    if report.duration_ms and not abs(residency - 1.0) <= REL_TOL:
        problems.append(f"{where}: C-state residencies sum to {residency!r}")
    ratio = report.performance_ratio
    if not (math.isfinite(ratio) and ratio > 0):
        problems.append(f"{where}: performance ratio {ratio!r}")
    if baseline and ratio != 1.0:
        problems.append(f"{where}: baseline performance ratio {ratio!r} != 1.0")
    return problems


def rail_gap_rel(report) -> float:
    """(sum of rail power - SoC power) / SoC power: the known rail defect."""
    soc = report.avg_power_w["soc"]
    return (sum(report.avg_rail_power_w.values()) - soc) / soc if soc else 0.0

"""The three workloads: seeded inputs, one round of API calls, deep checks.

The benchmark seed only shapes the generated inputs; the library sees
nothing but those inputs. Each workload is a closed loop with a single
caller (one process, no threads or pools). The model starts every run cold:
it has no caches or other state that carries over between runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Callable, Dict, List

from checks import check_report
from measure import Call

# The shortest trace goes first: the run ends by re-running its first call.
BUNDLED_TRACES = ("compute-bound-like", "astar-like", "cactusadm-like",
                  "graphics-like", "lbm-like", "perlbench-like",
                  "video-playback-like")
CALIBRATION_TRACES = 500

# long-trace: astar-shaped traces of 320 slices (9.6 s simulated), long
# enough that the linear scan in WorkloadTrace.slice_at shows.
LONG_PROFILE = "astar-like.profile.json"
LONG_REPEATS = 8
LONG_TRACES = 3
LONG_JITTER = 0.1

# policy-matrix: counter noise on, so sample_counters draws from an RNG.
MATRIX_NOISE_SIGMA = 0.05

# tdp-calibrate: the test suite's calibrated-config call, then TDP sweeps. 1.5 W
# is tight enough to reach the duty-cycle fallback of select_compute_pstate.
CALIBRATION_TARGETS = {"memlight_soc_power_reduction": 0.105}
CALIBRATION_TOL = 1e-3
SWEEP_TDPS = (1.5, 3.5, 4.5, 6.0)
SWEEPS = 8
SWEEP_TRACES = 4


@dataclass
class Env:
    """What set-up hands the workload: the library, its config and inputs."""

    api: Any                        # the imported socdvfs package
    seed: int
    cfg: Any = None
    thr: Any = None
    inputs: Dict[str, Any] = field(default_factory=dict)
    checked: List[Any] = field(default_factory=list)    # reports checked in depth

    def check(self, report, baseline: bool = False) -> List[str]:
        self.checked.append(report)
        return check_report(report, baseline)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Env], Dict[str, Any]]
    round: Callable[[Env], List[Call]]


def prepare(api, workload: Workload, seed: int) -> Env:
    """Set-up after import: config, the workload's traces, the calibration
    corpus and the fitted thresholds."""
    env = Env(api=api, seed=seed, cfg=api.soc.default_config())
    env.inputs = workload.build(env)
    calibration = api.corpus.calibration_corpus(CALIBRATION_TRACES)
    env.thr = api.sim.fit_thresholds(calibration, env.cfg)
    return env


# --------------------------------------------------------------------------
# long-trace


def _build_long(env: Env) -> Dict[str, Any]:
    wl = env.api.workload
    data = json.loads(resources.files("socdvfs.data").joinpath(LONG_PROFILE).read_text())
    base = wl.profile_from_dict(data)
    profile = dataclasses.replace(
        base, repeats=LONG_REPEATS,
        phases=tuple(dataclasses.replace(ph, demand_jitter=LONG_JITTER,
                                         frac_jitter=LONG_JITTER)
                     for ph in base.phases))
    return {"traces": [wl.synthesize(profile, seed=env.seed * LONG_TRACES + k)
                       for k in range(LONG_TRACES)]}


def _round_long(env: Env) -> List[Call]:
    sim = env.api.sim

    def call(k, trace):
        return Call(f"simulate[{trace.name}#{k}]",
                    lambda: sim.simulate(trace, "sysscale", env.cfg, env.thr, env.seed),
                    env.check, trace.duration_ms)
    return [call(k, t) for k, t in enumerate(env.inputs["traces"])]


# --------------------------------------------------------------------------
# policy-matrix


def _build_matrix(env: Env) -> Dict[str, Any]:
    gains = dataclasses.replace(env.cfg.counter_gains, noise_sigma=MATRIX_NOISE_SIGMA)
    return {"traces": [env.api.sim.bundled_trace(n) for n in BUNDLED_TRACES],
            "cfg": env.cfg.replace(counter_gains=gains)}


def _round_matrix(env: Env) -> List[Call]:
    sim = env.api.sim
    policies = list(sim.POLICIES)

    def check(reports) -> List[str]:
        if list(reports) != policies:
            return [f"policies {list(reports)} != {policies}"]
        return [p for name, r in reports.items()
                for p in env.check(r, baseline=name == "baseline")]

    def call(trace):
        return Call(f"compare_policies[{trace.name}]",
                    lambda: sim.compare_policies(trace, env.inputs["cfg"], env.thr,
                                                 policies, env.seed),
                    check, len(policies) * trace.duration_ms)
    return [call(t) for t in env.inputs["traces"]]


# --------------------------------------------------------------------------
# tdp-calibrate


def _build_tdp(env: Env) -> Dict[str, Any]:
    corpus = env.api.corpus
    return {"check_trace": env.api.sim.bundled_trace("perlbench-like"),
            "sweeps": [corpus.compute_bound_corpus(SWEEP_TRACES, seed=env.seed * SWEEPS + k)
                       for k in range(SWEEPS)]}


def _round_tdp(env: Env) -> List[Call]:
    sim = env.api.sim

    def check_fit(fit) -> List[str]:
        """The fitted coefficients must reproduce the target reduction."""
        cfg = env.cfg.replace(power_coefficients=fit.coefficients)
        trace = env.inputs["check_trace"]
        base = sim.simulate(trace, "baseline", cfg)
        low = sim.simulate(trace, "md-dvfs", cfg)
        problems = env.check(base, baseline=True) + env.check(low)
        goal = CALIBRATION_TARGETS["memlight_soc_power_reduction"]
        got = 1.0 - low.avg_power_w["soc"] / base.avg_power_w["soc"]
        if not abs(got - goal) <= CALIBRATION_TOL:
            problems.append(f"fitted reduction {got!r}, target {goal!r}")
        return problems

    def check_sweep(traces, rows) -> List[str]:
        """Each gain must equal the ratio of a direct `simulate` run."""
        if [r["tdp_watts"] for r in rows] != list(SWEEP_TDPS):
            return [f"sweep rows cover {[r['tdp_watts'] for r in rows]}"]
        problems = []
        for row in rows:
            cfg = env.cfg.replace(tdp_watts=row["tdp_watts"])
            for trace, gain in zip(traces, row["gains"], strict=True):
                report = sim.simulate(trace, "sysscale", cfg, env.thr, env.seed)
                problems += env.check(report)
                if report.performance_ratio - 1.0 != gain:
                    problems.append(f"{trace.name}@{row['tdp_watts']}W: gain {gain!r} "
                                    f"!= ratio {report.performance_ratio!r} - 1")
        return problems

    def sweep(traces):
        return Call(f"tdp_sweep[{traces[0].seed}]",
                    lambda: sim.tdp_sweep(traces, env.cfg, SWEEP_TDPS, env.thr,
                                          "sysscale", env.seed),
                    lambda rows: check_sweep(traces, rows),
                    len(SWEEP_TDPS) * sum(t.duration_ms for t in traces))

    calibrate = Call("calibrate_coefficients",
                     lambda: sim.calibrate_coefficients(CALIBRATION_TARGETS, env.cfg),
                     check_fit, None)
    return [calibrate] + [sweep(ts) for ts in env.inputs["sweeps"]]


WORKLOADS = {w.name: w for w in (
    Workload("long-trace", _build_long, _round_long),
    Workload("policy-matrix", _build_matrix, _round_matrix),
    Workload("tdp-calibrate", _build_tdp, _round_tdp),
)}

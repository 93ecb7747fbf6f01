"""Command-line front end.

Subcommands: validate, calibrate-thresholds, calibrate-power, run, compare,
sweep-tdp, synth. Successful commands exit 0; documented failures exit
nonzero after printing a one-line JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .governor import (CalibrationError, InfeasibleTdpError, load_thresholds,
                       save_thresholds)
from .sim import (FitError, POLICIES, calibrate_coefficients, compare_policies,
                  comparison_table, fit_thresholds, simulate, tdp_sweep)
from .soc import ConfigError, default_config, load_config, save_config, validate_config
from .transition import TransitionError
from .workload import TraceFormatError, load_profile, load_trace, save_trace, synthesize

_ERROR_KINDS = {
    ConfigError: "config-error",
    TraceFormatError: "trace-error",
    CalibrationError: "calibration-error",
    FitError: "fit-error",
    InfeasibleTdpError: "infeasible-tdp",
    TransitionError: "transition-error",
    LookupError: "lookup-error",
    FileNotFoundError: "file-not-found",
    ValueError: "value-error",
}


def _fail(exc: Exception) -> int:
    kind = next((k for t, k in _ERROR_KINDS.items() if isinstance(exc, t)), "error")
    payload = {"error": {"kind": kind, "detail": str(exc)}}
    if isinstance(exc, FitError) and exc.residuals:
        payload["error"]["residuals"] = exc.residuals
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _load_cfg(path):
    return load_config(path) if path else default_config()


def _load_corpus_dir(path: Path):
    traces = [load_trace(p) for p in sorted(Path(path).glob("*.trace"))]
    if not traces:
        raise TraceFormatError(f"no .trace files under {path}")
    return traces


def cmd_validate(args) -> int:
    report = validate_config(load_config(args.config))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_calibrate_thresholds(args) -> int:
    cfg = _load_cfg(args.cfg)
    if args.corpus == "bundled":
        traces = corpus_mod.calibration_corpus()
    else:
        traces = _load_corpus_dir(Path(args.corpus))
    thr = fit_thresholds(traces, cfg, bound=args.bound)
    save_thresholds(thr, args.output)
    print(json.dumps({"thresholds": thr.to_dict(), "corpus_size": len(traces)},
                     indent=2))
    return 0


def cmd_calibrate_power(args) -> int:
    cfg = _load_cfg(args.cfg)
    targets = json.loads(Path(args.targets).read_text())
    fit = calibrate_coefficients(targets, cfg)
    save_config(cfg.replace(power_coefficients=fit.coefficients), args.output)
    print(json.dumps({"scale": fit.scale, "residuals": fit.residuals}, indent=2))
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args.cfg)
    thr = load_thresholds(args.thr) if args.thr else None
    trace = load_trace(args.trace)
    report = simulate(trace, args.policy, cfg, thr, seed=args.seed)
    out = report.to_json()
    if args.output:
        Path(args.output).write_text(out + "\n")
    if args.intervals_csv:
        _write_intervals_csv(report, args.intervals_csv)
    print(out)
    return 0


def _write_intervals_csv(report, path) -> None:
    rows = report.interval_csv_rows()
    if not rows:
        Path(path).write_text("")
        return
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
        w.writeheader()
        w.writerows(rows)


def cmd_compare(args) -> int:
    cfg = _load_cfg(args.cfg)
    thr = load_thresholds(args.thr) if args.thr else None
    trace = load_trace(args.trace)
    policies = args.policies.split(",")
    reports = compare_policies(trace, cfg, thr, policies, seed=args.seed)
    print(comparison_table(reports))
    if args.output:
        Path(args.output).write_text(json.dumps(
            {name: r.to_dict() for name, r in reports.items()},
            indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sweep_tdp(args) -> int:
    cfg = _load_cfg(args.cfg)
    thr = load_thresholds(args.thr) if args.thr else None
    traces = _load_corpus_dir(Path(args.corpus))
    tdps = [float(x) for x in args.tdps.split(",")]
    rows = tdp_sweep(traces, cfg, tdps, thr, policy=args.policy, seed=args.seed)
    print(json.dumps(rows, indent=2))
    return 0


def cmd_synth(args) -> int:
    profile = load_profile(args.profile)
    trace = synthesize(profile, seed=args.seed)
    save_trace(trace, args.output)
    print(json.dumps({"trace": trace.name, "slices": len(trace.slices),
                      "duration_ms": trace.duration_ms}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="socdvfs",
                                description="multi-domain DVFS governor simulator")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a SoC config file")
    v.add_argument("config")
    v.set_defaults(func=cmd_validate)

    ct = sub.add_parser("calibrate-thresholds",
                        help="fit governor thresholds from a trace corpus")
    ct.add_argument("corpus", help="directory of .trace files, or 'bundled'")
    ct.add_argument("--bound", type=float, default=0.01)
    ct.add_argument("--cfg")
    ct.add_argument("-o", "--output", required=True)
    ct.set_defaults(func=cmd_calibrate_thresholds)

    cp = sub.add_parser("calibrate-power",
                        help="fit power coefficients against scenario targets")
    cp.add_argument("targets", help="JSON file of target ratios")
    cp.add_argument("--cfg")
    cp.add_argument("-o", "--output", required=True)
    cp.set_defaults(func=cmd_calibrate_power)

    r = sub.add_parser("run", help="simulate one policy over a trace")
    r.add_argument("trace")
    r.add_argument("--policy", default="sysscale", choices=sorted(POLICIES))
    r.add_argument("--cfg")
    r.add_argument("--thr")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("-o", "--output")
    r.add_argument("--intervals-csv")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="run several policies on one trace")
    c.add_argument("trace")
    c.add_argument("--policies", default="baseline,sysscale,memscale-redist,coscale-redist")
    c.add_argument("--cfg")
    c.add_argument("--thr")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("sweep-tdp", help="mean policy gain per TDP over a corpus")
    s.add_argument("corpus")
    s.add_argument("--tdps", default="3.5,4.5,7")
    s.add_argument("--policy", default="sysscale", choices=sorted(POLICIES))
    s.add_argument("--cfg")
    s.add_argument("--thr")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep_tdp)

    sy = sub.add_parser("synth", help="synthesize a trace from a phase profile")
    sy.add_argument("profile")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("-o", "--output", required=True)
    sy.set_defaults(func=cmd_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, CalibrationError, FitError,
            InfeasibleTdpError, TransitionError, LookupError, ValueError,
            FileNotFoundError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())

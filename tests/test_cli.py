import json

import pytest

from socdvfs import corpus
from socdvfs.cli import main
from socdvfs.soc import default_config, save_config
from socdvfs.workload import load_trace, save_trace


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "soc.cfg"
    save_config(default_config(), p)
    return p


@pytest.fixture()
def trace_file(tmp_path):
    from socdvfs.sim import bundled_trace
    p = tmp_path / "cb.trace"
    save_trace(bundled_trace("compute-bound-like"), p)
    return p


@pytest.fixture()
def thr_file(tmp_path, cfg_file, trace_file):
    out = tmp_path / "thr.cfg"
    rc = main(["calibrate-thresholds", "bundled", "--bound", "0.01",
               "--cfg", str(cfg_file), "-o", str(out)])
    assert rc == 0
    return out


def test_calibrate_thresholds_from_directory(tmp_path, cfg_file, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for t in corpus.calibration_corpus(150):
        save_trace(t, corpus_dir / f"{t.name}.trace")
    out = tmp_path / "dir-thr.cfg"
    rc = main(["calibrate-thresholds", str(corpus_dir), "--bound", "0.01",
               "--cfg", str(cfg_file), "-o", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["corpus_size"] == 150
    assert json.loads(out.read_text())["degradation_bound"] == 0.01


def test_validate_ok(cfg_file, capsys):
    assert main(["validate", str(cfg_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_validate_reports_violations(tmp_path, capsys):
    bad = default_config().replace(tdp_watts=-1.0)
    p = tmp_path / "bad.cfg"
    save_config(bad, p)
    assert main(["validate", str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violations"]


def test_run_writes_report(cfg_file, trace_file, thr_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", str(trace_file), "--policy", "sysscale",
               "--cfg", str(cfg_file), "--thr", str(thr_file),
               "--seed", "7", "-o", str(out),
               "--intervals-csv", str(tmp_path / "iv.csv")])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["policy"] == "sysscale"
    assert report["performance_ratio"] > 1.0
    assert (tmp_path / "iv.csv").read_text().count("\n") == len(report["intervals"]) + 1


def test_run_writes_intervals_csv_without_output_file(cfg_file, trace_file, thr_file,
                                                      tmp_path, capsys):
    csv_path = tmp_path / "iv.csv"
    rc = main(["run", str(trace_file), "--cfg", str(cfg_file), "--thr", str(thr_file),
               "--intervals-csv", str(csv_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert csv_path.read_text().count("\n") == len(report["intervals"]) + 1


def test_compare_prints_table(cfg_file, trace_file, thr_file, capsys):
    rc = main(["compare", str(trace_file), "--cfg", str(cfg_file),
               "--thr", str(thr_file),
               "--policies", "baseline,sysscale,memscale-redist"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("policy")
    assert len(lines) == 4


def test_sweep_tdp(cfg_file, trace_file, thr_file, tmp_path, capsys):
    corpus_dir = trace_file.parent / "sweep"
    corpus_dir.mkdir()
    for t in corpus.compute_bound_corpus(2):
        save_trace(t, corpus_dir / f"{t.name}.trace")
    rc = main(["sweep-tdp", str(corpus_dir), "--tdps", "3.5,4.5",
               "--cfg", str(cfg_file), "--thr", str(thr_file)])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["tdp_watts"] for r in rows] == [3.5, 4.5]


def test_synth_round_trips_through_run(tmp_path, cfg_file, capsys):
    from importlib import resources
    profile = resources.files("socdvfs.data").joinpath("astar-like.profile.json")
    out = tmp_path / "synth.trace"
    rc = main(["synth", str(profile), "--seed", "3", "-o", str(out)])
    assert rc == 0
    trace = load_trace(out)
    assert trace.duration_ms == 4800.0
    rc = main(["run", str(out), "--policy", "baseline", "--cfg", str(cfg_file)])
    assert rc == 0


def test_missing_file_yields_machine_readable_error(capsys):
    rc = main(["run", "/nonexistent.trace"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "file-not-found"


def test_calibrate_power_cli(tmp_path, cfg_file, capsys):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"mc_dynamic_scale": 0.8 ** 2 * 1.06 / 1.6}))
    out = tmp_path / "fitted.cfg"
    assert main(["calibrate-power", str(targets), "--cfg", str(cfg_file),
                 "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["scale"] == 1.0
    assert out.exists()


def test_bad_trace_error_kind(tmp_path, capsys):
    p = tmp_path / "bad.trace"
    p.write_text("duration_ms,frac_compute,frac_lat,frac_bw,core_bw,gfx_bw,io_bw,scalability,cstate\n"
                 "30,2.0,0.0,0.0,1,0,0,0.5,C0\n")
    rc = main(["run", str(p)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "trace-error"

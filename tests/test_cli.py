import csv
import hashlib
import json
import logging
import math
import re

import numpy as np
import pytest
from conftest import run_fresh
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stabscope import cli
from stabscope.cli import main
from stabscope.damping import dsc_scan

COND_CFG = {
    "potential": {"name": "harmonic", "d": 1},
    "damping": {"name": "constant", "amplitude": 1.0},
    "ugcc": {"T_time": 1.0, "r_space": 0.25},
    "tpc": {"R_space": 1.0, "shells_space": [4.0, 9.0]},
    "dsc": {"T_time": 2.0, "R_space": 1.0, "lambdas_freq": [25.0], "n_shell_samples": 32},
}


def run_cli(tmp_path, command, cfg, out_name="out", extra=()):
    """Run one command and check the --out contract: on success the manifest
    lists exactly the artifacts on disk and times their writing; a failed
    command leaves no artifact and no manifest."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / out_name
    rc = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    on_disk = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if rc == 0:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == [name for name in on_disk if name != "manifest.json"]
        assert 0.0 <= manifest["write_time_s"] <= manifest["wall_time_s"] < math.inf
    else:
        assert on_disk == []
    return rc, out


def assert_same_artifacts(out1, out2):
    """Byte-compare two --out directories, manifests excluded; return the artifact names."""
    names = {p.name for p in out1.iterdir()} - {"manifest.json"}
    assert names == {p.name for p in out2.iterdir()} - {"manifest.json"}
    for name in sorted(names):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    return names


def test_flow_command_writes_manifested_artifacts(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "x0_space": [1.0],
        "xi0_momentum": [0.5],
        "T_time": 1.0,
        "dt_time": 1e-3,
        "record_every": 10,
    }
    rc, out = run_cli(tmp_path, "flow", cfg)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "flow"
    assert manifest["seed"] == 0
    assert manifest["threads"] == 1
    assert manifest["config_sha256"] == hashlib.sha256((tmp_path / "cfg.json").read_bytes()).hexdigest()
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "stabscope"}
    assert manifest["wall_time_s"] >= 0.0
    # every artifact on disk is accounted for in the manifest
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(on_disk) == manifest["artifacts"] == ["flow.json", "trajectory.csv"]
    flow = json.loads((out / "flow.json").read_text())
    assert abs(flow["drift"]) <= 1e-6


def test_flow_rejects_zero_record_every(tmp_path, capsys):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "x0_space": [1.0],
        "xi0_momentum": [0.5],
        "T_time": 1.0,
        "dt_time": 1e-3,
        "record_every": 0,
    }
    rc, _ = run_cli(tmp_path, "flow", cfg)
    assert rc == 2
    assert "need record_every >= 1" in capsys.readouterr().err


def test_flow_rejects_non_finite_start(tmp_path, capsys):
    # json.dumps writes NaN as a bare literal, which the config parser accepts
    rc, _ = run_cli(tmp_path, "flow", {**H1, "x0_space": [float("nan")], "xi0_momentum": [0.5]})
    assert rc == 2
    assert "need finite x0" in capsys.readouterr().err


def test_out_under_a_regular_file_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran although --out cannot be created")

    monkeypatch.setattr(cli, "flow_integrate", no_flow)
    (tmp_path / "afile").write_text("")
    rc, _ = run_cli(tmp_path, "flow", {**H1, "x0_space": [1.0], "xi0_momentum": [0.5]}, out_name="afile/sub")
    assert rc == 2
    assert "cannot write artifacts" in capsys.readouterr().err


def test_unwritable_artifact_exits_2_without_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "flow.json").mkdir(parents=True)  # a directory where the artifact goes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**H1, "x0_space": [1.0], "xi0_momentum": [0.5]}))
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "cannot write artifacts" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["conditions", "suite"])
def test_failed_suite_leaves_no_artifacts(tmp_path, capsys, monkeypatch, command):
    # the first pair's report tables used to be on disk before a later scan
    # ran; the runner's one DSC call, shared by all dampings, comes after
    # every damping's UGCC and TPC reports are built
    def failing_dsc(*args, **kwargs):
        raise RuntimeError("injected DSC failure")

    monkeypatch.setattr(cli, "_dsc_scans", failing_dsc)
    cfg = {
        "ugcc": {"T_time": 1.0, "r_space": 0.25},
        "tpc": {"R_space": 1.0, "shells_space": [4.0]},
        "dsc": {"lambdas_freq": [25.0], "n_shell_samples": 8},
    }
    if command == "conditions":
        cfg.update(potential={"name": "harmonic", "d": 2}, damping={"name": "ball"})
    rc, _ = run_cli(tmp_path, command, cfg)  # run_cli checks that --out stays empty
    assert rc == 3
    assert "injected DSC failure" in capsys.readouterr().err


def test_conditions_constant_damping_all_pass(tmp_path):
    rc, out = run_cli(tmp_path, "conditions", COND_CFG)
    assert rc == 0
    summary = json.loads((out / "conditions_summary.json").read_text())
    assert set(summary) == {"UGCC", "TPC", "DSC"}
    for entry in summary.values():
        assert entry["passed"] is True
        assert entry["infimum"] == pytest.approx(1.0)
    for check in ("ugcc", "tpc", "dsc"):
        assert (out / f"conditions_{check}.csv").exists()
        assert (out / f"conditions_{check}.json").exists()


def test_conditions_reruns_are_byte_identical(tmp_path):
    rc1, out1 = run_cli(tmp_path, "conditions", COND_CFG, out_name="a")
    rc2, out2 = run_cli(tmp_path, "conditions", COND_CFG, out_name="b")
    assert rc1 == rc2 == 0
    assert_same_artifacts(out1, out2)


def test_conditions_threads_are_byte_identical(tmp_path):
    # DSC maps its frequencies over a thread pool; the ball-average scratch
    # must belong to each call, so the thread count cannot change a byte
    cfg = {
        "potential": {"name": "harmonic", "d": 2},
        "damping": {"name": "checkerboard", "period_space": 1.0, "duty": 0.5},
        "checks": ["dsc"],
        "dsc": {
            "T_time": 2.0,
            "R_space": 1.0,
            "lambdas_freq": [25.0, 100.0, 400.0],
            "n_shell_samples": 16,
        },
    }
    rc1, out1 = run_cli(tmp_path, "conditions", cfg, out_name="t1", extra=("--threads", "1"))
    rc2, out2 = run_cli(tmp_path, "conditions", cfg, out_name="t2", extra=("--threads", "2"))
    assert rc1 == rc2 == 0
    assert {"conditions_dsc.csv", "conditions_dsc.json"} <= assert_same_artifacts(out1, out2)


@pytest.mark.parametrize("threads", [1, 2])
def test_suite_dsc_matches_one_scan_per_pair(tmp_path, threads):
    # the suite integrates each frequency's shell flow once for all pairs;
    # every pair must still read the bits of its own dsc_scan, and every
    # table must be the one `conditions` writes for that pair alone
    dsc = {"T_time": 2.0, "R_space": 1.0, "lambdas_freq": [100.0, 25.0], "n_shell_samples": 16}
    cfg = {"ugcc": {"T_time": 1.0, "r_space": 0.25}, "tpc": {"R_space": 1.0, "shells_space": [4.0]}, "dsc": dsc}
    extra = ("--threads", str(threads), "--seed", "5")
    rc, out = run_cli(tmp_path, "suite", cfg, extra=extra)
    assert rc == 0
    pot = cli.builtin_potential("harmonic", d=2)
    for label, spec in cli.CANONICAL_PAIRS:
        b = cli._build_damping(cli._Section(label, {"name": label, **spec}), 2)
        rep = dsc_scan(
            b, pot, dsc["T_time"], dsc["R_space"], dsc["lambdas_freq"], n_shell_samples=16, seed=5, threads=1
        )
        with open(out / f"conditions_{label}_dsc.csv", newline="") as fh:
            got = np.array([float(row["average"]) for row in csv.DictReader(fh)])
        assert got.tobytes() == rep.sample_values.tobytes()

        pair = {**cfg, "potential": {"name": "harmonic", "d": 2}, "damping": {"name": label, **spec}}
        rc, alone = run_cli(tmp_path, "conditions", pair, out_name=label, extra=extra)
        assert rc == 0
        for check in ("ugcc", "tpc", "dsc"):
            suite_table = (out / f"conditions_{label}_{check}.csv").read_bytes()
            assert suite_table == (alone / f"conditions_{check}.csv").read_bytes()


def test_resolvent_threads_are_byte_identical(tmp_path):
    # the frequencies run on a thread pool; each one owns its band matrix
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "ball", "radius_space": 1.0},
        "lambdas_freq": [0.7, 1.3, 2.1, 3.4],
    }
    rc1, out1 = run_cli(tmp_path, "resolvent", cfg, out_name="t1", extra=("--threads", "1"))
    rc2, out2 = run_cli(tmp_path, "resolvent", cfg, out_name="t2", extra=("--threads", "2"))
    assert rc1 == rc2 == 0
    assert assert_same_artifacts(out1, out2) == {"resolvent.csv"}


def test_dsc_limit_threads_are_byte_identical(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 2},
        "damping": {"name": "checkerboard", "period_space": 1.0, "duty": 0.5},
        "tr_ladder": [{"T_time": 1.0, "R_space": 0.5}, {"T_time": 2.0, "R_space": 1.0}],
        "lambdas_freq": [25.0, 100.0],
        "n_shell_samples": 16,
    }
    rc1, out1 = run_cli(tmp_path, "dsc-limit", cfg, out_name="t1", extra=("--threads", "1"))
    rc2, out2 = run_cli(tmp_path, "dsc-limit", cfg, out_name="t2", extra=("--threads", "2"))
    assert rc1 == rc2 == 0
    assert assert_same_artifacts(out1, out2) == {"dsc_limit.csv", "dsc_limit.json"}


def test_conditions_rejects_unknown_check(tmp_path, capsys):
    cfg = dict(COND_CFG, checks=["ugcc", "bogus"])
    rc, _ = run_cli(tmp_path, "conditions", cfg)
    assert rc == 2
    assert "unknown condition checks" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = dict(COND_CFG, typo_key=1)
    rc, _ = run_cli(tmp_path, "conditions", cfg)
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_invalid_json_is_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_rejected(tmp_path, capsys):
    rc = main(["flow", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config not readable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_flag_values_are_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    args = ["flow", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(args + ["--threads", "0"]) == 2
    assert main(args + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "threads" in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_main_calls_in_one_process_keep_their_own_flags(tmp_path):
    # the parser is built once per process; each call still reads its own flags
    cfg = {"potential": {"name": "harmonic", "d": 1}, "x0_space": [1.0], "xi0_momentum": [0.5], "T_time": 0.1}
    runs = {"first": ["--seed", "5", "--threads", "2"], "second": ["--seed", "9"]}
    for name, flags in runs.items():
        rc, _ = run_cli(tmp_path, "flow", cfg, out_name=name, extra=flags)
        assert rc == 0
    first, second = (json.loads((tmp_path / name / "manifest.json").read_text()) for name in runs)
    assert (first["seed"], first["threads"]) == (5, 2)
    assert (second["seed"], second["threads"]) == (9, 1)
    assert cli._parser() is cli._parser()


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_resolvent_requires_one_dimension(tmp_path, capsys):
    cfg = {
        "potential": {"name": "harmonic", "d": 2},
        "damping": {"name": "constant", "amplitude": 1.0},
        "lambdas_freq": [1.0],
    }
    rc, _ = run_cli(tmp_path, "resolvent", cfg)
    assert rc == 2
    assert "resolvent scan requires d = 1" in capsys.readouterr().err


def test_resolvent_command_writes_scan(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "lambdas_freq": [1.0, 2.0],
    }
    rc, out = run_cli(tmp_path, "resolvent", cfg)
    assert rc == 0
    lines = (out / "resolvent.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,sigma_min,lambda_over_sigma_min,flag"
    assert len(lines) == 3


def test_resolvent_logs_matvec_counts(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="stabscope")
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "lambdas_freq": [1.0, 2.0],
    }
    rc, _ = run_cli(tmp_path, "resolvent", cfg)
    assert rc == 0
    assert re.search(r"Lanczos matvecs per frequency median \S+, max \d+", caplog.text)


def test_resolvent_frequency_sources_are_exclusive(tmp_path, capsys):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "lambdas_freq": [1.0],
        "n_max": 4,
    }
    rc, _ = run_cli(tmp_path, "resolvent", cfg)
    assert rc == 2
    assert "exactly one of" in capsys.readouterr().err


def test_evolve_command_writes_trace_and_fit(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="stabscope")
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 128, "half_width_space": 6.0},
        "initial": {"kind": "gaussian", "width_space": 1.0},
        "T_time": 0.5,
        "record_every": 10,
    }
    rc, out = run_cli(tmp_path, "evolve", cfg)
    assert rc == 0
    assert (out / "trace.csv").read_text().startswith("t,E,D\n")
    payload = json.loads((out / "evolve.json").read_text())
    assert set(payload) == {"dt_time", "balance_coefficient", "balance_defect", "fit"}
    assert set(payload["fit"]) == {"C", "tau", "rms", "window", "flags"}
    steps = r"evolve: \d+ steps on 128 nodes in real arithmetic, \S+ node-steps/s; \d+ samples"
    assert re.search(steps, caplog.text)


def test_evolve_rejects_unknown_initial_kind(tmp_path, capsys):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 128, "half_width_space": 6.0},
        "initial": {"kind": "square"},
        "T_time": 0.5,
    }
    rc, _ = run_cli(tmp_path, "evolve", cfg)
    assert rc == 2
    assert "unknown initial data kind" in capsys.readouterr().err


def test_evolve_rejects_zero_record_every(tmp_path, capsys):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 128, "half_width_space": 6.0},
        "initial": {"kind": "gaussian", "width_space": 1.0},
        "T_time": 0.5,
        "record_every": 0,
    }
    rc, _ = run_cli(tmp_path, "evolve", cfg)
    assert rc == 2
    assert "need record_every >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0])
def test_evolve_rejects_bad_initial_width(tmp_path, capsys, monkeypatch, width):
    def no_evolve(*args, **kwargs):
        raise AssertionError("the wave was evolved before its initial width was validated")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 128, "half_width_space": 6.0},
        "initial": {"kind": "gaussian", "width_space": width},
        "T_time": 0.5,
    }
    rc, _ = run_cli(tmp_path, "evolve", cfg)
    assert rc == 2
    rule = "finite" if width == float("inf") else "> 0"
    assert f"need width {rule} in config.initial.width_space" in capsys.readouterr().err


def test_probe_command_reports_decay_rate(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "x0_space": [41.5],
        "R_width": 1.5,
        "grid": {"n_nodes": 1025, "half_width_space": 4.0, "center_space": [41.5]},
        "T_time": 0.1,
    }
    rc, out = run_cli(tmp_path, "probe", cfg)
    assert rc == 0
    payload = json.loads((out / "probe.json").read_text())
    assert 0.5 < payload["fit"]["tau"] < 1.5
    assert (out / "probe_trace.csv").exists()


TIMED_CFGS = {
    "flow": {
        "potential": {"name": "harmonic", "d": 1},
        "x0_space": [1.0],
        "xi0_momentum": [0.5],
        "T_time": 1.0,
        "dt_time": 1e-3,
    },
    "evolve": {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 64, "half_width_space": 6.0},
        "initial": {"kind": "gaussian"},
        "T_time": 0.1,
    },
    "probe": {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "x0_space": [41.5],
        "R_width": 1.5,
        "grid": {"n_nodes": 1025, "half_width_space": 4.0, "center_space": [41.5]},
        "T_time": 0.1,
    },
}


@pytest.mark.parametrize(
    "times",
    [{"T_time": float("inf")}, {"T_time": float("nan")}, {"dt_time": float("inf")}, {"dt_time": float("nan")}],
)
@pytest.mark.parametrize("command", sorted(TIMED_CFGS))
def test_non_finite_time_exits_2(tmp_path, capsys, command, times):
    # json.dumps writes inf and NaN as the bare literals Infinity and NaN, which the config parser accepts
    rc, out = run_cli(tmp_path, command, {**TIMED_CFGS[command], **times})
    assert rc == 2
    (key, value), = times.items()
    name = "dt" if key == "dt_time" else "T" if command == "flow" else "T_final"
    rule = "finite" if value == float("inf") else "> 0"
    assert f"need {name} {rule}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_spectrum_command_reports_abscissa(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "count": 8,
    }
    rc, out = run_cli(tmp_path, "spectrum", cfg)
    assert rc == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["count"] == 8
    assert payload["abscissa"] == pytest.approx(-0.5, rel=0.05)
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "re,im,residual"
    assert len(lines) == 9


BALL_1D = {"potential": {"name": "harmonic", "d": 1}, "damping": {"name": "ball", "radius_space": 1.0}}


@pytest.mark.parametrize(
    "change, match",
    [
        # these used to exit 2 with scipy's "k=0 must be greater than 0." and a bare "math domain error"
        ({"count": 0}, "need config.count >= 1"),
        ({"count": -3}, "need config.count >= 1"),
        # h = 0.8 against 2 pi / (16 sqrt(30.5)) = 0.071: this grid used to report abscissa -7.8e-14, all flags "ok"
        ({"count": 30, "grid": {"n_nodes": 16, "half_width_space": 6.0}}, "grid too coarse for frequency 5.52268"),
    ],
)
def test_spectrum_rejects_bad_count_or_coarse_grid(tmp_path, capsys, change, match):
    rc, out = run_cli(tmp_path, "spectrum", {**BALL_1D, **change})
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_spectrum_accepts_a_grid_that_resolves_its_count(tmp_path):
    # the benchmark grid: h = 0.020 against 2 pi / (16 sqrt(40.5)) = 0.062
    cfg = {**BALL_1D, "count": 40, "grid": {"n_nodes": 1201, "half_width_space": 12.0}}
    rc, out = run_cli(tmp_path, "spectrum", cfg)
    assert rc == 0
    assert json.loads((out / "spectrum.json").read_text())["count"] == 40


def test_quasimode_command_writes_mode(tmp_path):
    cfg = {"potential": {"name": "harmonic", "d": 1}, "x0_space": [20.0], "R_width": 2.0}
    rc, out = run_cli(tmp_path, "quasimode", cfg)
    assert rc == 0
    assert (out / "mode.csv").read_text().startswith("x_1,re,im\n")
    payload = json.loads((out / "quasimode.json").read_text())
    assert payload["residual_ratio"] > 0.0


def test_kinetic_sequence_command(tmp_path):
    cfg = {"potential": {"name": "harmonic", "d": 2}, "n_list": [4], "ppw_nodes": 16}
    rc, out = run_cli(tmp_path, "kinetic-sequence", cfg)
    assert rc == 0
    lines = (out / "kinetic_sequence.csv").read_text().strip().split("\n")
    assert lines[0] == "n,lam,residual_ratio,damping_pairing"
    assert len(lines) == 2
    assert lines[1].startswith("4,")


@pytest.mark.parametrize(
    "change, match",
    [
        ({"n_list": []}, "n_list must be a non-empty list"),
        pytest.param(
            {"t_width_space": float("nan")}, "need t_n > 0", id="change1-packet lengths and frequency must be positive and finite"
        ),
        pytest.param(
            {"r_width_space": 0.0}, "need r_n > 0", id="change2-packet lengths and frequency must be positive and finite"
        ),
        ({"x0_space": [float("inf"), 0.0]}, "packet base point and direction must be finite"),
        ({"direction": [float("nan"), 1.0]}, "packet base point and direction must be finite"),
        pytest.param({"ppw_nodes": 0}, "need ppw >= 1", id="change5-need ppw >= 1 points per wavelength"),
        pytest.param({"ppw_nodes": -4}, "need ppw >= 1", id="change6-need ppw >= 1 points per wavelength"),
    ],
)
def test_kinetic_sequence_rejects_bad_geometry(tmp_path, capsys, monkeypatch, change, match):
    def no_packet(*args, **kwargs):
        raise AssertionError("a packet was built before its geometry was validated")

    monkeypatch.setattr(cli, "kinetic_wavepacket", no_packet)
    cfg = {"potential": {"name": "harmonic", "d": 2}, "n_list": [4], "ppw_nodes": 16, **change}
    rc, out = run_cli(tmp_path, "kinetic-sequence", cfg)
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (out / "kinetic_sequence.csv").exists()


@pytest.mark.parametrize("x0", [[float("inf")], [float("nan")]])
def test_quasimode_rejects_non_finite_base_point(tmp_path, capsys, x0):
    cfg = {"potential": {"name": "harmonic", "d": 1}, "x0_space": x0, "R_width": 2.0}
    rc, out = run_cli(tmp_path, "quasimode", cfg)
    assert rc == 2
    assert "base point must be finite" in capsys.readouterr().err
    assert not (out / "quasimode.json").exists()


def test_tpc_witness_command(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 2},
        "damping": {"name": "checkerboard", "period_space": 1.0, "duty": 0.5},
        "n_max": 1,
    }
    rc, out = run_cli(tmp_path, "tpc-witness", cfg)
    assert rc == 0
    lines = (out / "tpc_witness.csv").read_text().strip().split("\n")
    assert lines[0] == "n,lam,ball_average,threshold,damping_pairing,residual_ratio"
    assert len(lines) == 2


def test_dsc_limit_command(tmp_path):
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "exterior", "radius_space": 1.0},
        "tr_ladder": [{"T_time": 1.0, "R_space": 0.5}, {"T_time": 2.0, "R_space": 1.0}],
        "lambdas_freq": [25.0],
        "n_shell_samples": 32,
    }
    rc, out = run_cli(tmp_path, "dsc-limit", cfg)
    assert rc == 0
    assert (out / "dsc_limit.json").exists()
    # ladder labels hold a comma, so the writer must quote them
    with open(out / "dsc_limit.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "group", "average"]
    assert len(rows) == 3
    assert all(len(row) == 3 for row in rows)
    assert [row[1] for row in rows[1:]] == ["T=1,R=0.5", "T=2,R=1"]
    assert all(re.fullmatch(r"T=[^,]+,R=[^,]+", row[1]) for row in rows[1:])


def test_dsc_limit_rejects_bad_ladder(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a rung was scanned before the ladder was validated")

    monkeypatch.setattr("stabscope.damping.dsc_scan", no_scan)
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "exterior", "radius_space": 1.0},
        "tr_ladder": [{"T_time": 1.0}],
    }
    rc, _ = run_cli(tmp_path, "dsc-limit", cfg)
    assert rc == 2
    assert "R_space" in capsys.readouterr().err
    cfg["tr_ladder"] = "nope"
    rc, _ = run_cli(tmp_path, "dsc-limit", cfg)
    assert rc == 2
    nan_last = [(1.0, 1.0), (2.0, float("nan"))]  # NaN slips past the ladder-order check
    for ladder in (nan_last, [(1.0, 0.0), (2.0, 1.0)], [(1.0, -1.0)]):
        cfg["tr_ladder"] = [{"T_time": t, "R_space": r} for t, r in ladder]
        rc, _ = run_cli(tmp_path, "dsc-limit", cfg)
        assert rc == 2
        assert "need R > 0 on every rung" in capsys.readouterr().err
    for ladder, slot in (([(1.0, 1.0), (float("inf"), 1.0)], "T"), ([(1.0, float("inf"))], "R")):
        cfg["tr_ladder"] = [{"T_time": t, "R_space": r} for t, r in ladder]
        rc, _ = run_cli(tmp_path, "dsc-limit", cfg)
        assert rc == 2
        assert f"need {slot} finite on every rung" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, match",
    [
        ({"lambdas_freq": []}, "lambdas_freq must be a non-empty list"),
        pytest.param(
            {"lambdas_freq": [float("nan")]}, "need lambdas_freq entries > 0", id="change1-lambdas_freq entries must be finite and > 0"
        ),
        pytest.param(
            {"lambdas_freq": [-5.0]}, "need lambdas_freq entries > 0", id="change2-lambdas_freq entries must be finite and > 0"
        ),
        pytest.param(
            {"lambdas_freq": [0.0]}, "need lambdas_freq entries > 0", id="change3-lambdas_freq entries must be finite and > 0"
        ),
        ({"n_shell_samples": 0}, "need n_shell_samples >= 1"),
        ({"n_shell_samples": float("inf")}, "need n_shell_samples >= 1"),
    ],
)
def test_dsc_limit_rejects_bad_samples(tmp_path, capsys, monkeypatch, change, match):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before its samples were validated")

    monkeypatch.setattr(cli, "dsc_limit_scan", no_scan)
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "exterior", "radius_space": 1.0},
        "tr_ladder": [{"T_time": 1.0, "R_space": 0.5}],
        "lambdas_freq": [25.0],
        "n_shell_samples": 32,
        **change,
    }
    rc, _ = run_cli(tmp_path, "dsc-limit", cfg)
    assert rc == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("T", [0.0, float("nan"), -2.0])
@pytest.mark.parametrize("command, check", [("conditions", "ugcc"), ("conditions", "dsc"), ("dsc-limit", None)])
def test_nonpositive_time_window_is_rejected(tmp_path, capsys, command, check, T):
    # json.dumps writes NaN as a bare literal, which the config parser accepts
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "ball", "radius_space": 1.0},
    }
    if command == "conditions":
        cfg.update({"checks": [check], check: {"T_time": T}})
    else:
        cfg.update({"tr_ladder": [{"T_time": T, "R_space": 1.0}], "lambdas_freq": [25.0]})
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == 2
    assert "need T > 0" in capsys.readouterr().err
    assert not (out / "conditions_summary.json").exists()
    assert not (out / "dsc_limit.json").exists()


@pytest.mark.parametrize(
    "section, match",
    [
        ({"dsc": {"T_time": 0}}, "need T > 0 in dsc.T_time"),
        ({"dsc": {"T_time": float("nan")}}, "need T > 0 in dsc.T_time"),
        ({"ugcc": {"r_space": 0.0}}, "need r > 0 in ugcc.r_space"),
        ({"tpc": {"R_space": -1.0}}, "need R > 0 in tpc.R_space"),
        ({"dsc": {"R_space": float("nan")}}, "need R > 0 in dsc.R_space"),
        ({"tpc": {"shells_space": []}}, "tpc.shells_space must be a non-empty list"),
        ({"dsc": {"lambdas_freq": []}}, "dsc.lambdas_freq must be a non-empty list"),
        ({"dsc": {"lambdas_freq": 25.0}}, "dsc.lambdas_freq must be a non-empty list"),
        ({"dsc": {"lambdas_freq": [float("nan")]}}, "dsc.lambdas_freq entries > 0"),
        ({"dsc": {"lambdas_freq": [-5.0]}}, "dsc.lambdas_freq entries > 0"),
        ({"dsc": {"lambdas_freq": [25.0, 0.0]}}, "dsc.lambdas_freq entries > 0"),
        ({"dsc": {"lambdas_freq": [float("inf")]}}, "dsc.lambdas_freq entries finite"),
        ({"dsc": {"n_shell_samples": 0}}, "need dsc.n_shell_samples >= 1"),
        ({"tpc": {"shells_space": [-4.0]}}, "tpc.shells_space entries > 0"),
        ({"tpc": {"shells_space": [4.0, float("nan")]}}, "tpc.shells_space entries > 0"),
        # json.dumps writes inf as the bare literal Infinity, which the config parser accepts
        ({"ugcc": {"r_space": float("inf")}}, "need r finite in ugcc.r_space"),
        ({"tpc": {"R_space": float("inf")}}, "need R finite in tpc.R_space"),
        ({"dsc": {"T_time": float("inf")}}, "need T finite in dsc.T_time"),
    ],
)
@pytest.mark.parametrize("command", ["conditions", "suite"])
def test_invalid_window_is_rejected_before_any_scan(tmp_path, capsys, monkeypatch, command, section, match):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the whole config was validated")

    for name in ("ugcc_scan", "tpc_scan", "_dsc_scans"):
        monkeypatch.setattr(cli, name, no_scan)
    cfg = dict(section)
    if command == "conditions":
        cfg["potential"] = {"name": "harmonic", "d": 2}
        cfg["damping"] = {"name": "checkerboard", "period_space": 1.0, "duty": 0.5}
    rc, _ = run_cli(tmp_path, command, cfg)
    assert rc == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "damping, match",
    [
        pytest.param(
            {"name": "checkerboard", "period_space": 0.0}, "need period > 0", id="damping0-period must be positive and finite"
        ),
        ({"name": "radial_shells", "duty": 1.5}, "duty ratio"),
        pytest.param(
            {"name": "exterior", "radius_space": -1.0}, "need radius > 0", id="damping2-radius must be positive and finite"
        ),
        ({"name": "constant", "amplitude": float("nan")}, "amplitude must be finite"),
    ],
)
def test_invalid_builtin_parameters_exit_2(tmp_path, capsys, damping, match):
    cfg = dict(COND_CFG, potential={"name": "harmonic", "d": 2}, damping=damping)
    rc, out = run_cli(tmp_path, "conditions", cfg)
    assert rc == 2
    assert match in capsys.readouterr().err
    assert not (out / "conditions_summary.json").exists()


def test_invalid_potential_weights_exit_2(tmp_path, capsys):
    cfg = dict(COND_CFG, potential={"name": "anisotropic", "d": 2, "weights": [1.0, float("nan")]})
    rc, _ = run_cli(tmp_path, "conditions", cfg)
    assert rc == 2
    assert "need weights > 0" in capsys.readouterr().err


H1 = {"potential": {"name": "harmonic", "d": 1}}
H2 = {"potential": {"name": "harmonic", "d": 2}}
H1_EXTERIOR = {**H1, "damping": {"name": "exterior"}}
EVOLVE_CFG = {
    **H1_EXTERIOR,
    "grid": {"n_nodes": 64, "half_width_space": 6.0},
    "initial": {"kind": "gaussian"},
    "T_time": 0.1,
}


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("conditions", {**COND_CFG, "tpc": {"shells_space": [{}]}}, "tpc.shells_space[0]"),
        ("conditions", {**COND_CFG, "ugcc": {"T_time": "two"}}, "ugcc.T_time"),
        ("conditions", {**COND_CFG, "dsc": {"n_shell_samples": [32]}}, "dsc.n_shell_samples"),
        ("conditions", {**COND_CFG, "potential": {"name": "harmonic", "d": None}}, "config.potential.d"),
        ("conditions", {**COND_CFG, "damping": {"name": "constant", "amplitude": {}}}, "config.damping.amplitude"),
        ("conditions", {**COND_CFG, "damping": {"name": "ball", "center_space": [None]}}, "damping.center_space[0]"),
        ("kinetic-sequence", {**H2, "n_list": [None]}, "config.n_list[0]"),
        ("kinetic-sequence", {**H2, "n_list": [float("inf")]}, "config.n_list[0]"),
        ("kinetic-sequence", {**H2, "direction": [1.0, {}]}, "config.direction[1]"),
        ("dsc-limit", {**H1_EXTERIOR, "tr_ladder": [{"T_time": None, "R_space": 1.0}]}, "config.tr_ladder[0].T_time"),
        ("flow", {**H1, "x0_space": {}, "xi0_momentum": [0.5]}, "config.x0_space"),
        ("evolve", {**EVOLVE_CFG, "grid": {"n_nodes": [None], "half_width_space": 6.0}}, "config.grid.n_nodes[0]"),
        ("evolve", {**EVOLVE_CFG, "dt_time": []}, "config.dt_time"),
        ("resolvent", {**H1_EXTERIOR, "lambdas_freq": [None]}, "config.lambdas_freq[0]"),
        ("spectrum", {**H1_EXTERIOR, "count": "40"}, "config.count"),
        ("flow", {**H1, "x0_space": [1.0], "xi0_momentum": [True]}, "config.xi0_momentum[0]"),
    ],
)
def test_wrong_json_type_exits_2(tmp_path, capsys, command, cfg, key):
    # a value of the wrong JSON type is a config error naming its key, not a traceback
    rc, _ = run_cli(tmp_path, command, cfg)
    assert rc == 2
    assert f"{key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, change, match",
    [
        ("resolvent", {"lambdas_freq": [float("inf")]}, "need finite frequencies"),
        ("resolvent", {"lambdas_freq": [1.0, float("nan")]}, "need finite frequencies"),
        pytest.param(
            "spectrum",
            {"grid": {"n_nodes": 64, "half_width_space": -10.0}},
            "need grid half-widths > 0",
            id="spectrum-change2-grid half-widths must be finite and > 0",
        ),
        pytest.param(
            "spectrum",
            {"grid": {"n_nodes": 64, "half_width_space": float("inf")}},
            "need grid half-widths finite",
            id="spectrum-change3-grid half-widths must be finite",
        ),
        ("evolve", {"grid": {"n_nodes": 64, "half_width_space": 6.0, "center_space": [float("inf")]}},
         "grid center must be 1 finite coordinate"),
        ("evolve", {**H2, "grid": {"n_nodes": 16, "half_width_space": 6.0, "center_space": [1.0]}},
         "grid center must be 2 finite coordinate"),
    ],
)
def test_bad_frequency_or_grid_exits_2(tmp_path, capsys, command, change, match):
    # json.dumps writes inf and NaN as the bare literals Infinity and NaN, which the config parser accepts
    base = {"resolvent": {**H1_EXTERIOR, "lambdas_freq": [1.0]}, "spectrum": H1_EXTERIOR, "evolve": EVOLVE_CFG}
    rc, _ = run_cli(tmp_path, command, {**base[command], **change})
    assert rc == 2
    assert match in capsys.readouterr().err



@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("kinetic-sequence", {**H2, "n_list": [4.9]}, "config.n_list[0]"),
        ("flow", {**H1, "x0_space": [1.0], "xi0_momentum": [0.5], "record_every": 2.9}, "config.record_every"),
        ("conditions", {**COND_CFG, "dsc": {"n_shell_samples": 32.5}}, "dsc.n_shell_samples"),
    ],
)
def test_non_integral_count_exits_2(tmp_path, capsys, command, cfg, key):
    # an integer key used to truncate 4.9 to 4 and run without a word
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_integral_float_reads_as_int():
    assert cli._number(2.0, "config.potential.d", int) == 2
    assert type(cli._number(2.0, "config.potential.d", int)) is int
    with pytest.raises(ValueError, match="config.potential.d must be an integer, got 2.5"):
        cli._number(2.5, "config.potential.d", int)


def _reference_cell(x) -> str:
    """The per-cell rule the column writer must keep: exact float repr, plain
    int, true/false, empty for None, str of anything else."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _reference_csv(path, header, columns) -> None:
    """The row-at-a-time writer: each cell through _reference_cell, one row per index."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(columns[0]) if columns else 0):
            writer.writerow([_reference_cell(col[i]) for col in columns])


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, NAN_PAYLOAD, 5e-324, -5e-324,
                  2.225e-308, 1e-310, 0.1, 1e16, 1.0 / 3.0)
TEXT = st.text(st.sampled_from(["a", "é", ",", '"', "\n", "\r", " ", "="]), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), TEXT,
    st.builds(np.bool_, st.booleans()), st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.float32, st.floats(width=32)),
)


@st.composite
def csv_tables(draw):
    """Columns of one length n >= 0: float64 arrays drawn from a small pool (so
    values repeat) of specials, subnormals and any floats, some as strided
    views; integer and bool arrays; float32 arrays; lists of strings with csv
    metacharacters or empty; and mixed lists of None, bools, ints, floats,
    numpy scalars and strings."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "strided", "int", "bool", "float32", "text", "empty", "mixed"]))
        if kind in ("float", "strided"):
            pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6))
            if draw(st.booleans()):  # each value beside its negation: 0.0 and -0.0 compare equal
                pool += [-x for x in pool]
            values = np.array([draw(st.sampled_from(pool)) for _ in range(n)], dtype=np.float64)
            if kind == "strided":  # the real part of a complex column, as the mode table passes it
                values = (values + 1j * draw(st.floats(allow_nan=False))).real
            columns.append(values)
        elif kind == "int":
            columns.append(draw(hnp.arrays(hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(), n)))
        elif kind == "bool":
            columns.append(draw(hnp.arrays(np.bool_, n)))
        elif kind == "float32":
            columns.append(draw(hnp.arrays(np.float32, n)))
        elif kind == "text":
            columns.append(draw(st.lists(TEXT, min_size=n, max_size=n)))
        elif kind == "empty":
            columns.append([""] * n)
        else:
            columns.append(draw(st.lists(SCALARS, min_size=n, max_size=n)))
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns


LONG = 2 * cli.CSV_BLOCK_ROWS + 1  # rows in three of the writer's row blocks


@given(csv_tables())
@example((["group"], [[""] * 3]))
@example((["t", "k", "flag", "group"], [np.resize([0.5, -0.0, math.nan, 1e-310], LONG), np.arange(LONG),
                                        np.arange(LONG) % 3 == 0, [f"shell={k % 5}" for k in range(LONG)]]))
@example((["x", "n"], [np.array([0.0, -0.0, math.nan, -0.0, NAN_PAYLOAD]), [np.float64(-0.0), 0, -0.0, None, True]]))
@example((["t", "x"], [np.array([]), np.array([], dtype=np.int64)]))
def test_csv_writer_matches_cell_rule(tmp_path_factory, table):
    # writing a column at a time keeps every byte of the row-at-a-time rule
    header, columns = table
    base = tmp_path_factory.getbasetemp()
    cli._write_csv(base / "columns.csv", header, columns)
    _reference_csv(base / "rows.csv", header, columns)
    assert (base / "columns.csv").read_bytes() == (base / "rows.csv").read_bytes()


def test_suite_command_builds_consistency_matrix(tmp_path):
    # reduced parameters to keep the run short; the checkerboard DSC verdict
    # is ladder-dependent at this size, so only the stable cells are pinned
    cfg = {
        "ugcc": {"T_time": 1.0, "r_space": 0.25},
        "tpc": {"R_space": 1.0, "shells_space": [4.0, 36.0]},
        "dsc": {"T_time": 2.0, "R_space": 1.0, "lambdas_freq": [25.0], "n_shell_samples": 32},
    }
    rc, out = run_cli(tmp_path, "suite", cfg)
    assert rc == 0
    matrix = json.loads((out / "suite_matrix.json").read_text())
    assert set(matrix) == {"constant", "exterior", "ball", "checkerboard"}
    assert all(matrix["constant"].values())
    assert all(matrix["exterior"].values())
    assert not any(matrix["ball"].values())
    assert matrix["checkerboard"]["UGCC"] is True
    assert matrix["checkerboard"]["TPC"] is False
    lines = (out / "suite_matrix.csv").read_text().strip().split("\n")
    assert lines[0] == "pair,condition,infimum,threshold,passed"
    assert len(lines) == 13
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 14


# Runs commands in a fresh interpreter and reports, as one JSON object, which
# scipy modules and band routines `import stabscope.cli` loaded and bound and,
# after each run, its exit status and whether scipy.linalg had loaded by then.
# argv[2] lists the runs as [name, command, config, *flags]; run name writes
# to argv[1]/name.
LOAD_PROBE = """
import json, sys
from pathlib import Path
from stabscope import evolution
from stabscope.cli import main

report = {
    "import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "bound": sorted(set(evolution._BAND_ROUTINES) & set(vars(evolution))),
}
out = Path(sys.argv[1])
for name, command, cfg, *flags in json.loads(sys.argv[2]):
    path = out / (name + ".json")
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(out / name), *flags])
    report[name] = [rc, "scipy.linalg" in sys.modules]
print(json.dumps(report))
"""


def test_cold_start_skips_unused_scipy_subpackages(tmp_path):
    # every CLI command pays for what `import stabscope.cli` loads: no scipy
    # module at all, and scipy.linalg only once a command needs band algebra
    flow = {
        "potential": {"name": "harmonic", "d": 1},
        "x0_space": [1.0],
        "xi0_momentum": [0.5],
        "T_time": 0.1,
        "dt_time": 1e-3,
    }
    evolve = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "grid": {"n_nodes": 64, "half_width_space": 6.0},
        "T_time": 0.2,
    }
    resolvent = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "lambdas_freq": [1.0],
    }
    runs = [
        ["flow", "flow", flow],
        ["evolve", "evolve", evolve],
        ["conditions", "conditions", COND_CFG],
        ["resolvent", "resolvent", resolvent],
    ]
    report = json.loads(run_fresh(LOAD_PROBE, tmp_path, json.dumps(runs)))
    assert report["import"] == []
    assert report["bound"] == []
    assert report["flow"] == report["evolve"] == report["conditions"] == [0, False]
    assert report["resolvent"] == [0, True]
    assert (tmp_path / "resolvent" / "resolvent.csv").is_file()


def test_first_use_binding_under_threads_keeps_the_bytes(tmp_path):
    # the first two frequencies reach _sigma_min, and so bind the band
    # routines, on two threads at once
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "ball", "radius_space": 1.0},
        "lambdas_freq": [0.7, 1.3, 2.1, 3.4],
    }
    runs = [["t2", "resolvent", cfg, "--threads", "2"], ["t1", "resolvent", cfg, "--threads", "1"]]
    report = json.loads(run_fresh(LOAD_PROBE, tmp_path, json.dumps(runs)))
    assert report["bound"] == []
    assert report["t2"] == report["t1"] == [0, True]
    assert assert_same_artifacts(tmp_path / "t2", tmp_path / "t1") == {"resolvent.csv"}

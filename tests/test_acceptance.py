"""End-to-end acceptance checks, one per criterion, each printing a verdict line."""

import json
import time

import numpy as np
import pytest

from stabscope.cli import main as cli_main
from stabscope.damping import builtin_damping
from stabscope.dynamics import linearization_deviation, sample_shell
from stabscope.evolution import (
    WaveState,
    damped_spectrum_1d,
    decay_fit,
    energy_balance_defect,
    evolve,
    p_spectrum_1d,
)
from stabscope.fields import Field, dominant_wavenumber, make_grid, wavenumber_bins
from stabscope.potentials import builtin_potential, epsilon_lambda
from stabscope.quasimodes import (
    kinetic_wavepacket,
    packet_spec,
    tpc_violation_sequence,
    turning_point_bump,
)


def _verdict(num: int, slug: str, passed: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {slug}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_flow_fidelity(flow_reference_runs):
    closed = flow_reference_runs["closed"]
    exact_x = np.cos(closed.t) + 0.5 * np.sin(closed.t)
    exact_xi = -np.sin(closed.t) + 0.5 * np.cos(closed.t)
    err = max(
        float(np.max(np.abs(closed.x[:, 0] - exact_x))),
        float(np.max(np.abs(closed.xi[:, 0] - exact_xi))),
    )
    worst_drift = max(abs(drift) for _, drift in flow_reference_runs["drifts"])
    wall = flow_reference_runs["wall_time_s"]
    ok = err <= 1e-6 and worst_drift <= 1e-6 and wall < 5.0
    line = _verdict(
        1, "flow-fidelity", ok,
        f"closed-form err {err:.2e}, worst drift {worst_drift:.2e}, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_02_shell_linearization_bounds():
    t0 = time.perf_counter()
    worst_frac = 1.0
    worst_excess = 0.0
    pots = (builtin_potential("harmonic", d=1), builtin_potential("power", d=1, s=3.0))
    for pot in pots:
        profile = epsilon_lambda(pot, [25.0, 100.0, 400.0])
        rng = np.random.default_rng(0)
        for lam in (25.0, 100.0, 400.0):
            xs, xis = sample_shell(pot, lam, 100, rng)
            rep = linearization_deviation(pot, xs, xis / lam, 2.0, lam, profile)
            worst_frac = min(worst_frac, float(np.mean(rep.eta_ok & rep.y_ok)))
            worst_excess = max(
                worst_excess,
                float(np.max(rep.dev_eta) / rep.bound_eta),
                float(np.max(rep.dev_y) / rep.bound_y),
            )
    wall = time.perf_counter() - t0
    ok = worst_frac >= 0.95 and worst_excess <= 1.05 and wall < 120.0
    line = _verdict(
        2, "shell-linearization-bounds", ok,
        f"min in-bound fraction {worst_frac:.2f}, max dev/bound {worst_excess:.3f}, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_03_condition_equivalence_matrix(canonical_conditions):
    expected = {
        "constant": {"UGCC": True, "TPC": True, "DSC": True},
        "exterior": {"UGCC": True, "TPC": True, "DSC": True},
        "ball": {"UGCC": False, "TPC": False, "DSC": False},
        "checkerboard": {"UGCC": True, "TPC": False, "DSC": False},
    }
    got = {
        name: {cond: rep.passed for cond, rep in conds.items()}
        for name, conds in canonical_conditions["reports"].items()
    }
    equivalent = all(
        row["DSC"] == (row["UGCC"] and row["TPC"]) for row in got.values()
    )
    wall = canonical_conditions["wall_time_s"]
    ok = got == expected and equivalent and wall < 600.0
    cells = ", ".join(
        f"{name}:{''.join('P' if row[c] else 'F' for c in ('UGCC', 'TPC', 'DSC'))}"
        for name, row in got.items()
    )
    line = _verdict(
        3, "condition-equivalence-matrix", ok,
        f"{cells} (order UGCC/TPC/DSC), DSC == UGCC and TPC: {equivalent}, wall {wall:.0f}s",
    )
    assert ok, line


def test_criterion_04_turning_point_defect_bound():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=1)
    x0s = (20.0, 40.0, 80.0)
    residuals, constants = [], []
    for x0 in x0s:
        _, rep = turning_point_bump(pot, [x0], 2.0)
        residuals.append(rep.residual_ratio)
        constants.append(
            rep.residual_ratio
            / (rep.details["curvature_term"] + rep.details["gradient_term"])
        )
    stable = max(constants) / min(constants)
    monotone = all(residuals[i + 1] <= 1.10 * residuals[i] for i in range(2))
    wall = time.perf_counter() - t0
    ok = stable <= 2.0 and monotone and wall < 60.0
    line = _verdict(
        4, "turning-point-defect-bound", ok,
        f"residuals {', '.join(f'{r:.4f}' for r in residuals)}, "
        f"constant spread {stable:.2f}x, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_05_kinetic_packet_sequence():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=2)
    residuals = []
    worst_bins = 0.0
    for n in (4, 6, 8):
        spec = packet_spec(pot, n)
        f, rep = kinetic_wavepacket(pot, spec)
        residuals.append(rep.residual_ratio)
        off = np.abs(dominant_wavenumber(f) - spec.momentum) / wavenumber_bins(f.grid)
        worst_bins = max(worst_bins, float(np.max(off)))
    decreasing = residuals[0] > residuals[1] > residuals[2]
    wall = time.perf_counter() - t0
    ok = decreasing and worst_bins <= 3.0 and wall < 300.0
    line = _verdict(
        5, "kinetic-packet-sequence", ok,
        f"residuals {', '.join(f'{r:.4f}' for r in residuals)}, "
        f"peak offset {worst_bins:.2f} bins, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_06_instability_witness_sequence():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=2)
    checker = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    reports = tpc_violation_sequence(pot, checker, 6)
    pairings = [rep.damping_pairing for rep in reports]
    residuals = [rep.residual_ratio for rep in reports]
    halving = all(pairings[i + 1] <= 0.5 * pairings[i] for i in range(len(pairings) - 1))
    thin = all(rep.details["ball_average"] <= rep.details["threshold"] for rep in reports)
    # An envelope held in a ball of radius R/sqrt(lam) keeps its residual
    # above j01^2 / (2 R^2), so no witness with R = 2 or 3 gets below 0.2; what
    # the paper needs is a defect that vanishes, here like R^-2 at a stable
    # constant, so the bar applies to the last witness only.
    decreasing = all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    scaled = [rep.details["R"] ** 2 * rep.residual_ratio for rep in reports]
    spread = max(scaled) / min(scaled)
    wall = time.perf_counter() - t0
    ok = (
        halving and thin and decreasing and spread <= 2.0
        and residuals[-1] < 0.2 and wall < 300.0
    )
    line = _verdict(
        6, "instability-witness-sequence", ok,
        f"pairings max {max(pairings):.1e}, "
        f"residuals {', '.join(f'{r:.3f}' for r in residuals)}, "
        f"R_n^2 * residual spread {spread:.3f}x, last residual {residuals[-1]:.3f}, "
        f"wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_07_energy_balance_convergence():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=1)
    b = builtin_damping("constant", d=1, amplitude=1.0)
    grid = make_grid(1, 256, 9.0)
    state = WaveState(
        Field(grid, np.exp(-grid.axis(0) ** 2 / 2.0)), Field(grid, np.zeros(256))
    )
    defects = [
        energy_balance_defect(evolve(pot, b, state, 10.0, dt))
        for dt in (4e-3, 2e-3, 1e-3, 5e-4)
    ]
    ratios = [defects[i] / defects[i + 1] for i in range(3)]
    wall = time.perf_counter() - t0
    ok = all(r >= 3.5 for r in ratios) and wall < 120.0
    line = _verdict(
        7, "energy-balance-convergence", ok,
        f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)}, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_08_constant_damping_decay_rate():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=1)
    b = builtin_damping("constant", d=1, amplitude=1.0)
    grid = make_grid(1, 512, 9.0)
    state = WaveState(
        Field(grid, np.exp(-grid.axis(0) ** 2 / 2.0)), Field(grid, np.zeros(512))
    )
    fit = decay_fit(evolve(pot, b, state, 10.0, 1e-3))
    wall = time.perf_counter() - t0
    ok = 0.9 <= fit.tau <= 1.1 and wall < 60.0
    line = _verdict(
        8, "constant-damping-decay-rate", ok,
        f"fitted tau {fit.tau:.4f} vs modal rate 1, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_09_resolvent_dichotomy(resolvent_suite):
    const = resolvent_suite["scans"]["constant"]
    ball = resolvent_suite["scans"]["ball"]
    bounded = float(np.max(const.ratio) / np.median(const.ratio))
    lam, ratio = ball.lambdas, ball.ratio
    # every pair of swept frequencies at least a decade apart, low index first
    lo, hi = np.nonzero(lam[None, :] >= 10.0 * lam[:, None])
    decade_gain = float(np.min(ratio[hi] / ratio[lo]))
    k = len(ratio) // 10
    decile_growth = float(np.max(ratio[-k:]) / np.max(ratio[:k]))
    wall = resolvent_suite["wall_time_s"]
    ok = bounded <= 10.0 and decade_gain >= 10.0 and wall < 600.0
    line = _verdict(
        9, "resolvent-dichotomy", ok,
        f"b=1 max/median {bounded:.3f} (needs <= 10), interval-damping gain "
        f"{decade_gain:.2f}x at least over {lo.size} frequency pairs a decade apart "
        f"(needs >= 10x), {decile_growth:.2f}x between index deciles, wall {wall:.0f}s",
    )
    assert ok, line


def test_criterion_10_spectral_cross_check():
    t0 = time.perf_counter()
    pot = builtin_potential("harmonic", d=1)
    grid = make_grid(1, 1201, 12.0)
    mu2 = p_spectrum_1d(pot, grid, 40)
    result = damped_spectrum_1d(
        pot, builtin_damping("constant", d=1, amplitude=1.0), grid, 40
    )
    z = result.values
    quad = float(
        np.max(np.min(np.abs(z[:, None] ** 2 + z[:, None] + mu2[None, :]), axis=1))
    )
    wall = time.perf_counter() - t0
    ok = (
        quad <= 1e-6
        and result.abscissa == pytest.approx(-0.5, rel=0.05)
        and wall < 120.0
    )
    line = _verdict(
        10, "spectral-cross-check", ok,
        f"max quadratic residual {quad:.2e}, abscissa {result.abscissa:.4f}, wall {wall:.1f}s",
    )
    assert ok, line


def test_criterion_11_suite_reproducibility(tmp_path):
    cfg = {
        "ugcc": {"T_time": 1.0, "r_space": 0.25},
        "tpc": {"R_space": 1.0},
        "dsc": {"T_time": 2.0, "R_space": 1.0, "lambdas_freq": [25.0], "n_shell_samples": 32},
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(
            ["suite", "--config", str(cfg_path), "--out", str(out),
             "--threads", "1", "--seed", "0"]
        )
        assert rc == 0
        outs.append(out)
    names = sorted({p.name for p in outs[0].iterdir()} - {"manifest.json"})
    mismatched = [
        name for name in names
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    same_plan = (
        manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
        and manifests[0]["artifacts"] == manifests[1]["artifacts"]
    )
    ok = bool(names) and not mismatched and same_plan
    line = _verdict(
        11, "suite-reproducibility", ok,
        f"{len(names)} artifacts byte-identical across reruns"
        + (f", mismatched: {mismatched}" if mismatched else "")
        + " (manifest compared on hash and artifact list; wall time varies)",
    )
    assert ok, line

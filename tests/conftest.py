"""Shared fixtures: the heavy condition matrix and resolvent sweeps run once."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import stabscope
from stabscope.cli import main
from stabscope.damping import builtin_damping, dsc_scan, tpc_scan, ugcc_scan
from stabscope.evolution import resolvent_scan
from stabscope.potentials import builtin_potential

# Property tests replay the same examples on every run and take no per-example
# deadline, so tier-1 stays deterministic on machines whose core speed drifts.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
# Ten times the examples, for a longer run of chosen properties (--hypothesis-profile deep).
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=1000)
settings.load_profile("tier1")

# The four reference damping patterns, in fixed order.
CANONICAL_2D = (
    ("constant", {"amplitude": 1.0}),
    ("exterior", {"radius": 1.0}),
    ("ball", {"radius": 1.0}),
    ("checkerboard", {"period": 1.0, "duty": 0.5}),
)

# d=1 counterparts for the resolvent sweeps; the checkerboard period is wider
# so its dead cells dominate the shrinking sampling balls.
CANONICAL_1D = (
    ("constant", {"amplitude": 1.0}),
    ("exterior", {"radius": 1.0}),
    ("ball", {"radius": 1.0}),
    ("checkerboard", {"period": 2.0, "duty": 0.5}),
)


def run_fresh(script, *args, env=None):
    """Run a Python script in a fresh interpreter on this stabscope; return its stdout.

    The script sees args as sys.argv[1:] and env on top of this process's
    environment.  Import-time behaviour (which modules load, what binds on
    first use, how many threads BLAS starts) is only observable there, since
    the test process has long since imported everything.
    """
    src = str(Path(stabscope.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **(env or {}), PYTHONPATH=pythonpath)
    argv = [sys.executable, "-c", script, *map(str, args)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def command_artifacts(tmp_path):
    """Run one stabscope command on a config dict; return its --out directory."""

    def run(command, cfg):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    return run


@pytest.fixture(scope="session")
def harmonic_1d():
    return builtin_potential("harmonic", d=1)


@pytest.fixture(scope="session")
def harmonic_2d():
    return builtin_potential("harmonic", d=2)


@pytest.fixture(scope="session")
def power3_1d():
    return builtin_potential("power", d=1, s=3.0)


@pytest.fixture(scope="session")
def power3_2d():
    return builtin_potential("power", d=2, s=3.0)


@pytest.fixture(scope="session")
def flow_reference_runs(harmonic_1d):
    """Closed-form comparison and long-horizon drift runs for all builtins."""
    from stabscope.dynamics import flow_integrate

    t0 = time.perf_counter()
    closed = flow_integrate(
        harmonic_1d, np.array([1.0]), np.array([0.5]), 10.0, 1e-4
    )
    pots = [
        builtin_potential("harmonic", d=1),
        builtin_potential("harmonic", d=2),
        builtin_potential("power", d=1, s=3.0),
        builtin_potential("power", d=2, s=3.0),
        builtin_potential("anisotropic", d=2, weights=[1.0, 2.5]),
    ]
    drifts = []
    for pot in pots:
        x0, xi0 = np.array([0.7, -0.4][: pot.d]), np.array([0.3, 1.1][: pot.d])
        traj = flow_integrate(pot, x0, xi0, 100.0, 1e-3)
        drifts.append((pot, traj.drift))
    return {
        "closed": closed,
        "drifts": drifts,
        "wall_time_s": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def canonical_conditions(harmonic_2d):
    """UGCC/TPC/DSC reports for the canonical dampings on the d=2 harmonic well."""
    t0 = time.perf_counter()
    reports = {}
    for name, params in CANONICAL_2D:
        b = builtin_damping(name, d=2, **params)
        reports[name] = {
            "UGCC": ugcc_scan(b, 2.0, 0.25),
            "TPC": tpc_scan(b, harmonic_2d, 1.0),
            "DSC": dsc_scan(
                b, harmonic_2d, 2.0, 1.0, [25.0, 100.0, 400.0],
                n_shell_samples=256, seed=0,
            ),
        }
    return {"reports": reports, "wall_time_s": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def resolvent_suite(harmonic_1d):
    """Resolvent sweeps over lambda_n = sqrt(n + 1/2), n <= 200, d=1 dampings."""
    lambdas = np.sqrt(np.arange(201) + 0.5)
    t0 = time.perf_counter()
    scans = {}
    for name, params in CANONICAL_1D:
        b = builtin_damping(name, d=1, **params)
        scans[name] = resolvent_scan(harmonic_1d, b, lambdas)
    return {
        "lambdas": lambdas,
        "scans": scans,
        "wall_time_s": time.perf_counter() - t0,
    }


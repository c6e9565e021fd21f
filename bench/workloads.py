"""The four workloads: the CLI commands of one pass, their configs and checks.

A pass runs every command of its workload once, in order, through
``stabscope.cli.main`` with ``--threads 1`` and the run's ``--seed``.  The
``group`` of a command names the end-to-end sub-timing it adds to (printed
as ``<group>_s``) and the tracer group its per-layer work is booked under.
Warm-up commands are small versions of the same commands, run once before
timing so that lazy imports and node caches are filled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import checks


@dataclass(frozen=True)
class Command:
    tag: str
    command: str
    group: str
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    warmup: tuple
    load: object
    reference: object
    verify: object
    perturb: object
    perturbation: str


H1 = {"name": "harmonic", "d": 1}
H2 = {"name": "harmonic", "d": 2}

# ---------------------------------------------------------------------------
# condition-matrix: the canonical suite, DSC at the largest default frequency

SUITE_DAMPINGS = {  # the pairs stabscope.cli runs in `suite`, written out for the references
    "constant": {},
    "exterior": {"radius_space": 1.0},
    "ball": {"radius_space": 1.0},
    "checkerboard": {"period_space": 1.0, "duty": 0.5},
}
SUITE = Command("suite", "suite", "suite", {"dsc": {"lambdas_freq": [400.0]}})
CONDITIONS_WARMUP = Command(
    "warm_conditions",
    "conditions",
    "suite",
    {
        "potential": H2,
        "damping": {"name": "checkerboard"},
        "checks": ["tpc", "dsc"],
        "dsc": {"lambdas_freq": [25.0], "n_shell_samples": 8},
    },
)

# ---------------------------------------------------------------------------
# resolvent-sweep: lam_n = sqrt(n + 1/2), one command per (damping, frequency),
# on the grid of the full n <= 200 sweep

RESOLVENT_N = (0, 2, 5, 20, 50, 200)
# 16 points per wavelength at lam_max = sqrt(200.5) on the Dirichlet box
# |x| <= sqrt(8) lam_max, where V = 4 lam_max^2: the 2890-node grid of the full sweep
RESOLVENT_GRID = {"n_nodes": 2890, "half_width_space": 40.05}
DAMPINGS_1D = {
    "constant": ({}, "resolvent_clustered"),
    "exterior": ({"radius_space": 1.0}, "resolvent_clustered"),
    "ball": ({"radius_space": 1.0}, "resolvent_separated"),
    "checkerboard": ({"period_space": 2.0, "duty": 0.5}, "resolvent_separated"),
}
SPECTRUM_GRID = {"n_nodes": 1201, "half_width_space": 12.0}


def _resolvent(name, n, tag_prefix="resolvent"):
    params, group = DAMPINGS_1D[name]
    config = {
        "potential": H1,
        "damping": {"name": name, **params},
        "lambdas_freq": [math.sqrt(n + 0.5)],
        "grid": RESOLVENT_GRID,
    }
    return Command(f"{tag_prefix}_{name}_n{n}", "resolvent", group, config)


def _spectrum(name, count=40, tag_prefix="spectrum"):
    config = {
        "potential": H1,
        "damping": {"name": name, **DAMPINGS_1D[name][0]},
        "count": count,
        "grid": SPECTRUM_GRID,
    }
    return Command(f"{tag_prefix}_{name}", "spectrum", "spectrum", config)


RESOLVENT_COMMANDS = tuple(_resolvent(name, n) for name in DAMPINGS_1D for n in RESOLVENT_N) + (
    _spectrum("constant"),
    _spectrum("ball"),
)
RESOLVENT_WARMUP = (_resolvent("ball", 0, "warm"), _spectrum("ball", 4, "warm"))

# ---------------------------------------------------------------------------
# wave-evolution: 2D leapfrog on a 97^2 grid, and criterion 08's 1D run


def _evolve_2d(name, damping, T=6.0, n=97):
    config = {
        "potential": H2,
        "damping": damping,
        "grid": {"n_nodes": n, "half_width_space": 6.0},
        "initial": {"kind": "gaussian", "width_space": 0.5},
        "T_time": T,
    }
    return Command(f"evolve_2d_{name}", "evolve", "evolve_2d", config)


EVOLVE_COMMANDS = (
    _evolve_2d("constant", {"name": "constant"}),
    _evolve_2d("checkerboard", {"name": "checkerboard", "period_space": 1.0, "duty": 0.5}),
    Command(
        "evolve_1d_constant",
        "evolve",
        "evolve_1d",
        {
            "potential": H1,
            "damping": {"name": "constant"},
            "grid": {"n_nodes": 512, "half_width_space": 9.0},
            "initial": {"kind": "gaussian", "width_space": 1.0},
            "T_time": 10.0,
            "dt_time": 1e-3,
        },
    ),
)
EVOLVE_WARMUP = (_evolve_2d("warm", {"name": "constant"}, T=0.1, n=33),)

# ---------------------------------------------------------------------------
# flow-witness: criterion 01's reference runs and the two witness sequences


def _flow(tag, potential, x0, xi0, T, dt):
    config = {
        "potential": potential,
        "x0_space": x0,
        "xi0_momentum": xi0,
        "T_time": T,
        "dt_time": dt,
        "record_every": 10,
    }
    return Command(tag, "flow", "flow", config)


BUILTINS = (
    H1,
    H2,
    {"name": "power", "d": 1, "s_exponent": 3.0},
    {"name": "power", "d": 2, "s_exponent": 3.0},
    {"name": "anisotropic", "d": 2, "weights": [1.0, 2.5]},
)
FLOW_COMMANDS = (
    (_flow("flow_closed_form", H1, [1.0], [0.5], 10.0, 1e-4),)
    + tuple(
        _flow(f"flow_{pot['name']}_{pot['d']}d", pot, [0.7, -0.4][: pot["d"]], [0.3, 1.1][: pot["d"]], 25.0, 1e-3)
        for pot in BUILTINS
    )
    + (
        Command(
            "tpc_witness",
            "tpc-witness",
            "witness",
            {"potential": H2, "damping": {"name": "checkerboard", "period_space": 1.0, "duty": 0.5}, "n_max": 6},
        ),
        Command("kinetic_sequence", "kinetic-sequence", "witness", {"potential": H2, "n_list": [4, 6, 8]}),
    )
)
FLOW_WARMUP = (
    _flow("warm_flow", H2, [0.7, -0.4], [0.3, 1.1], 1.0, 1e-3),
    Command("warm_kinetic", "kinetic-sequence", "witness", {"potential": H2, "n_list": [4]}),
)

# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "condition-matrix",
            (SUITE,),
            (CONDITIONS_WARMUP,),
            lambda out, cmds: checks.load_conditions(out, cmds[0]),
            lambda data, seed: checks.reference_conditions(data, SUITE_DAMPINGS),
            checks.verify_conditions,
            checks.perturb_conditions,
            "one flipped verdict",
        ),
        Workload(
            "resolvent-sweep",
            RESOLVENT_COMMANDS,
            RESOLVENT_WARMUP,
            checks.load_resolvent,
            checks.reference_resolvent,
            checks.verify_resolvent,
            checks.perturb_resolvent,
            "sigma_min scaled by 1 + 1e-4",
        ),
        Workload(
            "wave-evolution",
            EVOLVE_COMMANDS,
            EVOLVE_WARMUP,
            checks.load_evolution,
            lambda data, seed: None,
            checks.verify_evolution,
            checks.perturb_evolution,
            "decay time off by 20%",
        ),
        Workload(
            "flow-witness",
            FLOW_COMMANDS,
            FLOW_WARMUP,
            checks.load_flow,
            lambda data, seed: None,
            checks.verify_flow,
            checks.perturb_flow,
            "flow error of 1e-5",
        ),
    )
}


def run_checks(workload: Workload, out, seed: int) -> list:
    """Failures of the real output, plus one if the perturbed copy passes."""
    data = workload.load(out, workload.commands)
    ref = workload.reference(data, seed)
    fails = workload.verify(data, ref)
    if not workload.verify(workload.perturb(data), ref):
        fails.append(f"self-test: checks accepted a perturbed output ({workload.perturbation})")
    return fails



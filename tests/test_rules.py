"""One window rule, one count rule and one point rule, at every public entry point.

Every length, time, step, level and frequency must be finite and > 0
(``potentials._require_window``); every number of steps, samples, modes and
terms must be an integer >= 1 (``potentials._require_count``); every flow
start state, every ray and every field that the stencil, the time stepper or
a field functional reads must have finite entries, in the real and the
imaginary part.  Points, rays, wave states and both fields of ``inner`` are
checked by ``potentials._require_finite``; ``apply_P`` reads the rule off
max |f| and the other field functionals off the sum of w |f|^2, which a NaN
or inf node reaches without a floating-point warning.  Each entry point
below must reject a bad value with a ValueError naming the parameter before a
result is formed: a RuntimeWarning on the way fails the test, since the
suite runs with RuntimeWarning as an error (pyproject).
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from stabscope.damping import (
    builtin_damping,
    default_ray_family,
    dsc_limit_scan,
    dsc_scan,
    flow_average,
    mollify_at,
    tpc_scan,
    ugcc_scan,
    unit_ball_nodes,
)
from stabscope.dynamics import default_dt, flow_integrate, flow_positions, linearization_deviation, sample_shell
from stabscope.evolution import (
    WaveState,
    damped_spectrum_1d,
    evolve,
    p_spectrum_1d,
    quasimode_probe,
    resolvent_grid,
)
from stabscope.fields import (
    Field,
    Grid,
    apply_P,
    check_resolution,
    damping_pairing,
    inner,
    l2_norm,
    make_grid,
    mass_in_ball,
    residual_ratio,
    snap_to_grid,
)
from stabscope.potentials import builtin_potential, epsilon_lambda, sublevel_radius, unit_directions
from stabscope.quasimodes import WavePacketSpec, packet_grid, packet_spec, tpc_violation_sequence, turning_point_bump

H1 = builtin_potential("harmonic", d=1)
B1 = builtin_damping("exterior", d=1, radius=1.0)
GRID = make_grid(1, 64, 6.0)
PACKET = Field(GRID, np.exp(-GRID.axis(0) ** 2))
STATE = WaveState(PACKET, Field(GRID, np.zeros(64)))
X0, XI0 = np.ones((2, 1)), np.zeros((2, 1))
SPEC = dict(d=1, x_n=(0.0,), nu=(1.0,), t_n=2.0, r_n=0.5, n=4, lam_n=100.0)


def _eps():
    return epsilon_lambda(H1, [25.0])


def _rng():
    return np.random.default_rng(0)


def _poked(node, v):
    """PACKET with one node set to v: node 32 is interior, node 0 on the edge."""
    values = PACKET.values.copy()
    values[node] = v
    return Field(GRID, values)


# entry point and parameter -> (name in the message, call with the bad value)
WINDOWS = {
    "builtin_potential weights": ("weights", lambda v: builtin_potential("anisotropic", d=2, weights=[1.0, v])),
    "epsilon_lambda lambdas": ("lambdas", lambda v: epsilon_lambda(H1, [25.0, v])),
    "sublevel_radius level": ("level", lambda v: sublevel_radius(H1, v)),
    "default_dt lam": ("lam", lambda v: default_dt(v)),
    "flow_integrate T": ("T", lambda v: flow_integrate(H1, [1.0], [0.0], v, 1e-3)),
    "flow_integrate dt": ("dt", lambda v: flow_integrate(H1, [1.0], [0.0], 1.0, v)),
    "flow_positions dt": ("dt", lambda v: flow_positions(H1, X0, XI0, np.array([-0.5, 0.5]), v)),
    "linearization_deviation lam": ("lam", lambda v: linearization_deviation(H1, [0.0], [1.0], 2.0, v, _eps())),
    "linearization_deviation dt": ("dt", lambda v: linearization_deviation(H1, [0.0], [1.0], 2.0, 25.0, _eps(), dt=v)),
    "sample_shell lam": ("lam", lambda v: sample_shell(H1, v, 8, _rng())),
    "builtin_damping exterior radius": ("radius", lambda v: builtin_damping("exterior", d=1, radius=v)),
    "builtin_damping ball radius": ("radius", lambda v: builtin_damping("ball", d=2, radius=v)),
    "builtin_damping checkerboard period": ("period", lambda v: builtin_damping("checkerboard", d=2, period=v)),
    "mollify_at r": ("mollification radius r", lambda v: mollify_at(B1, v, [[2.0]])),
    "mollify_at r per point": ("mollification radius r", lambda v: mollify_at(B1, [0.5, v], [[2.0], [3.0]])),
    "default_ray_family box": ("box", lambda v: default_ray_family(2, box=v)),
    "ugcc_scan T": ("T", lambda v: ugcc_scan(B1, v, 0.25)),
    "ugcc_scan r": ("r", lambda v: ugcc_scan(B1, 1.0, v)),
    "tpc_scan R": ("R", lambda v: tpc_scan(B1, H1, v)),
    "flow_average T": ("T", lambda v: flow_average(B1, H1, X0, XI0, v, 1.0, 25.0)),
    "flow_average R": ("R", lambda v: flow_average(B1, H1, X0, XI0, 1.0, v, 25.0)),
    "flow_average lam": ("lam", lambda v: flow_average(B1, H1, X0, XI0, 1.0, 1.0, v)),
    "dsc_scan T": ("T", lambda v: dsc_scan(B1, H1, v, 1.0, [25.0], n_shell_samples=8)),
    "dsc_scan R": ("R", lambda v: dsc_scan(B1, H1, 1.0, v, [25.0], n_shell_samples=8)),
    "dsc_scan lambdas": ("frequency lambda", lambda v: dsc_scan(B1, H1, 1.0, 1.0, [25.0, v], n_shell_samples=8)),
    "dsc_limit_scan T": ("T", lambda v: dsc_limit_scan(B1, H1, [(v, 1.0)], [25.0], n_shell_samples=8)),
    "dsc_limit_scan R": ("R", lambda v: dsc_limit_scan(B1, H1, [(1.0, v)], [25.0], n_shell_samples=8)),
    "Grid ls": ("grid half-widths", lambda v: Grid(1, (16,), (v,))),
    "make_grid l": ("grid half-widths", lambda v: make_grid(2, 16, [1.0, v])),
    "check_resolution lam": ("lam", lambda v: check_resolution(GRID, v)),
    "residual_ratio lam": ("lam", lambda v: residual_ratio(H1, PACKET, v)),
    "evolve T_final": ("T_final", lambda v: evolve(H1, B1, STATE, v, 1e-3)),
    "evolve dt": ("dt", lambda v: evolve(H1, B1, STATE, 0.01, v)),
    "quasimode_probe lam": ("lam", lambda v: quasimode_probe(H1, B1, PACKET, v, 0.1)),
    "quasimode_probe T_final": ("T_final", lambda v: quasimode_probe(H1, B1, PACKET, 1.0, v)),
    "quasimode_probe dt": ("dt", lambda v: quasimode_probe(H1, B1, PACKET, 1.0, 0.1, dt=v)),
    "resolvent_grid lam_max": ("lam_max", lambda v: resolvent_grid(H1, v)),
    "WavePacketSpec t_n": ("t_n", lambda v: WavePacketSpec(**{**SPEC, "t_n": v})),
    "WavePacketSpec r_n": ("r_n", lambda v: WavePacketSpec(**{**SPEC, "r_n": v})),
    "WavePacketSpec lam_n": ("lam_n", lambda v: WavePacketSpec(**{**SPEC, "lam_n": v})),
    "packet_spec t_n": ("t_n", lambda v: packet_spec(H1, 4, t_n=v)),
    "packet_spec r_n": ("r_n", lambda v: packet_spec(H1, 4, r_n=v)),
    "turning_point_bump R": ("R", lambda v: turning_point_bump(H1, [20.0], v)),
}

COUNTS = {
    "flow_integrate record_every": ("record_every", lambda n: flow_integrate(H1, [1.0], [0.0], 0.01, 1e-3, record_every=n)),
    "sample_shell n": ("n", lambda n: sample_shell(H1, 25.0, n, _rng())),
    "unit_directions n": ("n", lambda n: unit_directions(2, n)),
    "unit_ball_nodes n": ("n", lambda n: unit_ball_nodes(2, n)),
    "default_ray_family n_per_axis": ("n_per_axis", lambda n: default_ray_family(2, n_per_axis=n)),
    "default_ray_family n_dirs": ("n_dirs", lambda n: default_ray_family(2, n_dirs=n)),
    "dsc_scan n_shell_samples": ("n_shell_samples", lambda n: dsc_scan(B1, H1, 1.0, 1.0, [25.0], n_shell_samples=n)),
    "dsc_limit_scan n_shell_samples": (
        "n_shell_samples",
        lambda n: dsc_limit_scan(B1, H1, [(1.0, 1.0)], [25.0], n_shell_samples=n),
    ),
    "evolve record_every": ("record_every", lambda n: evolve(H1, B1, STATE, 0.01, 1e-3, record_every=n)),
    "p_spectrum_1d count": ("count", lambda n: p_spectrum_1d(H1, GRID, n)),
    "damped_spectrum_1d count": ("count", lambda n: damped_spectrum_1d(H1, B1, GRID, n)),
    "WavePacketSpec n": ("n", lambda n: WavePacketSpec(**{**SPEC, "n": n})),
    "packet_spec n": ("n", lambda n: packet_spec(H1, n)),
    "packet_grid ppw": ("ppw", lambda n: packet_grid(packet_spec(H1, 1), ppw=n)),
    "tpc_violation_sequence n_max": ("n_max", lambda n: tpc_violation_sequence(H1, B1, n)),
    "Grid ns": ("grid point count", lambda n: Grid(1, (n,), (1.0,))),
    "make_grid n": ("grid point count", lambda n: make_grid(2, [16, n], 1.0)),
}

# entry point and argument -> (name in the message, call with one bad coordinate);
# the flow layer names the start state (x0, xi0) it integrates from, the wave
# layer the initial state or the field it applies the stencil to
POINTS = {
    "flow_integrate x0": ("x0", lambda v: flow_integrate(H1, [v], [0.5], 1.0, 1e-3)),
    "flow_integrate xi0": ("xi0", lambda v: flow_integrate(H1, [1.0], [v], 1.0, 1e-3)),
    "flow_positions x0": ("x0", lambda v: flow_positions(H1, [[1.0], [v]], XI0, np.array([-0.5, 0.5]), 1e-3)),
    "flow_positions xi0": ("xi0", lambda v: flow_positions(H1, X0, [[0.0], [v]], np.array([-0.5, 0.5]), 1e-3)),
    "flow_average x0": ("x0", lambda v: flow_average(B1, H1, [[v]], [[0.5]], 1.0, 1.0, 25.0)),
    "flow_average xi0": ("xi0", lambda v: flow_average(B1, H1, [[1.0]], [[v]], 1.0, 1.0, 25.0)),
    "linearization_deviation y": ("x0", lambda v: linearization_deviation(H1, [v], [1.0], 2.0, 25.0, _eps())),
    "linearization_deviation eta": ("xi0", lambda v: linearization_deviation(H1, [0.0], [v], 2.0, 25.0, _eps())),
    "ugcc_scan base point": ("base points", lambda v: ugcc_scan(B1, 1.0, 0.25, rays=[([0.0], [1.0]), ([v], [1.0])])),
    "ugcc_scan direction": ("directions", lambda v: ugcc_scan(B1, 1.0, 0.25, rays=[([0.0], [1.0]), ([0.0], [v])])),
    "ugcc_scan 2D direction": (
        "directions",
        lambda v: ugcc_scan(builtin_damping("ball", d=2), 1.0, 0.25, rays=[([0.0, 0.0], [v, 0.0])]),
    ),
    "evolve u": ("state.u", lambda v: evolve(H1, B1, WaveState(_poked(32, v), STATE.v), 0.5, 1e-2)),
    "evolve v": ("state.v", lambda v: evolve(H1, B1, WaveState(PACKET, _poked(32, v)), 0.5, 1e-2)),
    "apply_P interior node": ("field values", lambda v: apply_P(H1, _poked(32, v))),
    "apply_P edge node": ("field values", lambda v: apply_P(H1, _poked(0, v))),
    "residual_ratio interior node": ("field values", lambda v: residual_ratio(H1, _poked(32, v), 1.0)),
    "residual_ratio edge node": ("field values", lambda v: residual_ratio(H1, _poked(0, v), 1.0)),
    "l2_norm interior node": ("field values", lambda v: l2_norm(_poked(32, v))),
    "l2_norm edge node": ("field values", lambda v: l2_norm(_poked(0, v))),
    "inner first slot": ("field values", lambda v: inner(_poked(32, v), PACKET)),
    "inner second slot": ("field values", lambda v: inner(PACKET, _poked(0, v))),
    "damping_pairing interior node": ("field values", lambda v: damping_pairing(B1, _poked(32, v))),
    "mass_in_ball edge node": ("field values", lambda v: mass_in_ball(_poked(0, v), [0.0], 1.0)),
    "snap_to_grid point": ("point", lambda v: snap_to_grid(GRID, [v])),
    "builtin_damping ball center": ("ball center", lambda v: builtin_damping("ball", d=2, center=[0.0, v])),
}
# the entries that read a complex field, where the bad value may sit in the imaginary part
FIELD_POINTS = sorted(case for case, (name, _) in POINTS.items() if name in ("field values", "state.u", "state.v"))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_window_rule(case, bad):
    name, call = WINDOWS[case]
    rule = "finite" if bad == math.inf else "> 0"
    with pytest.raises(ValueError, match=re.escape(f"need {name} {rule}")):
        call(bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("case", sorted(COUNTS))
def test_count_rule(case, bad):
    name, call = COUNTS[case]
    message = f"{name} must be an integer, got {bad}" if bad == 2.5 else f"need {name} >= 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)


def test_counts_read_as_int():
    # an integral float is a count; the spec is sized for the integer it holds
    spec = packet_spec(H1, 4.0)
    assert spec.n == 4 and type(spec.n) is int
    assert spec.lam_n == packet_spec(H1, 4).lam_n
    grid = make_grid(2, [16.0, 24], 1.0)
    assert grid.ns == (16, 24) and all(type(n) is int for n in grid.ns)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("case", sorted(POINTS))
def test_point_rule(case, bad):
    name, call = POINTS[case]
    with pytest.raises(ValueError, match=re.escape(f"need finite {name}")):
        call(bad)


@pytest.mark.parametrize("bad", [complex(0.0, math.nan), complex(0.0, math.inf), complex(0.0, -math.inf)], ids=repr)
@pytest.mark.parametrize("case", FIELD_POINTS)
def test_point_rule_reads_the_imaginary_part(case, bad):
    name, call = POINTS[case]
    with pytest.raises(ValueError, match=re.escape(f"need finite {name}")):
        call(bad)


def test_nan_energy_drift_aborts_the_flow():
    # a force that turns the state NaN makes the drift NaN, which no
    # comparison with the bound may let through
    pot = dataclasses.replace(H1, force=lambda *x: [math.nan for _ in x])
    with pytest.raises(RuntimeError, match="integrator unstable"):
        flow_integrate(pot, [1.0], [0.5], 0.01, 1e-3)

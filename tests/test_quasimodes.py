import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stabscope import fields
from stabscope.damping import builtin_damping
from stabscope.fields import (
    dominant_wavenumber,
    l2_norm,
    make_grid,
    wavenumber_bins,
)
from stabscope import quasimodes
from stabscope.potentials import builtin_potential
from stabscope.quasimodes import (
    WavePacketSpec,
    kinetic_wavepacket,
    packet_grid,
    packet_spec,
    profile_constants,
    tpc_violation_sequence,
    turning_point_bump,
)

# Radial quadrature values for the normalized envelope, frozen from the
# closed-form derivative expressions integrated independently.
CONSTS_1D = {
    "norm": 0.3648097049764345,
    "sup": 1.0084146231669087,
    "grad_axis": 1.7543115832805378,
    "laplacian": 9.022635232749835,
    "moment": 0.339009212036298,
}
CONSTS_2D = {
    "norm": 0.34339097424534115,
    "sup": 1.0713136592477968,
    "grad_axis": 1.8988540208616511,
    "laplacian": 15.886952554782662,
    "moment": 0.4440458351670496,
}


# ------------------------------------------------------- profile constants


def _radial_constants(d: int) -> dict:
    """The envelope norms by scipy's quad on the closed-form derivatives of
    k(rho) = exp(-1/(1 - rho^2)), the reference for the library's table."""
    sphere = 2.0 if d == 1 else 2.0 * np.pi

    def k(rho):
        s = 1.0 - rho * rho
        return math.exp(-1.0 / s) if s > 0.0 else 0.0

    def kp(rho):
        s = 1.0 - rho * rho
        if s <= 0.0:
            return 0.0
        return k(rho) * (-2.0 * rho / s**2)

    def kpp(rho):
        s = 1.0 - rho * rho
        if s <= 0.0:
            return 0.0
        return k(rho) * (4.0 * rho**2 / s**4 - 2.0 / s**2 - 8.0 * rho**2 / s**3)

    def radial(f):
        val, _ = quad(lambda rho: f(rho) * rho ** (d - 1), 0.0, 1.0, limit=200)
        return sphere * val

    def lap(rho):
        if rho == 0.0:
            return d * kpp(0.0)
        return kpp(rho) + (d - 1) * kp(rho) / rho

    norm = math.sqrt(radial(lambda rho: k(rho) ** 2))
    return {
        "norm": norm,
        "sup": k(0.0) / norm,
        "grad_axis": math.sqrt(radial(lambda rho: kp(rho) ** 2) / d) / norm,
        "laplacian": math.sqrt(radial(lambda rho: lap(rho) ** 2)) / norm,
        "moment": math.sqrt(radial(lambda rho: rho**2 * k(rho) ** 2)) / norm,
    }


def test_profile_constants_frozen():
    # the library's table, the frozen values and the quadrature agree bit for bit
    for d, table in ((1, CONSTS_1D), (2, CONSTS_2D)):
        assert _radial_constants(d) == table, d
        assert profile_constants(d) == table, d
    # the 2D axis derivative is the radial norm split evenly over two axes
    assert profile_constants(2)["grad_axis"] * math.sqrt(2.0) == pytest.approx(
        2.685385109268928, rel=1e-12
    )
    with pytest.raises(ValueError, match="only dimensions 1 and 2"):
        profile_constants(3)


# ------------------------------------------------------ kinetic packets


def test_packet_spec_sequence_rule(harmonic_2d, harmonic_1d):
    spec = packet_spec(harmonic_2d, 4, t_n=2.0, r_n=0.5)
    assert spec.lam_n == 100.0  # (n+1)^2 / r_n^2 dominates at the origin
    nu = np.asarray(spec.nu)
    assert np.allclose(spec.sigma @ nu, spec.t_n * nu, atol=1e-14)
    orth = np.array([0.0, 1.0])
    assert np.allclose(spec.sigma @ orth, spec.transverse_width * orth, atol=1e-14)

    # away from the well bottom the sup-V branch takes over
    far = packet_spec(harmonic_1d, 8, x_n=[10.0], t_n=2.0, r_n=2.0)
    assert far.lam_n == pytest.approx(8.0 * 72.0, rel=1e-12)

    with pytest.raises(ValueError, match="need n >= 1"):
        packet_spec(harmonic_2d, 0)
    with pytest.raises(ValueError, match="direction must be a unit vector"):
        packet_spec(harmonic_2d, 4, nu=[1.0, 1.0])


@pytest.fixture(scope="module")
def kinetic_sequence(harmonic_2d):
    out = []
    for n in (4, 6, 8):
        spec = packet_spec(harmonic_2d, n, t_n=2.0, r_n=0.5)
        f, rep = kinetic_wavepacket(harmonic_2d, spec, b=builtin_damping("ball", d=2, radius=1.0, center=[5.0, 5.0]))
        out.append((spec, f, rep))
    return out


def test_kinetic_residual_trend(kinetic_sequence):
    lams = [rep.lam for _, _, rep in kinetic_sequence]
    assert lams[0] == pytest.approx(70.71067811865476, rel=1e-12)
    assert lams[1] == pytest.approx(138.59292911256333, rel=1e-12)
    assert lams[2] == pytest.approx(229.1025971044414, rel=1e-12)

    resids = [rep.residual_ratio for _, _, rep in kinetic_sequence]
    assert resids[0] > resids[1] > resids[2]
    # the defect saturates at the envelope's axial kinetic term
    plateau = math.sqrt(2.0) * profile_constants(2)["grad_axis"] / 2.0
    assert resids[2] == pytest.approx(plateau, rel=0.01)
    assert all(r >= 0.99 * plateau for r in resids)


def test_kinetic_momentum_direction(kinetic_sequence):
    for spec, f, _ in kinetic_sequence:
        peak = dominant_wavenumber(f)
        target = spec.lam_n * np.asarray(spec.nu)
        off = np.abs(peak - target) / wavenumber_bins(f.grid)
        assert np.max(off) <= 3.0


def test_kinetic_unitarity_and_support(kinetic_sequence):
    for spec, f, rep in kinetic_sequence:
        assert abs(l2_norm(f) - 1.0) <= 1e-10
        mesh = f.grid.meshgrid()
        rel = mesh - np.asarray(rep.details["base_point"])
        nu = np.asarray(spec.nu)
        axial = np.tensordot(rel, nu, axes=([-1], [0]))
        trans = rel - axial[..., None] * nu
        outside = (np.abs(axial) > spec.t_n) | (
            np.linalg.norm(trans, axis=-1) > spec.r_n + 1e-12
        )
        assert np.all(np.abs(f.values[outside]) == 0.0)


def test_kinetic_disjoint_damping(kinetic_sequence):
    for _, _, rep in kinetic_sequence:
        assert rep.damping_pairing == 0.0


def test_kinetic_grid_independence(harmonic_2d, kinetic_sequence):
    spec, _, rep = kinetic_sequence[0]
    g = packet_grid(spec)
    fine = make_grid(2, [2 * n - 1 for n in g.ns], g.ls, center=g.center)
    _, rep2 = kinetic_wavepacket(harmonic_2d, spec, fine)
    assert abs(rep2.residual_ratio - rep.residual_ratio) <= 0.05 * rep.residual_ratio


def test_kinetic_rejects_bad_grids(harmonic_2d):
    spec = packet_spec(harmonic_2d, 4, t_n=2.0, r_n=0.5)
    with pytest.raises(ValueError, match="grid too coarse"):
        kinetic_wavepacket(harmonic_2d, spec, make_grid(2, 65, 3.0))
    with pytest.raises(ValueError, match="support overflow"):
        kinetic_wavepacket(harmonic_2d, spec, make_grid(2, 2049, 1.5))


# -------------------------------------------------- turning-point bumps


@pytest.fixture(scope="module")
def turning_sequence(harmonic_1d):
    reps = []
    for x0 in (20.0, 40.0, 80.0):
        _, rep = turning_point_bump(harmonic_1d, [x0], 2.0)
        reps.append(rep)
    return reps


def test_turning_bump_bound(turning_sequence):
    rep = turning_sequence[0]
    assert rep.lam == pytest.approx(math.sqrt(200.0), rel=1e-12)
    assert rep.details["eps_hat"] == pytest.approx(1.9861645367446845, rel=1e-9)
    assert rep.details["bound_value"] == pytest.approx(39.52794351489074, rel=1e-9)
    assert rep.residual_ratio == pytest.approx(1.1566941564239115, rel=1e-9)
    assert rep.residual_ratio <= rep.details["bound_value"]
    assert rep.details["raw_norm"] > 0.0


def test_turning_bump_trend(turning_sequence):
    resids = [rep.residual_ratio for rep in turning_sequence]
    assert resids == pytest.approx(
        [1.1566941564239115, 1.142215548244326, 1.134992972108414], rel=1e-9
    )
    for a, b in zip(resids, resids[1:]):
        assert b <= 1.10 * a
    # scale-aware comparison: residual over bound argument stays within 2x
    cs = [
        rep.residual_ratio
        / (rep.details["curvature_term"] + rep.details["gradient_term"])
        for rep in turning_sequence
    ]
    assert max(cs) / min(cs) <= 2.0


def test_turning_bump_default_profile(harmonic_1d):
    _, rep = turning_point_bump(harmonic_1d, [20.0], 2.0)
    assert rep.residual_ratio == pytest.approx(1.1566941564239115, rel=1e-9)
    assert rep.details["eps_hat"] == pytest.approx(1.9861645367446845, rel=1e-9)


def test_turning_bump_refinement(harmonic_1d, turning_sequence):
    r0 = 2.0 / math.sqrt(math.sqrt(200.0))
    fine = make_grid(1, 513, 1.25 * r0, center=[20.0])
    _, rep = turning_point_bump(harmonic_1d, [20.0], 2.0, grid=fine)
    base = turning_sequence[0].residual_ratio
    assert abs(rep.residual_ratio - base) <= 0.05 * base


def test_turning_bump_disjoint_damping(harmonic_1d):
    b = builtin_damping("ball", d=1, radius=1.0, center=[0.0])
    _, rep = turning_point_bump(harmonic_1d, [20.0], 2.0, b=b)
    assert rep.damping_pairing == 0.0
    zero = builtin_damping("constant", d=1, amplitude=0.0)
    _, rep0 = turning_point_bump(harmonic_1d, [20.0], 2.0, b=zero)
    assert rep0.damping_pairing == 0.0


def test_turning_bump_rejects_bad_input(harmonic_1d):
    with pytest.raises(ValueError, match=r"R must lie in \[1, lam\]"):
        turning_point_bump(harmonic_1d, [20.0], 0.5)
    with pytest.raises(ValueError, match=r"R must lie in \[1, lam\]"):
        turning_point_bump(harmonic_1d, [20.0], 20.0)
    with pytest.raises(ValueError, match="base point too close in"):
        turning_point_bump(harmonic_1d, [0.5], 1.0)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"x_n": (math.inf, 0.0)}, "base point and direction must be finite"),
        ({"x_n": (0.0, math.nan)}, "base point and direction must be finite"),
        ({"nu": (math.nan, 1.0)}, "base point and direction must be finite"),
        pytest.param({"t_n": math.nan}, "need t_n > 0", id="change3-positive and finite"),
        pytest.param({"r_n": math.nan}, "need r_n > 0", id="change4-positive and finite"),
        pytest.param({"lam_n": math.nan}, "need lam_n > 0", id="change5-positive and finite"),
        pytest.param({"t_n": math.inf}, "need t_n finite", id="change6-positive and finite"),
        pytest.param({"lam_n": 0.0}, "need lam_n > 0", id="change7-positive and finite"),
    ],
)
def test_packet_spec_rejects_non_finite_geometry(change, match):
    fields = dict(d=2, x_n=(1.0, 0.0), nu=(1.0, 0.0), t_n=2.0, r_n=0.5, n=4, lam_n=100.0)
    WavePacketSpec(**fields)
    with pytest.raises(ValueError, match=match):
        WavePacketSpec(**{**fields, **change})


def test_packet_spec_rule_rejects_bad_lengths(harmonic_2d):
    # r_n = 0 used to divide by zero inside the sequence rule
    for kwargs, match in (
        ({"r_n": 0.0}, "need r_n > 0"),
        ({"r_n": math.inf}, "need r_n finite"),
        ({"t_n": math.nan}, "need t_n > 0"),
        ({"x_n": [math.inf, 0.0]}, "base point and direction must be finite"),
    ):
        with pytest.raises(ValueError, match=match):
            packet_spec(harmonic_2d, 4, **kwargs)


@pytest.mark.parametrize("x0", [[math.inf], [math.nan], [-math.inf]])
def test_turning_bump_rejects_non_finite_base_point(harmonic_1d, x0):
    with pytest.raises(ValueError, match="base point must be finite"):
        turning_point_bump(harmonic_1d, x0, 2.0)


def test_packets_reject_a_damping_of_the_other_dimension(harmonic_1d, harmonic_2d):
    # the damping pairing used to read a 1D damping off the first coordinate
    # of a 2D packet, or fail with an IndexError
    b1, b2 = builtin_damping("exterior", d=1), builtin_damping("ball", d=2)
    with pytest.raises(ValueError, match="damping and field dimensions differ"):
        turning_point_bump(harmonic_2d, [20.0, 0.0], 2.0, b=b1)
    with pytest.raises(ValueError, match="damping and field dimensions differ"):
        turning_point_bump(harmonic_1d, [20.0], 2.0, b=b2)
    with pytest.raises(ValueError, match="damping and field dimensions differ"):
        kinetic_wavepacket(harmonic_2d, packet_spec(harmonic_2d, 2), b=b1)


def test_a_packet_is_not_swept_for_finiteness(harmonic_1d, harmonic_2d):
    # the constructor samples a finite field, and its measures read the point
    # rule off the quantities they compute: no separate sweep of the field;
    # the one check is of the base point the kinetic packet snaps to the grid
    with mock.patch.object(fields, "_require_finite", wraps=fields._require_finite) as sweep:
        turning_point_bump(harmonic_1d, [20.0], 2.0, b=builtin_damping("ball", d=1))
        kinetic_wavepacket(harmonic_2d, packet_spec(harmonic_2d, 2), b=builtin_damping("checkerboard", d=2))
    assert [call.args[0] for call in sweep.call_args_list] == ["point"]


# ------------------------------------------- one construction path


# the harmonic, power (s = 3) and anisotropic wells in d = 1 and d = 2
PACKET_POTENTIALS = [
    builtin_potential(name, d=d, **params)
    for d in (1, 2)
    for name, params in (("harmonic", {}), ("power", {"s": 3.0}), ("anisotropic", {"weights": [2.5, 1.0][:d]}))
]

# the constructors' own rejections; apply_P's "field must vanish on the
# outermost two node layers" is not among them
PACKET_ERRORS = ("grid too coarse", "support overflow", "R must lie in")


def _tight_grid(rng, base, extents, ns):
    # the box leaves k node steps, k in [0, 6], between the envelope and its
    # edge; the fit rule needs more than two
    k = rng.uniform(0.0, 6.0, size=len(ns))
    ls = [float(e) / (1.0 - 2.0 * kk / (n - 1)) for e, kk, n in zip(extents, k, ns)]
    return make_grid(len(ns), ns, ls, center=base)


@st.composite
def packet_cases(draw):
    pot = draw(st.sampled_from(PACKET_POTENTIALS))
    kind = draw(st.sampled_from(["turning", "kinetic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = pot.d
    if kind == "turning":
        x0 = rng.uniform(-30.0, 30.0, size=d)
        lam = math.sqrt(float(pot.raw_value(x0[None, :])[0]))
        assume(lam >= 1.0)
        R = rng.uniform(1.0, lam)
        grid = None
        if rng.uniform() < 0.75:
            ns = 2 * rng.integers(30, 121, size=d) + 1
            grid = _tight_grid(rng, x0, [R / math.sqrt(lam)] * d, ns)
        return pot, (kind, x0, R), grid
    nu = rng.normal(size=d)
    spec = packet_spec(pot, int(rng.integers(1, 5)), nu=nu / np.linalg.norm(nu),
                       x_n=rng.uniform(-0.5, 0.5, size=d), t_n=1.0, r_n=1.0)
    # thinning the production grid down to 40% of its nodes can break the
    # carrier or envelope resolution
    ns = [max(9, int(n * rng.uniform(0.4, 1.0)) | 1) for n in packet_grid(spec).ns]
    return pot, (kind, spec), _tight_grid(rng, spec.x_n, spec.axis_extents(), ns)


@settings(max_examples=60)
@given(packet_cases())
def test_one_packet_path_fits_or_rejects(case):
    # every packet either fails the shared fit rule with the constructors' own
    # message or is unit-norm and exactly zero outside its dilated unit ball
    pot, packet, grid = case
    try:
        if packet[0] == "turning":
            _, x0, R = packet
            f, rep = turning_point_bump(pot, x0, R, grid=grid)
            inv_sigma = np.eye(pot.d) / rep.details["radius"]
        else:
            spec = packet[1]
            f, rep = kinetic_wavepacket(pot, spec, grid=grid)
            inv_sigma = np.linalg.inv(spec.sigma)
    except ValueError as exc:
        assert str(exc).startswith(PACKET_ERRORS), str(exc)
        return
    assert abs(l2_norm(f) - 1.0) <= 1e-12
    rel = f.grid.meshgrid() - np.asarray(rep.details["base_point"])
    y = np.tensordot(rel, inv_sigma, axes=([-1], [1]))
    outside = np.sum(y * y, axis=-1) > 1.0 + 1e-9
    assert np.all(f.values[outside] == 0.0)


def _mesh_bump(y):
    # exp(-1/(1-|y|^2)) from coordinates y along the last axis
    r2 = np.sum(y * y, axis=-1)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _mesh_samples(packet, grid, center, radius):
    """The packet samples by the node-coordinate mesh formula: the dilation
    inverted on every node of a (ns..., d) mesh."""
    mesh = grid.meshgrid()
    norm = profile_constants(grid.d)["norm"]
    if packet[0] == "turning":
        return _mesh_bump((mesh - center) / radius) / (norm * radius ** (grid.d / 2.0))
    spec = packet[1]
    y = np.tensordot(mesh - center, np.linalg.inv(spec.sigma), axes=([-1], [1]))
    env = _mesh_bump(y) / (norm * math.sqrt(spec.t_n * spec.transverse_width ** (spec.d - 1)))
    xi = spec.momentum
    phase = np.exp(1j * np.tensordot(mesh, xi, axes=([-1], [0])))
    return env * phase * np.exp(-0.5j * float(np.dot(xi, center)))


@pytest.mark.deep
@given(packet_cases())
def test_sampler_matches_the_mesh_formula(case):
    # the open-grid sampler reproduces the mesh formula: turning bumps to the
    # bit, kinetic packets to rounding in the dilation and the carrier phase
    pot, packet, grid = case
    seen = []

    def capture(pot, grid, vals, lam, b, center, radii, details):
        seen.append((grid, vals.copy(), center, details.get("radius")))
        return None, None

    with mock.patch.object(quasimodes, "_finish", capture):
        try:
            if packet[0] == "turning":
                turning_point_bump(pot, packet[1], packet[2], grid=grid)
            else:
                kinetic_wavepacket(pot, packet[1], grid=grid)
        except ValueError as exc:
            assert str(exc).startswith(PACKET_ERRORS), str(exc)
            return
    ((grid, vals, center, radius),) = seen
    ref = _mesh_samples(packet, grid, center, radius)
    if packet[0] == "turning":
        assert vals.tobytes() == ref.astype(complex).tobytes()
    else:
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


# --------------------------------------------- thin-point witness chain


def test_tpc_violation_witnesses(harmonic_2d):
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    reps = tpc_violation_sequence(harmonic_2d, b, 2)
    assert [rep.details["threshold"] for rep in reps] == [0.5, 0.25]
    # the witnesses sit on points of the turning-point lattice, each the
    # deepest violating ball of the first shell out that holds one
    assert reps[0].lam == pytest.approx(966.8183108018853, rel=1e-9)
    assert reps[1].lam == pytest.approx(4988.570124029396, rel=1e-9)
    assert reps[0].residual_ratio == pytest.approx(1.9860182252741012, rel=1e-9)
    assert reps[1].residual_ratio == pytest.approx(0.8827849097823898, rel=1e-9)
    assert reps[1].residual_ratio < reps[0].residual_ratio
    for n, rep in enumerate(reps, start=1):
        assert rep.details["ball_average"] <= rep.details["threshold"]
        # proof-rate budget on the pairing; the found balls are fully dead
        sup2 = profile_constants(2)["sup"] ** 2
        assert rep.damping_pairing <= 2.0 ** (-n) * b.b_max * math.pi * sup2
        assert rep.damping_pairing == 0.0


def test_tpc_violation_rejects_controlled_damping(harmonic_2d):
    b = builtin_damping("exterior", d=2, radius=1.0)
    with pytest.raises(ValueError, match="TPC not violated in range"):
        tpc_violation_sequence(harmonic_2d, b, 1)


def test_tpc_violation_zero_damping(harmonic_2d):
    b = builtin_damping("constant", d=2, amplitude=0.0)
    reps = tpc_violation_sequence(harmonic_2d, b, 2)
    assert all(rep.damping_pairing == 0.0 for rep in reps)


def test_tpc_violation_rejects_bad_input(harmonic_2d, harmonic_1d):
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    with pytest.raises(ValueError, match="need n_max >= 1"):
        tpc_violation_sequence(harmonic_2d, b, 0)
    with pytest.raises(ValueError, match="dimensions differ"):
        tpc_violation_sequence(harmonic_1d, b, 1)


# ----------------------------------------------------------- report JSON


def test_quasimode_report_json(harmonic_1d):
    _, rep = turning_point_bump(harmonic_1d, [20.0], 2.0)
    doc = rep.to_json_dict()
    assert doc["lam"] == rep.lam
    assert doc["residual_ratio"] == rep.residual_ratio
    assert doc["damping_pairing"] is None
    assert set(doc["grid"]) == {"ns", "ls", "center"}
    assert all(isinstance(v, float) for v in doc["mass_in_ball"].values())


def test_kinetic_packet_peaks_under_two_and_a_half_fields():
    # sampling and measuring run one strip of rows at a time: the n = 8 packet
    # (a 7395 x 73 grid) costs its complex field, two float buffers of its
    # grid's size and strip scratch, where the node mesh, a padded copy and
    # full-size temporaries once took 4.4 fields
    pot = builtin_potential("harmonic", d=2)
    spec = packet_spec(pot, 8)
    field_bytes = 16 * math.prod(packet_grid(spec).ns)
    kinetic_wavepacket(pot, packet_spec(pot, 2))  # lazy imports and caches, outside the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f, _ = kinetic_wavepacket(pot, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert f.values.nbytes == field_bytes
    assert peak <= 2.5 * field_bytes, f"peak {peak / field_bytes:.2f} fields"

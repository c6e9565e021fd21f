import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eig_banded

from stabscope import fields
from stabscope.damping import Damping, builtin_damping
from stabscope.fields import (
    Field,
    _PKernel,
    apply_P,
    check_resolution,
    damping_pairing,
    inner,
    l2_norm,
    make_grid,
    mass_in_ball,
    p_bands,
    residual_ratio,
    snap_to_grid,
)
from stabscope.potentials import builtin_potential


def gaussian_field(n: int = 2048, l: float = 10.0) -> Field:
    g = make_grid(1, n, l)
    return Field(g, np.exp(-g.axis(0) ** 2 / 2.0))


def cos_bump_field(n: int = 2048, l: float = 10.0) -> Field:
    # even C^1 bump supported on [-1, 1]
    g = make_grid(1, n, l)
    x = g.axis(0)
    vals = np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 2, 0.0)
    return Field(g, vals)


# ------------------------------------------------------------------ grid


def test_grid_geometry():
    g = make_grid(2, [9, 17], [1.0, 2.0])
    assert g.hs == (0.25, 0.25)
    assert g.axis(0)[0] == -1.0 and g.axis(0)[-1] == 1.0
    assert g.meshgrid().shape == (9, 17, 2)


@st.composite
def mesh_cases(draw):
    """An off-centre grid in d = 1 or 2, a builtin well and a builtin damping on it."""
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid(d, rng.integers(8, 40, size=d), rng.uniform(0.5, 30.0, size=d),
                     center=rng.uniform(-20.0, 20.0, size=d))
    name = draw(st.sampled_from(["harmonic", "power", "anisotropic"]))
    params = {"s": draw(st.floats(0.1, 3.9))} if name == "power" else {}
    if name == "anisotropic":
        params["weights"] = rng.uniform(0.1, 10.0, size=d)
    pot = builtin_potential(name, d=d, **params)
    kind = draw(st.sampled_from(["constant", "exterior", "ball", "checkerboard", "radial_shells", "strip_lattice"]))
    params = {"amplitude": rng.uniform(0.1, 3.0)}
    if kind in ("exterior", "ball"):
        params["radius"] = rng.uniform(0.1, 20.0)
    if kind == "ball":
        params["center"] = rng.uniform(-10.0, 10.0, size=d)
    if kind in ("checkerboard", "radial_shells", "strip_lattice"):
        params.update(period=rng.uniform(0.1, 5.0), duty=rng.uniform(0.05, 0.95))
    return grid, pot, builtin_damping(kind, d=d, **params)


@given(mesh_cases())
def test_meshgrid_keeps_the_stacked_bits(case):
    # the mesh stored a coordinate plane at a time holds the stacked mesh's
    # bits, and V and b read on it keep theirs and come out C-contiguous
    grid, pot, b = case
    stacked = np.stack(np.meshgrid(*[grid.axis(i) for i in range(grid.d)], indexing="ij"), axis=-1)
    mesh = grid.meshgrid()
    assert mesh.shape == stacked.shape and mesh.tobytes() == stacked.tobytes()
    for planar, reference in ((pot.raw_value(mesh), pot.raw_value(stacked)), (b.raw_func(mesh), b.raw_func(stacked))):
        assert planar.flags.c_contiguous
        assert planar.tobytes() == np.ascontiguousarray(reference).tobytes()

    handed = []  # the V that apply_P hands to the stencil kernel
    with mock.patch.object(fields, "_PKernel", lambda v, *args: handed.append(v) or _PKernel(v, *args)):
        apply_P(pot, Field(grid, np.zeros(grid.ns)))
    assert handed[0].flags.c_contiguous


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError, match="only dimensions 1 and 2"):
        make_grid(3, 16, 1.0)
    with pytest.raises(ValueError, match="grid too coarse"):
        make_grid(1, 7, 1.0)
    with pytest.raises(ValueError, match="one extent and one point count per axis"):
        make_grid(2, [16], [1.0, 1.0])


@pytest.mark.parametrize(
    "ls, center, match",
    [
        pytest.param(-10.0, None, "need grid half-widths > 0", id="-10.0-None-grid half-widths must be finite and > 0"),
        pytest.param(0.0, None, "need grid half-widths > 0", id="0.0-None-grid half-widths must be finite and > 0"),
        pytest.param(math.inf, None, "need grid half-widths finite", id="inf-None-grid half-widths must be finite and > 0"),
        pytest.param([1.0, math.nan], None, "need grid half-widths > 0", id="ls3-None-grid half-widths must be finite and > 0"),
        (1.0, [math.inf, 0.0], "grid center must be 2 finite coordinate"),
        (1.0, [0.0, math.nan], "grid center must be 2 finite coordinate"),
        (1.0, [0.0], "grid center must be 2 finite coordinate"),
        (1.0, [0.0, 0.0, 0.0], "grid center must be 2 finite coordinate"),
    ],
)
def test_grid_rejects_bad_extent_or_center(ls, center, match):
    # a reversed, empty or unbounded axis, or a centre of the wrong length, used
    # to reach the kernels and fail there, if at all; a RuntimeWarning first
    # would fail this test
    with pytest.raises(ValueError, match=match):
        make_grid(2, 16, ls, center=center)


def test_field_shape_checked():
    g = make_grid(1, 16, 1.0)
    with pytest.raises(ValueError, match="does not match grid"):
        Field(g, np.zeros(17))


def test_resolution_rule():
    g = make_grid(1, 64, 10.0)
    check_resolution(g, 1.0)
    with pytest.raises(ValueError, match="grid too coarse for frequency"):
        check_resolution(g, 10.0)


def test_snap_to_grid():
    g = make_grid(1, 21, 1.0)
    assert float(snap_to_grid(g, [0.13])[0]) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError, match="expected a point with 1 coordinates"):
        snap_to_grid(g, [0.1, 0.2])


# --------------------------------------------------------------- apply_P


def test_apply_p_zero(harmonic_1d):
    g = make_grid(1, 64, 5.0)
    out = apply_P(harmonic_1d, Field(g, np.zeros(64)))
    assert np.all(out.values == 0.0)


def test_apply_p_ground_state(harmonic_1d):
    f = gaussian_field()
    pf = apply_P(harmonic_1d, f)
    err = Field(f.grid, pf.values - 0.5 * f.values)
    assert l2_norm(err) / l2_norm(f) <= 1e-8


def test_apply_p_fourth_order_convergence(harmonic_1d):
    resids = []
    for n in (256, 512, 1024):
        f = gaussian_field(n)
        pf = apply_P(harmonic_1d, f)
        err = Field(f.grid, pf.values - 0.5 * f.values)
        resids.append(l2_norm(err) / l2_norm(f))
    assert resids[0] / resids[1] >= 12.0
    assert resids[1] / resids[2] >= 12.0


def test_apply_p_plane_wave_symbol(harmonic_1d):
    # windowed plane wave: the Rayleigh quotient of -Lap/2 is
    # w^2/2 + ||w'||^2 / (2 ||w||^2), quadrature oracle vs stencil
    g = make_grid(1, 2048, 10.0)
    x = g.axis(0)
    omega = 10.0

    def w(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        m = np.abs(t) < 8.0
        out[m] = np.exp(-1.0 / (1.0 - (t[m] / 8.0) ** 2))
        return out

    def wprime(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        m = np.abs(t) < 8.0
        u = t[m] / 8.0
        out[m] = np.exp(-1.0 / (1.0 - u**2)) * (-2.0 * u / (1.0 - u**2) ** 2) / 8.0
        return out

    f = Field(g, w(x) * np.exp(1j * omega * x))
    v = harmonic_1d.raw_value(g.meshgrid())
    kin = Field(g, apply_P(harmonic_1d, f).values - v * f.values)
    rayleigh = float(inner(f, kin).real / inner(f, f).real)

    num = quad(lambda t: float(wprime(t) ** 2), -8.0, 8.0, limit=200)[0]
    den = quad(lambda t: float(w(t) ** 2), -8.0, 8.0, limit=200)[0]
    oracle = 0.5 * omega**2 + 0.5 * num / den
    assert abs(rayleigh - oracle) <= 1.5 * omega**6 * g.hs[0] ** 4 / 180.0


def test_apply_p_rejects_dimension_mismatch(harmonic_1d):
    g = make_grid(2, 16, 1.0)
    with pytest.raises(ValueError, match="dimensions differ"):
        apply_P(harmonic_1d, Field(g, np.zeros((16, 16))))


def test_apply_p_requires_clear_boundary(harmonic_1d):
    g = make_grid(1, 64, 5.0)
    vals = np.ones(64)
    with pytest.raises(ValueError, match="vanish on the outermost two node layers"):
        apply_P(harmonic_1d, Field(g, vals))


# --------------------------------------------------------- norms / inner


def test_l2_norm_gaussian():
    f = gaussian_field()
    assert abs(l2_norm(f) ** 2 - math.sqrt(math.pi)) <= 1e-10


def test_l2_norm_zero():
    g = make_grid(1, 16, 1.0)
    assert l2_norm(Field(g, np.zeros(16))) == 0.0


def test_inner_matches_norm():
    f = gaussian_field(256)
    assert inner(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-14)
    assert inner(f, f).imag == 0.0


def test_inner_conjugate_linear_first_slot():
    f = gaussian_field(256)
    g = Field(f.grid, f.values * np.exp(0.3j * f.grid.axis(0)))
    lhs = inner(Field(f.grid, 1j * f.values), g)
    rhs = -1j * inner(f, g)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_inner_rejects_grid_mismatch():
    f = gaussian_field(256)
    h = gaussian_field(512)
    with pytest.raises(ValueError, match="fields live on different grids"):
        inner(f, h)


def test_field_functionals_reject_a_nan_node(harmonic_1d):
    g = make_grid(1, 64, 6.0)
    vals = np.exp(-g.axis(0) ** 2)
    vals[32] = math.nan
    f = Field(g, vals)
    b = builtin_damping("constant", d=1)
    for measure in (
        lambda: l2_norm(f),
        lambda: damping_pairing(b, f),
        lambda: mass_in_ball(f, np.zeros(1), 1.0),
        lambda: residual_ratio(harmonic_1d, f, 1.0),
    ):
        with pytest.raises(ValueError, match="need finite field values"):
            measure()


# -------------------------------------------------------- residual_ratio


def test_residual_ratio_discrete_eigenvector(harmonic_1d):
    # banded eigenproblem oracle on the interior nodes of the same stencil
    n, l = 512, 10.0
    g = make_grid(1, n, l)
    h = g.hs[0]
    x = g.axis(0)[2:-2]
    m = x.size
    bands = np.zeros((3, m))
    bands[0] = harmonic_1d.raw_value(x[:, None]) + 0.5 * 2.5 / h**2
    bands[1, :-1] = -0.5 * (4.0 / 3.0) / h**2
    bands[2, :-2] = 0.5 * (1.0 / 12.0) / h**2
    vals, vecs = eig_banded(bands, lower=True, select="i", select_range=(4, 4))
    mu2 = float(vals[0])
    assert mu2 == pytest.approx(4.5, abs=1e-4)

    full = np.zeros(n)
    full[2:-2] = vecs[:, 0]
    ratio = residual_ratio(harmonic_1d, Field(g, full), math.sqrt(mu2))
    assert ratio <= 1e-10


def test_residual_ratio_ground_state(harmonic_1d):
    f = gaussian_field()
    assert residual_ratio(harmonic_1d, f, math.sqrt(0.5)) <= 1e-6


def test_residual_ratio_shifted_eigenvalue(harmonic_1d):
    f = gaussian_field()
    assert residual_ratio(harmonic_1d, f, 1.0) == pytest.approx(0.5, abs=1e-6)


def test_residual_ratio_rejects_bad_input(harmonic_1d):
    f = gaussian_field(256)
    with pytest.raises(ValueError, match="need lam > 0"):
        residual_ratio(harmonic_1d, f, 0.0)
    zero = Field(f.grid, np.zeros(256))
    with pytest.raises(ValueError, match="zero field"):
        residual_ratio(harmonic_1d, zero, 1.0)


# ------------------------------------------------------- damping_pairing


def test_damping_pairing_constant():
    f = gaussian_field(512)
    b = builtin_damping("constant", d=1, amplitude=0.7)
    assert damping_pairing(b, f) == pytest.approx(0.7, abs=1e-14)


def test_damping_pairing_disjoint_support():
    f = cos_bump_field()
    b = builtin_damping("exterior", d=1, radius=4.0)
    assert damping_pairing(b, f) == 0.0


def test_damping_pairing_halfline_symmetry():
    # even point count keeps the node off x = 0
    f = cos_bump_field(4000)
    b = Damping(1, lambda pts: 1.0 * (pts[..., 0] > 0.0), 1.0, "halfline")
    assert abs(damping_pairing(b, f) - 0.5) <= 1e-12


def test_damping_pairing_rejects_zero_field():
    g = make_grid(1, 16, 1.0)
    b = builtin_damping("constant", d=1)
    with pytest.raises(ValueError, match="zero field"):
        damping_pairing(b, Field(g, np.zeros(16)))


# ---------------------------------------------------------- mass_in_ball


def test_mass_in_ball_everything():
    f = cos_bump_field(512)
    assert mass_in_ball(f, np.zeros(1), 50.0) == pytest.approx(1.0, rel=1e-12)


def test_mass_in_ball_zero_radius():
    f = cos_bump_field(512)
    assert mass_in_ball(f, np.zeros(1), 0.0) == 0.0


def test_mass_in_ball_gaussian_erf():
    # point count chosen so +-1 falls on cell edges, keeping the cell
    # bookkeeping error at the midpoint-rule floor
    f = gaussian_field(8211)
    got = mass_in_ball(f, np.zeros(1), 1.0)
    assert abs(got - math.erf(1.0)) <= 1e-6


@pytest.mark.parametrize("d", [1, 2])
def test_mass_in_ball_of_a_constant_field_is_one(d):
    # the ball covers every cell, and mass and norm share one weight rule
    f = Field(make_grid(d, 16, 1.0), np.ones((16,) * d))
    assert mass_in_ball(f, np.zeros(d), 10.0) == 1.0


@st.composite
def fields_and_balls(draw):
    # finite complex fields whose edge nodes carry mass, on offset grids, and
    # balls from inside one cell to past the whole box
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ns = rng.integers(8, 33, size=d)
    ls = rng.uniform(0.5, 5.0, size=d)
    grid = make_grid(d, ns, ls, center=rng.uniform(-3.0, 3.0, size=d))
    scale = 2.0 ** draw(st.integers(-60, 60))
    vals = scale * (rng.uniform(0.1, 1.0, size=grid.ns) * np.exp(2j * np.pi * rng.uniform(size=grid.ns)))
    center = np.asarray(grid.center) + rng.uniform(-1.5, 1.5, size=d) * ls
    radius = float(rng.uniform(1e-3, 3.0) * np.max(ls))
    return Field(grid, vals), center, radius


@given(fields_and_balls(), st.floats(1e-3, 1e3))
def test_mass_and_pairing_are_means_under_one_density(case, amplitude):
    f, center, radius = case
    assert 0.0 <= mass_in_ball(f, center, radius) <= 1.0
    b = builtin_damping("constant", d=f.grid.d, amplitude=amplitude)
    assert abs(damping_pairing(b, f) / amplitude - 1.0) <= 1e-15


def test_mass_in_ball_rejects_bad_input():
    f = cos_bump_field(512)
    with pytest.raises(ValueError, match="need radius >= 0"):
        mass_in_ball(f, np.zeros(1), -1.0)
    zero = Field(f.grid, np.zeros(512))
    with pytest.raises(ValueError, match="zero field"):
        mass_in_ball(zero, np.zeros(1), 1.0)


# ------------------------------------------------------------ invariants


def test_apply_p_symmetric(harmonic_2d):
    rng = np.random.default_rng(7)
    g = make_grid(2, 48, 3.0)
    for _ in range(3):
        a = np.zeros((48, 48), dtype=complex)
        b = np.zeros((48, 48), dtype=complex)
        a[4:-4, 4:-4] = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        b[4:-4, 4:-4] = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        f, h = Field(g, a), Field(g, b)
        lhs = inner(f, apply_P(harmonic_2d, h))
        rhs = inner(apply_P(harmonic_2d, f), h)
        assert abs(lhs - rhs) <= 1e-10 * l2_norm(f) * l2_norm(h)


def test_apply_p_real_preserving(harmonic_1d):
    f = gaussian_field(512)
    out = apply_P(harmonic_1d, f)
    assert np.max(np.abs(out.values.imag)) <= 1e-14


# Six builtin wells on the line, for the one-operator property test.
BUILTINS_1D = [
    builtin_potential("harmonic", d=1),
    builtin_potential("anisotropic", d=1, weights=[2.5]),
    builtin_potential("anisotropic", d=1, weights=[0.5]),
    builtin_potential("power", d=1, s=1.0),
    builtin_potential("power", d=1, s=2.5),
    builtin_potential("power", d=1, s=3.0),
]


@given(
    st.sampled_from(BUILTINS_1D),
    st.integers(8, 80),
    st.floats(0.5, 12.0),
    st.floats(-5.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_apply_p_matches_bands(pot, n, half_width, center, seed):
    # the stencil kernel behind apply_P and the band matrix of the resolvent
    # and spectra are one operator: equal on fields that vanish on the two
    # outer layers, and symmetric
    g = make_grid(1, n, half_width, center=center)
    v = pot.raw_value(g.meshgrid())
    ab = p_bands(g, v)
    assert ab.dtype == np.float64
    assert p_bands(g, v + 1j).dtype == np.complex128
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]
    assert np.array_equal(dense, dense.T)

    rng = np.random.default_rng(seed)
    vals = np.zeros(n, dtype=complex)
    vals[2:-2] = rng.standard_normal(n - 4) + 1j * rng.standard_normal(n - 4)
    got = apply_P(pot, Field(g, vals)).values
    tol = n * np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(vals))
    assert np.max(np.abs(got - dense @ vals)) <= tol


# ------------------------------------------------------------ artifacts


def test_field_csv_layout(command_artifacts):
    # the quasimode command writes its field through the CLI's one CSV writer
    out = command_artifacts(
        "quasimode",
        {
            "potential": {"name": "harmonic", "d": 1},
            "x0_space": [20.0],
            "R_width": 2.0,
            "grid": {"n_nodes": 129, "half_width_space": 1.0, "center_space": [20.0]},
        },
    )
    lines = (out / "mode.csv").read_text().splitlines()
    assert lines[0] == "x_1,re,im"
    assert len(lines) == 130
    row = lines[1].split(",")
    assert float(row[0]) == 19.0
    assert float(row[2]) == 0.0

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eig_banded

from stabscope import fields, quasimodes
from stabscope.damping import Damping, builtin_damping
from stabscope.fields import (
    Field,
    _PKernel,
    _Stencil,
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


@given(st.integers(1, 2), st.integers(8, 300), st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
def test_axes_are_computed_once(d, n, half_width, center):
    # each axis is made once per grid, read-only, with the bits of the
    # linspace it was made from on every call; equal grids stay equal
    g = make_grid(d, n, half_width, center=[center] * d)
    for i in range(d):
        a = g.axis(i)
        assert a is g.axis(i) and not a.flags.writeable
        assert a.tobytes() == (center + np.linspace(-g.ls[i], g.ls[i], n)).tobytes()
    twin = make_grid(d, n, half_width, center=[center] * d)
    assert g == twin and hash(g) == hash(twin) and "_axes" not in repr(g)


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


@pytest.mark.deep
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

    handed = []  # the V that apply_P hands to the stencil, strip by strip
    apply = _Stencil.apply
    with mock.patch.object(fields._Stencil, "apply", lambda self, k, f, v, out: handed.append(v) or apply(self, k, f, v, out)):
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


@given(st.integers(0, 2**32 - 1))
def test_snap_returns_a_node_of_the_axis(seed):
    # the snapped point is the nearest element of grid.axis(i) itself, not a
    # value an ulp away from it, on off-centre grids and outside the box
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    ls = rng.uniform(0.5, 30.0, size=d)
    grid = make_grid(d, rng.integers(8, 200, size=d), ls, center=rng.uniform(-50.0, 50.0, size=d))
    for _ in range(20):
        point = np.asarray(grid.center) + rng.uniform(-1.2, 1.2, size=d) * ls
        snapped = snap_to_grid(grid, point)
        for i in range(d):
            axis = grid.axis(i)
            assert snapped[i] in axis
            assert abs(snapped[i] - point[i]) <= np.min(np.abs(axis - point[i])) + 1e-9 * grid.hs[i]


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
    # a NaN or inf node, in the real or the imaginary part, interior or on the
    # edge, is named before any result; a RuntimeWarning on the way would
    # fail the test (pyproject filterwarnings)
    g = make_grid(1, 64, 6.0)
    b = builtin_damping("constant", d=1)
    for node in (32, 0):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)):
            vals = np.exp(-g.axis(0) ** 2).astype(complex)
            vals[node] = bad
            f = Field(g, vals)
            for measure in (
                lambda: l2_norm(f),
                lambda: damping_pairing(b, f),
                lambda: mass_in_ball(f, np.zeros(1), 1.0),
                lambda: residual_ratio(harmonic_1d, f, 1.0),
                lambda: inner(f, f),
            ):
                with pytest.raises(ValueError, match="need finite field values"):
                    measure()


def test_a_norm_that_overflows_is_not_finite():
    # |f| near 1e200 is finite, but its squared norm is not a float
    g = make_grid(1, 64, 6.0)
    f = Field(g, 1e200 * np.exp(-g.axis(0) ** 2))
    with pytest.raises(ValueError, match="need finite field values"):
        l2_norm(f)


@pytest.mark.deep
@given(st.sampled_from([1, 2]), st.integers(0, 2**32 - 1), st.integers(-60, 60))
def test_l2_norm_matches_the_inner_product(d, seed, exponent):
    # the norm read off the density w |f|^2 agrees with the formula it
    # replaced, the square root of the complex sum <f, f>
    rng = np.random.default_rng(seed)
    grid = make_grid(d, rng.integers(8, 65, size=d), rng.uniform(0.5, 20.0, size=d),
                     center=rng.uniform(-10.0, 10.0, size=d))
    vals = 2.0**exponent * (rng.normal(size=grid.ns) + 1j * rng.normal(size=grid.ns))
    f = Field(grid, vals)
    reference = math.sqrt(inner(f, f).real)
    assert abs(l2_norm(f) - reference) <= 1e-14 * reference


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


@pytest.mark.parametrize("kind", ["constant", "exterior", "ball", "checkerboard"])
def test_damping_pairing_rejects_the_other_dimension(kind):
    # a 1D damping read on a 2D field used to see the first coordinate only,
    # or fail with an IndexError; and the other way round
    for d_field, d_damping in ((2, 1), (1, 2)):
        f = Field(make_grid(d_field, 16, 1.0), np.ones((16,) * d_field))
        with pytest.raises(ValueError, match="damping and field dimensions differ"):
            damping_pairing(builtin_damping(kind, d=d_damping), f)


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


@pytest.mark.deep
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
    # a NaN radius used to give NaN in 1D and 0.0 in 2D, without a warning;
    # radius 0 and radius inf keep their meaning
    for d in (1, 2):
        f = Field(make_grid(d, 16, 1.0), np.ones((16,) * d))
        with pytest.raises(ValueError, match="need radius >= 0"):
            mass_in_ball(f, np.zeros(d), math.nan)
        for center in (np.full(d, math.nan), np.full(d, math.inf), np.zeros(d + 1)):
            with pytest.raises(ValueError, match=f"ball center must be {d} finite coordinate"):
                mass_in_ball(f, center, 1.0)
        assert mass_in_ball(f, np.zeros(d), 0.0) == 0.0
        assert mass_in_ball(f, np.zeros(d), math.inf) == 1.0


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


def _band_product(ab, f):
    """A f from p_bands' rows, in the order the stencil documents: row 2
    times f, then the +-1 pair summed times row 1 (= row 3) and the +-2 pair
    summed times row 0 (= row 4), each added; past the ends f reads 0."""
    n = f.size
    pad = np.zeros(n + 4, dtype=f.dtype)
    pad[2:-2] = f
    out = ab[2] * f
    out = out + ab[1] * (pad[1 : n + 1] + pad[3 : n + 3])
    return out + ab[0] * (pad[0:n] + pad[4 : n + 4])


def _dense(ab):
    n = ab.shape[1]
    dense = np.zeros((n, n), dtype=ab.dtype)
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]
    return dense


def _kernel_p(vvals, values, hs, dtype):
    """The stepper's kernel on node values, loaded into one of its padded fields."""
    kernel = _PKernel(vvals, hs, dtype)
    buf = kernel.field()
    kernel.nodes(kernel.span(buf))[...] = values
    return np.ascontiguousarray(kernel.nodes(kernel(buf)))


def _stencil_outputs(pot, g, vals):
    """P vals from apply_P (the packet path, complex) and from the time
    stepper's kernel in the data's own arithmetic, and those data."""
    data = vals if np.any(vals.imag) else vals.real
    return apply_P(pot, Field(g, vals)).values, _kernel_p(pot.raw_value(g.meshgrid()), data, g.hs, data.dtype), data


@given(
    st.sampled_from(BUILTINS_1D),
    st.integers(8, 80),
    st.floats(0.5, 12.0),
    st.floats(-5.0, 5.0),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_apply_p_matches_bands(pot, n, half_width, center, seed, complex_data):
    # the stencil behind apply_P and the time stepper's kernel, and the band
    # matrix of the resolvent and spectra, are one operator: on fields that
    # vanish on the two outer layers the stencil's P f is the band product
    # of p_bands' rows taken in the stencil's order, bit for bit, in real
    # and complex arithmetic, and the dense product, also to 1e-13 of the
    # scale sum_j |A_ij| |f_j|; the band matrix is symmetric
    g = make_grid(1, n, half_width, center=center)
    v = pot.raw_value(g.meshgrid())
    ab = p_bands(g, v)
    assert ab.dtype == np.float64
    assert p_bands(g, v + 1j).dtype == np.complex128
    dense = _dense(ab)
    assert np.array_equal(dense, dense.T)
    assert all(np.all(ab[r] == ab[r, 0]) for r in (0, 1)) and np.array_equal(ab[[0, 1]], ab[[4, 3]])

    rng = np.random.default_rng(seed)
    vals = np.zeros(n, dtype=complex)
    vals[2:-2] = rng.standard_normal(n - 4) + (1j * rng.standard_normal(n - 4) if complex_data else 0.0)
    got, stepper, data = _stencil_outputs(pot, g, vals)
    assert _same_bits(got, _band_product(ab, vals))
    assert stepper.dtype == data.dtype and _same_bits(stepper, _band_product(ab, data))
    tol = n * np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(vals))
    scale = np.max(np.abs(dense) @ np.abs(vals))
    for p in (got, stepper):
        assert np.max(np.abs(p - dense @ vals)) <= min(tol, 1e-13 * scale)


@given(
    st.sampled_from(["harmonic", "power", "anisotropic"]),
    st.tuples(st.integers(8, 24), st.integers(8, 24)),
    st.tuples(st.floats(0.5, 12.0), st.floats(0.5, 12.0)),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stencil_is_the_kronecker_sum(name, ns, ls, center, complex_data, seed):
    # in 2D the stencil is the Kronecker sum of the two axes' band matrices
    # plus V: both paths match the dense product to 1e-13 of the scale
    params = {"power": {"s": 2.5}, "anisotropic": {"weights": [1.0, 2.5]}}.get(name, {})
    pot = builtin_potential(name, d=2, **params)
    g = make_grid(2, ns, ls, center=center)
    t0, t1 = (_dense(p_bands(make_grid(1, n, L), np.zeros(n))) for n, L in zip(ns, ls))
    dense = np.kron(t0, np.eye(ns[1])) + np.kron(np.eye(ns[0]), t1) + np.diag(pot.raw_value(g.meshgrid()).ravel())
    rng = np.random.default_rng(seed)
    vals = np.zeros(ns, dtype=complex)
    inner = (ns[0] - 4, ns[1] - 4)
    vals[2:-2, 2:-2] = rng.standard_normal(inner) + (1j * rng.standard_normal(inner) if complex_data else 0.0)
    want = (dense @ vals.ravel()).reshape(ns)
    scale = np.max(np.abs(dense) @ np.abs(vals.ravel()))
    for got in _stencil_outputs(pot, g, vals)[:2]:
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


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


# ------------------------------------------- strips against the whole grid
#
# The functionals as they were written for the whole grid at once: a node
# mesh, a zero-padded copy of the field, full-size temporaries.  Working one
# strip of rows at a time must give their bits.


def _whole_p(vvals, values, hs):
    """P f = D f + sum over axes of a_1 (f(x - h) + f(x + h)) + a_2 (f(x - 2h) + f(x + 2h)),
    with a_k = -c_k / (2 h^2) per axis and D = V + (the a_0 summed over the
    axes), in that order, on a zero-padded copy of f in its own dtype."""
    interior = (slice(2, -2),) * values.ndim
    pad = np.zeros(tuple(n + 4 for n in values.shape), dtype=values.dtype)
    pad[interior] = values
    coefs = [[-0.5 * c / h**2 for c in fields._STENCIL[2::-1]] for h in hs]  # a_0, a_1, a_2
    out = (vvals + sum(a[0] for a in coefs)) * values
    for ax, a in enumerate(coefs):
        for k in (1, 2):
            cuts = []
            for shift in (-k, k):
                cut = list(interior)
                cut[ax] = slice(2 + shift, 2 + shift + values.shape[ax])
                cuts.append(pad[tuple(cut)])
            out = out + a[k] * (cuts[0] + cuts[1])
    return out


def _whole_mesh(grid):
    return np.stack(np.meshgrid(*[grid.axis(i) for i in range(grid.d)], indexing="ij"), axis=-1)


def _whole_density(grid, vals):
    ws = [np.full(n, h) for n, h in zip(grid.ns, grid.hs)]
    for w in ws:
        w[[0, -1]] *= 0.5
    dens = vals.real * vals.real
    dens += vals.imag * vals.imag
    dens *= ws[0] if grid.d == 1 else np.outer(*ws)
    return dens, dens.sum()


def _whole_coverage(grid, center, radius):
    if grid.d == 1:
        x, h = grid.axis(0), grid.hs[0]
        return np.clip(np.minimum((center[0] + radius - x) / h, 0.5) - np.maximum((center[0] - radius - x) / h, -0.5), 0.0, None)
    x0, x1 = grid.axis(0)[:, None], grid.axis(1)[None, :]
    dist = np.sqrt((x0 - center[0]) ** 2 + (x1 - center[1]) ** 2)
    half_diag = 0.5 * np.hypot(grid.hs[0], grid.hs[1])
    cover = np.zeros(grid.ns)
    cover[dist <= radius - half_diag] = 1.0
    ii, jj = np.nonzero((dist > radius - half_diag) & (dist < radius + half_diag))
    sub = (np.arange(8) + 0.5) / 8.0 - 0.5
    sx = x0[ii, 0, None, None] + sub[None, :, None] * grid.hs[0]
    sy = x1[0, jj, None, None] + sub[None, None, :] * grid.hs[1]
    cover[ii, jj] = ((sx - center[0]) ** 2 + (sy - center[1]) ** 2 <= radius**2).mean(axis=(1, 2))
    return cover


def _whole_report(pot, b, f, lam, center, radii):
    """(residual ratio, damping pairing, {radius: mass}) of f."""
    mesh = _whole_mesh(f.grid)
    dens, total = _whole_density(f.grid, f.values)
    res = _whole_p(pot.raw_value(mesh), f.values, f.grid.hs) - lam**2 * f.values
    ratio = math.sqrt(_whole_density(f.grid, res)[1]) / (lam * math.sqrt(total))
    pairing = None if b is None else float((dens * np.maximum(b.raw_func(mesh), 0.0)).sum() / total)
    mass = {r: float((dens * _whole_coverage(f.grid, center, r)).sum() / total) for r in radii}
    return ratio, pairing, mass


def _whole_envelope(grid, nu, t, w, center, xi):
    d = grid.d
    axes = [grid.axis(i).reshape([-1 if j == i else 1 for j in range(d)]) for i in range(d)]
    y2 = np.zeros(grid.ns)
    for e, half in [(nu, t)] if d == 1 else [(nu, t), ((-nu[1], nu[0]), w)]:
        y = sum(e[i] * (axes[i] - center[i]) / half for i in range(d))
        y2 += y * y
    env = quasimodes.bump_raw(y2)
    env /= quasimodes.profile_constants(d)["norm"] * (t * w ** (d - 1)) ** 0.5
    vals = env.astype(complex)
    for i in range(d):
        vals *= np.exp(1j * (xi[i] * (axes[i] - 0.5 * center[i])))
    return vals


@st.composite
def strip_cases(draw):
    """A grid cut into strips of 1 to all of its rows, a builtin well, a
    builtin damping or none, and a field that vanishes on the outermost two
    node layers, real or complex, with exact zeros of both signs inside."""
    d = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ns = [int(rng.integers(8, 300))] if d == 1 else [int(rng.integers(8, 48)), int(rng.integers(8, 32))]
    grid = make_grid(d, ns, rng.uniform(0.5, 6.0, size=d), center=rng.uniform(-3.0, 3.0, size=d))
    rows = draw(st.integers(1, ns[0]))
    name = draw(st.sampled_from(["harmonic", "power", "anisotropic"]))
    params = {"s": 2.5} if name == "power" else {"weights": rng.uniform(0.5, 3.0, size=d)} if name == "anisotropic" else {}
    pot = builtin_potential(name, d=d, **params)
    kind = draw(st.sampled_from([None, "constant", "exterior", "ball", "checkerboard"]))
    b = None if kind is None else builtin_damping(kind, d=d, **({"radius": 1.5} if kind in ("exterior", "ball") else {}))
    vals = rng.standard_normal(grid.ns)
    if draw(st.booleans()):
        vals = vals + 1j * rng.standard_normal(grid.ns)
    vals[rng.random(grid.ns) < 0.1] = 0.0
    vals[rng.random(grid.ns) < 0.1] *= -0.0
    edge = np.ones(grid.ns, dtype=bool)
    edge[(slice(2, -2),) * d] = False
    vals[edge] = 0.0
    center = np.asarray(grid.center) + rng.uniform(-1.0, 1.0, size=d) * np.asarray(grid.ls)
    radii = tuple(float(r) for r in rng.uniform(0.05, 1.5, size=2) * max(grid.ls))
    return grid, rows * math.prod(ns[1:]), pot, b, vals, float(rng.uniform(0.5, 20.0)), center, radii


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.deep
@given(strip_cases())
def test_strips_keep_the_whole_grid_bits(case):
    grid, budget, pot, b, vals, lam, center, radii = case
    f = Field(grid, vals)
    whole_v = pot.raw_value(_whole_mesh(grid))
    with mock.patch.object(fields, "_NODE_BUDGET", budget):
        assert len(fields._row_strips(grid.ns)) == -(-grid.ns[0] // (budget // math.prod(grid.ns[1:])))
        assert _same_bits(apply_P(pot, f).values, _whole_p(whole_v, f.values, grid.hs))
        for dtype in (float, complex):  # the time stepper's kernel, both arithmetics
            data = vals.real.copy() if dtype is float else f.values
            assert _same_bits(_kernel_p(whole_v, data, grid.hs, dtype), _whole_p(whole_v, data.astype(dtype), grid.hs))
        ratio, pairing, mass = _whole_report(pot, b, f, lam, center, radii)
        assert residual_ratio(pot, f, lam) == ratio
        assert b is None or damping_pairing(b, f) == pairing
        assert all(mass_in_ball(f, center, r) == mass[r] for r in radii)

        g, rep = quasimodes._finish(pot, grid, vals.astype(complex), lam, b, center, radii, {})
        raw_norm = math.sqrt(_whole_density(grid, f.values)[1])
        normalized = Field(grid, f.values / raw_norm)
        assert _same_bits(g.values, normalized.values) and rep.details["raw_norm"] == raw_norm
        assert (rep.residual_ratio, rep.damping_pairing, rep.mass) == _whole_report(pot, b, normalized, lam, center, radii)

        nu = (1.0,) if grid.d == 1 else (0.6, -0.8)
        shape = (0.4 * grid.ls[0], 0.3 * grid.ls[-1], grid.center, np.full(grid.d, 3.0))
        assert _same_bits(quasimodes._sample_envelope(grid, nu, *shape), _whole_envelope(grid, nu, *shape))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [0, 1, 7, (3, 0), (5, 3), (97, 97), (2, 3, 5)])
def test_aligned_arrays_start_a_cache_line(shape, dtype):
    a = fields._aligned(shape, dtype)
    assert a.shape == (tuple(shape) if np.iterable(shape) else (shape,))
    assert a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable
    assert a.ctypes.data % 64 == 0


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("ns, n_strips", [((512,), 1), ((75000,), 3), ((97, 97), 1), ((21, 13), 1), ((400, 200), 3)])
def test_stencil_stores_start_cache_lines(ns, n_strips, dtype):
    # every buffer a strip stores into starts a line: on every kernel call
    # the strip's part of the output and its scratch, and the padded field's
    # range that the leapfrog writes; on the packet path the scratch rows
    # that a strip's field and D are copied into, from node (i, 0) of each
    # row on, its P f and its scratch; and the strip buffer that apply_P and
    # residual_ratio receive P f in.  On the line the two halo nodes before
    # a strip (and past the grid's ends) are stored on their own, within
    # one line.
    def starts_lines(rows):
        rows = rows if rows.ndim > 1 else [rows]
        return all(row.ctypes.data % 64 == 0 or row.ctypes.data % 64 + row.nbytes <= 64 for row in rows)

    kernel = _PKernel(np.zeros(ns), (0.1,) * len(ns), dtype)
    assert len(kernel.rows) == n_strips
    assert kernel.width * np.dtype(dtype).itemsize % 64 == 0 or len(ns) == 1  # whole-line rows
    buf = kernel.field()
    assert kernel.span(buf).ctypes.data % 64 == 0
    parts = kernel._calls[id(buf)][1]
    assert len(parts) == n_strips
    for centre, pairs, dvals, acc, tmp in parts:
        assert all(a.ctypes.data % 64 == 0 for a in (centre, dvals, acc, tmp))
    for rs, copies, blanks, d_nodes, (centre, pairs, dvals, acc, tmp), acc_nodes in kernel.strips:
        assert copies[0][0].shape[0] == rs.stop - rs.start and copies[0][0].ctypes.data % 64 == 0
        assert all(starts_lines(rows) for rows in [dst for dst, _ in copies] + blanks + [d_nodes])
        assert all(a.ctypes.data % 64 == 0 for a in (centre, dvals, acc, tmp))
    f = Field(make_grid(len(ns), ns, 6.0), np.zeros(ns, dtype))
    strips = list(fields._p_rows(builtin_potential("harmonic", d=len(ns)), f))
    assert len(strips) == n_strips and all(pf.ctypes.data % 64 == 0 for _, pf in strips)

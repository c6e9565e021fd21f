import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stabscope.cli import _condition_params, _report_table, _run_conditions, _Section, _write_csv
from stabscope.potentials import builtin_potential, unit_directions
from stabscope.damping import (
    BLOCK_BYTES,
    CERTIFY_CHUNK,
    COUNT_MAX_CELLS,
    N_RAY,
    Damping,
    _count_damped,
    _parity_weights,
    _sobol,
    builtin_damping,
    default_ray_family,
    dsc_limit_scan,
    dsc_scan,
    flow_average,
    mollify_at,
    tpc_scan,
    turning_lattice,
    ugcc_scan,
    unit_ball_nodes,
)


def halfline() -> Damping:
    return Damping(1, lambda pts: 1.0 * (pts[..., 0] > 0.0), 1.0, "halfline")


# ---------------------------------------------------------------- builtins


def test_builtin_pointwise_values():
    ext = builtin_damping("exterior", d=1, radius=1.0)
    assert float(ext(np.array([0.5]))) == 0.0
    assert float(ext(np.array([2.0]))) == 1.0

    cb = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5, amplitude=2.0)
    assert float(cb(np.array([0.25, 0.25]))) == 2.0
    assert float(cb(np.array([0.75, 0.25]))) == 0.0

    const = builtin_damping("constant", d=2, amplitude=1.0)
    assert np.all(const(np.zeros((5, 2))) == 1.0)

    shells = builtin_damping("radial_shells", d=2, period=1.0, duty=0.5)
    assert float(shells(np.array([0.25, 0.0]))) == 1.0
    assert float(shells(np.array([0.75, 0.0]))) == 0.0

    strips = builtin_damping("strip_lattice", d=2, period=1.0, duty=0.5)
    assert float(strips(np.array([0.25, 3.7]))) == 1.0
    assert float(strips(np.array([0.75, -2.1]))) == 0.0

    # a NaN cell reads 0 in both cell indicators; a float cell of 2^53 or more
    # is an even integer, read without an overflowing cast, and 2^53 - 1 is odd
    for name in ("checkerboard", "strip_lattice"):
        assert float(builtin_damping(name, d=1)(np.nan)) == 0.0
    odd = 0.5 * (2.0**53 - 1.0)
    pts = np.array([[np.nan, 0.25], [np.nan, np.nan], [4.7e18, 0.25], [4.7e18, 0.75], [1e300, -1e300], [odd, 0.25]])
    assert np.array_equal(cb(pts), [0.0, 0.0, 2.0, 0.0, 2.0, 0.0])


def test_builtin_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown damping"):
        builtin_damping("gaussian", d=1)
    with pytest.raises(ValueError, match="negative amplitude"):
        builtin_damping("constant", d=1, amplitude=-1.0)
    with pytest.raises(ValueError, match="unknown damping parameters"):
        builtin_damping("constant", d=1, radius=2.0)
    with pytest.raises(ValueError, match="duty ratio"):
        builtin_damping("checkerboard", d=1, period=1.0, duty=1.5)
    # the message builtin_potential gives, before any node count is sized
    for name in ("constant", "ball", "checkerboard", "strip_lattice"):
        for d in (3, 0, -1, 2.5):
            with pytest.raises(ValueError, match="only dimensions 1 and 2 are supported"):
                builtin_damping(name, d=d)


@pytest.mark.parametrize(
    "name, params, match",
    [
        ("constant", {"amplitude": float("nan")}, "amplitude must be finite"),
        ("exterior", {"amplitude": float("inf")}, "amplitude must be finite"),
        pytest.param("exterior", {"radius": -1.0}, "need radius > 0", id="exterior-params2-radius must be positive and finite"),
        pytest.param("ball", {"radius": 0.0}, "need radius > 0", id="ball-params3-radius must be positive and finite"),
        pytest.param("ball", {"radius": float("nan")}, "need radius > 0", id="ball-params4-radius must be positive and finite"),
        pytest.param(
            "checkerboard", {"period": 0.0}, "need period > 0", id="checkerboard-params5-period must be positive and finite"
        ),
        pytest.param(
            "radial_shells",
            {"period": float("inf")},
            "need period finite",
            id="radial_shells-params6-period must be positive and finite",
        ),
        pytest.param(
            "strip_lattice", {"period": -1.0}, "need period > 0", id="strip_lattice-params7-period must be positive and finite"
        ),
        ("radial_shells", {"duty": 1.5}, "duty ratio"),
        ("strip_lattice", {"duty": 0.0}, "duty ratio"),
        ("strip_lattice", {"duty": float("nan")}, "duty ratio"),
    ],
)
def test_builtin_rejects_invalid_parameters(name, params, match):
    # each of these used to build a coefficient whose scans gave a wrong verdict
    with pytest.raises(ValueError, match=match):
        builtin_damping(name, d=2, **params)


def test_ball_center_has_one_coordinate_per_axis():
    # a scalar centre is shared by every axis; a centre of the wrong length is rejected
    shared = builtin_damping("ball", d=2, radius=1.0, center=0.5)
    assert float(shared(np.array([0.5, 0.5]))) == 1.0
    assert float(shared(np.array([0.5, -0.6]))) == 0.0
    with pytest.raises(ValueError, match="ball center must have one coordinate per axis, d = 1"):
        builtin_damping("ball", d=1, radius=1.0, center=[0.0, 3.0])


# ------------------------------------------------------------ mollify_at


def test_mollify_constant_exact():
    b = builtin_damping("constant", d=2, amplitude=0.7)
    pts = np.array([[0.0, 0.0], [3.0, -1.0]])
    assert np.max(np.abs(mollify_at(b, 0.5, pts) - 0.7)) <= 1e-15


def test_mollify_interval_overlap():
    b = builtin_damping("ball", d=1, radius=1.0)
    got = float(mollify_at(b, 2.0, np.zeros(1)))
    # interval-intersection oracle: |(-1,1) ∩ (-2,2)| / |(-2,2)|
    lo, hi = max(-1.0, -2.0), min(1.0, 2.0)
    exact = (hi - lo) / 4.0
    assert exact == 0.5
    assert abs(got - exact) <= 4e-3


def test_mollify_halfline_symmetry():
    for r in (0.1, 1.0, 7.0):
        assert abs(float(mollify_at(halfline(), r, np.zeros(1))) - 0.5) <= 4e-3


def test_mollify_rejects_nonpositive_radius():
    b = builtin_damping("constant", d=1)
    with pytest.raises(ValueError, match="need mollification radius r > 0"):
        mollify_at(b, 0.0, np.zeros(1))
    with pytest.raises(ValueError, match="need mollification radius r > 0"):
        mollify_at(b, np.array([0.5, 1.0, -0.1, 2.0]), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="need mollification radius r > 0"):
        mollify_at(b, np.array([0.5, np.nan]), np.zeros((2, 1)))


BUILTIN_PARAMS = (
    ("constant", {}),
    ("exterior", {"radius": 1.0}),
    ("ball", {"radius": 1.0}),
    ("checkerboard", {"period": 1.0, "duty": 0.5}),
    ("radial_shells", {"period": 1.0, "duty": 0.5}),
    ("strip_lattice", {"period": 1.0, "duty": 0.5}),
)


def gaussian_bump(d: int, amplitude: float) -> Damping:
    # smooth, so every bit of every shifted node shows in the average
    return Damping(d, lambda pts: amplitude * np.exp(-np.sum(pts**2, axis=-1)), amplitude, "gaussian")


def block_length(d: int) -> int:
    return BLOCK_BYTES // (8 * d * 512 * d)


@st.composite
def mollify_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    name, params = draw(st.sampled_from(BUILTIN_PARAMS + (("gaussian", {}),)))
    amplitude = draw(st.floats(0.0, 4.0, allow_nan=False))
    if name == "gaussian":
        b = gaussian_bump(d, amplitude)
    else:
        b = builtin_damping(name, d=d, amplitude=amplitude, **params)
    m = block_length(d)
    n = draw(st.sampled_from([1, m - 1, m, m + 1, 3 * m + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(scale=draw(st.sampled_from([0.5, 3.0, 40.0])), size=(n, d))
    if draw(st.booleans()):
        r = rng.uniform(0.01, 2.0, size=n)
    else:
        r = draw(st.floats(0.01, 2.0, allow_nan=False))
    return b, pts, r


@pytest.mark.deep
@given(mollify_cases())
def test_mollify_matches_direct_formula(case):
    # the blocked kernel keeps every bit of the per-point node average
    b, pts, r = case
    got = mollify_at(b, r, pts)
    nodes = unit_ball_nodes(b.d, 512 * b.d)
    radii = np.broadcast_to(r, pts.shape[:1])
    direct = np.array([b.raw_func(p + rad * nodes).mean() for p, rad in zip(pts, radii)])
    assert got.shape == pts.shape[:1]
    assert np.array_equal(got, direct)

    # a mean of values in [0, b_max] errs by at most n_nodes * eps * b_max
    tol = nodes.shape[0] * np.finfo(float).eps * b.b_max
    assert np.all(got >= 0.0)
    assert np.all(got <= b.b_max + tol)
    if b.label.startswith("constant"):
        assert np.all(np.abs(got - b.b_max) <= tol)


def test_mollify_nested_matches_direct_formula():
    # a coefficient whose raw_func itself calls mollify_at: each call owns its
    # scratch buffer, so both levels keep the bits of the direct formula
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    r0, r = 0.3, 0.2
    smoothed = Damping(2, lambda pts: mollify_at(b, r0, pts), b.b_max, "smoothed")
    pts = np.array([[0.3, -0.2], [1.7, 0.45], [-2.1, 3.3]])
    nodes = unit_ball_nodes(2, 1024)

    def inner(q):
        return np.array([b.raw_func(p + r0 * nodes).mean() for p in q])

    direct = np.array([inner(p + r * nodes).mean() for p in pts])
    assert np.array_equal(mollify_at(smoothed, r, pts), direct)


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol:UserWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 512, 1000, 1024, 4096])
@pytest.mark.parametrize("d", [1, 2])
def test_sobol_keeps_the_scipy_bits(d, n):
    from scipy.stats import qmc

    ref = qmc.Sobol(d, scramble=False, seed=None).random(n)
    got = _sobol(d, n)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [0, 3])
def test_sobol_rejects_other_dimensions(d):
    with pytest.raises(ValueError, match="d = 1 and 2 only"):
        _sobol(d, 8)


@st.composite
def trapezoid_cases(draw):
    # _window_mean's shapes: N_RAY window samples of the mollified b along
    # axis 0 (DSC, per flow time) or axis 1 (UGCC, per ray), values in [0, b_max]
    axis = draw(st.sampled_from([0, 1]))
    n = draw(st.integers(1, 12))
    shape = (N_RAY, n) if axis == 0 else (n, N_RAY)
    b_max = draw(st.sampled_from([1.0, 1.0 / 3.0, 2.7, 1e-300, 1e300]))
    unit = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])))
    T = draw(st.floats(1e-6, 1e6))
    return b_max * unit, np.linspace(-T, T, N_RAY), axis


@settings(max_examples=200)
@given(trapezoid_cases())
def test_numpy_trapezoid_keeps_the_scipy_bits(case):
    from scipy.integrate import trapezoid

    vals, ts, axis = case
    assert np.trapezoid(vals, ts, axis=axis).tobytes() == trapezoid(vals, ts, axis=axis).tobytes()


# ------------------------------------------------------ damped-node counts

# Non-dyadic amplitudes: the mean of n copies of 0.3 or 1/3 is not the amplitude itself
AMPLITUDES = (0.3, 1.0 / 3.0, 1.0, 2.7)


def _band_edges(name: str, params: dict) -> list:
    """Sorted values of the builtin's 1-Lipschitz scalar between which b is constant.

    The first and last entries only close the outer bands; for |x| and
    |x - c| the scalar starts at 0.
    """
    if name == "constant":
        return [-4.0, 4.0]
    if name in ("exterior", "ball"):
        return [0.0, params["radius"], 2.0 * params["radius"] + 3.0]
    L, q = params["period"], params["duty"]
    if name == "checkerboard":
        return [k * q * L for k in range(-4, 5)]
    ks = range(0, 4) if name == "radial_shells" else range(-3, 3)
    return sorted([k * L for k in ks] + [(k + q) * L for k in ks])


@st.composite
def certificate_cases(draw):
    """A builtin in d = 1 or 2 and balls centred in its bands or touching its edges.

    A touching ball's rim lies within 1e-12 or 1e-7 of a band edge, on either
    side; a centred ball sits in the middle of one band with room to spare,
    so the hook must count it.  Each ball has its own radius.
    """
    d = draw(st.sampled_from([1, 2]))
    name, params = draw(st.sampled_from(BUILTIN_PARAMS))
    params = dict(params)
    if "radius" in params:
        params["radius"] = draw(st.sampled_from([0.3, 1.0, 2.7]))
    if "period" in params:
        params["period"] = draw(st.sampled_from([0.3, 1.0, 2.5]))
        params["duty"] = draw(st.sampled_from([0.3, 0.5, 0.85]))
    center = np.zeros(d)
    if name == "ball" and draw(st.booleans()):
        center = np.array([0.37, -1.1][:d])
        params["center"] = center
    b = builtin_damping(name, d=d, amplitude=draw(st.sampled_from(AMPLITUDES)), **params)
    edges = _band_edges(name, params)
    n_axes = d if name == "checkerboard" else 1

    pts, radii, inside = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        centred = draw(st.booleans())
        if centred:  # in the middle of one band on every axis the builtin reads
            bands = [draw(st.integers(0, len(edges) - 2)) for _ in range(n_axes)]
            r = draw(st.floats(0.01, 0.9)) * min(edges[k + 1] - edges[k] for k in bands) / 2.0
            scalars = [(edges[k] + edges[k + 1]) / 2.0 for k in bands]
        else:  # rim within 1e-12 (inside the slack) or 1e-7 (outside it) of an edge
            r = draw(st.floats(0.01, 0.99)) * min(np.diff(edges)) / 2.0
            scalars = [
                draw(st.sampled_from(edges))
                + draw(st.sampled_from([-r, r]))
                + draw(st.sampled_from([1e-12, 1e-7])) * draw(st.floats(-1.0, 1.0))
                for _ in range(n_axes)
            ]
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        unit = np.array([np.cos(theta), np.sin(theta)]) if d == 2 else np.array([draw(st.sampled_from([-1.0, 1.0]))])
        free = [draw(st.floats(-5.0, 5.0)) for _ in range(d)]
        if name in ("exterior", "ball", "radial_shells"):
            if scalars[0] < 0.0:
                continue
            x = center + scalars[0] * unit
        elif name == "constant":
            x = np.array(free)
        else:  # strips fix x_1, the checkerboard every axis
            x = np.array(scalars + free[n_axes:])
        pts.append(x)
        radii.append(r)
        inside.append(centred)
    return b, np.array(pts).reshape(-1, d), np.array(radii), np.array(inside, dtype=bool)


def _probe_nodes(d: int) -> np.ndarray:
    """The mollifier's nodes and the unit sphere stretched by 1e-12."""
    if d == 1:
        sphere = np.array([[-1.0], [1.0]])
    else:
        theta = 2.0 * np.pi * np.arange(256) / 256
        sphere = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return np.concatenate([unit_ball_nodes(d, 512 * d), (1.0 + 1e-12) * sphere])


@settings(max_examples=300)
@given(certificate_cases())
def test_ball_certificate_is_sound_and_exact(case):
    b, pts, radii, inside = case
    n = 512 * b.d
    k = b.damped_nodes(pts, radii)
    assert not np.any(np.isnan(k[inside]))
    # (b) a ball counted all damped or all undamped reads one value at every
    # node, and for the slack certificates on the rim too
    probe = unit_ball_nodes(b.d, n) if b.label.startswith(("checkerboard", "strip_lattice")) else _probe_nodes(b.d)
    for x, r, kk in zip(pts, radii, k):
        if kk in (0, n):
            assert np.all(b.raw_func(r * probe + x) == (b.b_max if kk == n else 0.0))
    # (a) skipping the quadrature changes no bit of the average
    uncounted = dataclasses.replace(b, damped_nodes=None)
    assert np.array_equal(mollify_at(b, radii, pts), mollify_at(uncounted, radii, pts))


def _edge_coordinate(draw, edges, r, scale):
    """On a band edge, 1e-12 off one, a rim's distance r from one (so an extreme
    node lands on it), anywhere within three scales of 0, or far out."""
    kind = draw(st.sampled_from(["edge", "near", "rim", "free", "far"]))
    e = draw(st.sampled_from(edges))
    if kind == "near":
        e += draw(st.sampled_from([-1e-12, 1e-12]))
    elif kind == "rim":
        e += draw(st.sampled_from([-r, r]))
    elif kind == "free":
        e = draw(st.floats(-3.0, 3.0)) * scale
    elif kind == "far":
        e = draw(st.floats(-1e6, 1e6))
    return e


@st.composite
def damped_node_cases(draw):
    """A builtin, an amplitude of AMPLITUDES, and balls anywhere relative to its bands.

    Each coordinate, or |x| for the radial builtins, is an `_edge_coordinate`;
    radii run from 0.01 to 20 bands.
    """
    d = draw(st.sampled_from([1, 2]))
    name, params = draw(st.sampled_from(BUILTIN_PARAMS))
    params = dict(params)
    if "radius" in params:
        params["radius"] = draw(st.sampled_from([0.3, 1.0, 2.7]))
    if "period" in params:
        params["period"] = draw(st.sampled_from([0.37, 1.0, 2.5]))
        params["duty"] = draw(st.sampled_from([0.3, 0.5, 0.85]))
    b = builtin_damping(name, d=d, amplitude=draw(st.sampled_from(AMPLITUDES)), **params)
    edges = _band_edges(name, params)
    width = min(np.diff(edges))
    n = draw(st.integers(1, 6))
    radii = np.array([width * 10.0 ** draw(st.floats(-2.0, math.log10(20.0))) for _ in range(n)])
    pts = np.array([[_edge_coordinate(draw, edges, r, width) for _ in range(d)] for r in radii])
    if d == 2 and name in ("exterior", "ball", "radial_shells"):
        for p in pts:
            theta = draw(st.floats(0.0, 2.0 * np.pi))
            p[:] = p[0] * np.array([np.cos(theta), np.sin(theta)])
    return b, pts, radii


def _assert_counts_damped_nodes(b: Damping, pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The hook's contract: where k is known, raw_func reads b_max at exactly
    k of the ball's nodes and 0 at the others.  Returns k."""
    nodes = unit_ball_nodes(b.d, 512 * b.d)
    k = b.damped_nodes(pts, radii)
    assert k.shape == radii.shape
    for x, r, kk in zip(pts, radii, k):
        if not np.isnan(kk):
            values = b.raw_func(r * nodes + x)
            assert np.all((values == b.b_max) | (values == 0.0))
            assert np.count_nonzero(values == b.b_max) == kk
    return k


@pytest.mark.deep
@given(damped_node_cases())
def test_damped_nodes_counts_the_nodes_raw_func_damps(case):
    _assert_counts_damped_nodes(*case)


@st.composite
def far_cell_cases(draw):
    """A cell indicator at amplitude 1 and balls out to 2^50 cell widths, each meeting 1 to 16 cells per axis.

    A checkerboard coordinate is k cells of width w out, k up to 2^50, a
    strip's j periods L out, j up to 2^49 (band index 2^50), then on a cell
    edge, 1e-12 cells off one or anywhere in the cell.  Radii run from 1e-3 w
    to 7 w on the checkerboard and from 1e-3 L to 3 L on the strips: rounding
    at 2^50 cells moves each end of a ball by at most w / 4 or L / 8, so every
    ball meets at most 16 cells per axis and is counted.
    """
    d = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(["checkerboard", "strip_lattice"]))
    period = draw(st.sampled_from([0.01, 0.37, 1.0, 10.0]))
    duty = draw(st.sampled_from([0.05, 0.3, 0.5, 0.95]))
    b = builtin_damping(name, d=d, period=period, duty=duty)
    width, far, reach = (duty * period, 2**50, 7.0) if name == "checkerboard" else (period, 2**49, 3.0)
    edges = [0.0, duty] if name == "strip_lattice" else [0.0]

    def coordinate():
        start = draw(st.sampled_from([0, 1, 1000, far // 3, far])) * draw(st.sampled_from([-1, 1]))
        kind = draw(st.sampled_from(["edge", "near", "free"]))
        frac = draw(st.sampled_from(edges)) if kind != "free" else draw(st.floats(0.0, 1.0, exclude_max=True))
        if kind == "near":
            frac += draw(st.sampled_from([-1e-12, 1e-12]))
        return (start + frac) * width

    n = draw(st.integers(1, 8))
    radii = np.array([width * 10.0 ** draw(st.floats(-3.0, math.log10(reach))) for _ in range(n)])
    pts = np.array([[coordinate() for _ in range(d)] for _ in range(n)])
    return b, pts, radii


@pytest.mark.deep
@given(far_cell_cases())
def test_damped_nodes_counts_far_balls_across_many_cells(case):
    k = _assert_counts_damped_nodes(*case)
    assert not np.any(np.isnan(k))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 1e15])
def test_cell_search_evaluates_boundedly_many_points(scale, d):
    # the sorted guess of where a cell starts costs two cell evaluations per
    # ball, target and axis, and a wrong guess at most 1 + ceil(log2 n) more
    # (one probe, then the bisection); at |x| ~ 1e15 the rounding of
    # r * node + x to multiples of 1/8 moves a cell's start dozens of ranks
    # from the guess
    evaluated = [0]

    def cell(s, a=0.5):
        evaluated[0] += s.size
        return np.floor(s / a)

    def edge(k, a=0.5):
        return k * a

    n, r = 512 * d, 0.25
    rng = np.random.default_rng(3)
    pts = scale + rng.uniform(-2.0, 2.0, size=(500, d))
    nodes = unit_ball_nodes(d, n)
    spans = cell(r * nodes.max(axis=0) + pts) - cell(r * nodes.min(axis=0) + pts)  # (balls, d)
    targets = spans.max(axis=0).sum()  # per ball, over the axes
    evaluated[0] = 0
    k = _count_damped((cell,) * d, (edge,) * d, n, COUNT_MAX_CELLS, pts, np.full(500, r))
    extremes, guesses = 2 * d * 500, 2 * targets * 500  # the lowest and highest node per ball and axis, then the checks
    assert extremes + guesses <= evaluated[0] <= extremes + (2 + 1 + math.ceil(math.log2(n))) * targets * 500
    if scale > 1.0:  # some guesses missed and were corrected
        assert evaluated[0] > extremes + guesses
    even = (np.sum(cell(r * nodes[None] + pts[:, None]), axis=-1) % 2 == 0).sum(axis=1)
    assert np.array_equal(k, even)


@pytest.mark.parametrize("shape", [(4,), (3, 5)])
def test_parity_weights_are_built_once_per_shape(shape):
    # every chunk of _count_damped reads the same matrix, which no caller may change
    w = _parity_weights(shape)
    assert _parity_weights(shape) is w
    assert not w.flags.writeable
    assert w.shape == (2, math.prod(shape))


@pytest.mark.parametrize("name, params", BUILTIN_PARAMS)
def test_certified_mollify_spans_chunks(name, params):
    # several counting chunks, each mixing counted and quadrature rows
    b = builtin_damping(name, d=2, amplitude=0.3, **params)
    rng = np.random.default_rng(7)
    n = 2 * CERTIFY_CHUNK + 37
    pts, radii = rng.uniform(-4.0, 4.0, size=(n, 2)), rng.uniform(0.01, 0.3, size=n)
    got = mollify_at(b, radii, pts)
    assert np.array_equal(got, mollify_at(dataclasses.replace(b, damped_nodes=None), radii, pts))


def _counting(b: Damping):
    """b with a raw_func that counts the points it evaluates."""
    count = [0]

    def func(pts):
        count[0] += int(np.prod(pts.shape[:-1]))
        return b.raw_func(pts)

    return dataclasses.replace(b, raw_func=func), count


def test_certificate_skips_constant_balls():
    const, count = _counting(builtin_damping("constant", d=2, amplitude=0.3))
    ugcc_scan(const, 2.0, 0.25)
    assert count[0] == 0

    ext, count = _counting(builtin_damping("exterior", d=2, radius=1.0))
    rep = ugcc_scan(ext, 2.0, 0.25)
    # each ball that is not skipped costs 1024 node evaluations in d = 2
    assert count[0] < 0.1 * rep.sample_values.size * N_RAY * 1024

    for name in ("checkerboard", "strip_lattice"):
        # no ball meets more than two cells per axis, so every one is counted
        cells, count = _counting(builtin_damping(name, d=2, period=1.0, duty=0.5))
        ugcc_scan(cells, 2.0, 0.25)
        assert count[0] == 0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", ["checkerboard", "strip_lattice", "radial_shells"])
def test_overflowed_cell_reads_as_a_far_cell(name, d):
    # x / (cell width) beyond the float range is a cell beyond 2^53, which is
    # even: damped, as a finite cell that far reads, and no warning is raised
    b = builtin_damping(name, d=d, period=1e-300)
    assert np.all(b([1e10, 0.0]) == 1.0)  # two points in 1D, one in 2D
    far = np.array([[1e10, 0.0], [-1e10, 0.25], [1e300, -3.0], [-1.7e308, 1e10]])[:, :d]
    assert np.array_equal(b.raw_func(far), np.ones(4))
    finite_far = builtin_damping(name, d=d, period=1e-3)
    assert np.array_equal(finite_far.raw_func(np.array([[1e14, 0.0]])[:, :d]), [1.0])
    # the extreme nodes' cells overflow too, so no ball is counted and the
    # quadrature reads every node damped; the shells' slack certificate may
    # count a ball whose nodes all lie in the one overflowed band
    radii = np.array([0.25, 1e-290, 3.0, 0.5])
    k = b.damped_nodes(far, radii)
    assert np.all(np.isnan(k) | ((name == "radial_shells") & (k == 512 * d)))
    nodes = unit_ball_nodes(d, 512 * d)
    direct = np.array([b.raw_func(p + r * nodes).mean() for p, r in zip(far, radii)])
    assert np.array_equal(mollify_at(b, radii, far), direct)
    assert np.array_equal(direct, np.ones(4))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name, far_value", [("exterior", 1.0), ("ball", 0.0), ("radial_shells", 1.0)])
def test_norm_beyond_the_float_range_reads_as_a_far_point(name, far_value, d):
    # |x|^2 overflows: the norm saturates to inf, farther than any radius or shell
    b = builtin_damping(name, d=d)
    far = np.array([[1e200, 0.0], [-1e200, 3.0], [-1.7e308, 1e10]])[:, :d]
    radii = np.array([0.5, 1e190, 2.0])
    nodes = unit_ball_nodes(d, 512 * d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(b.raw_func(far), np.full(3, far_value))
        direct = np.array([b.raw_func(p + r * nodes).mean() for p, r in zip(far, radii)])
        assert np.array_equal(direct, np.full(3, far_value))
        assert np.array_equal(mollify_at(b, radii, far), direct)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name, params", BUILTIN_PARAMS)
def test_nan_ball_takes_the_quadrature(name, params, d):
    # a NaN coordinate reads undamped in raw_func, and the hook counts no ball
    # whose centre has a NaN coordinate that b reads, so its mean is the quadrature's
    b = builtin_damping(name, d=d, **params)
    pts = np.array([[np.nan, np.nan], [np.nan, 0.5], [0.5, np.nan]][: d + 1])[:, :d]
    nodes = unit_ball_nodes(d, 512 * d)
    direct = np.array([b.raw_func(p + 0.25 * nodes).mean() for p in pts])
    watched, count = _counting(b)
    assert np.array_equal(mollify_at(watched, 0.25, pts), direct)
    reads = np.isnan(pts).any(axis=1)
    if name == "constant":  # b reads no coordinate
        reads[:] = False
    elif name == "strip_lattice":  # b reads x_1 alone
        reads = np.isnan(pts[:, 0])
    assert count[0] == nodes.shape[0] * np.count_nonzero(reads)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", ["checkerboard", "strip_lattice"])
def test_inexact_amplitude_counts_only_one_cell_balls(name, d):
    # at an amplitude whose sums are not exact, mollify_at uses only k = 0 and
    # k = n_nodes, so the hook counts the balls in one cell per axis and no
    # other; the means keep the bits of the direct quadrature
    b = builtin_damping(name, d=d, amplitude=0.3, period=1.0, duty=0.5)
    rng = np.random.default_rng(5)
    pts, radii = rng.uniform(-3.0, 3.0, size=(300, d)), rng.uniform(0.01, 0.6, size=300)
    n = 512 * d
    k = b.damped_nodes(pts, radii)
    nodes = unit_ball_nodes(d, n)
    values = np.array([b.raw_func(p + r * nodes) for p, r in zip(pts, radii)])
    edges = np.arange(-8.0, 9.0) * 0.5  # cell and band edges of period 1, duty 0.5
    lo = np.searchsorted(edges, pts - radii[:, None], side="right")
    hi = np.searchsorted(edges, pts + radii[:, None], side="right")
    axes = d if name == "checkerboard" else 1
    one_cell = np.all(lo[:, :axes] == hi[:, :axes], axis=1)
    assert one_cell.any() and not one_cell.all()
    assert np.all(np.isnan(k[~one_cell]))
    assert np.array_equal(k[one_cell], np.count_nonzero(values[one_cell] == 0.3, axis=1))
    assert set(np.unique(k[one_cell])) <= {0.0, float(n)}
    assert np.array_equal(mollify_at(b, radii, pts), values.mean(axis=1))
    # at amplitude 1 the same straddling balls are counted
    exact = builtin_damping(name, d=d, amplitude=1.0, period=1.0, duty=0.5)
    assert not np.any(np.isnan(exact.damped_nodes(pts, radii)))


# ------------------------------------------------------ counted ball means

# Every sum of up to 1024 copies of these is exact, so their ball means are counted
DYADIC_AMPLITUDES = (0.0, 0.75, 1.0, 2.5, 3.0)


@st.composite
def counted_cases(draw):
    """A checkerboard or strip lattice with points and radii around its cell edges.

    Radii run from 0.01 to 50 cells, one for all points or one per point.
    Each coordinate lies on a cell edge, 1e-12 off one, with the ball's rim
    on one, anywhere in a few cells, or far out.
    """
    d = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(["checkerboard", "strip_lattice"]))
    params = {"period": draw(st.sampled_from([1.0, 0.37, 2.5, 1e-3])), "duty": draw(st.sampled_from([0.5, 0.3, 0.01]))}
    amplitude = draw(st.sampled_from(DYADIC_AMPLITUDES + AMPLITUDES))
    edges = _band_edges(name, params)
    width = min(np.diff(edges))

    def radius():
        return width * 10.0 ** draw(st.floats(-2.0, math.log10(50.0)))

    n = draw(st.integers(1, 8))
    radii = [radius() for _ in range(n)]
    pts = np.array([[_edge_coordinate(draw, edges, r, params["period"]) for _ in range(d)] for r in radii])
    r = np.array(radii) if draw(st.booleans()) else radii[0]
    return name, params, amplitude, pts, r


@pytest.mark.deep
@given(counted_cases())
# 1e17 cells out: beyond 2**52 cell indices the mean takes the quadrature
@example(("checkerboard", {"period": 1e-3, "duty": 0.01}, 1.0, np.array([[1e12, 5.30001]]), 2e-5))
# balls meeting 16 and 17 cells: the first is counted, the second evaluated
@example(("checkerboard", {"period": 1.0, "duty": 0.5}, 1.0, np.array([[0.0], [0.1]]), 4.0))
def test_counted_mollify_matches_direct_formula(case):
    name, params, amplitude, pts, r = case
    b = builtin_damping(name, d=pts.shape[1], amplitude=amplitude, **params)
    watched, count = _counting(b)
    got = mollify_at(watched, r, pts)
    nodes = unit_ball_nodes(b.d, 512 * b.d)
    radii = np.broadcast_to(r, pts.shape[:1])
    direct = np.array([b.raw_func(p + rad * nodes).mean() for p, rad in zip(pts, radii)])
    assert np.array_equal(got, direct)

    # b is evaluated on exactly the balls not counted; with cell indices below
    # 2**52, a ball is counted when it meets at most COUNT_MAX_CELLS cells per
    # axis and the amplitude sums exactly, or else when it sits in one cell per axis
    L, q = params["period"], params["duty"]
    if name == "checkerboard":
        rules = [lambda s: np.floor(s / (q * L))] * b.d
    else:
        rules = [lambda s: 2.0 * np.floor(s / L) + (s / L - np.floor(s / L) >= q)]
    within = np.ones(radii.shape, dtype=bool)
    one_cell = np.ones(radii.shape, dtype=bool)
    for i, cell in enumerate(rules):
        lo, hi = cell(radii * nodes[:, i].min() + pts[:, i]), cell(radii * nodes[:, i].max() + pts[:, i])
        in_range = (np.abs(lo) < 2.0**52) & (np.abs(hi) < 2.0**52)
        within &= (hi - lo < COUNT_MAX_CELLS) & in_range
        one_cell &= (hi == lo) & in_range
    evaluated = ~(within if amplitude in DYADIC_AMPLITUDES else one_cell)
    assert count[0] == nodes.shape[0] * int(evaluated.sum())


# ----------------------------------------------------- plane-wise kernels


def _reference_raw(name: str, params: dict, amplitude: float, pts: np.ndarray) -> np.ndarray:
    """The builtin raw_func formulas as they stood before the plane-wise kernels."""
    if name == "constant":
        return np.full(pts.shape[:-1], amplitude)
    if name == "exterior":
        return amplitude * (np.linalg.norm(pts, axis=-1) >= params["radius"])
    if name == "ball":
        return amplitude * (np.linalg.norm(pts - params["center"], axis=-1) <= params["radius"])
    L, q = params["period"], params["duty"]
    if name == "checkerboard":
        idx = np.floor(pts / (q * L)).astype(np.int64)
        return amplitude * (idx.sum(axis=-1) % 2 == 0)
    s = np.linalg.norm(pts, axis=-1) if name == "radial_shells" else pts[..., 0]
    return amplitude * (np.mod(s / L, 1.0) < q)


@st.composite
def kernel_cases(draw):
    """A builtin with drawn parameters and points on, near and far from its edges.

    Edge points put the builtin's scalar (|x|, |x - c|, x_1 or every axis of
    the checkerboard) on a band edge, exactly or within 1e-12; far points
    reach |x| = 1e12.  The points come as an (m, n, d) array.
    """
    d = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from([name for name, _ in BUILTIN_PARAMS]))
    params = {}
    if name in ("exterior", "ball"):
        params["radius"] = draw(st.floats(1e-3, 1e3))
    if name == "ball":
        params["center"] = np.array([draw(st.floats(-1e3, 1e3)) for _ in range(d)])
    if name in ("checkerboard", "radial_shells", "strip_lattice"):
        # the smallest cells put |x| = 1e12 beyond 2**53 cells, where only int64 keeps the parity
        params["period"] = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-3, 1.0])))
        params["duty"] = draw(st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.01, 0.5])))
    amplitude = draw(st.one_of(st.sampled_from(AMPLITUDES), st.floats(0.0, 10.0)))

    def edge():
        if name in ("constant", "exterior", "ball"):
            e = params.get("radius", 1.0)
        else:
            L, q = params["period"], params["duty"]
            k = draw(st.one_of(st.integers(-3, 3), st.integers(-10**9, 10**9)))
            if name == "checkerboard":
                e = k * q * L
            else:
                e = (abs(k) if name == "radial_shells" else k) * L + draw(st.sampled_from([0.0, q * L]))
        return e + draw(st.sampled_from([0.0, 1e-12, -1e-12, 5e-13, -5e-13]))

    coords = st.one_of(st.floats(-1e12, 1e12), st.floats(-20.0, 20.0), st.sampled_from([-1e12, 1e12]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    pts = np.empty((m * n, d))
    for p in pts:
        p[:] = [draw(coords) for _ in range(d)]
        if draw(st.booleans()):
            if name in ("exterior", "ball", "radial_shells"):
                theta = draw(st.floats(0.0, 2.0 * np.pi))
                unit = np.array([np.cos(theta), np.sin(theta)]) if d == 2 else np.array([draw(st.sampled_from([-1.0, 1.0]))])
                p[:] = params.get("center", 0.0) + edge() * unit
            elif name == "strip_lattice":
                p[0] = edge()
            else:
                p[:] = [edge() for _ in range(d)]
    return name, params, amplitude, pts.reshape(m, n, d)


@pytest.mark.deep
@settings(max_examples=max(300, settings.default.max_examples))  # 300, or the deep profile's count
@given(kernel_cases())
# 1e17 + 530001 cells: a float sum of the cell indices rounds the odd parity away
@example(("checkerboard", {"period": 1e-3, "duty": 0.01}, 1.0, np.array([[[1e12, 5.30001]]])))
def test_plane_wise_kernels_keep_the_bits(case):
    # raw_func keeps the old formula's bits in both layouts it is handed
    name, params, amplitude, pts = case
    b = builtin_damping(name, d=pts.shape[-1], amplitude=amplitude, **params)
    rows = np.ascontiguousarray(pts.reshape(-1, b.d))  # C-contiguous (k, d) points
    planes = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1)  # the mollifier's layout
    expected = _reference_raw(name, params, amplitude, rows)
    assert np.array_equal(b.raw_func(rows), expected)
    got = b.raw_func(planes)
    assert got.shape == pts.shape[:-1]
    assert np.array_equal(got, _reference_raw(name, params, amplitude, planes))
    assert np.array_equal(got.reshape(-1), expected)


# ------------------------------------------------- one-ray UGCC averages


def test_ray_average_constant():
    b = builtin_damping("constant", d=2, amplitude=0.3)
    rep = ugcc_scan(b, 2.0, 0.5, [(np.zeros(2), np.array([1.0, 0.0]))])
    assert rep.infimum == pytest.approx(0.3, abs=1e-12)


def test_ray_average_exterior_segments():
    b = builtin_damping("exterior", d=1, radius=1.0)
    got = ugcc_scan(b, 2.0, 1e-3, [(np.zeros(1), np.ones(1))]).infimum
    # exact-segment oracle: damped on |t| in [1, 2] out of [-2, 2]
    exact = 2.0 / 4.0
    assert abs(got - exact) <= 4e-3


def test_ray_average_zero_damping():
    b = builtin_damping("constant", d=1, amplitude=0.0)
    assert ugcc_scan(b, 1.0, 0.1, [(np.zeros(1), np.ones(1))]).infimum == 0.0


# ------------------------------------------------------------- ugcc_scan


def test_ugcc_constant_passes(canonical_conditions):
    rep = canonical_conditions["reports"]["constant"]["UGCC"]
    assert rep.infimum == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_ugcc_checkerboard_window_covers(harmonic_2d):
    # period 1, duty 1/2, window T = 4 * period
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    rays = default_ray_family(2, box=2.0, n_per_axis=5, n_dirs=12)
    rep = ugcc_scan(b, 4.0, 0.25, rays)
    assert rep.passed
    assert rep.infimum == pytest.approx(0.49606502757352944, rel=1e-12)

    # plain Monte Carlo oracle on the worst ray, independent of the scan's
    # low-discrepancy nodes
    worst = rays[int(np.argmin(rep.sample_values))]
    rng = np.random.default_rng(11)
    ts = np.linspace(-4.0, 4.0, 2049)
    pts = np.asarray(worst[0])[None, :] + ts[:, None] * np.asarray(worst[1])[None, :]
    u = rng.uniform(size=20000)
    th = rng.uniform(0.0, 2.0 * np.pi, size=20000)
    disc = 0.25 * np.sqrt(u)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    smoothed = np.array([b.raw_func(p[None, :] + disc).mean() for p in pts])
    oracle = float(np.trapezoid(smoothed, ts) / 8.0)
    assert abs(rep.infimum - oracle) <= 0.05


def test_ugcc_ball_fails(canonical_conditions):
    rep = canonical_conditions["reports"]["ball"]["UGCC"]
    assert rep.infimum == 0.0
    assert not rep.passed

    # explicit witness: the horizontal line at height 5 never meets the ball
    b = builtin_damping("ball", d=2, radius=1.0)
    single = ugcc_scan(b, 2.0, 0.25, [(np.array([0.0, 5.0]), np.array([1.0, 0.0]))])
    assert np.all(single.sample_values == 0.0)


def test_ugcc_rejects_bad_input():
    b = builtin_damping("constant", d=2)
    with pytest.raises(ValueError, match="need T > 0"):
        ugcc_scan(b, 0.0, 0.25)
    with pytest.raises(ValueError, match="directions must be unit vectors"):
        ugcc_scan(b, 1.0, 0.25, [(np.zeros(2), np.array([2.0, 0.0]))])


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -5.0])
def test_direct_scans_reject_bad_windows(harmonic_1d, bad):
    # one window rule for T, r, R and the DSC frequencies: finite and > 0,
    # checked before any numpy work or shell sampling
    b = builtin_damping("exterior", d=1, radius=1.0)
    calls = [
        ("T", "", lambda: ugcc_scan(b, bad, 0.25)),
        ("r", "", lambda: ugcc_scan(b, 1.0, bad)),
        ("R", "", lambda: tpc_scan(b, harmonic_1d, bad)),
        ("T", "", lambda: dsc_scan(b, harmonic_1d, bad, 1.0, [25.0], n_shell_samples=8)),
        ("R", "", lambda: dsc_scan(b, harmonic_1d, 1.0, bad, [25.0], n_shell_samples=8)),
        ("T", " on every rung", lambda: dsc_limit_scan(b, harmonic_1d, [(bad, 1.0)], [25.0], n_shell_samples=8)),
        ("R", " on every rung", lambda: dsc_limit_scan(b, harmonic_1d, [(1.0, bad)], [25.0], n_shell_samples=8)),
        ("frequency lambda", f", got {bad}", lambda: dsc_scan(b, harmonic_1d, 1.0, 1.0, [25.0, bad], n_shell_samples=8)),
        ("frequency lambda", f", got {bad}", lambda: dsc_limit_scan(b, harmonic_1d, [(1.0, 1.0)], [bad], n_shell_samples=8)),
    ]
    rule = "finite" if bad == math.inf else "> 0"
    for slot, where, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning means the window reached numpy first
            with pytest.raises(ValueError, match=re.escape(f"need {slot} {rule}{where}")):
                call()


def test_ugcc_scan_needs_a_ray():
    with pytest.raises(ValueError, match="need at least one ray"):
        ugcc_scan(builtin_damping("exterior", d=2, radius=1.0), 1.0, 0.25, [])


# The default family at its default sizes, one example per 2D builtin: the
# reversed twins measured there differ by at most 5.0e-5 (checkerboard).
_DEFAULT_FAMILY = (2, 10.0, 7, 16)


@pytest.mark.deep
@given(
    st.sampled_from([1, 2]),
    st.floats(0.5, 20.0),
    st.integers(1, 3),
    st.integers(1, 12),
    st.sampled_from(BUILTIN_PARAMS),
)
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[0])
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[1])
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[2])
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[3])
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[4])
@example(*_DEFAULT_FAMILY, BUILTIN_PARAMS[5])
def test_ray_family_keeps_one_direction_per_segment(d, box, n_per_axis, n_dirs, damping):
    # a segment {x0 + t nu : |t| <= T} is the same for nu and -nu, so the
    # family holds one of the two, and loses no segment of the full fan
    rays = default_ray_family(d, box=box, n_per_axis=n_per_axis, n_dirs=n_dirs)
    fan = unit_directions(d, n_dirs)
    bases = list(dict.fromkeys(tuple(p) for p, _ in rays))
    kept = {tuple(q) for _, q in rays}
    assert kept <= {tuple(q) for q in fan}
    assert len(rays) == len(bases) * len(kept)
    dirs = np.array(sorted(kept))
    assert np.min(np.linalg.norm(dirs[:, None, :] + dirs[None, :, :], axis=-1)) > 1e-12
    twin = np.minimum(
        np.linalg.norm(fan[:, None, :] - dirs[None, :, :], axis=-1),
        np.linalg.norm(fan[:, None, :] + dirs[None, :, :], axis=-1),
    )
    assert np.max(np.min(twin, axis=1)) <= 1e-15

    # the full fan's rays are the family's and their reversed twins
    twins = [(np.array(p), q) for p in bases for q in fan if tuple(q) not in kept]
    assert len(twins) == (len(rays) if len(fan) % 2 == 0 else 0)
    if twins:
        name, params = damping
        b = builtin_damping(name, d=d, **params)
        family = ugcc_scan(b, 2.0, 0.25, rays).infimum
        every = min(family, ugcc_scan(b, 2.0, 0.25, twins).infimum)
        assert family - every <= 1e-4


def test_dsc_scan_needs_a_frequency(harmonic_1d):
    b = builtin_damping("exterior", d=1, radius=1.0)
    with pytest.raises(ValueError, match="need at least one frequency lambda"):
        dsc_scan(b, harmonic_1d, 1.0, 1.0, [], n_shell_samples=8)


SCANS = {
    "tpc_scan": lambda b, pot: tpc_scan(b, pot, 1.0),
    "dsc_scan": lambda b, pot: dsc_scan(b, pot, 1.0, 1.0, [25.0], n_shell_samples=8),
    "dsc_limit_scan": lambda b, pot: dsc_limit_scan(b, pot, [(1.0, 1.0)], [25.0], n_shell_samples=8),
    "flow_average": lambda b, pot: flow_average(b, pot, np.ones((3, pot.d)), np.ones((3, pot.d)), 1.0, 1.0, 25.0),
}


@pytest.mark.parametrize("d_damping, d_potential", [(2, 1), (1, 2)])
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_scans_reject_a_damping_of_the_other_dimension(scan, d_damping, d_potential):
    # a 2D point read by a 1D damping would pass for two 1D points, and a
    # 1D point read by a 2D damping would take its lattice for the well's
    b = builtin_damping("checkerboard", d=d_damping)
    pot = builtin_potential("harmonic", d=d_potential)
    with pytest.raises(ValueError, match="potential and damping dimensions differ"):
        SCANS[scan](b, pot)


# -------------------------------------------------------------- tpc_scan


def test_tpc_constant_flat(canonical_conditions):
    rep = canonical_conditions["reports"]["constant"]["TPC"]
    assert np.all(rep.sample_values == pytest.approx(1.0, abs=1e-12))
    assert rep.passed


def test_tpc_exterior_saturates(harmonic_2d):
    b = builtin_damping("exterior", d=2, radius=1.0)
    rep = tpc_scan(b, harmonic_2d, 1.0)
    # the innermost lattice balls, at |x| = 4, have radius 8^(-1/4) < 0.6
    # already, so every ball sits entirely inside the damped region
    assert all(v == 1.0 for v in rep.groups["shell_infima"].values())
    assert rep.infimum == 1.0
    assert rep.passed


def test_tpc_checkerboard_fails(harmonic_2d):
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    rep = tpc_scan(b, harmonic_2d, 1.0)
    inf = list(rep.groups["shell_infima"].values())
    # the lattice shells 4 * 1.2^k: every ball is partly damped inside
    # |x| ~ 30, and from k = 12 (|x| ~ 35.7) out each shell holds an undamped ball
    assert inf[:3] == [0.41796875, 0.396484375, 0.4228515625]
    assert inf[9:12] == [0.0859375, 0.0908203125, 0.111328125]
    assert all(v == 0.0 for v in inf[12:])
    assert rep.infimum == 0.0
    assert not rep.passed
    # the sampling ball fits inside one undamped cell over the outer half
    assert rep.groups["worst_sample"]["ball_radius"] < 0.25

    # dense-disc overlap oracle at the worst sample of a few shells
    shells, pts = turning_lattice(2)
    means = rep.sample_values.reshape(len(shells), -1)
    for k in (0, 5, 10, 12, 40):
        j = int(np.argmin(means[k]))
        x = pts[k, j]
        r = 1.0 / float(harmonic_2d.value(x)) ** 0.25
        rr = np.sqrt((np.arange(400) + 0.5) / 400)[:, None] * r
        aa = 2.0 * np.pi * (np.arange(1200) + 0.5) / 1200
        disc = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=-1)
        frac = float(b.raw_func(x[None, :] + disc).mean())
        assert abs(float(means[k, j]) - frac) <= 0.02


def test_tpc_rejects_bad_input(harmonic_2d):
    b = builtin_damping("constant", d=2)
    with pytest.raises(ValueError, match="need R > 0"):
        tpc_scan(b, harmonic_2d, 0.0)
    # the shells are the library's lattice, not an argument
    with pytest.raises(TypeError):
        tpc_scan(b, harmonic_2d, 1.0, [4.0, 9.0])


def test_turning_lattice_shells():
    shells, pts = turning_lattice(2)
    assert len(shells) == 81 and shells[0] == 4.0 and shells[-1] <= 1e7 < 1.2 * shells[-1]
    assert pts.shape == (81, 64, 2)
    assert np.all(pts == shells[:, None, None] * unit_directions(2, 64))
    outer, pts1 = turning_lattice(1, shells[40])
    assert np.all(outer == shells[40:])
    assert np.all(pts1[:, :, 0] == outer[:, None] * [1.0, -1.0])


def _ripple(d: int) -> Damping:
    """A smooth damping without a node count: every ball takes the quadrature."""
    return Damping(d, lambda pts: 0.5 + 0.5 * np.cos(3.0 * pts[..., 0]), 1.0, "ripple")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "make",
    [_ripple, lambda d: builtin_damping("strip_lattice", d=d, period=1e-4, duty=0.3)],
    ids=["quadrature", "counted"],
)
def test_tpc_names_its_worst_ball(make, d):
    # the outer half of the lattice decides; the named ball's mean is the
    # infimum bit for bit, and the ball sits on an outer shell
    b = make(d)
    pot = builtin_potential("harmonic", d=d)
    rep = tpc_scan(b, pot, 1.0)
    shells, _ = turning_lattice(d)
    half = len(shells) // 2
    n_inner = half * (2 if d == 1 else 64)
    assert 0.0 < rep.infimum == rep.sample_values[n_inner:].min() < 1.0
    assert rep.groups["sample_labels"][n_inner - 1 : n_inner + 1] == [f"shell={shells[half - 1]:g}", f"shell={shells[half]:g}"]
    worst = rep.groups["worst_sample"]
    point, radius = np.asarray(worst["point"]), worst["ball_radius"]
    assert mollify_at(b, radius, point[None, :])[0] == rep.infimum
    assert radius == pytest.approx(1.0 / float(pot.raw_value(point)) ** 0.25, rel=1e-15)
    assert worst["norm"] == pytest.approx(float(np.linalg.norm(point)), rel=1e-15)
    assert np.isclose(shells[half:], worst["norm"], rtol=1e-15, atol=0.0).any()


# ---------------------------------------------------------- flow_average


def test_flow_average_constant(harmonic_1d):
    b = builtin_damping("constant", d=1, amplitude=0.4)
    lam = 25.0
    xi0 = np.sqrt(2.0) * lam
    vals = flow_average(b, harmonic_1d, np.zeros((1, 1)), np.array([[xi0]]), 2.0, 1.0, lam)
    assert float(vals[0]) == pytest.approx(0.4, abs=1e-12)


def test_flow_average_matches_straight_line(harmonic_1d):
    b = builtin_damping("exterior", d=1, radius=1.0)
    lam = 100.0
    xi0 = np.array([[np.sqrt(2.0) * lam]])
    got = float(flow_average(b, harmonic_1d, np.zeros((1, 1)), xi0, 2.0, 1.0, lam)[0])
    # free-motion oracle: over |t| <= T/lam the trajectory through the well
    # bottom is nearly straight
    times = np.linspace(-2.0 / lam, 2.0 / lam, 256)
    pos = times[:, None] * xi0[0][None, :]
    line = float(np.trapezoid(mollify_at(b, 1.0 / np.sqrt(lam), pos), times) / (4.0 / lam))
    assert abs(got - line) <= 0.05


def test_flow_average_degenerate_window(harmonic_1d):
    # x0 placed so no quadrature node sits on the indicator boundary
    b = builtin_damping("exterior", d=1, radius=1.0)
    lam = 25.0
    x0 = 0.96
    xi0 = np.sqrt(2.0 * (lam**2 - float(harmonic_1d.value(np.array([x0])))))
    got = float(flow_average(b, harmonic_1d, np.array([[x0]]), np.array([[xi0]]), 1e-9, 1.0, lam)[0])
    direct = float(mollify_at(b, 1.0 / np.sqrt(lam), np.array([x0])))
    assert abs(got - direct) <= 1e-15


# -------------------------------------------------------------- dsc_scan


def test_dsc_constant_flat(canonical_conditions):
    rep = canonical_conditions["reports"]["constant"]["DSC"]
    assert np.all(rep.sample_values == pytest.approx(1.0, abs=1e-12))
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in rep.groups["lambda_infima"].values())
    assert rep.passed


def test_dsc_exterior_passes(canonical_conditions):
    reps = canonical_conditions["reports"]["exterior"]
    assert reps["DSC"].passed
    assert all(v > reps["DSC"].threshold for v in reps["DSC"].groups["lambda_infima"].values())
    # cross-check: the two geometric conditions hold as well
    assert reps["UGCC"].passed and reps["TPC"].passed


def test_dsc_checkerboard_fails(canonical_conditions):
    reps = canonical_conditions["reports"]["checkerboard"]
    rep = reps["DSC"]
    assert not rep.passed
    assert rep.infimum <= rep.threshold
    # failure mode: rays are controlled but the shrinking balls are not
    assert reps["UGCC"].passed
    assert not reps["TPC"].passed


def test_dsc_holds_exactly_when_ugcc_and_tpc_hold():
    # the theorem, DSC <=> UGCC and TPC, on every builtin at its default
    # parameters (period 1, duty 0.5, radius 1) over the harmonic well, with
    # the windows of a `conditions` run that sets none
    names = ("constant", "exterior", "ball", "checkerboard", "radial_shells", "strip_lattice")
    params = _condition_params(_Section("config", {}))
    verdicts = {}
    for d in (1, 2):
        pot = builtin_potential("harmonic", d=d)
        dampings = [builtin_damping(name, d=d) for name in names]
        for name, reps in zip(names, _run_conditions(pot, dampings, params, ("ugcc", "tpc", "dsc"), 0)):
            verdicts[f"{name} d={d}"] = "".join("P" if reps[c].passed else "F" for c in ("ugcc", "tpc", "dsc"))
    assert {case: v for case, v in verdicts.items() if (v[2] == "P") != (v[:2] == "PP")} == {}


# -------------------------------------------------------- dsc_limit_scan


def test_dsc_limit_exterior_margin(harmonic_2d):
    b = builtin_damping("exterior", d=2, radius=1.0)
    ladder = [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5)]
    rep = dsc_limit_scan(b, harmonic_2d, ladder, [25.0, 100.0], n_shell_samples=64, seed=0)
    proxies = rep.groups["proxies"]
    assert np.all(np.diff(proxies) >= 0.0)
    assert rep.infimum > 0.0
    assert rep.passed
    # each table entry reproduces a standalone scan at that grid point
    last = dsc_scan(b, harmonic_2d, 3.0, 1.5, [25.0, 100.0], n_shell_samples=64, seed=0)
    assert proxies[-1] == last.infimum


def test_dsc_limit_growing_hole(harmonic_2d):
    # radius-5 hole at lam = 25: short windows trap interior samples, longer
    # windows escape, so the ladder climbs
    b = builtin_damping("exterior", d=2, radius=5.0)
    rep = dsc_limit_scan(
        b, harmonic_2d, [(1.0, 0.5), (2.0, 1.0), (4.0, 2.0)], [25.0],
        n_shell_samples=64, seed=0,
    )
    proxies = rep.groups["proxies"]
    assert proxies[0] == 0.0
    assert proxies[1] == pytest.approx(0.09454656862745098, rel=1e-12)
    assert proxies[2] == pytest.approx(0.2975949754901961, rel=1e-12)
    assert rep.passed


def test_dsc_limit_constant_flat(harmonic_2d):
    b = builtin_damping("constant", d=2, amplitude=0.7)
    rep = dsc_limit_scan(b, harmonic_2d, [(1.0, 0.5), (2.0, 1.0)], [25.0], n_shell_samples=16)
    assert np.max(np.abs(rep.sample_values - 0.7)) <= 1e-12


def test_dsc_limit_zero_damping(harmonic_2d):
    b = builtin_damping("constant", d=2, amplitude=0.0)
    rep = dsc_limit_scan(b, harmonic_2d, [(1.0, 0.5), (2.0, 1.0)], [25.0], n_shell_samples=16)
    assert np.all(rep.sample_values == 0.0)
    assert not rep.passed


def test_dsc_limit_rejects_bad_ladder(harmonic_2d):
    b = builtin_damping("constant", d=2)
    with pytest.raises(ValueError, match="non-decreasing in both slots"):
        dsc_limit_scan(b, harmonic_2d, [(2.0, 1.0), (1.0, 1.5)], [25.0], n_shell_samples=16)
    with pytest.raises(ValueError, match=re.escape("need at least one (T, R) rung")):
        dsc_limit_scan(b, harmonic_2d, [], [25.0], n_shell_samples=16)


# ------------------------------------------------------------ invariants


def test_averages_within_bounds(canonical_conditions):
    # UGCC reports the global sample minimum; TPC and DSC report the liminf
    # proxy, the minimum over the outermost shell or largest frequency group
    for reports in canonical_conditions["reports"].values():
        for rep in reports.values():
            assert np.all(rep.sample_values >= 0.0)
            assert np.all(rep.sample_values <= 1.0 + 1e-12)
            labels = rep.groups["sample_labels"]
            if rep.condition == "UGCC":
                group_min = float(np.min(rep.sample_values))
            else:
                last = labels[-1]
                mask = np.array([lab == last for lab in labels])
                group_min = float(np.min(rep.sample_values[mask]))
            assert rep.infimum == group_min


def test_pointwise_monotone_averages(harmonic_2d):
    small = builtin_damping("ball", d=2, radius=0.5)
    large = builtin_damping("ball", d=2, radius=1.0)
    rays = [
        (np.array([0.3, 0.2]), np.array([1.0, 0.0])),
        (np.zeros(2), np.array([np.sqrt(0.5), np.sqrt(0.5)])),
        (np.array([-1.0, 0.5]), np.array([0.0, 1.0])),
    ]
    u1 = ugcc_scan(small, 1.5, 0.3, rays)
    u2 = ugcc_scan(large, 1.5, 0.3, rays)
    assert np.all(u1.sample_values <= u2.sample_values + 1e-15)
    t1 = tpc_scan(small, harmonic_2d, 1.0)
    t2 = tpc_scan(large, harmonic_2d, 1.0)
    assert np.all(t1.sample_values <= t2.sample_values + 1e-15)


def test_amplitude_scaling_linear():
    rays = default_ray_family(2, box=2.0, n_per_axis=3, n_dirs=4)
    one = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    three = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5, amplitude=3.0)
    r1 = ugcc_scan(one, 2.0, 0.25, rays)
    r3 = ugcc_scan(three, 2.0, 0.25, rays)
    assert np.allclose(r3.sample_values, 3.0 * r1.sample_values, rtol=1e-13, atol=0.0)
    assert r3.infimum == pytest.approx(3.0 * r1.infimum, rel=1e-13)


def test_scan_csv_deterministic(tmp_path, harmonic_2d):
    b = builtin_damping("exterior", d=2, radius=1.0)
    paths = []
    for k in range(2):
        rep = dsc_scan(b, harmonic_2d, 2.0, 1.0, [25.0], n_shell_samples=32, seed=0)
        p = tmp_path / f"run{k}.csv"
        _write_csv(p, *_report_table(rep))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_json_shape(canonical_conditions):
    rep = canonical_conditions["reports"]["exterior"]["UGCC"]
    doc = rep.to_json_dict()
    assert doc["condition"] == "UGCC"
    assert doc["n_samples"] == rep.sample_values.size
    assert doc["infimum"] == rep.infimum
    assert isinstance(doc["passed"], bool)


@st.composite
def window_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    name, params = draw(st.sampled_from(BUILTIN_PARAMS))
    b = builtin_damping(name, d=d, amplitude=draw(st.floats(0.0, 4.0)), **params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    base = rng.normal(scale=draw(st.sampled_from([0.5, 5.0, 40.0])), size=(n, d))
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    T = draw(st.floats(0.05, 5.0))
    r = draw(st.floats(0.01, 2.0))
    return b, list(zip(base, dirs)), T, r


@settings(max_examples=30)
@given(window_cases())
def test_scans_share_one_window_mean_and_verdict(case):
    # every UGCC sample is bit for bit the scan of its ray alone, and no
    # report's verdict can disagree with its own threshold
    b, rays, T, r = case
    rep = ugcc_scan(b, T, r, rays)
    for k, ray in enumerate(rays):
        assert rep.sample_values[k] == ugcc_scan(b, T, r, [ray]).sample_values[0]
    pot = builtin_potential("harmonic", d=b.d)
    reports = [
        rep,
        tpc_scan(b, pot, r),
        dsc_scan(b, pot, T, r, [25.0], n_shell_samples=4),
        dsc_limit_scan(b, pot, [(T, r), (2.0 * T, r)], [25.0], n_shell_samples=4),
    ]
    for rep in reports:
        assert rep.passed == (rep.infimum > rep.threshold)


@st.composite
def report_cases(draw):
    """A small 1D config of all four scans over one builtin: rays, distinct
    frequencies and a (T, R) ladder growing in both slots."""
    name, params = draw(st.sampled_from(BUILTIN_PARAMS))
    b = builtin_damping(name, d=1, amplitude=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])), **params)
    bases = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
    rays = [([x], [draw(st.sampled_from([1.0, -1.0]))]) for x in bases]
    T, R = draw(st.floats(0.25, 1.0)), draw(st.floats(0.25, 2.0))
    lams = draw(st.lists(st.sampled_from([25.0, 100.0, 400.0]), min_size=1, max_size=2, unique=True))
    ladder = [(T * k, R * k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    return b, rays, T, R, lams, ladder, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


@pytest.mark.deep
@given(report_cases())
def test_reports_read_the_outermost_group(case):
    # every scan builds its report through one constructor: one label per
    # sample, the infimum the least average of the outermost group, and the
    # verdict the infimum against the threshold of b
    b, rays, T, R, lams, ladder, n, seed = case
    pot = builtin_potential("harmonic", d=1)
    shells, _ = turning_lattice(1)
    outer_shells = [f"shell={rho:g}" for rho in shells[len(shells) // 2 :] for _ in range(2)]
    last_lam, (last_T, last_R) = max(lams), ladder[-1]
    outermost = [
        # report, sample count, labels of the outermost group: all rays, the
        # outer half of the lattice (two points a shell in 1D), the largest
        # frequency, the last rung
        (ugcc_scan(b, T, R, rays), len(rays), [f"ray{k}" for k in range(len(rays))]),
        (tpc_scan(b, pot, R), 2 * len(shells), outer_shells),
        (dsc_scan(b, pot, T, R, lams, n_shell_samples=n, seed=seed), n * len(lams), [f"lam={last_lam:g}"] * n),
        (dsc_limit_scan(b, pot, ladder, lams, n_shell_samples=n, seed=seed), len(ladder), [f"T={last_T:g},R={last_R:g}"]),
    ]
    for rep, size, labels in outermost:
        assert len(rep.groups["sample_labels"]) == rep.sample_values.size == size
        assert rep.groups["sample_labels"][-len(labels) :] == labels
        assert rep.infimum == rep.sample_values[-len(labels) :].min()
        assert rep.threshold == 1e-3 * b.b_max
        assert rep.passed == (rep.infimum > rep.threshold)

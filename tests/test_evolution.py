import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from conftest import CANONICAL_1D, run_fresh
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded, svdvals

from stabscope import evolution
from stabscope.cli import _trace_table, _write_csv
from stabscope.damping import Damping, builtin_damping
from stabscope.evolution import (
    DecayFit,
    EnergyTrace,
    WaveState,
    cfl_limit,
    damped_spectrum_1d,
    decay_fit,
    energy_balance_defect,
    evolve,
    p_spectrum_1d,
    quasimode_probe,
    resolvent_grid,
    resolvent_scan,
)
from stabscope.fields import _NODE_BUDGET, Field, Grid, _PKernel, make_grid, p_bands
from stabscope.potentials import builtin_potential, sublevel_radius
from stabscope.quasimodes import turning_point_bump

H1 = builtin_potential("harmonic", d=1)
B_OFF = builtin_damping("constant", d=1, amplitude=0.0)
B_ONE = builtin_damping("constant", d=1, amplitude=1.0)


def gaussian_state(n=512, halfwidth=9.0):
    grid = make_grid(1, n, halfwidth)
    u = Field(grid, np.exp(-grid.axis(0) ** 2 / 2.0))
    v = Field(grid, np.zeros(n))
    return grid, WaveState(u, v)


@pytest.fixture(scope="module")
def damped_run():
    _, state = gaussian_state()
    return evolve(H1, B_ONE, state, 10.0, 1e-3)


@pytest.fixture(scope="module")
def probe_runs():
    # turning bump far out on the harmonic ramp; the grid box [37.5, 45.5]
    # keeps the checkerboard cell [41, 42) (undamped) around the support
    grid = make_grid(1, 1025, 4.0, center=[41.5])
    f, rep = turning_point_bump(H1, [41.5], 1.5, grid=grid)
    cases = {
        "off": B_OFF,
        "constant": B_ONE,
        "exterior": builtin_damping("exterior", d=1, radius=1.0),
        "ball": builtin_damping("ball", d=1, radius=1.0),
        "checkerboard": builtin_damping("checkerboard", d=1, period=2.0, duty=0.5),
    }
    runs = {
        name: quasimode_probe(H1, b, f, rep.lam, 3.0 / rep.lam)
        for name, b in cases.items()
    }
    return rep.lam, runs


@pytest.fixture(scope="module")
def small_scan():
    lams = np.array([1.0, 1.5, 2.0])
    return lams, resolvent_scan(H1, B_OFF, lams)


@pytest.fixture(scope="module")
def spectrum_setup():
    grid = make_grid(1, 1201, 12.0)
    mu2 = p_spectrum_1d(H1, grid, 40)
    return grid, mu2


def test_undamped_energy_conserved():
    _, state = gaussian_state()
    trace = evolve(H1, B_OFF, state, 10.0, 1e-4, record_every=100)
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(10.0)
    assert trace.E[0] > 0.0
    assert abs(trace.E[-1] / trace.E[0] - 1.0) <= 1e-6
    assert trace.balance_coefficient <= 1e-6
    assert np.all(trace.D == 0.0)


def test_unit_damping_decay_rate(damped_run):
    fit = decay_fit(damped_run)
    assert 0.9 <= fit.tau <= 1.1
    assert fit.flags == ()


def test_energy_monotone_under_damping(damped_run):
    # discrete dissipation holds up to quadrature error of order dt^2
    assert float(np.max(np.diff(damped_run.E))) <= 1e-10


def test_balance_defect_is_second_order():
    _, state = gaussian_state()
    coarse = energy_balance_defect(evolve(H1, B_ONE, state, 10.0, 1e-3))
    fine = energy_balance_defect(evolve(H1, B_ONE, state, 10.0, 5e-4))
    assert coarse / fine >= 3.5


def test_zero_data_stays_zero():
    grid = make_grid(1, 128, 6.0)
    z = Field(grid, np.zeros(128))
    trace = evolve(H1, B_ONE, WaveState(z, z), 1.0, 1e-3)
    assert np.all(trace.E == 0.0)
    assert np.all(trace.D == 0.0)


def test_arithmetic_follows_the_data(caplog):
    caplog.set_level(logging.INFO, logger="stabscope")
    grid, state = gaussian_state(n=64, halfwidth=6.0)
    evolve(H1, B_ONE, state, 0.05, 1e-2)
    kicked = WaveState(state.u, Field(grid, 1j * state.u.values))
    evolve(H1, B_ONE, kicked, 0.05, 1e-2)
    arithmetic = re.findall(r"evolve: 5 steps on 64 nodes in (\w+) arithmetic", caplog.text)
    assert arithmetic == ["real", "complex"]


_STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])


def _reference_p(vvals, values, hs):
    """P f = D f + sum over axes of a_1 (f(x - h) + f(x + h)) + a_2 (f(x - 2h) + f(x + 2h)),
    with a_k = -c_k / (2 h^2) per axis and D = V + (the a_0 summed over the
    axes), in that order, on a zero-padded complex copy of f."""
    interior = (slice(2, -2),) * values.ndim
    pad = np.zeros(tuple(n + 4 for n in values.shape), dtype=complex)
    pad[interior] = values
    coefs = [[-0.5 * c / h**2 for c in _STENCIL[2::-1]] for h in hs]  # a_0, a_1, a_2
    out = (vvals + sum(a[0] for a in coefs)) * pad[interior]
    for ax, a in enumerate(coefs):
        for k in (1, 2):
            taps = []
            for shift in (-k, k):
                cut = list(interior)
                cut[ax] = slice(2 + shift, 2 + shift + values.shape[ax])
                taps.append(pad[tuple(cut)])
            out = out + a[k] * (taps[0] + taps[1])
    return out


def _kernel_p(vvals, values, hs, dtype):
    """The stepper's kernel on node values, loaded into one of its padded fields."""
    kernel = _PKernel(vvals, hs, dtype)
    buf = kernel.field()
    kernel.nodes(kernel.span(buf))[...] = values
    return np.ascontiguousarray(kernel.nodes(kernel(buf)))


def _padded_rows(a):
    """Node values a in rows padded with zeros past two halo nodes on to
    whole 64-byte lines of 8 doubles, as one contiguous array; on the line
    the nodes themselves."""
    if a.ndim == 1:
        return a
    rows = np.zeros((a.shape[0], -(-(a.shape[1] + 4) // 8) * 8))
    rows[:, : a.shape[1]] = a
    return rows


def _reference_evolve(pot, b, state, T_final, dt, record_every, padded=True):
    """The leapfrog u_next = A u_curr + C u_prev - B P u_curr with
    A = 2 / (1 + dt b / 2), B = dt^2 / (1 + dt b / 2) and
    C = (dt b / 2 - 1) / (1 + dt b / 2): complex dtype throughout,
    allocating expressions, true divisions.  Each field integral of E and D
    is numpy's sum over the node products laid out in padded rows, or over
    the nodes in node order when padded is False."""
    grid = state.u.grid
    mesh = grid.meshgrid()
    vvals = pot.raw_value(mesh)
    bvals = b.raw_func(mesh)
    denom = 1.0 + 0.5 * dt * bvals
    coef_a, coef_b, coef_c = 2.0 / denom, dt * dt / denom, (0.5 * dt * bvals - 1.0) / denom
    w = grid.weights()
    layout = _padded_rows if padded else np.asarray

    def energy_of(u_arr, pu_arr, v_arr):
        quad = float(np.sum(layout(w * (np.conj(u_arr) * pu_arr).real)))
        kin = float(np.sum(layout(w * np.abs(v_arr) ** 2)))
        return 0.5 * (quad + kin)

    def dissipation_of(v_arr):
        return float(np.sum(layout(w * bvals * np.abs(v_arr) ** 2)))

    n_steps = int(round(T_final / dt))
    u_prev = state.u.values.astype(complex)
    v0 = state.v.values.astype(complex)
    pu = _reference_p(vvals, u_prev, grid.hs)
    e_prev = energy_of(u_prev, pu, v0)
    d_prev = dissipation_of(v0)
    ts, es, ds = [state.t], [e_prev], [d_prev]
    u_curr = u_prev + dt * v0 + 0.5 * dt * dt * (-pu - bvals * v0)
    balance = 0.0
    for n in range(1, n_steps + 1):
        pu = _reference_p(vvals, u_curr, grid.hs)
        u_next = coef_a * u_curr + coef_c * u_prev - coef_b * pu
        v_curr = (u_next - u_prev) / (2.0 * dt)
        e_curr = energy_of(u_curr, pu, v_curr)
        d_curr = dissipation_of(v_curr)
        defect = abs(e_curr - e_prev + dt * 0.5 * (d_curr + d_prev))
        balance = max(balance, defect / (dt * (e_prev + 1.0)))
        if n % record_every == 0 or n == n_steps:
            ts.append(state.t + n * dt)
            es.append(e_curr)
            ds.append(d_curr)
        e_prev, d_prev = e_curr, d_curr
        u_prev, u_curr = u_curr, u_next
    return np.array(ts), np.array(es), np.array(ds), balance


BUILTIN_DAMPINGS = (
    ("constant", {}),
    ("exterior", {"radius": 1.0}),
    ("ball", {"radius": 1.0}),
    ("checkerboard", {"period": 1.0, "duty": 0.5}),
    ("radial_shells", {"period": 1.0, "duty": 0.5}),
    ("strip_lattice", {"period": 1.0, "duty": 0.5}),
)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_near_node_order(trace, pot, b, state, T_final, dt, record_every):
    # the sums in node order, as over the node arrays, differ from the
    # padded rows' only in how the pairwise sum groups its terms
    _, E, D, _ = _reference_evolve(pot, b, state, T_final, dt, record_every, padded=False)
    assert np.allclose(trace.E, E, rtol=1e-13, atol=0.0)
    assert np.allclose(trace.D, D, rtol=1e-13, atol=0.0)


@pytest.mark.deep
@settings(max_examples=max(40, settings.default.max_examples))  # the profile's count, 100 or deep's 1000
@given(
    st.sampled_from([("harmonic", 1, {}), ("power", 1, {"s": 3.0}), ("harmonic", 2, {}),
                     ("anisotropic", 2, {"weights": [1.0, 2.5]})]),
    st.sampled_from(BUILTIN_DAMPINGS),
    st.sampled_from([0.0, 0.3, 1.0, 2.0]),
    st.sampled_from(["real", "probe", "complex", "zero"]),
    st.integers(1, 40),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_evolve_keeps_the_reference_bits(potential, damping, amplitude, data, n_steps, record_every, seed):
    # real data run in real arithmetic, the rest in complex; both must record
    # what the complex, dividing reference loop records, bit for bit
    name, d, params = potential
    pot = builtin_potential(name, d=d, **params)
    b = builtin_damping(damping[0], d=d, amplitude=amplitude, **damping[1])
    rng = np.random.default_rng(seed)
    grid = make_grid(d, 96 if d == 1 else 24, 5.0)
    bump = np.exp(-np.sum(grid.meshgrid() ** 2, axis=-1))
    u = bump * rng.standard_normal(grid.ns)
    v = bump * rng.standard_normal(grid.ns)
    if data == "probe":
        v = 1j * 3.0 * u
    elif data == "complex":
        u = u + 1j * bump * rng.standard_normal(grid.ns)
        v = v - 1j * bump * rng.standard_normal(grid.ns)
    elif data == "zero":
        u, v = np.zeros(grid.ns), np.zeros(grid.ns)
    state = WaveState(Field(grid, u), Field(grid, v), 0.25)
    dt = 0.5 * cfl_limit(pot, grid)
    T = n_steps * dt
    trace = evolve(pot, b, state, T, dt, record_every=record_every)
    t, E, D, balance = _reference_evolve(pot, b, state, T, dt, record_every)
    assert np.array_equal(_bits(trace.t), _bits(t))
    assert np.array_equal(_bits(trace.E), _bits(E))
    assert np.array_equal(_bits(trace.D), _bits(D))
    assert _bits(trace.balance_coefficient) == _bits(balance)
    _assert_near_node_order(trace, pot, b, state, T, dt, record_every)


@pytest.mark.deep
@given(
    st.sampled_from([("harmonic", 1, {}), ("power", 1, {"s": 3.0}), ("harmonic", 2, {}),
                     ("anisotropic", 2, {"weights": [1.0, 2.5]})]),
    st.sampled_from(BUILTIN_DAMPINGS),
    st.sampled_from([0.3, 1.0]),
    st.sampled_from(["real", "probe", "complex"]),
    st.integers(1, 200),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
@example(("harmonic", 1, {}), BUILTIN_DAMPINGS[2], 1.0, "real", 64, 1, 0)  # one row past the first block
@example(("harmonic", 2, {}), BUILTIN_DAMPINGS[3], 1.0, "complex", 95, 7, 1)  # three full blocks and 21 rows
@example(("harmonic", 2, {}), BUILTIN_DAMPINGS[3], 1.0, "real", 74, 3, 2)  # three full blocks
def test_evolve_keeps_the_reference_bits_over_blocks(potential, damping, amplitude, data, n_steps, record_every, seed):
    # grids whose energy blocks hold 64 (line) and 25 (plane: 32 rows of 40
    # range nodes) steps, so a run spans up to eight of them, with a partial
    # block at its end
    name, d, params = potential
    pot = builtin_potential(name, d=d, **params)
    b = builtin_damping(damping[0], d=d, amplitude=amplitude, **damping[1])
    rng = np.random.default_rng(seed)
    grid = make_grid(d, 512 if d == 1 else 32, 5.0)
    assert _NODE_BUDGET // _PKernel(np.zeros(grid.ns), grid.hs, float).size == (64 if d == 1 else 25)
    bump = np.exp(-np.sum(grid.meshgrid() ** 2, axis=-1))
    u = bump * rng.standard_normal(grid.ns)
    v = 1j * 3.0 * u if data == "probe" else bump * rng.standard_normal(grid.ns)
    if data == "complex":
        u = u + 1j * bump * rng.standard_normal(grid.ns)
    state = WaveState(Field(grid, u), Field(grid, v), 0.25)
    dt = 0.5 * cfl_limit(pot, grid)
    trace = evolve(pot, b, state, n_steps * dt, dt, record_every=record_every)
    t, E, D, balance = _reference_evolve(pot, b, state, n_steps * dt, dt, record_every)
    assert np.array_equal(_bits(trace.t), _bits(t))
    assert np.array_equal(_bits(trace.E), _bits(E))
    assert np.array_equal(_bits(trace.D), _bits(D))
    assert _bits(trace.balance_coefficient) == _bits(balance)
    _assert_near_node_order(trace, pot, b, state, n_steps * dt, dt, record_every)


@pytest.mark.parametrize("data", ["real", "complex"])
def test_evolve_keeps_the_reference_bits_in_blocks_of_one_step(data):
    # a 130^2 plane has 130 * 136 range nodes, past half the block budget,
    # so every step, step 0 included, is summed in a block of its own
    pot = builtin_potential("harmonic", d=2)
    b = builtin_damping("ball", d=2, radius=1.0)
    grid = make_grid(2, 130, 5.0)
    assert _NODE_BUDGET // _PKernel(np.zeros(grid.ns), grid.hs, float).size == 1
    rng = np.random.default_rng(0)
    bump = np.exp(-np.sum(grid.meshgrid() ** 2, axis=-1))
    u, v = (bump * rng.standard_normal(grid.ns) for _ in range(2))
    if data == "complex":
        u = u + 1j * bump * rng.standard_normal(grid.ns)
    state = WaveState(Field(grid, u), Field(grid, v))
    dt = 0.5 * cfl_limit(pot, grid)
    trace = evolve(pot, b, state, 5 * dt, dt, record_every=2)
    t, E, D, balance = _reference_evolve(pot, b, state, 5 * dt, dt, 2)
    assert np.array_equal(_bits(trace.t), _bits(t))
    assert np.array_equal(_bits(trace.E), _bits(E)) and np.array_equal(_bits(trace.D), _bits(D))
    assert _bits(trace.balance_coefficient) == _bits(balance)


@pytest.mark.deep
@given(
    st.sampled_from([1, 2]),
    st.sampled_from([float, complex]),
    st.integers(8, 400),
    st.integers(8, 200),
    st.floats(0.5, 12.0),
    st.integers(0, 2**32 - 1),
)
@example(1, complex, 300, 250, 5.0, 0)  # 75000 nodes: three strips on the line
@example(2, float, 400, 200, 5.0, 1)  # 163 rows a strip: three strips
@example(2, complex, 400, 120, 5.0, 2)  # 273 rows a strip: two strips
# padded rows of n1 + 4 nodes just below, at and past a whole number of 8
# nodes, rounded up to 16, 16 and 24 nodes in either dtype; the 97-node side
# of the benchmark's plane; and the same three lengths along a line of
# n0 * n1 nodes
@example(2, float, 20, 11, 5.0, 3)
@example(2, float, 20, 12, 5.0, 4)
@example(2, float, 20, 13, 5.0, 5)
@example(2, complex, 20, 11, 5.0, 6)
@example(2, complex, 20, 12, 5.0, 7)
@example(2, complex, 20, 13, 5.0, 8)
@example(2, float, 97, 97, 6.0, 9)
@example(2, complex, 30, 100, 6.0, 10)
@example(1, float, 1, 11, 5.0, 11)
@example(1, complex, 1, 12, 5.0, 12)
@example(1, float, 1, 13, 5.0, 13)
def test_kernel_keeps_the_reference_bits(d, dtype, n0, n1, half_width, seed):
    # the strip-blocked kernel against the full-grid reference stencil, on
    # grids of one to three strips; the line has n0 * n1 nodes so that it
    # reaches past one strip too.  Real data must give the real part of the
    # complex reference, bit for bit.
    grid = make_grid(d, [n0 * n1] if d == 1 else [n0, n1], half_width)
    rng = np.random.default_rng(seed)
    vvals = 10.0 * rng.random(grid.ns)
    values = rng.standard_normal(grid.ns)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(grid.ns)
    got = _kernel_p(vvals, values, grid.hs, dtype)
    ref = _reference_p(vvals, values.astype(complex), grid.hs)
    assert got.dtype == dtype
    assert np.array_equal(got.view(np.uint64), (ref.real if dtype is float else ref).view(np.uint64))


@pytest.mark.parametrize("n_steps", [10, 63, 64, 100])
def test_an_energy_that_overflows_raises(n_steps):
    # finite data whose u P u overflows: evolve raises, without a
    # floating-point warning, where it used to return E = NaN throughout
    grid = make_grid(1, 64, 6.0)
    state = WaveState(Field(grid, 1e300 * np.exp(-grid.axis(0) ** 2)), Field(grid, np.zeros(64)))
    dt = 0.5 * cfl_limit(H1, grid)
    with pytest.raises(RuntimeError, match="non-finite energy at t=0"):
        evolve(H1, B_ONE, state, n_steps * dt, dt)


@settings(max_examples=40)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from(BUILTIN_DAMPINGS),
    st.floats(0.5, 2.0),
    st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
    st.floats(0.4, 0.6),
    st.sampled_from(["rest", "moving", "probe"]),
    st.floats(0.1, 0.5),
    st.integers(1, 60),
)
def test_damped_energy_never_rises(d, damping, amplitude, center, width, data, cfl_fraction, n_steps):
    # A boundary-clear Gaussian packet under a builtin damping that meets it.
    # The ball is centred on the packet: a ball the packet misses leaves it
    # undamped, and the recorded energy, whose velocity is the centred
    # difference, then oscillates at O(dt^2) like the undamped run's.
    pot = builtin_potential("harmonic", d=d)
    center = np.array(center[:d])
    params = dict(damping[1], center=center) if damping[0] == "ball" else damping[1]
    b = builtin_damping(damping[0], d=d, amplitude=amplitude, **params)
    grid = make_grid(d, 192 if d == 1 else 40, 6.0)
    offset = grid.meshgrid() - center
    u = np.exp(-np.sum(offset**2, axis=-1) / (2.0 * width * width))
    v = {"rest": 0.0 * u, "moving": offset[..., 0] / width**2 * u, "probe": 2j * u}[data]
    dt = cfl_fraction * cfl_limit(pot, grid)
    trace = evolve(pot, b, WaveState(Field(grid, u), Field(grid, v)), n_steps * dt, dt)
    assert trace.E[0] > 0.0
    assert float(np.max(np.diff(trace.E))) <= 1e-10 * trace.E[0]


class _RecordingKernel(_PKernel):
    """The stencil kernel, keeping a copy of every iterate u_n and of P u_n."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def __call__(self, buf):
        out = super().__call__(buf)
        self.calls.append((self.nodes(self.span(buf)).copy(), self.nodes(out).copy()))
        return out


@settings(max_examples=60)
@given(
    st.sampled_from(BUILTIN_DAMPINGS),
    st.floats(0.0, 2.0),
    st.floats(-4.0, 4.0),
    st.sampled_from([48, 64, 96]),
    st.floats(-2.0, 2.0),
    st.floats(0.3, 0.7),
    st.booleans(),
    st.floats(0.1, 0.9),
    st.integers(1, 80),
)
def test_staggered_energy_never_rises(damping, amplitude, where, n, center, width, moving, cfl_fraction, n_steps):
    # The leapfrog dissipates E_{n+1/2} = |(u_{n+1} - u_n)/dt|^2/2 + <u_{n+1}, P u_n>/2
    # exactly: it falls by dt <b v_n, v_n> with the centred velocity v_n, so it
    # never rises, wherever the damping sits relative to the packet.
    params = dict(damping[1], center=[where]) if damping[0] == "ball" else damping[1]
    b = builtin_damping(damping[0], d=1, amplitude=amplitude, **params)
    grid = make_grid(1, n, 8.0)
    x = grid.axis(0) - center
    u = np.exp(-x * x / (2.0 * width * width))
    v = x / width**2 * u if moving else 0.0 * u
    dt = cfl_fraction * cfl_limit(H1, grid)
    kernels = []

    def kernel(*args):
        kernels.append(_RecordingKernel(*args))
        return kernels[-1]

    with mock.patch.object(evolution, "_PKernel", kernel):
        trace = evolve(H1, b, WaveState(Field(grid, u), Field(grid, v)), n_steps * dt, dt)
    (rec,) = kernels
    us, pus = zip(*rec.calls)  # u_0 .. u_N and P u_0 .. P u_N
    assert len(us) == n_steps + 1
    w = grid.weights()
    staggered = [
        0.5 * np.sum(w * ((u1 - u0) / dt) ** 2) + 0.5 * np.sum(w * u1 * pu0)
        for u0, u1, pu0 in zip(us, us[1:], pus)
    ]
    assert np.max(np.diff(staggered), initial=0.0) <= 1e-12 * trace.E[0]


class _PaddingKernel(_PKernel):
    """The stencil kernel, filling the pad columns of each field it is
    called on (past the halo, up to whole cache lines) with finite noise
    first, and keeping a copy of the halo that the taps read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.halos = []
        self.rng = np.random.default_rng(0)

    def __call__(self, buf):
        n0 = self.ns[0]
        rows = buf[: (n0 + 4) * self.width].reshape((n0 + 4,) + self.row_shape)
        if len(self.ns) == 1:
            halo = rows[[0, 1, n0 + 2, n0 + 3]]
        else:
            n1 = self.ns[1]
            pad = rows[:, n1 + 4 :]
            pad[...] = self.rng.uniform(-1e3, 1e3, pad.shape)
            halo = np.concatenate([rows[[0, 1, n0 + 2, n0 + 3], : n1 + 4].ravel(),
                                   rows[2 : n0 + 2][:, [0, 1, n1 + 2, n1 + 3]].ravel()])
        self.halos.append(halo.copy())
        return super().__call__(buf)


@pytest.mark.parametrize("d, ns, data", [
    (1, (64,), "real"), (1, (64,), "probe"),
    (2, (20, 25), "real"), (2, (20, 25), "probe"), (2, (16, 27), "complex"),
])
def test_the_dirichlet_halo_stays_zero(d, ns, data):
    # the leapfrog runs over the kernel's padded rows, halo and pad nodes
    # included: whatever finite values the pad columns hold, the halo the
    # taps read is exactly +0 at every step, and the run records the bits
    # of a run without the noise
    pot = builtin_potential("harmonic", d=d)
    b = builtin_damping("checkerboard", d=d, period=1.0, duty=0.5)
    grid = make_grid(d, list(ns), 5.0)
    rng = np.random.default_rng(1)
    bump = np.exp(-np.sum(grid.meshgrid() ** 2, axis=-1))
    u = bump * rng.standard_normal(grid.ns)
    v = 3j * u if data == "probe" else bump * rng.standard_normal(grid.ns)
    if data == "complex":
        u = u + 1j * bump * rng.standard_normal(grid.ns)
    state = WaveState(Field(grid, u), Field(grid, v))
    dt = 0.5 * cfl_limit(pot, grid)
    kernels = []

    def kernel(*args):
        kernels.append(_PaddingKernel(*args))
        return kernels[-1]

    with mock.patch.object(evolution, "_PKernel", kernel):
        trace = evolve(pot, b, state, 40 * dt, dt)
    (rec,) = kernels
    assert d == 1 or rec.width > ns[1] + 4  # there were pad columns to fill
    assert len(rec.halos) == 41
    assert all(halo.tobytes() == bytes(halo.nbytes) for halo in rec.halos)
    plain = evolve(pot, b, state, 40 * dt, dt)
    assert np.array_equal(_bits(trace.E), _bits(plain.E)) and np.array_equal(_bits(trace.D), _bits(plain.D))


@pytest.mark.parametrize("n1", [24, 32, 97])
def test_real_and_complex_runs_keep_the_same_bits(n1):
    # i (u, v) runs in complex arithmetic through the same values as (u, v)
    # in real arithmetic, in the imaginary parts, so both record the same E
    # and D: the energy rows of both dtypes are summed at one width
    pot = builtin_potential("harmonic", d=2)
    b = builtin_damping("checkerboard", d=2, period=1.0, duty=0.5)
    grid = make_grid(2, [20, n1], 5.0)
    rng = np.random.default_rng(n1)
    bump = np.exp(-np.sum(grid.meshgrid() ** 2, axis=-1))
    u, v = (bump * rng.standard_normal(grid.ns) for _ in range(2))
    dt = 0.5 * cfl_limit(pot, grid)
    real = evolve(pot, b, WaveState(Field(grid, u), Field(grid, v)), 30 * dt, dt)
    turned = evolve(pot, b, WaveState(Field(grid, 1j * u), Field(grid, 1j * v)), 30 * dt, dt)
    assert real.E[0] > 0.0 and real.D[0] > 0.0
    assert np.array_equal(_bits(real.E), _bits(turned.E)) and np.array_equal(_bits(real.D), _bits(turned.D))


@pytest.mark.parametrize("ratio", [2.5, 3.5, 1167.89, 40.0])
def test_evolve_ends_at_T_final(ratio):
    # T_final / dt whole (to 1e-9): that many steps of dt; else ceil(T_final
    # / dt) equal steps of T_final / n, none longer than dt, ending at T_final
    grid, state = gaussian_state(n=64, halfwidth=6.0)
    dt = 0.5 * cfl_limit(H1, grid)
    T = ratio * dt
    trace = evolve(H1, B_ONE, state, T, dt)
    assert len(trace.t) == math.ceil(ratio) + 1
    assert abs(trace.t[-1] - T) <= 1e-12 * T
    assert trace.dt <= dt
    if ratio == round(ratio):
        assert trace.dt == dt


def test_evolve_rejects_bad_input():
    grid, state = gaussian_state(n=128, halfwidth=6.0)
    h2 = builtin_potential("harmonic", d=2)
    with pytest.raises(ValueError, match="dimensions differ"):
        evolve(h2, B_ONE, state, 1.0, 1e-3)
    with pytest.raises(ValueError, match="need dt > 0"):
        evolve(H1, B_ONE, state, 1.0, -1e-3)
    with pytest.raises(ValueError, match="need dt <= T_final"):
        evolve(H1, B_ONE, state, 1e-4, 1e-3)
    with pytest.raises(ValueError, match="CFL bound"):
        evolve(H1, B_ONE, state, 1.0, 10.0 * cfl_limit(H1, grid))


def test_cfl_limit_shrinks_with_mesh():
    coarse = cfl_limit(H1, make_grid(1, 128, 6.0))
    fine = cfl_limit(H1, make_grid(1, 512, 6.0))
    assert 0.0 < fine < coarse


@pytest.mark.deep
@given(
    st.sampled_from(["harmonic", "power", "anisotropic"]),
    st.sampled_from([1, 2]),
    st.floats(0.1, 3.9),
    st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    st.tuples(st.integers(8, 120), st.integers(8, 120)),
    st.tuples(st.floats(0.1, 60.0), st.floats(0.1, 60.0)),
    st.one_of(st.none(), st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))),
)
@example("power", 2, 3.0, (1.0, 1.0), (9, 9), (1.0, 1.0), (-1.0, 1.0))  # two nodes farthest out
def test_cfl_limit_keeps_the_mesh_maximum_bits(name, d, s, weights, ns, ls, center):
    # V = phi(sum_i w2_i x_i^2) with phi increasing peaks at the node farthest
    # out on every axis: the closed form builds no node mesh and gives the
    # dense maximum, bit for bit
    params = {"power": {"s": s}, "anisotropic": {"weights": list(weights[:d])}}.get(name, {})
    pot = builtin_potential(name, d=d, **params)
    grid = make_grid(d, ns[:d], ls[:d], None if center is None else center[:d])
    with mock.patch.object(Grid, "meshgrid", side_effect=AssertionError("cfl_limit built a node mesh")):
        dt = cfl_limit(pot, grid)
    vmax = float(np.max(pot.raw_value(grid.meshgrid())))
    assert _bits(dt) == _bits(0.5 * min(grid.hs) / math.sqrt(1.0 + vmax))


def test_decay_fit_recovers_synthetic_exponential():
    t = np.linspace(0.0, 10.0, 101)
    trace = EnergyTrace(t=t, E=3.0 * np.exp(-t / 2.0), D=np.zeros_like(t), dt=0.1,
                        balance_coefficient=0.0)
    fit = decay_fit(trace)
    assert fit.C == pytest.approx(3.0, abs=1e-10)
    assert fit.tau == pytest.approx(2.0, abs=1e-10)
    assert fit.rms <= 1e-12
    # fit window skips the first tenth of the samples
    assert fit.window[0] == pytest.approx(1.1)
    assert fit.window[1] == pytest.approx(10.0)
    assert fit.flags == ()


def test_decay_fit_flat_trace_flags_no_decay():
    t = np.linspace(0.0, 5.0, 51)
    trace = EnergyTrace(t=t, E=np.ones_like(t), D=np.zeros_like(t), dt=0.1,
                        balance_coefficient=0.0)
    fit = decay_fit(trace)
    assert "no_decay" in fit.flags
    assert fit.tau == np.inf


def test_decay_fit_truncates_at_floor():
    t = np.linspace(0.0, 60.0, 601)
    trace = EnergyTrace(t=t, E=np.exp(-2.0 * t), D=np.zeros_like(t), dt=0.1,
                        balance_coefficient=0.0)
    fit = decay_fit(trace)
    assert "floor_truncated" in fit.flags
    assert fit.tau == pytest.approx(0.5, rel=1e-6)
    assert fit.window[1] < 60.0


def test_decay_fit_needs_two_usable_samples():
    t = np.array([0.0, 1.0, 2.0])
    trace = EnergyTrace(t=t, E=np.array([1.0, 1e-40, 1e-40]), D=np.zeros(3), dt=1.0,
                        balance_coefficient=0.0)
    with pytest.raises(ValueError, match="fewer than two usable samples"):
        decay_fit(trace)


def test_probe_undamped_is_conservative(probe_runs):
    _, runs = probe_runs
    trace, _ = runs["off"]
    assert abs(trace.E[-1] / trace.E[0] - 1.0) <= 1e-6


def test_probe_unit_damping_matches_modal_rate(probe_runs):
    _, runs = probe_runs
    _, fit = runs["constant"]
    assert fit.tau == pytest.approx(1.0, rel=0.25)


def test_probe_blind_spots_slow_decay(probe_runs):
    _, runs = probe_runs
    ref = runs["constant"][1].tau
    # bump support sits inside an undamped checkerboard cell and far from the
    # ball, so neither damping touches the packet over the short window
    assert runs["checkerboard"][1].tau >= 5.0 * ref
    assert runs["ball"][1].tau >= 5.0 * ref
    # exterior damping covers the whole probe box, so it matches b = 1 exactly
    assert runs["exterior"][1].tau == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(("ratio", "n_steps"), [(100.4, 101), (120.0, 120), (10.5, 40), (100 + 5e-8, 100)])
def test_probe_steps_are_never_longer_than_dt(ratio, n_steps):
    # dt at the CFL limit: evolve's step rule on min(dt, T / 40); rounding
    # 100.4 down to 100 steps overran dt and the CFL bound, and so did steps
    # of T / 100 when T / dt is 100 within the rule's 1e-9
    b = builtin_damping("constant", d=1)
    f, rep = turning_point_bump(H1, [41.5], 1.0, b=b)
    dt = cfl_limit(H1, f.grid)
    T = ratio * dt
    trace, _ = quasimode_probe(H1, b, f, rep.lam, T, dt=dt)
    assert trace.dt <= dt
    assert len(trace.t) == n_steps + 1
    if T - n_steps * dt > 1e-12 * T:  # whole to 1e-9: n steps of dt, ending short of T
        assert trace.dt == dt
        assert abs(trace.t[-1] - T) <= 1e-9 * T
    else:
        assert trace.dt == T / n_steps
        assert abs(trace.t[-1] - T) <= 1e-12 * T


def test_resolvent_growth_matches_probe_decay(resolvent_suite, probe_runs):
    # categorical agreement: a growing frequency sweep pairs with a probe
    # that outlives the constant-damping reference by 5x or more
    _, runs = probe_runs
    ref_tau = runs["constant"][1].tau
    for name, scan in resolvent_suite["scans"].items():
        ratio = scan.ratio
        k = len(ratio) // 10
        growth = float(np.max(ratio[-k:]) / np.max(ratio[:k]))
        slow_decay = runs[name][1].tau >= 5.0 * ref_tau
        assert (growth >= 1.5) == slow_decay, (name, growth, runs[name][1].tau)


def test_resolvent_matches_spectral_gap(small_scan):
    lams, scan = small_scan
    mu2 = p_spectrum_1d(H1, scan.grid, 12)
    for lam, sig in zip(lams, scan.sigma_min):
        gap = float(np.min(np.abs(mu2 - lam**2)))
        assert sig == pytest.approx(gap, rel=0.05)
    assert set(scan.flags) == {"ok"}
    assert np.all(scan.ratio == np.abs(scan.lambdas) / scan.sigma_min)


def test_resolvent_frequency_symmetry(small_scan):
    lams, scan = small_scan
    neg = resolvent_scan(H1, B_OFF, -lams)
    assert np.max(np.abs(neg.sigma_min - scan.sigma_min)) <= 1e-10


@settings(max_examples=30)
@given(
    st.floats(0.2, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.3, 2.0),
    st.floats(0.0, 1.0),
    st.lists(st.floats(1.0, 5.0), min_size=1, max_size=3),
)
def test_resolvent_is_mirror_invariant(amplitude, x0, width, step, lams):
    # x -> -x maps the harmonic well and the symmetric grid to themselves and b
    # to its mirror, so sigma_min must not tell a smooth b from b(-x)
    def profile(s):
        return amplitude * np.exp(-(((s - x0) / width) ** 2)) + step * (1.0 + np.tanh(s - x0)) / 2.0

    b = Damping(1, lambda pts: profile(pts[..., 0]), amplitude + step, "bump")
    mirror = Damping(1, lambda pts: profile(-pts[..., 0]), amplitude + step, "mirrored bump")
    scan, mirrored = resolvent_scan(H1, b, lams), resolvent_scan(H1, mirror, lams)
    assert scan.grid.ns[0] <= 400
    assert set(scan.flags) == set(mirrored.flags) == {"ok"}
    assert np.max(np.abs(mirrored.sigma_min / scan.sigma_min - 1.0)) <= 1e-10


def damped_bands(damping, n, lam):
    grid = make_grid(1, n, 8.0)
    x = grid.meshgrid()
    return p_bands(grid, H1.raw_value(x) - lam**2 + 1j * lam * damping.raw_func(x))


@settings(max_examples=60)
@given(st.sampled_from(CANONICAL_1D), st.integers(16, 600), st.integers(0, 200))
@example(CANONICAL_1D[0], 401, 58)  # an even start vector misses the odd minimiser here
def test_sigma_min_matches_dense_svd(case, n, k):
    # lam_k = sqrt(k + 1/2) are the criterion 09 sweep frequencies: on the
    # oscillator ladder b = 1 and exterior damping pair up singular values
    name, params = case
    ab = damped_bands(builtin_damping(name, d=1, **params), n, math.sqrt(k + 0.5))
    dense = sum(np.diag(ab[2 - o, max(o, 0) : n + min(o, 0)], o) for o in range(-2, 3))
    sigma, flag = evolution._sigma_min(ab)
    assert flag == "ok"
    assert abs(sigma / float(np.min(svdvals(dense))) - 1.0) <= 1e-10
    normal = dense.conj().T @ dense
    upper = evolution._normal_bands(ab)
    for off in range(5):
        gap = np.max(np.abs(upper[4 - off, off:] - np.diag(normal, off)))
        assert gap <= 1e-14 * np.max(np.abs(normal))


def _normal_bands_by_sums(ab):
    """Bands of A*A as numpy's sum over k forms them: the reference for evolution._normal_bands."""
    n = ab.shape[1]
    row = np.arange(5)[:, None] + np.arange(n) - 2  # row of A held by each entry of ab
    a = np.where((row >= 0) & (row < n), ab, 0.0)
    out = np.zeros((5, n), dtype=complex)
    for off in range(min(5, n)):
        out[4 - off, off:] = np.sum(np.conj(a[off:, : n - off]) * a[: 5 - off, off:], axis=0)
    return out


@given(
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e-150, 1e150]),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_normal_bands_keep_the_summed_bits(n, seed, scale, zeros):
    # adding the terms row by row from +0 keeps the bits of numpy's sum over k,
    # signed zeros included, on every grid (n >= 8); on fewer nodes numpy sums
    # in another order
    rng = np.random.default_rng(seed)
    ab = scale * (rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
    signed_zero = np.copysign(0.0, rng.standard_normal((2, 5, n)))
    ab.real = np.where(rng.random((5, n)) < zeros, signed_zero[0], ab.real)
    ab.imag = np.where(rng.random((5, n)) < zeros, signed_zero[1], ab.imag)
    got, want = evolution._normal_bands(ab), _normal_bands_by_sums(ab)
    if n >= 8:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want)))


def dense_of(ab):
    """The n x n matrix whose bands ab holds, ab[2 + i - j, j] = A[i, j]."""
    n = ab.shape[1]
    i, j = np.indices((n, n))
    band = np.abs(i - j) <= 2
    dense = np.zeros((n, n), dtype=complex)
    dense[band] = ab[(2 + i - j)[band], j[band]]
    return dense


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("case", ["random", "identity"])
def test_sigma_min_on_a_few_nodes(case, n):
    # on random bands the recurrence may run to k = n (it does for n < 8),
    # and on 2 I it meets an invariant subspace at once (beta_1 = 0 up to rounding)
    if case == "random":
        rng = np.random.default_rng(n)
        ab = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        ab[3, :-1], ab[4, :-2] = ab[1, 1:], ab[0, 2:]
    else:
        ab = np.zeros((5, n), dtype=complex)
        ab[2] = 2.0
    matvecs = []
    sigma, flag = evolution._sigma_min(ab, matvecs)
    assert flag == "ok"
    assert abs(sigma / float(np.min(svdvals(dense_of(ab)))) - 1.0) <= 1e-12
    assert 1 <= matvecs[0] <= n
    if case == "identity":
        assert matvecs == [1]


def test_lanczos_stops_on_an_invariant_subspace():
    # 3 I from a unit start of exact halves: w = 3 q - 3 q = 0 exactly at step 1
    evolution._bind_band_routines()
    theta, count = evolution._lanczos_top(lambda v: 3.0 * v, np.full(4, 0.5 + 0j))
    assert (theta, count) == (3.0, 1)


@pytest.mark.deep
@given(st.sampled_from(CANONICAL_1D), st.integers(16, 600), st.integers(0, 200))
def test_sigma_min_never_undercuts_the_dense_value(case, n, k):
    # without reorthogonalization the top Ritz value of (A*A)^-1 exceeds its
    # top eigenvalue only by rounding, so sigma stays above the dense sigma_min
    name, params = case
    ab = damped_bands(builtin_damping(name, d=1, **params), n, math.sqrt(k + 0.5))
    sigma, _ = evolution._sigma_min(ab)
    assert sigma >= float(np.min(svdvals(dense_of(ab)))) * (1.0 - 1e-12)


def test_sigma_min_certificate_rejects_overestimate(monkeypatch):
    # a Ritz value short of the top eigenvalue of (A*A)^-1 overestimates
    # sigma_min, which the shifted Cholesky factorization must catch
    ab = damped_bands(builtin_damping("ball", d=1, radius=1.0), 201, 3.0)
    sigma, flag = evolution._sigma_min(ab)
    assert flag == "ok"
    dstebz = evolution.dstebz

    def second_largest(d, e, select, vl, vu, il, iu, tol, order):
        below = max(il - 1, 1)  # T_1 never reaches dstebz: its one pair is the top
        return dstebz(d, e, select, vl, vu, below, below, tol, order)

    monkeypatch.setattr(evolution, "dstebz", second_largest)
    worse, flag = evolution._sigma_min(ab)
    assert worse > sigma
    assert flag == "failed"


def captured_operator(ab):
    """The matvec _sigma_min hands to its Lanczos loop for the bands ab."""
    seen = []

    def capture(matvec, v0):
        seen.append(matvec)
        return 1.0, 1

    with mock.patch.object(evolution, "_lanczos_top", capture):
        evolution._sigma_min(ab)
    return seen[0]


@settings(max_examples=60)
@given(st.integers(5, 400), st.integers(0, 2**32 - 1))
def test_factor_once_matvec_keeps_the_solve_banded_bits(n, seed):
    # one LU per frequency, reused with its conjugate for A* = conj(A), gives
    # the bits of solving A* and then A from scratch on every matvec
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    ab[3, :-1], ab[4, :-2] = ab[1, 1:], ab[0, 2:]  # complex symmetric; the corners hold junk
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = solve_banded((2, 2), ab, solve_banded((2, 2), np.conj(ab), v))
    assert np.array_equal(captured_operator(ab)(v), expected)


def test_resolvent_factors_each_band_once(monkeypatch):
    calls = []
    zgbtrf = evolution.zgbtrf

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return zgbtrf(*args, **kwargs)

    monkeypatch.setattr(evolution, "zgbtrf", counting)
    scan = resolvent_scan(H1, B_ONE, [1.0, 1.5, 2.0])
    assert calls == [(7, scan.grid.ns[0])] * 3  # one (7, n) band LU per frequency
    assert len(scan.matvecs) == 3
    assert all(count >= 1 for count in scan.matvecs)


def test_band_routines_bind_on_first_read():
    # the benchmark tracer reads and patches these names on the module; a
    # fresh interpreter must hand it scipy's own routines, bound on first
    # read, here by eight threads at once with a short switch interval
    probe = """
import sys, threading
from stabscope import evolution
names = ("cholesky_banded", "eig_banded", "solve_banded", "zgbtrf", "zgbtrs")
unbound = "scipy.linalg" not in sys.modules and not set(names) & set(vars(evolution))
sys.setswitchinterval(1e-6)
start, seen = threading.Barrier(8), []
def read():
    start.wait()
    seen.append([getattr(evolution, name) for name in names])
threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
from scipy.linalg import cholesky_banded, eig_banded, solve_banded
from scipy.linalg.lapack import zgbtrf, zgbtrs
expected = [cholesky_banded, eig_banded, solve_banded, zgbtrf, zgbtrs]
same = len(seen) == 8 and all(a is b for routines in seen for a, b in zip(routines, expected))
print(unbound, same, hasattr(evolution, "no_such_name"))
"""
    assert run_fresh(probe).split() == ["True", "True", "False"]


def test_patch_before_first_use_is_kept():
    # binding fills only the names not already set on the module
    probe = """
from stabscope import evolution
from stabscope.damping import builtin_damping
from stabscope.potentials import builtin_potential
calls = []
evolution.cholesky_banded = lambda *args, **kwargs: calls.append(1)
evolution.resolvent_scan(builtin_potential("harmonic", d=1), builtin_damping("constant", d=1, amplitude=1.0), [1.0, 2.0])
print(len(calls))
"""
    assert run_fresh(probe).split() == ["2"]


def test_resolvent_certifies_through_the_module_cholesky(monkeypatch):
    # the tracer's Cholesky counter: one certificate per frequency
    calls = []
    cholesky_banded = evolution.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cholesky_banded(*args, **kwargs)

    monkeypatch.setattr(evolution, "cholesky_banded", counting)
    scan = resolvent_scan(H1, B_ONE, [1.0, 1.5, 2.0])
    assert calls == [(5, scan.grid.ns[0])] * 3
    assert scan.flags == ("ok",) * 3


def test_bad_band_raises_like_solve_banded():
    ab = damped_bands(B_ONE, 64, 2.0)
    ab[:, 10] = 0.0  # column 10 of A is zero: exactly singular
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((2, 2), ab, np.ones(64))
    with pytest.raises(np.linalg.LinAlgError):
        evolution._sigma_min(ab)
    ab[2, 10] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_banded((2, 2), ab, np.ones(64))
    with pytest.raises(ValueError, match="infs or NaNs"):
        evolution._sigma_min(ab)


def test_resolvent_sweep_is_certified(resolvent_suite):
    for name, scan in resolvent_suite["scans"].items():
        assert set(scan.flags) == {"ok"}, name


def test_resolvent_grid_covers_sublevel_set():
    grid = resolvent_grid(H1, 2.0)
    assert grid.d == 1
    assert grid.ls[0] >= sublevel_radius(H1, 16.0) * (1.0 - 1e-12)


def test_resolvent_scan_rejects_bad_input():
    h2 = builtin_potential("harmonic", d=2)
    b2 = builtin_damping("constant", d=2, amplitude=0.0)
    with pytest.raises(ValueError, match="requires d = 1"):
        resolvent_scan(h2, b2, [1.0])
    with pytest.raises(ValueError, match="at least one frequency"):
        resolvent_scan(H1, B_OFF, [])
    with pytest.raises(ValueError, match="positive frequency"):
        resolvent_scan(H1, B_OFF, [0.0])
    with pytest.raises(ValueError, match="Dirichlet box too small"):
        resolvent_scan(H1, B_OFF, [1.0, 1.5, 2.0], grid=make_grid(1, 64, 2.0))
    # wide enough at the origin, but the box [44, 56] misses the well |x| <= 4 sqrt(2)
    with pytest.raises(ValueError, match="need half-width >= 55.6569"):
        resolvent_scan(H1, B_OFF, [1.0, 2.0], grid=make_grid(1, 400, 6.0, center=50.0))


@pytest.mark.parametrize("lams", [[math.inf], [1.0, math.nan], [-math.inf, 1.0]])
def test_resolvent_scan_rejects_non_finite_frequency(lams):
    # rejected before the grid is sized from the largest |lam|; a RuntimeWarning
    # on the way would fail the test (pyproject filterwarnings)
    with pytest.raises(ValueError, match="need finite frequencies"):
        resolvent_scan(H1, B_OFF, lams)


def test_p_spectrum_matches_oscillator_ladder(spectrum_setup):
    _, mu2 = spectrum_setup
    assert np.allclose(mu2[:8], np.arange(8) + 0.5, atol=1e-5)
    assert np.all(np.diff(mu2) > 0.0)


def test_p_spectrum_rejects_bad_input():
    with pytest.raises(ValueError, match="spectrum requires d = 1"):
        p_spectrum_1d(builtin_potential("harmonic", d=2), make_grid(2, 32, 4.0), 4)
    with pytest.raises(ValueError, match="count out of range"):
        p_spectrum_1d(H1, make_grid(1, 32, 6.0), 40)


def test_damped_spectrum_satisfies_quadratic(spectrum_setup):
    grid, mu2 = spectrum_setup
    result = damped_spectrum_1d(H1, B_ONE, grid, 40)
    z = result.values
    # each eigenvalue solves z^2 + z + mu_k^2 = 0 for some Dirichlet mu_k^2
    quad = np.min(np.abs(z[:, None] ** 2 + z[:, None] + mu2[None, :]), axis=1)
    assert float(np.max(quad)) <= 1e-6
    assert set(result.flags) == {"ok"}
    assert result.abscissa == pytest.approx(-0.5, rel=0.05)


def test_undamped_spectrum_sits_on_axis(spectrum_setup):
    grid, mu2 = spectrum_setup
    result = damped_spectrum_1d(H1, B_OFF, grid, 40)
    assert float(np.max(np.abs(result.values.real))) <= 1e-8
    mus = np.sqrt(mu2)
    gap = np.min(np.abs(np.abs(result.values.imag)[:, None] - mus[None, :]), axis=1)
    assert float(np.max(gap)) <= 1e-8
    assert result.abscissa == pytest.approx(0.0, abs=1e-8)


@settings(max_examples=40)
@given(
    st.sampled_from(BUILTIN_DAMPINGS),
    st.floats(0.25, 4.0),
    st.floats(0.05, 0.95),
    st.integers(4, 40),
)
def test_damped_spectrum_is_conjugation_symmetric(spectrum_setup, damping, period, duty, count):
    # real V and b give a real companion matrix, whose spectrum is closed
    # under z -> conj(z); only the last two values, where the count can cut a
    # conjugate pair in half, may miss their partner
    grid, _ = spectrum_setup
    name, params = damping
    if "period" in params:
        params = {"period": period, "duty": duty}
    z = damped_spectrum_1d(H1, builtin_damping(name, d=1, **params), grid, count).values
    gap = np.min(np.abs(z[:-2, None] - np.conj(z)[None, :]), axis=1)
    assert np.all(gap <= 1e-10 * np.abs(z[:-2]))


def test_damped_spectrum_rejects_bad_input(spectrum_setup):
    grid, _ = spectrum_setup
    with pytest.raises(ValueError, match="damped spectrum requires d = 1"):
        damped_spectrum_1d(builtin_potential("harmonic", d=2),
                           builtin_damping("constant", d=2, amplitude=1.0),
                           make_grid(2, 32, 4.0), 4)
    with pytest.raises(ValueError, match="at or below 200"):
        damped_spectrum_1d(H1, B_ONE, grid, 201)
    # resolved (h = 0.03), but the box |x| <= 3 cuts the ladder short of
    # level 40.5, which needs |x| <= 9
    with pytest.raises(ValueError, match="Dirichlet box too small: need half-width >= 9"):
        damped_spectrum_1d(H1, B_ONE, make_grid(1, 201, 3.0), 40)
    # |x| <= 6 holds level 10.5 about the origin, the box [44, 56] does not
    with pytest.raises(ValueError, match="Dirichlet box too small: need half-width >= 54.5826"):
        damped_spectrum_1d(H1, B_ONE, make_grid(1, 400, 6.0, center=50.0), 10)


def test_trace_csv_layout(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    trace = EnergyTrace(t=t, E=np.exp(-t), D=0.5 * np.ones_like(t), dt=0.25,
                        balance_coefficient=0.0)
    path = tmp_path / "trace.csv"
    _write_csv(path, *_trace_table(trace))
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "t,E,D"
    assert len(lines) == 6
    cells = lines[2].split(",")
    assert float(cells[0]) == t[1]
    assert float(cells[1]) == trace.E[1]


def test_resolvent_csv_layout(command_artifacts, small_scan):
    lams, scan = small_scan
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 0.0},
        "lambdas_freq": lams.tolist(),
    }
    out = command_artifacts("resolvent", cfg)
    lines = (out / "resolvent.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,sigma_min,lambda_over_sigma_min,flag"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert float(cells[0]) == scan.lambdas[0]
    assert float(cells[1]) == scan.sigma_min[0]
    assert cells[3] == "ok"


def test_spectrum_csv_layout(command_artifacts, spectrum_setup):
    grid, _ = spectrum_setup
    result = damped_spectrum_1d(H1, B_ONE, grid, 8)
    cfg = {
        "potential": {"name": "harmonic", "d": 1},
        "damping": {"name": "constant", "amplitude": 1.0},
        "count": 8,
        "grid": {"n_nodes": grid.ns[0], "half_width_space": grid.ls[0]},
    }
    out = command_artifacts("spectrum", cfg)
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "re,im,residual"
    assert len(lines) == 9
    cells = lines[1].split(",")
    assert float(cells[0]) == result.values[0].real
    assert float(cells[1]) == result.values[0].imag

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stabscope.dynamics import (
    _flow_states,
    flow_integrate,
    flow_positions,
    linearization_deviation,
    sample_shell,
)
from stabscope.potentials import builtin_potential, epsilon_lambda


def test_flow_quarter_period(harmonic_1d):
    # step chosen so an integer number of steps lands exactly on T = pi/2
    T = math.pi / 2.0
    traj = flow_integrate(harmonic_1d, np.array([1.0]), np.array([0.0]), T, T / 15708)
    assert abs(float(traj.x[-1, 0]) - 0.0) <= 1e-6
    assert abs(float(traj.xi[-1, 0]) + 1.0) <= 1e-6


def test_flow_equilibrium(harmonic_1d):
    traj = flow_integrate(harmonic_1d, np.zeros(1), np.zeros(1), 1.0, 1e-3)
    assert np.all(traj.x == 0.0)
    assert np.all(traj.xi == 0.0)


def test_flow_power_matches_adaptive_reference(power3_1d):
    traj = flow_integrate(power3_1d, np.array([0.5]), np.array([1.0]), 10.0, 1e-4)
    assert traj.drift <= 1e-8

    def rhs(_t, z):
        x, xi = z[:1], z[1:]
        return np.concatenate([xi, -power3_1d.grad(x)])

    ref = solve_ivp(rhs, (0.0, 10.0), np.array([0.5, 1.0]), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    end = ref.y[:, -1]
    assert abs(float(traj.x[-1, 0]) - end[0]) <= 1e-5
    assert abs(float(traj.xi[-1, 0]) - end[1]) <= 1e-5


def test_time_reversal(harmonic_1d):
    fwd = flow_integrate(harmonic_1d, np.array([1.0]), np.array([0.0]), 10.0, 1e-3)
    back = flow_integrate(harmonic_1d, fwd.x[-1].copy(), -fwd.xi[-1], 10.0, 1e-3)
    assert abs(float(back.x[-1, 0]) - 1.0) <= 1e-8
    assert abs(float(back.xi[-1, 0]) - 0.0) <= 1e-8


def test_closed_form_harmonic(flow_reference_runs):
    traj = flow_reference_runs["closed"]
    t = traj.t
    x_ref = 1.0 * np.cos(t) + 0.5 * np.sin(t)
    xi_ref = -1.0 * np.sin(t) + 0.5 * np.cos(t)
    err = max(np.max(np.abs(traj.x[:, 0] - x_ref)), np.max(np.abs(traj.xi[:, 0] - xi_ref)))
    assert err <= 1e-6


def test_long_horizon_drift(flow_reference_runs):
    for pot, drift in flow_reference_runs["drifts"]:
        assert drift <= 1e-6, f"{pot.label} d={pot.d}: drift {drift:.3e}"


def test_long_horizon_drift_harmonic_tight(harmonic_1d):
    # verlet energy oscillation scales with p0 * dt^2 / 8, so the 1e-8 bar
    # needs small-amplitude data; p0 = 0.025 here.
    traj = flow_integrate(harmonic_1d, np.array([0.2]), np.array([0.1]), 100.0, 1e-3)
    assert traj.drift <= 1e-8, f"harmonic tight drift {traj.drift:.3e}"


def test_flow_rejects_bad_steps(harmonic_1d):
    with pytest.raises(ValueError, match="need dt > 0"):
        flow_integrate(harmonic_1d, np.ones(1), np.ones(1), 1.0, -0.1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_flow_states_reject_non_finite_times(harmonic_1d, bad):
    # a NaN time used to return a meaningless position, an infinite one an OverflowError
    x0, xi0 = np.ones((2, 1)), np.zeros((2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need finite flow times"):
            flow_positions(harmonic_1d, x0, xi0, np.array([0.0, 0.5, bad]), 1e-3)
        with pytest.raises(ValueError, match="need finite flow times"):
            _flow_states(harmonic_1d, x0, xi0, np.array([bad, 0.0]), 1e-3)


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
def test_flow_states_reject_bad_steps(harmonic_1d, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need finite dt > 0"):
            flow_positions(harmonic_1d, np.ones((2, 1)), np.zeros((2, 1)), np.array([-0.5, 0.0, 0.5]), dt)
        prof = epsilon_lambda(harmonic_1d, [25.0])
        with pytest.raises(ValueError, match="need finite dt > 0"):
            linearization_deviation(harmonic_1d, np.zeros(1), np.ones(1), 2.0, 25.0, prof, dt=dt)


@pytest.mark.parametrize(
    "T, lam", [(math.inf, 25.0), (math.nan, 25.0), (2.0, math.inf), (2.0, math.nan), (2.0, 0.0), (2.0, -25.0)]
)
def test_linearization_rejects_bad_windows(harmonic_1d, T, lam):
    prof = epsilon_lambda(harmonic_1d, [25.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning means the window reached numpy first
        with pytest.raises(ValueError, match="need finite T and finite lam > 0"):
            linearization_deviation(harmonic_1d, np.zeros(1), np.ones(1), T, lam, prof)


def test_flow_unstable_aborts(harmonic_1d):
    with pytest.raises(RuntimeError, match="integrator unstable"):
        flow_integrate(harmonic_1d, np.array([1.0]), np.array([0.0]), 200.0, 2.1)


def test_rescaled_harmonic_closed_form(harmonic_1d):
    # from y = 0, eta = sqrt(2): y_s = sqrt(2) lam sin(s/lam), eta_s = sqrt(2) cos(s/lam),
    # so both deviations peak at s = +-T
    lam, T = 10.0, 3.7
    prof = epsilon_lambda(harmonic_1d, [lam])
    rep = linearization_deviation(harmonic_1d, np.zeros(1), np.array([math.sqrt(2.0)]), T, lam, prof)
    assert abs(float(rep.dev_eta[0]) - math.sqrt(2.0) * (1.0 - math.cos(T / lam))) <= 1e-6
    assert abs(float(rep.dev_y[0]) - math.sqrt(2.0) * (T - lam * math.sin(T / lam))) <= 1e-6


def test_rescaled_energy_identity_power(power3_1d):
    # the two-leg flow that linearization_deviation samples keeps the rescaled
    # state (x, xi / lam) on V(x) + lam^2 |xi / lam|^2 / 2 = lam^2 at both signs of s
    lam = 50.0
    y0 = np.array([1.0])
    v0 = float(power3_1d.value(y0))
    eta0 = np.array([math.sqrt(2.0 * (lam**2 - v0)) / lam])
    s = np.linspace(-5.0, 5.0, 9)
    xs, xis = _flow_states(power3_1d, y0, lam * eta0, s / lam, 1e-4)
    p = power3_1d.raw_value(xs) + 0.5 * np.sum(xis**2, axis=-1)
    assert np.max(np.abs(p - lam**2)) / lam**2 <= 1e-7


def test_linearization_turning_points(harmonic_1d):
    prof = epsilon_lambda(harmonic_1d, [25.0, 100.0, 400.0])
    expected_bound_y = {25.0: 1.1951494269471545, 100.0: 0.29878135129889744, 400.0: 0.07470723027386945}
    for lam, bound_y in expected_bound_y.items():
        y0 = np.array([math.sqrt(2.0) * lam])
        rep = linearization_deviation(harmonic_1d, y0, np.zeros(1), 2.0, lam, prof)
        assert rep.bound_y == pytest.approx(bound_y, rel=1e-9)
        assert rep.y_ok and rep.eta_ok
        assert rep.dev_y <= rep.bound_y
        assert rep.dev_eta <= rep.bound_eta


def test_linearization_zero_window(harmonic_1d):
    prof = epsilon_lambda(harmonic_1d, [25.0])
    rep = linearization_deviation(harmonic_1d, np.array([math.sqrt(2.0) * 25.0]), np.zeros(1), 0.0, 25.0, prof)
    assert rep.dev_eta == 0.0
    assert rep.dev_y == 0.0


def test_linearization_bound_monotone(harmonic_1d):
    prof = epsilon_lambda(harmonic_1d, [25.0, 50.0, 100.0])
    bounds = []
    for lam in (25.0, 50.0, 100.0):
        y0 = np.array([math.sqrt(2.0) * lam])
        bounds.append(linearization_deviation(harmonic_1d, y0, np.zeros(1), 2.0, lam, prof).bound_eta)
    assert bounds[0] > bounds[1] > bounds[2]


def test_sample_shell_energies(harmonic_2d):
    rng = np.random.default_rng(3)
    xs, xis = sample_shell(harmonic_2d, 20.0, 50, rng, turning_fraction=0.2)
    assert xs.shape == (50, 2) and xis.shape == (50, 2)
    p = harmonic_2d.raw_value(xs) + 0.5 * np.sum(xis * xis, axis=1)
    assert np.max(np.abs(p - 400.0)) <= 1e-9 * 400.0
    slow = int(np.sum(np.linalg.norm(xis, axis=1) <= 0.1 * 20.0))
    assert slow >= 10


def test_trajectory_csv_layout(command_artifacts, harmonic_2d):
    traj = flow_integrate(harmonic_2d, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 1e-3)
    cfg = {
        "potential": {"name": "harmonic", "d": 2},
        "x0_space": [1.0, 0.0],
        "xi0_momentum": [0.0, 1.0],
        "T_time": 0.1,
        "dt_time": 1e-3,
    }
    out = command_artifacts("flow", cfg)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,xi_1,xi_2,p"
    assert len(lines) == len(traj.t) + 1
    row = [float(tok) for tok in lines[1].split(",")]
    assert row[0] == traj.t[0]
    assert row[5] == traj.p[0]


# Every builtin in d = 1 and d = 2, for the property tests of the Verlet kernel.
BUILTINS = [
    builtin_potential(name, d=d, **params)
    for d in (1, 2)
    for name, params in (("harmonic", {}), ("anisotropic", {"weights": [1.0, 2.5][-d:]}), ("power", {"s": 3.0}))
]


@st.composite
def flow_cases(draw):
    pot = draw(st.sampled_from(BUILTINS))
    coords = st.floats(-1.5, 1.5, allow_nan=False)
    x0 = np.array(draw(st.lists(coords, min_size=pot.d, max_size=pot.d)))
    xi0 = np.array(draw(st.lists(coords, min_size=pot.d, max_size=pot.d)))
    # power-of-two steps make every grid time k * dt exact
    dt = draw(st.sampled_from([2.0**-8, 2.0**-9]))
    n_steps = draw(st.integers(1, 256))
    return pot, x0, xi0, dt, n_steps


@given(flow_cases())
def test_verlet_reversibility(case):
    pot, x0, xi0, dt, n_steps = case
    fwd = flow_integrate(pot, x0, xi0, n_steps * dt, dt)
    back = flow_integrate(pot, fwd.x[-1], -fwd.xi[-1], n_steps * dt, dt)
    assert np.max(np.abs(back.x[-1] - x0)) <= 1e-10
    assert np.max(np.abs(back.xi[-1] + xi0)) <= 1e-10


@given(flow_cases(), st.integers(1, 8))
def test_single_state_matches_one_row_batch(case, record_every):
    # flow_integrate runs the kernel on floats, flow_positions on arrays;
    # both walk the same steps, forward and (with flipped momentum) backward
    pot, x0, xi0, dt, n_steps = case
    fwd = flow_integrate(pot, x0, xi0, n_steps * dt, dt, record_every=record_every)
    back = flow_integrate(pot, x0, -xi0, n_steps * dt, dt, record_every=record_every)
    times = np.concatenate([-back.t[:0:-1], fwd.t])
    pos = flow_positions(pot, x0[None, :], xi0[None, :], times, dt)
    assert pos.shape == (len(times), 1, pot.d)
    expected = np.concatenate([back.x[:0:-1], fwd.x])
    assert np.max(np.abs(pos[:, 0, :] - expected)) <= 1e-12


# The gradient of V has one formula, Potential.force.  These properties pin its
# bits to formulas written out here: raw_grad = 2 phi'(q) w2 x, and a Verlet
# loop that forms its own q and phi'(q) on every step.

COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e6, -1e6]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def builtin_cases(draw):
    """A builtin potential, its squared weights, its phi' written out here, and s.

    s is the power family's exponent and None for the quadratic wells.
    """
    d = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(["harmonic", "anisotropic", "power"]))
    s = None
    if name == "power":
        s = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 3.5]))
        half, e = s / 2.0, s / 2.0 - 1.0
        w2 = (1.0,) * d

        def dphi(q):
            return half * (1.0 + q) ** e

        pot = builtin_potential("power", d=d, s=s)
    else:
        weights = [1.0] * d
        if name == "anisotropic":
            weights = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
        w2 = tuple(float(w) for w in np.asarray(weights, dtype=float) ** 2)

        def dphi(q):
            return 0.5

        pot = builtin_potential(name, d=d, **({} if name == "harmonic" else {"weights": weights}))
    return pot, w2, dphi, s


def reference_verlet(w2, dphi, x, xi, dt, n_steps):
    """Velocity Verlet with its own force -2 phi'(q) w2 x, the reference for the kernel.

    x and xi hold per-axis components, floats or arrays; returns the n_steps + 1
    states, axis by axis.
    """
    axes = range(len(w2))
    h, h2 = 0.5 * dt, 0.5 * dt * dt

    def force(x):
        q = 0.0
        for i in axes:
            q = q + w2[i] * x[i] * x[i]
        g = -2.0 * dphi(q)
        return [g * w2[i] * x[i] for i in axes]

    x, xi, a = list(x), list(xi), force(x)
    xs, xis = [list(x)], [list(xi)]
    for _ in range(n_steps):
        for i in axes:
            x[i] = x[i] + (dt * xi[i] + h2 * a[i])
        b = force(x)
        for i in axes:
            xi[i] = xi[i] + h * (a[i] + b[i])
        a = b
        xs.append(list(x))
        xis.append(list(xi))
    return np.array(xs), np.array(xis)


def stable_dt(pot, w2, s, x0, xi0):
    """A power-of-two step with omega * dt <= 2^-7 along the whole orbit.

    omega^2 bounds the Hessian of V on the sublevel set of the orbit's energy:
    max w2 for the quadratic wells, s max(1, s - 1) (1 + p)^max(0, 1 - 2/s)
    for the power family, so every flow below stays far inside the drift bar.
    """
    if s is not None:
        p = float(np.max(pot.raw_value(x0) + 0.5 * np.sum(xi0 * xi0, axis=-1)))
        omega2 = s * max(1.0, s - 1.0) * (1.0 + p) ** max(0.0, 1.0 - 2.0 / s)
    else:
        omega2 = max(w2)
    return 2.0 ** math.floor(math.log2(2.0**-7 / math.sqrt(omega2)))


@settings(max_examples=200)
@given(builtin_cases(), st.data())
def test_raw_grad_keeps_the_pre_change_formula(case, data):
    pot, w2, dphi, _ = case
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=8)))
    w2 = np.array(w2)
    g = 2.0 * np.asarray(dphi(np.sum(w2 * pts * pts, axis=-1)))
    expected = g[..., np.newaxis] * (w2 * pts)
    # bytes compare signed zeros too
    assert pot.raw_grad(pts).tobytes() == expected.tobytes()
    assert pot.grad(pts[0]).tobytes() == expected[0].tobytes()


@settings(max_examples=60)
@given(builtin_cases(), st.data(), st.integers(200, 400))
def test_flows_keep_the_pre_change_verlet_bits(case, data, n_steps):
    pot, w2, dphi, s = case
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    x0, xi0 = np.array(data.draw(point)), np.array(data.draw(point))
    dt = stable_dt(pot, w2, s, x0, xi0)
    traj = flow_integrate(pot, x0, xi0, n_steps * dt, dt)
    xs, xis = reference_verlet(w2, dphi, [float(c) for c in x0], [float(c) for c in xi0], dt, n_steps)
    assert traj.x.tobytes() == xs.tobytes()
    assert traj.xi.tobytes() == xis.tobytes()

    # a small batch on arrays, forward and (with flipped momentum) backward
    batch = st.lists(point, min_size=2, max_size=4)
    xb = np.array(data.draw(batch))
    xib = np.array(data.draw(st.lists(point, min_size=len(xb), max_size=len(xb))))
    dt = stable_dt(pot, w2, s, xb, xib)
    n_back = n_steps // 4
    times = np.arange(-n_back, n_steps + 1) * dt
    pos = flow_positions(pot, xb, xib, times, dt)
    x_axes, xi_axes = [xb[:, i] for i in range(pot.d)], [xib[:, i] for i in range(pot.d)]
    fwd, _ = reference_verlet(w2, dphi, x_axes, xi_axes, dt, n_steps)
    back, _ = reference_verlet(w2, dphi, x_axes, [-c for c in xi_axes], dt, n_back)
    expected = np.concatenate([back[:0:-1], fwd]).swapaxes(1, 2)  # (times, batch, d)
    assert pos.tobytes() == expected.tobytes()

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stabscope import dynamics
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
    match = "need dt finite" if dt == math.inf else "need dt > 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            flow_positions(harmonic_1d, np.ones((2, 1)), np.zeros((2, 1)), np.array([-0.5, 0.0, 0.5]), dt)


@pytest.mark.parametrize(
    "T, lam", [(math.inf, 25.0), (math.nan, 25.0), (2.0, math.inf), (2.0, math.nan), (2.0, 0.0), (2.0, -25.0)]
)
def test_linearization_rejects_bad_windows(harmonic_1d, T, lam):
    # T may be 0 (no motion) but must be finite; lam is a window
    match = "need finite T" if not math.isfinite(T) else "need lam finite" if lam == math.inf else "need lam > 0"
    prof = epsilon_lambda(harmonic_1d, [25.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning means the window reached numpy first
        with pytest.raises(ValueError, match=match):
            linearization_deviation(harmonic_1d, np.zeros(1), np.ones(1), T, lam, prof)


def test_flow_unstable_aborts(harmonic_1d):
    with pytest.raises(RuntimeError, match="integrator unstable"):
        flow_integrate(harmonic_1d, np.array([1.0]), np.array([0.0]), 200.0, 2.1)


def test_flows_reject_other_dimensions(harmonic_2d):
    # the kernel unpacks one or two components; a third gets the rule's message
    pot = dataclasses.replace(harmonic_2d, d=3)
    x0, xi0, times = np.ones((2, 3)), np.zeros((2, 3)), np.array([-0.5, 0.5])
    with pytest.raises(ValueError, match="only dimensions 1 and 2 are supported"):
        flow_integrate(pot, x0[0], xi0[0], 1.0, 1e-3)
    with pytest.raises(ValueError, match="only dimensions 1 and 2 are supported"):
        flow_positions(pot, x0, xi0, times, 1e-3)
    with pytest.raises(ValueError, match="only dimensions 1 and 2 are supported"):
        _flow_states(pot, x0, xi0, times, 1e-3)


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
    expected_bound_y = {25.0: 1.1951923677992622, 100.0: 0.29879327889469004, 400.0: 0.07470372226321527}
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
    xs, xis = sample_shell(harmonic_2d, 20.0, 50, rng)
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


@pytest.mark.deep
@settings(max_examples=max(200, settings.default.max_examples))  # 200, or the deep profile's count
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


@pytest.mark.deep
@settings(max_examples=max(60, settings.default.max_examples))  # 60, or the deep profile's count
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


# The kernel carries the force across the samples it records and, in
# _flow_states, from one span's call to the next.  These properties pin
# flow_integrate and _flow_states to the reference loop above, which
# evaluates the force afresh at the start of every run of steps.


@pytest.mark.deep
@given(
    builtin_cases(),
    st.data(),
    st.integers(1, 80),
    st.one_of(st.integers(1, 7), st.integers(81, 200)),  # 81 and up: one sample after the first
    st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
)
def test_flow_integrate_keeps_the_reference_bits(case, data, n_steps, record_every, extra):
    # T = (n_steps + extra) dt: whole when extra is 0, else n_steps + 1 steps of T / n
    pot, w2, dphi, s = case
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    x0, xi0 = np.array(data.draw(point)), np.array(data.draw(point))
    dt = stable_dt(pot, w2, s, x0, xi0)
    T = (n_steps + extra) * dt
    traj = flow_integrate(pot, x0, xi0, T, dt, record_every=record_every)
    if extra:
        n_steps += 1
        dt = T / n_steps
    assert traj.dt == dt
    xs, xis = reference_verlet(w2, dphi, [float(c) for c in x0], [float(c) for c in xi0], dt, n_steps)
    rows = sorted(set(range(0, n_steps + 1, record_every)) | {n_steps})
    assert traj.t.tobytes() == (np.array(rows) * dt).tobytes()
    assert traj.x.tobytes() == xs[rows].tobytes()
    assert traj.xi.tobytes() == xis[rows].tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("record_every", [1, 7, 1000])
def test_flow_integrate_calls_the_kernel_once(monkeypatch, d, record_every):
    calls = []

    def counted(*args):
        calls.append(args[5])  # the step count
        return verlet(*args)

    verlet = dynamics._verlet
    monkeypatch.setattr(dynamics, "_verlet", counted)
    pot = builtin_potential("power", d=d, s=3.0)
    traj = flow_integrate(pot, np.full(d, 0.5), np.ones(d), 0.1005, 1e-3, record_every=record_every)
    assert calls == [101]
    assert len(traj.t) == len(range(0, 101, record_every)) + 1


@pytest.mark.parametrize("d", [1, 2])
def test_a_span_of_two_steps_up_to_rounding_takes_two_steps_of_dt(monkeypatch, d):
    # 2 dt one ulp long: span / dt is 2.0000000000000004, whole to the step
    # rule, so the kernel gets 2 steps of dt, not 3 steps of span / 3
    calls = []

    def counted(*args):
        calls.append(args[4:6])  # the step and the step count
        return verlet(*args)

    verlet = dynamics._verlet
    monkeypatch.setattr(dynamics, "_verlet", counted)
    dt = 0.1
    span = np.nextafter(2.0 * dt, math.inf)
    assert span / dt > 2.0
    pot = builtin_potential("harmonic", d=d)
    _flow_states(pot, np.full((3, d), 0.5), np.ones((3, d)), np.array([span]), dt)
    assert calls == [(dt, 2)]


def test_a_step_count_past_the_float_range_is_refused(harmonic_1d):
    with pytest.raises(ValueError, match="need a finite T/dt"):
        flow_integrate(harmonic_1d, np.ones(1), np.zeros(1), 1e300, 1e-300)
    with pytest.raises(ValueError, match="need a finite T/dt"):
        flow_positions(harmonic_1d, np.ones((2, 1)), np.zeros((2, 1)), np.array([1e300]), 1e-300)


@pytest.mark.deep
@given(builtin_cases(), st.data())
def test_flow_states_keep_the_reference_bits(case, data):
    # requested times of both signs, in any order, repeated or zero; each
    # span between consecutive |t| is cut by the step rule: n steps of dt
    # when span / dt is a whole n to 1e-9 relative, else n = ceil(span / dt)
    # steps of span / n
    pot, w2, dphi, s = case
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    x0 = np.array(data.draw(st.lists(point, min_size=1, max_size=4)))
    xi0 = np.array(data.draw(st.lists(point, min_size=len(x0), max_size=len(x0))))
    dt = stable_dt(pot, w2, s, x0, xi0)
    steps = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-40.0, 40.0))
    times = dt * np.array(data.draw(st.lists(steps, min_size=1, max_size=8)))
    xs, xis = _flow_states(pot, x0, xi0, times, dt)

    exp_x, exp_xi = np.empty_like(xs), np.empty_like(xis)
    for sign in (1.0, -1.0):
        x = [x0[:, i] for i in range(pot.d)]
        xi = [sign * xi0[:, i] for i in range(pot.d)]
        t_cur = 0.0
        for j in sorted((j for j in range(len(times)) if sign * times[j] >= 0.0), key=lambda j: abs(times[j])):
            span = abs(times[j]) - t_cur
            if span > 1e-15:
                n, step = round(span / dt), dt
                if abs(span / dt - n) > 1e-9 * (span / dt):
                    n = math.ceil(span / dt)
                    step = span / n
                path, moms = reference_verlet(w2, dphi, x, xi, step, n)
                x, xi = list(path[-1]), list(moms[-1])
                t_cur = abs(times[j])
            exp_x[j] = np.stack(x, axis=-1)
            exp_xi[j] = sign * np.stack(xi, axis=-1)
    assert xs.tobytes() == exp_x.tobytes()
    assert xis.tobytes() == exp_xi.tobytes()


@pytest.mark.deep
@given(builtin_cases(), st.data())
def test_force_returns_a_d_tuple(case, data):
    pot, w2, dphi, s = case
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=8)))
    axes = range(pot.d)
    # on floats: a d-tuple of floats, -2 phi'(q) w2 x with q summed in axis order
    for row in pts.tolist():
        a = pot.force(*row)
        assert type(a) is tuple and len(a) == pot.d and all(type(c) is float for c in a)
        q = 0.0
        for i in axes:
            q = q + w2[i] * row[i] * row[i]
        g = -2.0 * dphi(q)
        assert np.array(a).tobytes() == np.array([g * w2[i] * row[i] for i in axes]).tobytes()
    # on arrays: a d-tuple of the components of -raw_grad, bit for bit
    a = pot.force(*[pts[:, i] for i in axes])
    assert type(a) is tuple and len(a) == pot.d
    assert np.stack(a, axis=-1).tobytes() == (-pot.raw_grad(pts)).tobytes()

    # a hand-built force that returns a list still integrates to the reference bits
    listed = dataclasses.replace(pot, force=lambda *x: list(pot.force(*x)))
    x0, xi0 = pts[0], np.array(data.draw(point))
    dt = stable_dt(pot, w2, s, x0, xi0)
    n_steps = data.draw(st.integers(1, 40))
    traj = flow_integrate(listed, x0, xi0, n_steps * dt, dt)
    xs, xis = reference_verlet(w2, dphi, [float(c) for c in x0], [float(c) for c in xi0], dt, n_steps)
    assert traj.x.tobytes() == xs.tobytes()
    assert traj.xi.tobytes() == xis.tobytes()


@pytest.mark.deep
@given(builtin_cases(), st.data())
def test_a_lone_point_gets_the_bits_of_its_batch_row(case, data):
    # numpy's power on a scalar can differ in the last place from its power on an array
    pot = case[0]
    point = st.lists(COORDS, min_size=pot.d, max_size=pot.d)
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=8)))
    values, grads = pot.raw_value(pts), pot.raw_grad(pts)
    for j, row in enumerate(pts):
        assert pot.value(row).tobytes() == values[j].tobytes()
        assert pot.grad(row).tobytes() == grads[j].tobytes()


@given(
    st.sampled_from([1, 2]),
    st.floats(0.1, 3.9),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    st.integers(1, 5),
)
@example(2, 1.5, [-0.2044005530144144, -2.447466205865303, 0.7905131532165508, 0.6983027465694613], 2)
@example(1, 1.5, [1.4827837254432588, 2.055760602329947, 0.0, 0.0], 2)
def test_flow_drift_is_measured_from_its_first_sample(d, s, coords, n_steps):
    # p0 is the recorded p[0], never a separate lone-point evaluation of V,
    # whose numpy power can differ in the last place for the power family
    pot = builtin_potential("power", d=d, s=s)
    traj = flow_integrate(pot, np.array(coords[:d]), np.array(coords[2 : 2 + d]), n_steps * 1e-3, 1e-3)
    assert np.float64(traj.p0).tobytes() == traj.p[0].tobytes()
    assert traj.drift == float(np.max(np.abs(traj.p - traj.p[0])) / max(traj.p[0], 1.0))


@pytest.mark.parametrize("T", [1.0015, 0.0019])
def test_flow_ends_at_T(harmonic_1d, command_artifacts, T):
    # T is no whole number of steps dt = 1e-3, so the flow takes n = ceil(T / dt)
    # equal steps of T / n and reports that step; round(T / dt) steps of dt overran T
    n = math.ceil(T / 1e-3)
    traj = flow_integrate(harmonic_1d, np.array([1.0]), np.array([0.5]), T, 1e-3)
    assert traj.dt == T / n
    assert traj.t[-1] == T
    assert traj.t.tobytes() == (np.arange(n + 1) * (T / n)).tobytes()
    xs, xis = reference_verlet((1.0,), lambda q: 0.5, [1.0], [0.5], T / n, n)
    assert traj.x.tobytes() == xs.tobytes()
    assert traj.xi.tobytes() == xis.tobytes()

    cfg = {"potential": {"name": "harmonic", "d": 1}, "x0_space": [1.0], "xi0_momentum": [0.5], "T_time": T, "dt_time": 1e-3}
    out = command_artifacts("flow", cfg)
    assert json.loads((out / "flow.json").read_text())["dt_time"] == T / n
    assert float((out / "trajectory.csv").read_text().splitlines()[-1].split(",")[0]) == T

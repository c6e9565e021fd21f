import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabscope.potentials import (
    _ball_sup,
    _gradient_suprema,
    _growth_constant,
    builtin_potential,
    epsilon_lambda,
    sublevel_radius,
)


def test_harmonic_point_values(harmonic_1d):
    assert float(harmonic_1d.value(np.array([2.0]))) == 2.0
    assert float(harmonic_1d.grad(np.array([2.0]))[0]) == 2.0


def test_power_origin_values(power3_1d):
    assert float(power3_1d.value(np.array([0.0]))) == 0.0
    assert float(power3_1d.grad(np.array([0.0]))[0]) == 0.0


def test_power_point_value_2d(power3_2d):
    v = float(power3_2d.value(np.array([3.0, 4.0])))
    assert abs(v - (26.0**1.5 - 1.0)) <= 1e-12


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown potential"):
        builtin_potential("coulomb", d=1)


@pytest.mark.parametrize("weights", [[1.0, float("nan")], [float("inf"), 1.0], [1.0, 0.0]])
def test_anisotropic_rejects_invalid_weights(weights):
    match = "need weights finite" if math.inf in weights else "need weights > 0"
    with pytest.raises(ValueError, match=match):
        builtin_potential("anisotropic", d=2, weights=weights)


def test_superquartic_exponent_rejected():
    with pytest.raises(ValueError, match="violates strict sub-quarticity"):
        builtin_potential("power", d=1, s=4.0)


def test_potential_invariants_on_random_box():
    rng = np.random.default_rng(7)
    pots = [
        builtin_potential("harmonic", d=1),
        builtin_potential("harmonic", d=2),
        builtin_potential("power", d=1, s=3.0),
        builtin_potential("power", d=2, s=1.5),
        builtin_potential("anisotropic", d=2, weights=[1.0, 2.5]),
    ]
    for pot in pots:
        pts = rng.uniform(-20.0, 20.0, size=(1000, pot.d))
        vals = pot.value(pts)
        assert np.all(vals >= 0.0)
        far = pts[np.linalg.norm(pts, axis=-1) >= pot.a0]
        if far.size:
            assert np.all(pot.value(far) >= 1.0)
        # central differences vs the analytic gradient
        grads = pot.grad(pts)
        step = 1e-5
        for axis in range(pot.d):
            offset = np.zeros(pot.d)
            offset[axis] = step
            num = (pot.value(pts + offset) - pot.value(pts - offset)) / (2 * step)
            scale = np.maximum(np.abs(grads[..., axis]), 1.0)
            assert np.max(np.abs(num - grads[..., axis]) / scale) <= 1e-6


def test_epsilon_monotone_and_positive(harmonic_1d):
    prof = epsilon_lambda(harmonic_1d, [10.0, 100.0])
    eps = np.asarray(prof.values)
    assert eps[1] <= eps[0]
    assert np.all(eps > 0.0)
    assert np.all(np.diff(eps) <= 0.0)


@st.composite
def builtin_potentials(draw):
    """One of the three builtin wells in d = 1 or 2, with drawn parameters."""
    d = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(["harmonic", "power", "anisotropic"]))
    params = {}
    if name == "power":
        params["s"] = draw(st.floats(0.1, 3.9))
    if name == "anisotropic":
        params["weights"] = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    return builtin_potential(name, d=d, **params)


@settings(max_examples=40)
@given(builtin_potentials(), st.lists(st.floats(1.0, 1e3), min_size=1, max_size=8).map(sorted))
def test_epsilon_non_increasing_property(pot, lams):
    prof = epsilon_lambda(pot, lams)
    eps = np.asarray(prof.values)
    assert np.array_equal(prof.lambdas, lams)
    assert np.all(eps > 0.0)
    assert np.all(np.diff(eps) <= 0.0)


def _loop_epsilon(pot, lams):
    """eps(lam) one frequency at a time, each on its own np.geomspace of trial radii."""
    c_v = (2.0**0.25 + _growth_constant(pot)) ** 3
    values = np.empty_like(lams)
    for i, lam in enumerate(lams):
        inside, tail = _gradient_suprema(pot, np.geomspace(pot.a0, max(pot.a0, lam), 64))
        values[i] = c_v * np.min(inside / lam**1.5 + tail)
    return np.minimum.accumulate(values)


@given(
    builtin_potentials(),
    st.lists(st.floats(1.0, 1e3) | st.floats(1.0, 1e7) | st.sampled_from([1.0, 2.0]), min_size=1, max_size=40),
)
@example(builtin_potential("harmonic", d=2), list(np.geomspace(1.0, 1e7, 160)))
@example(builtin_potential("power", d=2, s=3.0), list(np.geomspace(1.0, 2e5, 160)))
@example(builtin_potential("anisotropic", d=2, weights=[1.0, 2.5]), [1.0, 1.0, 50.0])
def test_epsilon_keeps_the_loop_bits(pot, lams):
    # all frequencies as one array of trial radii: the bits of the per-frequency
    # loop, also when some lam <= a0 gives a zero-step radius grid
    prof = epsilon_lambda(pot, lams)
    expected = _loop_epsilon(pot, np.sort(np.asarray(lams, dtype=float)))
    assert prof.values.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_epsilon_harmonic_sqrt_scaling(harmonic_1d):
    # For V = x^2/2 the minimized expression is A/lam^1.5 + 2^(3/4)/sqrt(A),
    # whose minimum is 3*2^(-1/6)/sqrt(lam); the prefactor (2^(1/4)+C)^3 uses
    # C = sup x/(4(1+x^2/2)^(3/4)) = 1/(2*3^(3/4)), attained at x = 2.
    lams = np.geomspace(10.0, 1e4, 13)
    prof = epsilon_lambda(harmonic_1d, lams)
    scaled = np.asarray(prof.values) * np.sqrt(lams)
    c_sup = 2.0 / (4.0 * 3.0**0.75)
    oracle = (2.0**0.25 + c_sup) ** 3 * 3.0 * 2.0 ** (-1.0 / 6.0)
    assert np.all(np.abs(scaled - oracle) <= 0.01 * oracle)
    assert np.max(scaled) / np.min(scaled) <= 1.001


@pytest.mark.parametrize(
    "name, d, params",
    [("harmonic", 1, {}), ("power", 1, {"s": 3.0}), ("power", 1, {"s": 3.99}), ("anisotropic", 2, {"weights": [1.0, 2.5]})],
)
@pytest.mark.parametrize("lam", [2.0, math.sqrt(200.0), 25.0])
def test_epsilon_ignores_the_other_frequencies(name, d, params, lam):
    pot = builtin_potential(name, d=d, **params)
    assert epsilon_lambda(pot, [lam]).values[0] == epsilon_lambda(pot, [lam, 1000.0]).values[0]


@pytest.mark.parametrize("lam", [math.sqrt(200.0), 25.0, 400.0])
def test_epsilon_harmonic_matches_its_oracle_on_the_a_grid(harmonic_1d, lam):
    # V = x^2/2: sup_{|x|<=A} |V'| = A, sup_{|x|>=A} |V'|/V^(3/4) = 2^(3/4)/sqrt(A)
    # and C = 1/(2*3^(3/4)), on the same 64 trial radii as epsilon_lambda
    a = np.geomspace(harmonic_1d.a0, max(harmonic_1d.a0, lam), 64)
    c_v = (2.0**0.25 + 0.5 * 3.0**-0.75) ** 3
    oracle = c_v * np.min(a / lam**1.5 + 2.0**0.75 / np.sqrt(a))
    assert abs(epsilon_lambda(harmonic_1d, [lam]).values[0] - oracle) <= 1e-12


def _polar_max(f, d, lo, hi):
    """Sampled max of f over r u, r in [lo, hi] log-spaced, u a unit vector of R^d.

    Each ray takes 512 radii, then four rounds of 128 between the neighbours
    of its best node.  In 2D eight rounds of 32 rays each span the neighbours
    of the round before's best ray: 2^18 points in all (2^11 in 1D).
    """
    t = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    best = -np.inf
    for _ in range(8 if d == 2 else 1):
        u = np.array([[1.0], [-1.0]]) if d == 1 else np.stack([np.cos(t), np.sin(t)], axis=-1)
        rays = np.arange(len(u))
        s_lo, s_hi, n = np.full(len(u), math.log(lo)), np.full(len(u), math.log(hi)), 512
        ray_max = np.full(len(u), -np.inf)
        for _ in range(5):
            s = np.linspace(s_lo, s_hi, n)
            vals = f(np.exp(s)[:, :, None] * u[None, :, :])
            i = np.argmax(vals, axis=0)
            ray_max = np.maximum(ray_max, vals[i, rays])
            s_lo, s_hi, n = s[np.maximum(i - 1, 0), rays], s[np.minimum(i + 1, n - 1), rays], 128
        best = max(best, float(ray_max.max()))
        j = int(np.argmax(ray_max))
        t = np.linspace(t[j] - (t[1] - t[0]), t[j] + (t[1] - t[0]), 32)
    return best


@given(
    builtin_potentials(),
    st.floats(1.0, 1e3),
    st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
    st.floats(0.01, 20.0),
)
def test_closed_form_suprema_match_dense_samples(pot, a_scale, center, radius):
    """Each closed-form supremum is at least a sample of its region (to
    rounding) and within 1e-7 of it; in 2D the four samples take 2^20 points."""
    a = pot.a0 * a_scale

    def gnorm(x):
        g = pot.raw_grad(x)
        return np.sqrt(np.sum(g * g, axis=-1))

    # V = phi(q) with q convex and phi increasing peaks on the sphere: 2^18 points of it
    c = np.array(center[: pot.d])
    t = np.linspace(0.0, 2.0 * np.pi, 2**18, endpoint=False)
    sphere = c + radius * (np.array([[1.0], [-1.0]]) if pot.d == 1 else np.stack([np.cos(t), np.sin(t)], axis=-1))
    inside, tail = _gradient_suprema(pot, np.array([a]))
    cases = [
        (_growth_constant(pot), _polar_max(lambda x: gnorm(x) / (4.0 * (1.0 + pot.raw_value(x)) ** 0.75), pot.d, 1e-3, 1e4)),
        (inside[0], _polar_max(gnorm, pot.d, 1e-9 * a, a)),
        (tail[0], _polar_max(lambda x: gnorm(x) / pot.raw_value(x) ** 0.75, pot.d, a, 1e4 * a)),
        (_ball_sup(pot, c, radius), float(np.max(pot.raw_value(sphere)))),
    ]
    for closed, sampled in cases:
        assert closed >= sampled * (1.0 - 1e-12)
        assert closed <= sampled * (1.0 + 1e-7)


def test_epsilon_power_decays(power3_1d):
    lams = np.geomspace(10.0, 1000.0, 9)
    prof = epsilon_lambda(power3_1d, lams)
    eps = np.asarray(prof.values)
    assert eps[-1] < eps[0] / 2.0


def test_epsilon_rejects_bad_input(harmonic_1d):
    with pytest.raises(ValueError, match="lam >= 1"):
        epsilon_lambda(harmonic_1d, [0.5])
    with pytest.raises(ValueError, match="at least one frequency"):
        epsilon_lambda(harmonic_1d, [])


def test_sublevel_radius_closed_forms(harmonic_1d, harmonic_2d, power3_1d, power3_2d):
    assert abs(sublevel_radius(harmonic_1d, 2.0) - 2.0) <= 1e-6
    assert abs(sublevel_radius(harmonic_2d, 50.0) - 10.0) <= 1e-6
    # weights (1, 2.5): the weakest axis sets rho = sqrt(2L) / min w_i = sqrt(2L)
    aniso = builtin_potential("anisotropic", d=2, weights=[1.0, 2.5])
    for level in (0.5, 8.0, 200.0):
        assert abs(sublevel_radius(aniso, level) - math.sqrt(2.0 * level)) <= 1e-6
    for pot, edge in ((power3_1d, [1.0]), (power3_2d, [0.6, -0.8])):
        rho = sublevel_radius(pot, 7.0)
        # (1 + rho^2)^(3/2) - 1 = 7 has the root rho = sqrt(3)
        assert abs(float(pot.value(rho * np.array(edge))) - 7.0) <= 1e-6
        assert abs(rho - math.sqrt(3.0)) <= 1e-6


def test_sublevel_radius_rejects_low_level(harmonic_1d):
    with pytest.raises(ValueError, match="need level > 0"):
        sublevel_radius(harmonic_1d, -1.0)


def test_gradient_growth_decays_harmonic(harmonic_1d):
    # |grad V| / V^(3/4) halves (and better) per decade for the harmonic well.
    vals = []
    for r in (10.0, 100.0, 1000.0):
        x = np.array([r])
        g = float(np.abs(harmonic_1d.grad(x)[0]))
        vals.append(g / float(harmonic_1d.value(x)) ** 0.75)
    assert vals[1] < vals[0] / 2.0
    assert vals[2] < vals[1] / 2.0


def test_gradient_growth_decays_power(power3_2d):
    # The s=3 family decays like r^(-1/4) per radius, slower than halving per
    # decade, so only strict decrease is asserted here.
    vals = []
    for r in (10.0, 100.0, 1000.0):
        x = np.array([r, 0.0])
        g = float(np.linalg.norm(power3_2d.grad(x)))
        vals.append(g / float(power3_2d.value(x)) ** 0.75)
    assert vals[0] > vals[1] > vals[2]
    assert vals[1] / vals[0] == pytest.approx(10.0 ** (-0.25), rel=0.05)

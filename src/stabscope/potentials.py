"""Confining potentials and the growth quantities derived from them.

A potential here is a smooth function V >= 0 on R^d that grows at infinity
slower than |x|^4 (strict sub-quarticity).  Everything downstream -- classical
flow, damping-condition scans, localized quasimode constructions -- consumes
potentials through this module's `Potential` handle, which bundles a batched
evaluator, the force -grad V on per-axis components (d positional arguments
in, a d-tuple out), and the radius beyond which V >= 1.  The builtins form
one family V = phi(sum_i w_i^2 x_i^2), so the handle also carries phi^-1 and
the squared weights for closed-form level sets.

Two derived quantities live here because they only depend on V:

* ``epsilon_lambda``: the frequency-dependent smallness factor

      eps(lam) = C_V * min_A ( sup_{|x|<=A} |grad V| / lam^(3/2)
                               + sup_{|x|>=A} |grad V| / V^(3/4) )

  which is non-increasing in lam and tends to 0 exactly because V is
  sub-quartic.  It calibrates how far the rescaled classical flow can drift
  from a straight line, and how large localized bumps may be taken.
  Its suprema are read off one point each, never sampled: on a level set
  q = c, |grad V| = 2 phi'(c) |W x| peaks on the axis of the largest weight.
* ``sublevel_radius``: the smallest radius outside of which V clears a level,
  used to truncate computational domains.

The input rules live here too, since every other module imports this one:
``_require_window`` for lengths, times, steps, levels and frequencies (finite
and > 0), ``_require_count`` for numbers of steps, samples, modes and terms
(an integer >= 1), ``_require_finite`` for points and vectors and
``_require_dimension`` for the dimension (1 or 2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["Potential", "EpsilonProfile", "builtin_potential", "epsilon_lambda", "sublevel_radius"]


def _require_window(name: str, values, where: str = ""):
    """The window rule: values, a number or an array, finite and > 0; returns values."""
    checked = np.asarray(values, dtype=float)
    if not np.all(checked > 0.0):
        raise ValueError(f"need {name} > 0{where}")
    if not np.all(checked < np.inf):
        raise ValueError(f"need {name} finite{where}")
    return values


def _require_finite(name: str, values):
    """The point rule: every entry of values finite; returns values."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"need finite {name}")
    return values


def _require_count(name: str, n) -> int:
    """The count rule: n an integer >= 1; returns it as an int."""
    if not 1 <= n < math.inf:
        raise ValueError(f"need {name} >= 1")
    if n != int(n):
        raise ValueError(f"{name} must be an integer, got {n}")
    return int(n)


def _equal_steps(T: float, dt: float) -> tuple:
    """The step rule, the only one: a span T in steps of at most dt, as
    (count, step).  T / dt steps of dt when that is whole to 1e-9 relative,
    else n = ceil(T / dt) equal steps of T / n, so the last step ends at T.
    A T / dt past the float range is refused.  Its callers:
    ``dynamics.flow_integrate``, each span of ``dynamics._flow_states``,
    ``evolution.evolve`` and, through it, ``evolution.quasimode_probe``."""
    steps = float(T) / float(dt)  # a numpy scalar would warn on overflow
    if steps == math.inf:
        raise ValueError(f"need a finite T/dt, got T={T:.6g}, dt={dt:.6g}")
    n = round(steps)
    if abs(steps - n) > 1e-9 * steps:
        n = math.ceil(steps)
        dt = T / n
    return n, dt


def _require_dimension(d) -> None:
    """The dimension rule: d is 1 or 2."""
    if d not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")


def as_points(x, d: int) -> np.ndarray:
    """Coerce input to an array of points with trailing axis of length d."""
    arr = np.asarray(x, dtype=float)
    if d == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
        arr = arr[..., np.newaxis]
    if arr.shape[-1] != d:
        raise ValueError(f"expected points with last axis {d}, got shape {arr.shape}")
    return arr


def unit_directions(d: int, n: int) -> np.ndarray:
    """A deterministic set of unit vectors; both signs in 1D, a fan of n in 2D."""
    n = _require_count("n", n)
    _require_dimension(d)
    if d == 1:
        return np.array([[1.0], [-1.0]])
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@dataclass(frozen=True)
class Potential:
    """A confining potential V(x) = phi(q), q = sum_i w2_i x_i^2.

    ``raw_value``/``raw_grad`` act on arrays of shape (..., d).  ``force``
    takes the d per-axis components of x as positional arguments,
    ``force(x0)`` or ``force(x0, x1)``, and returns a d-tuple of those of
    -grad V, each a float for one point or an array for a batch;
    ``raw_grad`` is built from it, so the gradient has one formula.  ``w2``
    holds the squared axis weights and ``phi_inv`` inverts phi, so level sets
    come in closed form.
    ``peak_radii`` holds three radii on the axis of the largest weight: where
    |grad V| / (1 + V)^(3/4) peaks, where |grad V| peaks (inf: never) and where
    |grad V| / V^(3/4) has an interior local maximum (0: none).
    """

    d: int
    raw_value: Callable[[np.ndarray], np.ndarray]
    raw_grad: Callable[[np.ndarray], np.ndarray]
    label: str
    w2: tuple[float, ...]
    force: Callable[..., tuple]
    phi_inv: Callable[[float], float]
    peak_radii: tuple[float, float, float]

    @property
    def a0(self) -> float:
        """A radius with V(x) >= 1 whenever |x| >= a0."""
        return sublevel_radius(self, 1.0)

    # value and grad take a lone point as a batch of one, so it gets the bits of
    # its row in a batch: numpy's power on a scalar can differ in the last
    # place from its power on an array

    def value(self, x) -> np.ndarray:
        pts = as_points(x, self.d)
        return self.raw_value(pts.reshape(-1, self.d)).reshape(pts.shape[:-1])

    def grad(self, x) -> np.ndarray:
        pts = as_points(x, self.d)
        return self.raw_grad(pts.reshape(-1, self.d)).reshape(pts.shape)


def builtin_potential(name: str, d: int = 1, **params) -> Potential:
    """Construct one of the builtin confining potentials.

    harmonic       V(x) = |x|^2 / 2
    power          V(x) = (1 + |x|^2)^(s/2) - 1, with 0 < s < 4
    anisotropic    V(x) = sum_i w_i^2 x_i^2 / 2, with positive weights

    All three are phi(sum_i w_i^2 x_i^2): phi(q) = q/2 for the quadratic
    wells, phi(q) = (1 + q)^(s/2) - 1 with unit weights for the power family.
    """
    _require_dimension(d)

    if name in ("harmonic", "anisotropic"):
        if name == "harmonic":
            if params:
                raise ValueError(f"harmonic potential takes no parameters, got {sorted(params)}")
            weights = np.ones(d)
            label = "harmonic"
        else:
            weights = np.asarray(params.pop("weights", [1.0, 2.0][:d]), dtype=float)
            if params:
                raise ValueError(f"unknown anisotropic-potential parameters {sorted(params)}")
            if weights.shape != (d,):
                raise ValueError("anisotropic potential needs one weight per axis")
            _require_window("weights", weights)
            label = "anisotropic(" + ",".join(f"{w:g}" for w in weights) + ")"
        w2 = tuple(float(w) for w in weights**2)

        def phi(q):
            return 0.5 * q

        # phi' is the constant 1/2, so -grad V = -w2 x needs no q
        if d == 1:
            (w0,) = w2

            def force(x0):
                return (-w0 * x0,)

        else:
            w0, w1 = w2

            def force(x0, x1):
                return (-w0 * x0, -w1 * x1)

        def phi_inv(v):
            return 2.0 * v

        # along the heavy axis |grad V| / (1 + V)^(3/4) peaks at q = 4
        peak_radii = (2.0 / math.sqrt(max(w2)), math.inf, 0.0)

    elif name == "power":
        s = float(params.pop("s"))
        if params:
            raise ValueError(f"unknown power-potential parameters {sorted(params)}")
        if not 0.0 < s < 4.0:
            raise ValueError(f"exponent s={s} violates strict sub-quarticity (need 0 < s < 4)")
        w2 = (1.0,) * d
        label = f"power(s={s:g})"
        half, e = s / 2.0, s / 2.0 - 1.0

        def phi(q):
            return (1.0 + q) ** half - 1.0

        # -grad V = -2 phi'(q) x with unit weights; q summed in axis order
        if d == 1:

            def force(x0):
                q = 0.0 + x0 * x0
                g = -2.0 * (half * (1.0 + q) ** e)
                return (g * x0,)

        else:

            def force(x0, x1):
                q = 0.0 + x0 * x0 + x1 * x1
                g = -2.0 * (half * (1.0 + q) ** e)
                return (g * x0, g * x1)

        def phi_inv(v):
            return (1.0 + v) ** (2.0 / s) - 1.0

        # |grad V| / V^(3/4) rises where F(q) = (s/2) ln(1 + q) + ln(1 - a q) - ln(1 + b q) > 0;
        # F(0) = 0 and F' has the sign of -(2ab q^2 + lin q + 1), so F peaks at most once, at
        # that quadratic's larger root, and the rise ends at F's root above it, below q = 1/a
        a, b, lin = 1.0 - s / 4.0, s - 1.0, 7.0 - 2.5 * s
        disc = lin * lin - 8.0 * a * b

        def rises(q):
            return half * math.log1p(q) + math.log1p(-a * q) - math.log1p(b * q) > 0.0

        q_peak = (math.sqrt(disc) - lin) / (4.0 * a * b) if lin < 0.0 and disc > 0.0 else 0.0
        q_tail = _bisect(rises, q_peak, 1.0 / a) if q_peak > 0.0 and rises(q_peak) else 0.0
        # |grad V| / (1 + V)^(3/4) peaks at q = 1/a, and |grad V| at q = 1/(1 - s) when s < 1
        peak_radii = (math.sqrt(1.0 / a), math.sqrt(1.0 / (1.0 - s)) if s < 1.0 else math.inf, math.sqrt(q_tail))

    else:
        raise ValueError(f"unknown potential {name!r}")

    w2_axes = np.array(w2)

    def value(pts):
        return phi(np.sum(w2_axes * pts * pts, axis=-1))

    def grad(pts):
        return -np.stack(force(*(pts[..., i] for i in range(d))), axis=-1)

    return Potential(d, value, grad, label, w2, force, phi_inv, peak_radii)


@dataclass(frozen=True)
class EpsilonProfile:
    """Sampled profile of the smallness factor eps(lam).

    Values are non-increasing in lam (enforced by a running minimum) and
    strictly positive.
    """

    lambdas: np.ndarray
    values: np.ndarray

    def at(self, lam) -> np.ndarray:
        """Interpolated eps at arbitrary frequencies (clamped at the ends)."""
        lam = np.asarray(lam, dtype=float)
        return np.interp(lam, self.lambdas, self.values)


def _bisect(below, lo: float, hi: float) -> float:
    """Shrink [lo, hi] to adjacent floats with below(lo) true, below(hi) false; return lo."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo


def _on_ray(pot: Potential, radii, u=None):
    """|grad V| and V at radii * u, u the heavy axis (the one of the largest weight) by default."""
    x = np.multiply.outer(radii, np.eye(pot.d)[int(np.argmax(pot.w2))] if u is None else u)
    return np.linalg.norm(pot.raw_grad(x), axis=-1), pot.raw_value(x)


def _growth_constant(pot: Potential) -> float:
    """sup |grad V| / (4 (1 + V)^(3/4)), attained on the heavy axis at peak_radii[0]."""
    g, v = _on_ray(pot, pot.peak_radii[0])
    return float(g / (4.0 * (1.0 + v) ** 0.75))


def _gradient_suprema(pot: Potential, a) -> tuple:
    """sup_{|x| <= a} |grad V| and sup_{|x| >= a} |grad V| / V^(3/4) for radii a > 0.

    The first is attained on the heavy axis, where |grad V| grows out to
    peak_radii[1].  For the quadratic wells the ratio is homogeneous of degree
    -1/2, so it peaks on |x| = a, along the u with u^T W u = 3 w2_1 w2_2 /
    (w2_1 + w2_2) clipped to the weights; with unit weights it is radial and
    falls, but for its rise to the local maximum at peak_radii[2].
    """
    inside = _on_ray(pot, np.minimum(a, pot.peak_radii[1]))[0]
    u, w = None, pot.w2
    if w[0] != w[-1]:
        m = min(max(3.0 * w[0] * w[1] / (w[0] + w[1]), min(w)), max(w))
        cos2 = (m - w[1]) / (w[0] - w[1])
        u = (math.sqrt(cos2), math.sqrt(1.0 - cos2))
    g, v = _on_ray(pot, a, u)
    tail = g / v**0.75
    if (r := pot.peak_radii[2]) > 0.0:
        g, v = _on_ray(pot, r, u)
        tail = np.where(np.asarray(a) <= r, np.maximum(tail, g / v**0.75), tail)
    return inside, tail


def _ball_sup(pot: Potential, center, radius: float) -> float:
    """max of V over the closed ball |x - c| <= r.

    V = phi(q), phi increasing, and the convex q peaks on the sphere: for equal
    weights at the far point along c.  Else (d = 2, heavy axis k, light j) the
    Lagrange condition W x = (w2_k + t)(x - c), t >= 0, puts the light offset
    y = |x_j - c_j| at the root of y (w2_k |c_k| / sqrt(r^2 - y^2) + w2_k - w2_j)
    = w2_j |c_j| in [0, r] (r if none) and the heavy one at sqrt(r^2 - y^2).
    """
    c, w, r = np.array(center, dtype=float), pot.w2, radius
    if w[0] == w[-1]:
        u = c / s if 0.0 < (s := np.abs(c).max()) < math.inf else np.eye(pot.d)[0]
        return float(pot.raw_value(c + r * u / math.hypot(*u)))
    k, j = (1, 0) if w[1] > w[0] else (0, 1)

    def below_root(y):
        return y * (w[k] * abs(c[k]) / math.sqrt((r - y) * (r + y)) + w[k] - w[j]) < w[j] * abs(c[j])

    y = _bisect(below_root, 0.0, r)
    c[j] += math.copysign(y, c[j])
    c[k] += math.copysign(math.sqrt((r - y) * (r + y)), c[k])
    return float(pot.raw_value(c))


def epsilon_lambda(pot: Potential, lambdas) -> EpsilonProfile:
    """Sample the smallness factor eps(lam) on a frequency grid.

    For each lam the trial radius A ranges over [a0, max(a0, lam)] and the
    bracketed minimum is taken over a log-spaced grid of 64 radii, with both
    suprema in closed form; all lam are evaluated as one array of radii.  A
    running minimum over ascending lam enforces monotonicity, which the exact
    quantity satisfies but a minimum over a grid that moves with lam may miss.
    """
    lams = np.sort(np.atleast_1d(np.asarray(lambdas, dtype=float)))
    if lams.size == 0:
        raise ValueError("need at least one frequency")
    _require_window("lambdas", lams)
    if lams[0] < 1.0:
        raise ValueError("frequencies must satisfy lam >= 1")

    c_v = (2.0**0.25 + _growth_constant(pot)) ** 3
    a0, stops = pot.a0, np.maximum(pot.a0, lams)
    # row i is np.geomspace(a0, stops[i], 64) to the bit; one call with an array
    # of stops would switch every row to its zero-step rule when one row has it
    log_a0, log_stops = np.log10(a0), np.log10(stops)
    y = np.arange(64.0) * ((log_stops - log_a0) / 63)[:, np.newaxis]
    y += log_a0
    y[:, -1] = log_stops
    a_grid = np.power(10.0, y)
    a_grid[:, 0], a_grid[:, -1] = a0, stops
    inside, tail = _gradient_suprema(pot, a_grid)
    scale = np.array([lam**1.5 for lam in lams])  # numpy's scalar power, as per frequency
    values = c_v * np.min(inside / scale[:, np.newaxis] + tail, axis=1)

    values = np.minimum.accumulate(values)
    if np.any(values <= 0.0):
        raise ValueError("eps(lam) is not strictly positive")
    return EpsilonProfile(lams, values)


def sublevel_radius(pot: Potential, level: float) -> float:
    """Smallest radius rho with V(x) >= level whenever |x| >= rho.

    Closed form: V = phi(q) with phi increasing and q >= min_i w2_i |x|^2, so
    the sublevel set {V < level} reaches out to sqrt(phi^-1(level) / min w2),
    along the axis of the smallest weight.
    """
    _require_window("level", level)
    return math.sqrt(pot.phi_inv(level) / min(pot.w2))

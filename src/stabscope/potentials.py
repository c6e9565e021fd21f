"""Confining potentials and the growth quantities derived from them.

A potential here is a smooth function V >= 0 on R^d that grows at infinity
slower than |x|^4 (strict sub-quarticity).  Everything downstream -- classical
flow, damping-condition scans, localized quasimode constructions -- consumes
potentials through this module's `Potential` handle, which bundles a batched
evaluator, the force -grad V on per-axis components, and the radius beyond
which V >= 1.  The builtins form one family V = phi(sum_i w_i^2 x_i^2), so the
handle also carries phi^-1 and the squared weights for closed-form level sets.

Two derived quantities live here because they only depend on V:

* ``epsilon_lambda``: the frequency-dependent smallness factor

      eps(lam) = C_V * min_A ( sup_{|x|<=A} |grad V| / lam^(3/2)
                               + sup_{|x|>=A} |grad V| / V^(3/4) )

  which is non-increasing in lam and tends to 0 exactly because V is
  sub-quartic.  It calibrates how far the rescaled classical flow can drift
  from a straight line, and how large localized bumps may be taken.
* ``sublevel_radius``: the smallest radius outside of which V clears a level,
  used to truncate computational domains.

Suprema over balls and annuli are estimated by sampling radial rays; this is
exact for radial potentials and adequate for the mildly anisotropic builtins.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Potential",
    "EpsilonProfile",
    "builtin_potential",
    "epsilon_lambda",
    "sublevel_radius",
]


def as_points(x, d: int) -> np.ndarray:
    """Coerce input to an array of points with trailing axis of length d."""
    arr = np.asarray(x, dtype=float)
    if d == 1 and (arr.ndim == 0 or arr.shape[-1] != 1):
        arr = arr[..., np.newaxis]
    if arr.shape[-1] != d:
        raise ValueError(f"expected points with last axis {d}, got shape {arr.shape}")
    return arr


def unit_directions(d: int, n: int) -> np.ndarray:
    """A deterministic set of unit vectors; both signs in 1D, a fan in 2D."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        angles = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    raise ValueError("only dimensions 1 and 2 are supported")


@dataclass(frozen=True)
class Potential:
    """A confining potential V(x) = phi(q), q = sum_i w2_i x_i^2.

    ``raw_value``/``raw_grad`` act on arrays of shape (..., d).  ``force``
    maps the d per-axis components of x to those of -grad V, each a float for
    one point or an array for a batch; ``raw_grad`` is built from it, so the
    gradient has one formula.  ``w2`` holds the squared axis weights and
    ``phi_inv`` inverts phi, so level sets come in closed form.
    """

    d: int
    raw_value: Callable[[np.ndarray], np.ndarray]
    raw_grad: Callable[[np.ndarray], np.ndarray]
    label: str
    w2: tuple[float, ...]
    force: Callable[[list], list]
    phi_inv: Callable[[float], float]

    @property
    def a0(self) -> float:
        """A radius with V(x) >= 1 whenever |x| >= a0."""
        return sublevel_radius(self, 1.0)

    def value(self, x) -> np.ndarray:
        return self.raw_value(as_points(x, self.d))

    def grad(self, x) -> np.ndarray:
        return self.raw_grad(as_points(x, self.d))


def builtin_potential(name: str, d: int = 1, **params) -> Potential:
    """Construct one of the builtin confining potentials.

    harmonic       V(x) = |x|^2 / 2
    power          V(x) = (1 + |x|^2)^(s/2) - 1, with 0 < s < 4
    anisotropic    V(x) = sum_i w_i^2 x_i^2 / 2, with positive weights

    All three are phi(sum_i w_i^2 x_i^2): phi(q) = q/2 for the quadratic
    wells, phi(q) = (1 + q)^(s/2) - 1 with unit weights for the power family.
    """
    if d not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")

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
            if weights.shape != (d,) or not np.all((weights > 0.0) & np.isfinite(weights)):
                raise ValueError("anisotropic potential needs one positive weight per axis")
            label = "anisotropic(" + ",".join(f"{w:g}" for w in weights) + ")"
        w2 = tuple(float(w) for w in weights**2)

        def phi(q):
            return 0.5 * q

        def force(x):
            # phi' is the constant 1/2, so -grad V = -w2 x needs no q
            return [-w * c for w, c in zip(w2, x)]

        def phi_inv(v):
            return 2.0 * v

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

        def force(x):
            # -grad V = -2 phi'(q) x with unit weights; q summed in axis order
            q = 0.0
            for c in x:
                q = q + c * c
            g = -2.0 * (half * (1.0 + q) ** e)
            return [g * c for c in x]

        def phi_inv(v):
            return (1.0 + v) ** (2.0 / s) - 1.0

    else:
        raise ValueError(f"unknown potential {name!r}")

    w2_axes = np.array(w2)

    def value(pts):
        return phi(np.sum(w2_axes * pts * pts, axis=-1))

    def grad(pts):
        return -np.stack(force([pts[..., i] for i in range(d)]), axis=-1)

    return Potential(d, value, grad, label, w2, force, phi_inv)


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


def _polar_samples(pot: Potential, radii: np.ndarray, n_dirs: int):
    """|grad V| and V at the polar points radii[k] * direction[j], shape (radii, n_dirs)."""
    pts = radii[:, None, None] * unit_directions(pot.d, n_dirs)[None, :, :]
    return np.linalg.norm(pot.raw_grad(pts), axis=-1), pot.raw_value(pts)


def _radial_supremum_tables(pot: Potential, r_tail: float, n_dirs: int, n_dense: int):
    """Tables of sup_{|x|<=A}|grad V| and sup_{|x|>=A}|grad V|/V^(3/4).

    Sampled on a single dense radial grid shared by all trial radii A; the
    tail table assumes the ratio does not peak beyond ``r_tail`` (true for
    sub-quartic growth at these scales).
    """
    radii = np.concatenate([[0.0], np.geomspace(1e-3, r_tail, n_dense)])
    gnorm, vals = _polar_samples(pot, radii, n_dirs)

    g_by_radius = gnorm.max(axis=1)
    sup_inside = np.maximum.accumulate(g_by_radius)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vals > 0.0, gnorm / np.maximum(vals, 1e-300) ** 0.75, 0.0)
    ratio_by_radius = ratio.max(axis=1)
    sup_tail = np.maximum.accumulate(ratio_by_radius[::-1])[::-1]
    return radii, sup_inside, sup_tail


def _gradient_growth_constant(pot: Potential, n_dirs: int) -> float:
    """Sampled supremum of |grad V| / (4 (1 + V)^(3/4)) over [-1e3, 1e3]^d."""
    radii = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 512)])

    def ratio_max(rs):
        g, v = _polar_samples(pot, rs, n_dirs)
        return (g / (4.0 * (1.0 + v) ** 0.75)).max(axis=1)

    vals = ratio_max(radii)
    best = int(np.argmax(vals))
    # two refinement rounds around the coarse argmax
    for _ in range(2):
        lo = radii[max(best - 1, 0)]
        hi = radii[min(best + 1, len(radii) - 1)]
        if hi <= lo:
            break
        radii = np.linspace(lo, hi, 256)
        vals = ratio_max(radii)
        best = int(np.argmax(vals))
    return float(vals[best])


def epsilon_lambda(
    pot: Potential,
    lambdas,
) -> EpsilonProfile:
    """Sample the smallness factor eps(lam) on a frequency grid.

    For each lam the trial radius A ranges over [a0, max(a0, lam)] and the
    bracketed minimum is taken over a log-spaced grid of 64 radii.
    A running minimum over ascending lam enforces monotonicity, which the
    exact quantity satisfies but sampled suprema may jitter away from.
    """
    lams = np.sort(np.atleast_1d(np.asarray(lambdas, dtype=float)))
    if lams.size == 0:
        raise ValueError("need at least one frequency")
    if lams[0] < 1.0:
        raise ValueError("frequencies must satisfy lam >= 1")

    n_dirs = 64 * pot.d
    c = _gradient_growth_constant(pot, n_dirs)
    c_v = (2.0**0.25 + c) ** 3

    a_max_global = max(pot.a0, lams[-1])
    radii, sup_inside, sup_tail = _radial_supremum_tables(
        pot, r_tail=4.0 * a_max_global, n_dirs=n_dirs, n_dense=2048
    )

    values = np.empty_like(lams)
    for i, lam in enumerate(lams):
        a_grid = np.geomspace(pot.a0, max(pot.a0, lam), 64)
        idx = np.searchsorted(radii, a_grid)
        idx = np.clip(idx, 1, len(radii) - 1)
        inner = sup_inside[idx] / lam**1.5
        outer = sup_tail[idx]
        values[i] = c_v * np.min(inner + outer)

    values = np.minimum.accumulate(values)
    if np.any(values <= 0.0):
        raise ValueError("sampled eps(lam) is not strictly positive")
    return EpsilonProfile(lams, values)


def sublevel_radius(pot: Potential, level: float) -> float:
    """Smallest radius rho with V(x) >= level whenever |x| >= rho.

    Closed form: V = phi(q) with phi increasing and q >= min_i w2_i |x|^2, so
    the sublevel set {V < level} reaches out to sqrt(phi^-1(level) / min w2),
    along the axis of the smallest weight.
    """
    if level <= 0.0:
        raise ValueError("level too small")
    return math.sqrt(pot.phi_inv(level) / min(pot.w2))

"""Damping coefficients and the geometric stabilization condition scans.

Three conditions on a bounded damping b >= 0 are probed numerically, all of
them statements about averages of b:

* UGCC -- uniform geometric control along straight rays: averages of the
  mollified coefficient over segments of length 2T must be bounded below,
  uniformly over base points, directions, and mollification radii.
* TPC -- thickness near the turning surface: averages of b over balls of
  radius R / V(x)^(1/4) centered at x must stay bounded below as x -> inf.
* DSC -- control along the true Hamiltonian flow at frequency lam: averages
  of b mollified at scale R/sqrt(lam) over flow segments of duration 2T/lam,
  uniformly over the energy shell, asymptotically in lam.

Each scan samples its infimum over a finite, deterministic family and
reports per-sample averages, the infimum, and a pass flag against the
threshold c = 1e-3 * b_max.  Ball averages use a fixed low-discrepancy node
set, line and time averages use composite trapezoid rules.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid
from scipy.stats import qmc

from .dynamics import default_dt, flow_positions, sample_shell
from .potentials import Potential, as_points, unit_directions

__all__ = [
    "Damping",
    "ConditionReport",
    "builtin_damping",
    "mollify_at",
    "ray_average",
    "ugcc_scan",
    "tpc_scan",
    "flow_average",
    "dsc_scan",
    "dsc_limit_scan",
    "mollification_consistency",
    "default_threshold",
]

N_RAY = 256  # composite trapezoid nodes for line and time averages
TURNING_FRACTION = 0.2  # share of DSC shell samples forced toward the turning surface


@dataclass(frozen=True)
class Damping:
    """A bounded nonnegative damping coefficient with a batched evaluator."""

    d: int
    raw_func: Callable[[np.ndarray], np.ndarray]
    b_max: float
    label: str

    def __call__(self, x) -> np.ndarray:
        return self.raw_func(as_points(x, self.d))


def builtin_damping(name: str, d: int = 1, **params) -> Damping:
    """Construct one of the builtin damping patterns.

    constant        b = amplitude everywhere
    exterior        b = amplitude on {|x| >= radius}
    ball            b = amplitude on the ball of given radius and center
    checkerboard    alternating cells of side duty*period, damped when the
                    cell index parity is even; the cell [0, duty*period)^d
                    is damped
    radial_shells   b = amplitude on annuli {frac(|x|/period) < duty}
    strip_lattice   b = amplitude on strips {frac(x_1/period) < duty}
    """
    amplitude = float(params.pop("amplitude", 1.0))
    if amplitude < 0.0:
        raise ValueError("negative amplitude")

    if name == "constant":
        _reject_extra(params)

        def func(pts):
            return np.full(pts.shape[:-1], amplitude)

        return Damping(d, func, amplitude, f"constant({amplitude:g})")

    if name == "exterior":
        radius = float(params.pop("radius", 1.0))
        _reject_extra(params)

        def func(pts, r=radius):
            return amplitude * (np.linalg.norm(pts, axis=-1) >= r)

        return Damping(d, func, amplitude, f"exterior(R={radius:g})")

    if name == "ball":
        radius = float(params.pop("radius", 1.0))
        center = np.asarray(params.pop("center", np.zeros(d)), dtype=float)
        _reject_extra(params)

        def func(pts, r=radius, c=center):
            return amplitude * (np.linalg.norm(pts - c, axis=-1) <= r)

        return Damping(d, func, amplitude, f"ball(R={radius:g})")

    if name == "checkerboard":
        period = float(params.pop("period", 1.0))
        duty = float(params.pop("duty", 0.5))
        _reject_extra(params)
        if not 0.0 < duty < 1.0:
            raise ValueError("duty ratio must lie in (0, 1)")
        cell = duty * period

        def func(pts, a=cell):
            idx = np.floor(pts / a).astype(np.int64)
            return amplitude * (idx.sum(axis=-1) % 2 == 0)

        return Damping(d, func, amplitude, f"checkerboard(L={period:g},duty={duty:g})")

    if name == "radial_shells":
        period = float(params.pop("period", 1.0))
        duty = float(params.pop("duty", 0.5))
        _reject_extra(params)

        def func(pts, L=period, q=duty):
            frac = np.mod(np.linalg.norm(pts, axis=-1) / L, 1.0)
            return amplitude * (frac < q)

        return Damping(d, func, amplitude, f"radial_shells(L={period:g},duty={duty:g})")

    if name == "strip_lattice":
        period = float(params.pop("period", 1.0))
        duty = float(params.pop("duty", 0.5))
        _reject_extra(params)

        def func(pts, L=period, q=duty):
            frac = np.mod(pts[..., 0] / L, 1.0)
            return amplitude * (frac < q)

        return Damping(d, func, amplitude, f"strip_lattice(L={period:g},duty={duty:g})")

    raise ValueError(f"unknown damping {name!r}")


def _reject_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unknown damping parameters {sorted(params)}")


def default_threshold(b: Damping) -> float:
    return 1e-3 * b.b_max


_BALL_NODE_CACHE: dict = {}


def unit_ball_nodes(d: int, n: int) -> np.ndarray:
    """Fixed low-discrepancy quadrature nodes for the unit ball."""
    key = (d, n)
    if key not in _BALL_NODE_CACHE:
        sob = qmc.Sobol(d, scramble=False, seed=None)
        u = sob.random(n)
        if d == 1:
            nodes = 2.0 * u - 1.0
        else:
            r = np.sqrt(u[:, 0])
            th = 2.0 * np.pi * u[:, 1]
            nodes = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        _BALL_NODE_CACHE[key] = nodes
    return _BALL_NODE_CACHE[key]


BLOCK_BYTES = 1 << 18  # shifted-node scratch per block, sized to stay in cache


def mollify_at(b: Damping, r, x, *, n_nodes: int | None = None) -> np.ndarray:
    """Average of b over the ball of radius r around each point of x.

    r is one radius for all points or one radius per point (any shape that
    broadcasts against the points' leading axes).  Each average is the mean
    of b(x + r * node) over the fixed node set, evaluated block by block in
    one scratch buffer owned by the call, so concurrent calls share no state.
    """
    pts = as_points(x, b.d)
    radii = np.broadcast_to(np.asarray(r, dtype=float), pts.shape[:-1]).reshape(-1, 1)
    if not np.all(radii > 0.0):
        raise ValueError("need mollification radius r > 0")
    if n_nodes is None:
        n_nodes = 512 * b.d
    nodes = unit_ball_nodes(b.d, n_nodes)

    flat = pts.reshape(-1, b.d)
    out = np.empty(flat.shape[0])
    m = max(1, BLOCK_BYTES // (8 * b.d * n_nodes))
    buf = np.empty((b.d, min(m, flat.shape[0]), n_nodes))
    for start in range(0, flat.shape[0], m):
        block = flat[start : start + m]
        k = block.shape[0]
        for i in range(b.d):
            # buf[i, p, j] = r_p * nodes[j, i] + block[p, i], one axis plane at a time
            np.multiply(radii[start : start + k], nodes[:, i], out=buf[i, :k])
            np.add(buf[i, :k], block[:, i, None], out=buf[i, :k])
        out[start : start + k] = b.raw_func(np.moveaxis(buf[:, :k], 0, -1)).mean(axis=1)
    return out.reshape(pts.shape[:-1])


def ray_average(b: Damping, x0, nu, T: float, r: float) -> float:
    """Average of the r-mollified coefficient along a ray segment.

    Computes (1/2T) * integral over |t| <= T of (b * kappa_r)(x0 + t*nu) with
    a composite trapezoid rule; nu must be a unit vector.
    """
    x0 = as_points(x0, b.d)
    nu = as_points(nu, b.d)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    ts = np.linspace(-T, T, N_RAY)
    pts = x0[None, :] + ts[:, None] * nu[None, :]
    vals = mollify_at(b, r, pts)
    return float(trapezoid(vals, ts) / (2.0 * T))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition scan."""

    condition: str
    params: dict
    sample_values: np.ndarray
    infimum: float
    threshold: float
    passed: bool
    groups: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON payload; the CLI's writer turns numpy values into plain ones."""
        return {
            "condition": self.condition,
            "params": self.params,
            "infimum": self.infimum,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "groups": self.groups,
            "n_samples": int(self.sample_values.size),
        }


def default_ray_family(d: int, box: float = 10.0, n_per_axis: int = 7, n_dirs: int = 16):
    """Deterministic lattice of base points crossed with a fan of directions."""
    axes = [np.linspace(-box, box, n_per_axis)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    dirs = unit_directions(d, n_dirs)
    if d == 1:
        dirs = dirs[:1]  # the reversed ray covers the same segment
    return [(p, q) for p in pts for q in dirs]


def ugcc_scan(
    b: Damping,
    T: float,
    r: float,
    rays=None,
) -> ConditionReport:
    """Sampled infimum of ray averages of the mollified coefficient."""
    if not T > 0.0:
        raise ValueError("need T > 0")
    if rays is None:
        rays = default_ray_family(b.d)
    base = np.stack([as_points(p, b.d) for p, _ in rays])
    dirs = np.stack([as_points(q, b.d) for _, q in rays])
    if np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) > 1e-12:
        raise ValueError("directions must be unit vectors")
    ts = np.linspace(-T, T, N_RAY)
    pts = base[:, None, :] + ts[None, :, None] * dirs[:, None, :]
    mol = mollify_at(b, r, pts)
    vals = trapezoid(mol, ts, axis=1) / (2.0 * T)
    inf = float(vals.min())
    threshold = default_threshold(b)
    return ConditionReport(
        condition="UGCC",
        params={"T_time": T, "r_space": r, "n_rays": len(rays)},
        sample_values=vals,
        infimum=inf,
        threshold=threshold,
        passed=inf > threshold,
        groups={"sample_labels": [f"ray{k}" for k in range(len(rays))]},
    )


def tpc_scan(
    b: Damping,
    pot: Potential,
    R: float,
    shells,
) -> ConditionReport:
    """Ball averages of b at radius R / V(x)^(1/4) on expanding shells.

    The liminf proxy is the infimum over the outermost shell; the per-shell
    trend table is reported so a decreasing tail is visible.
    """
    shells = sorted(float(s) for s in shells)
    if not shells:
        raise ValueError("need at least one shell radius")
    threshold = default_threshold(b)

    all_vals = []
    labels = []
    shell_inf = {}
    for rho in shells:
        if b.d == 1:
            pts = np.array([[rho], [-rho]])
        else:
            n = min(max(512, int(2.0 * np.pi * rho / 0.05)), 20000)
            # half-step offset keeps samples off the coordinate axes
            theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
            pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        v = pot.raw_value(pts)
        if np.any(v <= 0.0):
            raise ValueError("shell must lie where V > 0")
        vals = mollify_at(b, R / v**0.25, pts)
        all_vals.append(vals)
        labels += [f"shell={rho:g}"] * len(pts)
        shell_inf[rho] = float(vals.min())

    sample_values = np.concatenate(all_vals)
    inf = shell_inf[shells[-1]]
    return ConditionReport(
        condition="TPC",
        params={"R_space": R, "shells": shells},
        sample_values=sample_values,
        infimum=inf,
        threshold=threshold,
        passed=inf > threshold,
        groups={"sample_labels": labels, "shell_infima": shell_inf},
    )


def flow_average(
    b: Damping,
    pot: Potential,
    x0,
    xi0,
    T: float,
    R: float,
    lam: float,
) -> np.ndarray:
    """Time average of the R/sqrt(lam)-mollified coefficient along the flow.

    Averages (b * kappa_{R/sqrt(lam)}) over the flow segment |t| <= T/lam
    through each (x0, xi0); batched over leading axes of x0/xi0.
    """
    x0 = np.atleast_2d(as_points(x0, pot.d))
    xi0 = np.atleast_2d(as_points(xi0, pot.d))
    window = T / lam
    times = np.linspace(-window, window, N_RAY)
    pos = flow_positions(pot, x0, xi0, times, default_dt(lam))  # (N_RAY, n, d)
    vals = mollify_at(b, R / np.sqrt(lam), pos)
    return trapezoid(vals, times, axis=0) / (2.0 * window)


def dsc_scan(
    b: Damping,
    pot: Potential,
    T: float,
    R: float,
    lambdas,
    *,
    n_shell_samples: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> ConditionReport:
    """Shell-sampled infima of flow averages, per frequency.

    A fifth of the samples (TURNING_FRACTION) is forced toward the turning
    surface (|xi| <= 0.1 lam) where failures concentrate.  The liminf proxy
    is the infimum at the largest sampled frequency.
    """
    if not T > 0.0:
        raise ValueError("need T > 0")
    lams = sorted(float(v) for v in np.atleast_1d(lambdas))
    threshold = default_threshold(b)
    seeds = np.random.SeedSequence(seed).spawn(len(lams))

    def one(pair):
        lam, ss = pair
        rng = np.random.default_rng(ss)
        xs, xis = sample_shell(pot, lam, n_shell_samples, rng, turning_fraction=TURNING_FRACTION)
        return flow_average(b, pot, xs, xis, T, R, lam)

    results = _ordered_map(one, list(zip(lams, seeds)), threads)

    sample_values = np.concatenate(results)
    labels = []
    lam_inf = {}
    for lam, vals in zip(lams, results):
        labels += [f"lam={lam:g}"] * len(vals)
        lam_inf[lam] = float(vals.min())
    inf = lam_inf[lams[-1]]
    return ConditionReport(
        condition="DSC",
        params={
            "T_time": T,
            "R_space": R,
            "lambdas": lams,
            "n_shell_samples": n_shell_samples,
            "turning_fraction": TURNING_FRACTION,
            "seed": seed,
        },
        sample_values=sample_values,
        infimum=inf,
        threshold=threshold,
        passed=inf > threshold,
        groups={"sample_labels": labels, "lambda_infima": lam_inf},
    )


def dsc_limit_scan(
    b: Damping,
    pot: Potential,
    tr_grid,
    lambdas,
    *,
    n_shell_samples: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> ConditionReport:
    """Stabilization of the DSC proxy along an increasing (T, R) ladder.

    For each (T, R) the scan records the liminf proxy; the margin at the
    largest pair decides the verdict, and successive differences expose the
    Cauchy trend of the ladder.
    """
    tr_grid = [(float(t), float(r)) for t, r in tr_grid]
    if any(
        tr_grid[i + 1][0] < tr_grid[i][0] or tr_grid[i + 1][1] < tr_grid[i][1]
        for i in range(len(tr_grid) - 1)
    ):
        raise ValueError("(T, R) ladder must be non-decreasing in both slots")
    if not all(t > 0.0 for t, _ in tr_grid):
        raise ValueError("need T > 0 on every rung of the (T, R) ladder")
    threshold = default_threshold(b)

    proxies = []
    for T, R in tr_grid:
        rep = dsc_scan(
            b,
            pot,
            T,
            R,
            lambdas,
            n_shell_samples=n_shell_samples,
            seed=seed,
            threads=threads,
        )
        proxies.append(rep.infimum)
    proxies = np.array(proxies)
    diffs = np.abs(np.diff(proxies))
    inf = float(proxies[-1])
    return ConditionReport(
        condition="DSC_LIMIT",
        params={"TR_grid": tr_grid, "lambdas": list(np.atleast_1d(lambdas)), "seed": seed},
        sample_values=proxies,
        infimum=inf,
        threshold=threshold,
        passed=inf > threshold,
        groups={
            "sample_labels": [f"T={t:g},R={r:g}" for t, r in tr_grid],
            "proxies": proxies,
            "successive_differences": diffs,
        },
    )


def mollification_consistency(
    b: Damping,
    x0,
    nu,
    T: float,
    r0: float,
    r_sequence,
    *,
    n_inner: int = 256,
) -> dict:
    """Double-mollification table: re-smoothing at r -> 0 recovers level r0.

    Returns the ray averages of the r0-smoothed coefficient re-mollified at
    each r in the sequence, together with the direct r0 average they must
    approach as r -> 0.
    """
    rs = sorted(float(r) for r in r_sequence)
    smoothed = Damping(
        b.d,
        lambda pts: mollify_at(b, r0, pts, n_nodes=n_inner),
        b.b_max,
        f"{b.label}*kappa_{r0:g}",
    )
    entries = {r: ray_average(smoothed, x0, nu, T, r) for r in rs}
    reference = ray_average(b, x0, nu, T, r0)
    return {"entries": entries, "reference": reference, "r0": r0}


def _ordered_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

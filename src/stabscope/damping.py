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

Each scan samples its infimum over a finite, deterministic family.  Ball
averages use a fixed low-discrepancy node set (`mollify_at`); the ray and
flow averages are one window mean, the composite trapezoid rule over
|t| <= T divided by 2T.  Every scan returns a `ConditionReport` with the
per-sample averages and the infimum; it passes when the infimum exceeds the
threshold c = 1e-3 * b_max.  TPC and DSC build theirs through one grouped
report (per-shell or per-frequency infima, the outermost group as the liminf
proxy).
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import TURNING_FRACTION, default_dt, flow_positions, sample_shell
from .potentials import Potential, _require_count, _require_window, as_points, unit_directions

__all__ = [
    "Damping",
    "ConditionReport",
    "builtin_damping",
    "mollify_at",
    "ugcc_scan",
    "tpc_scan",
    "flow_average",
    "dsc_scan",
    "dsc_limit_scan",
    "default_threshold",
]

N_RAY = 256  # composite trapezoid nodes for line and time averages
N_BALL_PER_DIM = 512  # ball-mean quadrature nodes per dimension: 512 in 1D, 1024 in 2D


@dataclass(frozen=True)
class Damping:
    """A bounded nonnegative damping coefficient with a batched evaluator.

    `ball_value(pts, radii)`, when given, certifies where b is constant: for
    each ball it returns the value b takes on the whole closed ball around pts,
    widened by a slack far above rounding, or NaN where that is not proved.
    The mollifier skips the quadrature on certified balls.
    """

    d: int
    raw_func: Callable[[np.ndarray], np.ndarray]
    b_max: float
    label: str
    ball_value: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if amplitude < 0.0:
        raise ValueError("negative amplitude")

    if name == "constant":
        _reject_extra(params)

        def func(pts):
            return np.full(pts.shape[:-1], amplitude)

        def ball_value(pts, radii):
            return np.full(radii.shape, amplitude)

        return Damping(d, func, amplitude, f"constant({amplitude:g})", ball_value)

    if name == "exterior":
        radius = _require_window("radius", float(params.pop("radius", 1.0)))
        _reject_extra(params)

        def func(pts, r=radius):
            return amplitude * (_norm(pts) >= r)

        def ball_value(pts, radii, r=radius):
            return _band_value(_norm(pts), radii, lambda s: s >= r, lambda k: amplitude * k)

        return Damping(d, func, amplitude, f"exterior(R={radius:g})", ball_value)

    if name == "ball":
        radius = _require_window("radius", float(params.pop("radius", 1.0)))
        center = np.asarray(params.pop("center", np.zeros(d)), dtype=float)
        _reject_extra(params)
        if center.ndim > 1 or center.size not in (1, d):
            raise ValueError(f"ball center must have one coordinate per axis, d = {d}")
        center = np.broadcast_to(center, (d,))  # one coordinate per axis plane

        def func(pts, r=radius, c=center):
            return amplitude * (_norm(pts, c) <= r)

        def ball_value(pts, radii, r=radius, c=center):
            return _band_value(_norm(pts, c), radii, lambda s: s > r, lambda k: amplitude * ~k)

        return Damping(d, func, amplitude, f"ball(R={radius:g})", ball_value)

    if name not in ("checkerboard", "radial_shells", "strip_lattice"):
        raise ValueError(f"unknown damping {name!r}")
    period = _require_window("period", float(params.pop("period", 1.0)))
    duty = float(params.pop("duty", 0.5))
    _reject_extra(params)
    if not 0.0 < duty < 1.0:
        raise ValueError("duty ratio must lie in (0, 1)")
    label = f"{name}(L={period:g},duty={duty:g})"

    def even(k):
        return amplitude * (np.fmod(k, 2.0) == 0.0)

    if name == "checkerboard":

        def func(pts, a=duty * period):
            # the cell index sum, one axis plane at a time, in exact int64
            idx = np.floor(pts[..., 0] / a).astype(np.int64)
            for i in range(1, pts.shape[-1]):
                idx += np.floor(pts[..., i] / a).astype(np.int64)
            return amplitude * ((idx & 1) == 0)

        def ball_value(pts, radii, a=duty * period):
            # one cell index per axis; NaN on any axis leaves the sum NaN
            idx = sum(_band_value(pts[:, i], radii, lambda s: np.floor(s / a), lambda k: k) for i in range(d))
            return np.where(np.isnan(idx), np.nan, even(idx))

        return Damping(d, func, amplitude, label, ball_value)

    # annuli or strips: b is amplitude on the even bands of 2 floor(s/L) + [frac(s/L) >= duty];
    # frac(y) = y - floor(y) has np.mod(y, 1.0)'s bits for either sign of y, at a fraction of its cost
    def band(s, L=period, q=duty):
        y = s / L
        k = np.floor(y)
        return 2.0 * k + (y - k >= q)

    if name == "radial_shells":

        def func(pts, L=period, q=duty):
            y = _norm(pts) / L
            frac = y - np.floor(y)
            return amplitude * (frac < q)

        def ball_value(pts, radii):
            return _band_value(_norm(pts), radii, band, even)

    else:

        def func(pts, L=period, q=duty):
            y = pts[..., 0] / L
            frac = y - np.floor(y)
            return amplitude * (frac < q)

        def ball_value(pts, radii):
            return _band_value(pts[:, 0], radii, band, even)

    return Damping(d, func, amplitude, label, ball_value)


def _norm(pts, center=None):
    """|x - center| over the last axis of pts, one axis plane at a time.

    sqrt(x_0*x_0 + x_1*x_1) adds the squares in the order add.reduce does for
    d <= 2, so it has the bits of np.linalg.norm(pts - center, axis=-1) without
    reducing over a strided axis.
    """
    planes = (pts[..., i] if center is None else pts[..., i] - center[i] for i in range(pts.shape[-1]))
    x = next(planes)
    sq = x * x
    for x in planes:
        sq += x * x
    return np.sqrt(sq)


BALL_SLACK = 1e-9  # relative widening of a certified ball, far above rounding


def _band_value(s, radii, band, value):
    """Value on each ball of b = value(band(s)), s a 1-Lipschitz scalar of the point.

    band must be non-decreasing in s, so b is constant on a ball whenever the
    interval [s - r - delta, s + r + delta] starts and ends in one band; the
    slack delta = BALL_SLACK * (1 + |s| + r) absorbs the rounding of s, of the
    shifted nodes and of band itself.  NaN where two bands are met.
    """
    delta = BALL_SLACK * (1.0 + np.abs(s) + radii)
    lo, hi = band(s - radii - delta), band(s + radii + delta)
    return np.where(lo == hi, value(lo), np.nan)


def _reject_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unknown damping parameters {sorted(params)}")


def default_threshold(b: Damping) -> float:
    return 1e-3 * b.b_max


_SOBOL_BITS = 30


def _sobol(d: int, n: int) -> np.ndarray:
    """The first n points of the unscrambled Sobol sequence in [0, 1)^d, d = 1 or 2.

    Bratley and Fox's construction in Gray-code order on _SOBOL_BITS-bit
    integers: x_0 = 0 and x_{j+1} = x_j XOR v_{c(j)}, c(j) the lowest zero bit
    of j, so x_j is the XOR of the v_k over the set bits k of gray(j) = j ^ (j >> 1).
    Direction numbers v_k = m_k * 2^(_SOBOL_BITS - 1 - k) are Joe and Kuo's:
    m_k = 1 in dimension 1, and m_0 = 1, m_k = m_{k-1} XOR 2 m_{k-1} (the
    polynomial x + 1) in dimension 2.  Equal bit for bit to
    scipy.stats.qmc.Sobol(d, scramble=False).random(n).
    """
    if d not in (1, 2):
        raise ValueError(f"Sobol nodes are built for d = 1 and 2 only, got d={d}")
    m = [[1] * _SOBOL_BITS]
    if d == 2:
        m.append([1])
        for _ in range(1, _SOBOL_BITS):
            m[1].append(m[1][-1] ^ (2 * m[1][-1]))
    j = np.arange(n, dtype=np.int64)
    gray = j ^ (j >> 1)
    x = np.zeros((n, d), dtype=np.int64)
    for k in range(_SOBOL_BITS):
        bit = ((gray >> k) & 1).astype(bool)
        x[bit] ^= [col[k] << (_SOBOL_BITS - 1 - k) for col in m]
    return x / 2.0**_SOBOL_BITS


_BALL_NODE_CACHE: dict = {}


def unit_ball_nodes(d: int, n: int) -> np.ndarray:
    """Fixed low-discrepancy quadrature nodes for the unit ball."""
    key = (d, n)
    if key not in _BALL_NODE_CACHE:
        u = _sobol(d, n)
        if d == 1:
            nodes = 2.0 * u - 1.0
        else:
            r = np.sqrt(u[:, 0])
            th = 2.0 * np.pi * u[:, 1]
            nodes = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        _BALL_NODE_CACHE[key] = nodes
    return _BALL_NODE_CACHE[key]


BLOCK_BYTES = 1 << 19  # shifted-node scratch per block; it and the kernel's temporaries fit a 2 MB L2
CERTIFY_CHUNK = 4096  # points classified by b.ball_value at a time


def mollify_at(b: Damping, r, x) -> np.ndarray:
    """Average of b over the ball of radius r around each point of x.

    r is one radius for all points or one radius per point (any shape that
    broadcasts against the points' leading axes).  Each average is the mean
    of b(x + r * node) over the fixed set of N_BALL_PER_DIM * d nodes,
    evaluated block by block in one scratch buffer owned by the call, so
    concurrent and nested calls share no state.  Balls on which b.ball_value
    certifies b constant skip the quadrature: they get the mean of n_nodes
    copies of that value, the same row sum the blocks form, so the result is
    bit-identical.

    b.raw_func receives each block as a (points, nodes, d) view of a
    (d, points, nodes) buffer: its axis planes pts[..., i] are contiguous, the
    last axis is strided, so a kernel should read it one plane at a time.
    """
    pts = as_points(x, b.d)
    radii = np.broadcast_to(np.asarray(r, dtype=float), pts.shape[:-1]).reshape(-1)
    _require_window("mollification radius r", radii)
    n_nodes = N_BALL_PER_DIM * b.d
    planes = np.ascontiguousarray(unit_ball_nodes(b.d, n_nodes).T)  # (d, n_nodes)

    flat = pts.reshape(-1, b.d)
    out = np.empty(flat.shape[0])
    m = max(1, BLOCK_BYTES // (8 * b.d * n_nodes))
    buf = np.empty((b.d, min(m, flat.shape[0]), n_nodes))
    shifted = np.moveaxis(buf, 0, -1)  # the (points, nodes, d) view raw_func reads
    for chunk in range(0, flat.shape[0], CERTIFY_CHUNK):
        rows = slice(chunk, chunk + CERTIFY_CHUNK)
        cpts, crad, todo = flat[rows], radii[rows], slice(None)
        if b.ball_value is not None:
            values = b.ball_value(cpts, crad)
            todo = np.isnan(values)
            for v in np.unique(values[~todo]):
                out[rows][values == v] = np.full((1, n_nodes), v).mean(axis=1)[0]
            if not todo.all():  # with nothing certified the views serve as they are
                cpts, crad = cpts[todo], crad[todo]
        means = np.empty(crad.size)
        for start in range(0, crad.size, m):
            block, rad = cpts[start : start + m], crad[start : start + m, None]
            k = block.shape[0]
            for i in range(b.d):
                # buf[i, p, j] = r_p * nodes[j, i] + block[p, i], one axis plane at a time
                np.multiply(rad, planes[i], out=buf[i, :k])
                np.add(buf[i, :k], block[:, i, None], out=buf[i, :k])
            means[start : start + k] = b.raw_func(shifted[:k]).mean(axis=1)
        out[rows][todo] = means
    return out.reshape(pts.shape[:-1])


def _window_mean(b: Damping, r, pts: np.ndarray, ts: np.ndarray, axis: int) -> np.ndarray:
    """Trapezoid mean over the window ts of the r-mollified b sampled at pts.

    ts runs along `axis` of pts' leading axes; ts[-1] - ts[0] is the window 2T.
    """
    return np.trapezoid(mollify_at(b, r, pts), ts, axis=axis) / (ts[-1] - ts[0])


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition scan; it passes when the infimum clears the threshold."""

    condition: str
    params: dict
    sample_values: np.ndarray
    infimum: float
    threshold: float
    groups: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.infimum > self.threshold

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


def _grouped_report(condition: str, params: dict, b: Damping, groups, name: str, key: str):
    """Report over sample groups (value, averages), ordered so the last one is outermost.

    Each sample is labelled "name=value", the per-group infima are reported
    under `key`, and the infimum of the last group is the liminf proxy.
    """
    infima = {value: float(vals.min()) for value, vals in groups}
    return ConditionReport(
        condition=condition,
        params=params,
        sample_values=np.concatenate([vals for _, vals in groups]),
        infimum=infima[groups[-1][0]],
        threshold=default_threshold(b),
        groups={
            "sample_labels": [f"{name}={value:g}" for value, vals in groups for _ in vals],
            key: infima,
        },
    )


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
    """Sampled infimum of ray averages of the mollified coefficient.

    Each sample is (1/2T) * integral over |t| <= T of (b * kappa_r)(x0 + t*nu)
    for one ray (x0, nu), nu a unit vector, by the composite trapezoid rule.
    Time is the last, contiguous axis of the batch, so every ray's sum is
    formed the same way alone or among others.
    """
    _require_window("T", T)
    _require_window("r", r)
    if rays is None:
        rays = default_ray_family(b.d)
    base = np.stack([as_points(p, b.d) for p, _ in rays])
    dirs = np.stack([as_points(q, b.d) for _, q in rays])
    if np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) > 1e-12:
        raise ValueError("directions must be unit vectors")
    ts = np.linspace(-T, T, N_RAY)
    pts = base[:, None, :] + ts[None, :, None] * dirs[:, None, :]
    vals = _window_mean(b, r, pts, ts, axis=-1)
    return ConditionReport(
        condition="UGCC",
        params={"T_time": T, "r_space": r, "n_rays": len(rays)},
        sample_values=vals,
        infimum=float(vals.min()),
        threshold=default_threshold(b),
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
    _require_window("R", R)
    shells = sorted(float(s) for s in shells)
    if not shells:
        raise ValueError("need at least one shell radius")
    _require_window("shells", shells)

    groups = []
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
        groups.append((rho, mollify_at(b, R / v**0.25, pts)))
    return _grouped_report(
        "TPC", {"R_space": R, "shells": shells}, b, groups, "shell", "shell_infima"
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
    for name, value in (("T", T), ("R", R), ("lam", lam)):
        _require_window(name, value)
    x0 = np.atleast_2d(as_points(x0, pot.d))
    xi0 = np.atleast_2d(as_points(xi0, pot.d))
    window = T / lam
    times = np.linspace(-window, window, N_RAY)
    pos = flow_positions(pot, x0, xi0, times, default_dt(lam))  # (N_RAY, n, d)
    return _window_mean(b, R / np.sqrt(lam), pos, times, axis=0)


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

    A fifth of the samples (dynamics.TURNING_FRACTION) is forced toward the
    turning surface (|xi| <= 0.1 lam) where failures concentrate.  The
    liminf proxy is the infimum at the largest sampled frequency.
    """
    _require_window("T", T)
    _require_window("R", R)
    _require_count("n_shell_samples", n_shell_samples)
    lams = [float(v) for v in np.atleast_1d(lambdas)]
    if not lams:
        raise ValueError("need at least one frequency lambda")
    for lam in lams:
        _require_window("frequency lambda", lam, where=f", got {lam}")
    lams.sort()
    seeds = np.random.SeedSequence(seed).spawn(len(lams))

    def one(pair):
        lam, ss = pair
        rng = np.random.default_rng(ss)
        xs, xis = sample_shell(pot, lam, n_shell_samples, rng)
        return flow_average(b, pot, xs, xis, T, R, lam)

    results = _ordered_map(one, list(zip(lams, seeds)), threads)
    params = {
        "T_time": T,
        "R_space": R,
        "lambdas": lams,
        "n_shell_samples": n_shell_samples,
        "turning_fraction": TURNING_FRACTION,
        "seed": seed,
    }
    return _grouped_report("DSC", params, b, list(zip(lams, results)), "lam", "lambda_infima")


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
    Cauchy trend of the ladder.  Every T and R must be finite and > 0.
    """
    tr_grid = [(float(t), float(r)) for t, r in tr_grid]
    if any(
        tr_grid[i + 1][0] < tr_grid[i][0] or tr_grid[i + 1][1] < tr_grid[i][1]
        for i in range(len(tr_grid) - 1)
    ):
        raise ValueError("(T, R) ladder must be non-decreasing in both slots")
    for k, slot in enumerate("TR"):
        where = " on every rung of the (T, R) ladder"
        _require_window(slot, [rung[k] for rung in tr_grid], where=where)

    proxies = np.array(
        [
            dsc_scan(
                b, pot, T, R, lambdas, n_shell_samples=n_shell_samples, seed=seed, threads=threads
            ).infimum
            for T, R in tr_grid
        ]
    )
    return ConditionReport(
        condition="DSC_LIMIT",
        params={"TR_grid": tr_grid, "lambdas": list(np.atleast_1d(lambdas)), "seed": seed},
        sample_values=proxies,
        infimum=float(proxies[-1]),
        threshold=default_threshold(b),
        groups={
            "sample_labels": [f"T={t:g},R={r:g}" for t, r in tr_grid],
            "proxies": proxies,
            "successive_differences": np.abs(np.diff(proxies)),
        },
    )


def _ordered_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

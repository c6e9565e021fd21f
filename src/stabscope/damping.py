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
averages use a fixed low-discrepancy node set (`mollify_at`); a builtin
counts the nodes of a ball at which it is damped (`Damping.damped_nodes`),
so most balls need no evaluation of b.  The ray and flow averages are one
window mean, the composite trapezoid rule over |t| <= T divided by 2T.
Every scan returns a `ConditionReport` with the per-sample averages and the
infimum; it passes when the infimum exceeds the threshold c = 1e-3 * b_max.
All four build it through one constructor from labelled sample groups, the
last and outermost of which gives the infimum (the liminf proxy).  One
turning-point lattice (`turning_lattice`) and one kernel over it give the
TPC ball means, at radius R / V^(1/4), to `tpc_scan` and to the TPC witness
search; the CLI runs `conditions` and `suite` through one runner, whose one
`_dsc_scans` call shares each frequency's shell flow among all its dampings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .dynamics import TURNING_FRACTION, default_dt, flow_positions, sample_shell
from .potentials import (
    Potential, _require_count, _require_dimension, _require_finite, _require_window, as_points, unit_directions
)

__all__ = [
    "Damping",
    "ConditionReport",
    "builtin_damping",
    "mollify_at",
    "ugcc_scan",
    "tpc_scan",
    "turning_lattice",
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

    `damped_nodes(pts, radii)`, when given, counts the damped nodes of each
    ball: the number k of the mollifier's N_BALL_PER_DIM * d nodes
    x + r * node at which raw_func reads b_max, reading 0 at the others, or
    NaN where k is not known.  `mollify_at` skips the quadrature on the
    balls whose k fixes the mean.
    """

    d: int
    raw_func: Callable[[np.ndarray], np.ndarray]
    b_max: float
    label: str
    damped_nodes: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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

    constant keeps its own evaluator and counts every node.  The others come
    from two family constructors, each of which forms raw_func and the
    damped-node count (Damping.damped_nodes) from one description of the
    damped set: `_radial` for exterior, ball and radial_shells, an indicator
    of |x - center| counted all or none where the slack certificate
    `_band_value` holds; `_cells` for checkerboard and strip_lattice, a cell
    indicator counted per cell (`_count_damped`).

    One out-of-range rule holds for all: a NaN coordinate reads undamped, a
    norm beyond the float range saturates to inf, and a cell or band index of
    2^53 or more, inf included, is even, so such points read as the far points
    they are.  A ball centred on a NaN coordinate that b reads takes the
    quadrature.  The ball builtin's own centre must be finite.
    """
    _require_dimension(d)
    amplitude = float(params.pop("amplitude", 1.0))
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if amplitude < 0.0:
        raise ValueError("negative amplitude")

    if name == "constant":
        _reject_extra(params)
        n_nodes = N_BALL_PER_DIM * d

        def func(pts):
            return np.full(pts.shape[:-1], amplitude)

        def damped_nodes(pts, radii):
            return np.full(radii.shape, float(n_nodes))

        return Damping(d, func, amplitude, f"constant({amplitude:g})", damped_nodes)

    if name in ("exterior", "ball"):
        radius = _require_window("radius", float(params.pop("radius", 1.0)))
        label = f"{name}(R={radius:g})"
        if name == "exterior":
            _reject_extra(params)
            return _radial(d, amplitude, label, None, lambda s: s >= radius, lambda s: s >= radius)
        center = np.asarray(params.pop("center", np.zeros(d)), dtype=float)
        _reject_extra(params)
        if center.ndim > 1 or center.size not in (1, d):
            raise ValueError(f"ball center must have one coordinate per axis, d = {d}")
        center = np.broadcast_to(_require_finite("ball center", center), (d,))  # one coordinate per axis plane
        return _radial(d, amplitude, label, center, lambda s: s > radius, lambda s: s <= radius)

    if name not in ("checkerboard", "radial_shells", "strip_lattice"):
        raise ValueError(f"unknown damping {name!r}")
    period = _require_window("period", float(params.pop("period", 1.0)))
    duty = float(params.pop("duty", 0.5))
    _reject_extra(params)
    if not 0.0 < duty < 1.0:
        raise ValueError("duty ratio must lie in (0, 1)")
    label = f"{name}(L={period:g},duty={duty:g})"

    if name == "checkerboard":

        def cell(s, a=duty * period):
            return np.floor(s / a)

        def edge(k, a=duty * period):  # where cell k starts
            return k * a

        return _cells(d, amplitude, label, (cell,) * d, (edge,) * d)

    # annuli or strips: b is amplitude on the even bands of 2 floor(s/L) + [frac(s/L) >= duty];
    # frac(y) = y - floor(y) has np.mod(y, 1.0)'s bits for either sign of y, at a fraction of its cost
    def band(s, L=period, q=duty):
        y = s / L
        k = np.floor(y)
        y -= k  # frac(s/L)
        k *= 2.0
        k += y >= q
        return k

    if name == "radial_shells":
        return _radial(d, amplitude, label, None, band, lambda s: _even((band,), (s,)))

    def band_edge(k, L=period, q=duty):  # where band k starts
        half = np.floor(0.5 * k)
        return (half + (k - 2.0 * half) * q) * L

    return _cells(d, amplitude, label, (band,), (band_edge,))


def _radial(d: int, amplitude: float, label: str, center, band, damped) -> Damping:
    """b = amplitude * damped(|x - center|), center None for the origin; band(s) is
    non-decreasing and damped(s) constant where band is, as `_band_value` needs."""
    n_nodes = N_BALL_PER_DIM * d

    def func(pts):
        return amplitude * damped(_norm(pts, center))

    def damped_nodes(pts, radii):
        return _band_value(_norm(pts, center), radii, band, lambda s: n_nodes * damped(s))

    return Damping(d, func, amplitude, label, damped_nodes)


def _cells(d: int, amplitude: float, label: str, cells: tuple, edges: tuple) -> Damping:
    """b = amplitude where the cell indices cells[i](x_i) sum even, cell k starting at
    edges[i](k); balls are counted across up to COUNT_MAX_CELLS cells per axis if the
    amplitude sums exactly, else in one, as mollify_at then uses only k = 0 and n_nodes."""
    n_nodes = N_BALL_PER_DIM * d
    max_cells = COUNT_MAX_CELLS if _sums_exactly(amplitude, n_nodes) else 1

    def func(pts):
        return amplitude * _even(cells, [pts[..., i] for i in range(len(cells))])

    return Damping(d, func, amplitude, label, partial(_count_damped, cells, edges, n_nodes, max_cells))


def _even(cells, scalars):
    """Where the sum of the indices cell_i(s_i) is even: the damped set of a periodic builtin.

    Each cell_i maps its scalar to integer-valued floats.  An index k is even
    when k / 2 is whole, as it is for every |k| >= 2^53, an overflowed +-inf
    included; the sum is even when an even number of its indices are odd.  A
    NaN index reads undamped.
    """
    even, nan = True, False
    with np.errstate(over="ignore", invalid="ignore"):
        for cell, s in zip(cells, scalars):
            half = 0.5 * cell(s)
            even = even == (half == np.floor(half))
            nan = nan | np.isnan(half)
    return even & ~nan


def _norm(pts, center=None):
    """|x - center| over the last axis of pts, one axis plane at a time.

    sqrt(x_0*x_0 + x_1*x_1) adds the squares in the order add.reduce does for
    d <= 2, so it has the bits of np.linalg.norm(pts - center, axis=-1) without
    reducing over a strided axis.  A norm beyond the float range saturates to inf.
    """
    planes = (pts[..., i] if center is None else pts[..., i] - center[i] for i in range(pts.shape[-1]))
    with np.errstate(over="ignore"):
        x = next(planes)
        sq = x * x
        for x in planes:
            sq += x * x
    return np.sqrt(sq)


BALL_SLACK = 1e-9  # relative widening of a certified ball, far above rounding


def _band_value(s, radii, band, value):
    """value(s) on each ball within one band, s a 1-Lipschitz scalar of its centre.

    band must be non-decreasing in s, so band(s) is constant on a ball whenever
    the interval [s - r - delta, s + r + delta] starts and ends in one band;
    the slack delta = BALL_SLACK * (1 + |s| + r) absorbs the rounding of s, of
    the shifted nodes and of band itself.  NaN where two bands are met, and
    where s is NaN or infinite, so those balls take the quadrature.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = BALL_SLACK * (1.0 + np.abs(s) + radii)
        lo, hi = band(s - radii - delta), band(s + radii + delta)
        return np.where((lo == hi) & np.isfinite(s), value(s), np.nan)


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


@cache
def unit_ball_nodes(d: int, n: int) -> np.ndarray:
    """Fixed low-discrepancy quadrature nodes for the unit ball."""
    u = _sobol(d, _require_count("n", n))
    if d == 1:
        return 2.0 * u - 1.0
    r = np.sqrt(u[:, 0])
    th = 2.0 * np.pi * u[:, 1]
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


BLOCK_BYTES = 1 << 19  # shifted-node scratch per block; it and the kernel's temporaries fit a 2 MB L2
CERTIFY_CHUNK = 4096  # points whose damped nodes b.damped_nodes counts at a time
COUNT_MAX_CELLS = 16  # cells per axis up to which counting a ball's nodes costs less than evaluating b


def mollify_at(b: Damping, r, x) -> np.ndarray:
    """Average of b over the ball of radius r around each point of x.

    r is one radius for all points or one radius per point (any shape that
    broadcasts against the points' leading axes).  Each average is the mean
    of b(x + r * node) over the fixed set of N_BALL_PER_DIM * d nodes,
    evaluated block by block in one scratch buffer owned by the call, so
    concurrent and nested calls share no state.  Where b.damped_nodes counts
    k damped nodes, the mean has the same bits without evaluating b: the
    mean of n_nodes copies of b_max (the row sum the blocks form) for
    k = n_nodes, 0.0 for k = 0, and (k * b_max) / n_nodes in between when
    b_max sums exactly (see `_sums_exactly`).  The other balls, and every
    ball of a Damping without the hook, take the quadrature.

    b.raw_func receives each block as a (points, nodes, d) view of a
    (d, points, nodes) buffer: its axis planes pts[..., i] are contiguous, the
    last axis is strided, so a kernel should read it one plane at a time.
    """
    pts = as_points(x, b.d)
    radii = np.broadcast_to(np.asarray(r, dtype=float), pts.shape[:-1]).reshape(-1)
    _require_window("mollification radius r", radii)
    n_nodes = N_BALL_PER_DIM * b.d
    planes = np.ascontiguousarray(unit_ball_nodes(b.d, n_nodes).T)  # (d, n_nodes)
    full = np.full((1, n_nodes), b.b_max).mean(axis=1)[0]
    exact = _sums_exactly(b.b_max, n_nodes)

    flat = pts.reshape(-1, b.d)
    out = np.empty(flat.shape[0])
    m = max(1, BLOCK_BYTES // (8 * b.d * n_nodes))
    buf = np.empty((b.d, min(m, flat.shape[0]), n_nodes))
    shifted = np.moveaxis(buf, 0, -1)  # the (points, nodes, d) view raw_func reads
    for chunk in range(0, flat.shape[0], CERTIFY_CHUNK):
        rows = slice(chunk, chunk + CERTIFY_CHUNK)
        cpts, crad = flat[rows], radii[rows]
        k = np.full(crad.size, np.nan) if b.damped_nodes is None else b.damped_nodes(cpts, crad)
        # the means found without quadrature, NaN on the other balls
        known = np.where(k == n_nodes, full, k * b.b_max / n_nodes if exact else np.where(k == 0, 0.0, np.nan))
        todo = np.isnan(known)
        if not todo.all():  # with nothing known the views serve as they are
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
        known[todo] = means
        out[rows] = known
    return out.reshape(pts.shape[:-1])


def _sums_exactly(amplitude: float, n: int) -> bool:
    """Whether every sum of up to n copies of amplitude is exact in floats.

    amplitude = m * 2^e with m odd, so j * amplitude is exact for j <= n when
    n * m <= 2^53.  Then the quadrature's row sum of k copies, in any order,
    is k * amplitude rounded once (inf where that overflows).
    """
    num, _ = amplitude.as_integer_ratio()
    odd = num // (num & -num) if num else 0
    return odd * n <= 2**53


@cache
def _node_ranks(d: int, n: int, q: int):
    """Node order per axis and a rank-dominance table, for the first q axes.

    Returns the node coordinates sorted on each of the first q axes, each
    followed by an inf sentinel at rank n, and, for q = 2, the (n + 1, n + 1)
    table D[i, j] = #{nodes of rank < i on axis 0 and rank < j on axis 1}.
    Built on first use and read-only afterwards.
    """
    nodes = unit_ball_nodes(d, n)
    orders = [np.argsort(nodes[:, i], kind="stable") for i in range(q)]
    planes = [np.append(nodes[order, i], np.inf) for i, order in enumerate(orders)]
    table = None
    if q == 2:
        ranks = np.empty((2, n), dtype=np.intp)
        for i, order in enumerate(orders):
            ranks[i, order] = np.arange(n)
        table = np.zeros((n + 1, n + 1), dtype=np.min_scalar_type(n))
        table[ranks[0] + 1, ranks[1] + 1] = 1
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
    return planes, table


def _count_damped(cells: tuple, edges: tuple, n: int, max_cells: int, pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Number of damped nodes in each ball of a cell indicator, NaN where not counted.

    b is b_max where the sum of c_i(x_i) is even and 0 elsewhere: one cell
    index function c_i per leading axis, mapping x_i to integer-valued floats
    and non-decreasing in x_i, and edges[i](k) where cell k starts, up to
    rounding; later axes do not matter.

    The quadrature node j of the ball (x, r) lies in cell c_i(r * node_ji + x_i)
    on axis i, the float expression the blocks evaluate.  Every step of it is
    monotone, so the cell is non-decreasing along the nodes sorted on axis i:
    the ball's nodes run through its cells lo_i, lo_i + 1, ..., hi_i in
    consecutive rank intervals.  A sorted search of (edge(t) - x_i) / r among
    the sorted node coordinates guesses where cell t starts, and
    `_cell_starts` makes the guess exact on the same expression, in at most
    2 + 1 + ceil(log2 n) cell evaluations per ball, target and axis.  The
    interval ends on every axis are the corners of the runs, boxes of nodes
    that share their cells; the corner counts (the ends themselves in 1D, the
    dominance table in 2D, looked up only off its border, which is known in
    closed form) weighted by `_parity_weights` sum the boxes whose cell sum
    is even.  A ball is counted when it meets at most max_cells cells per
    axis and its cell indices stay below 2^52, where their parity is exact;
    every node of a counted ball lies between its extreme ones, so no cell
    in the search leaves that range.
    """
    q = len(cells)
    planes, table = _node_ranks(pts.shape[1], n, q)
    cols = [pts[:, i] for i in range(q)]
    ok = np.ones(radii.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a cell beyond the float range is not counted
        lo = [cell(radii * s[0] + x) for cell, s, x in zip(cells, planes, cols)]
        hi = [cell(radii * s[n - 1] + x) for cell, s, x in zip(cells, planes, cols)]
        for a, z in zip(lo, hi):
            ok &= (np.abs(a) < 2.0**52) & (np.abs(z) < 2.0**52) & (z - a < max_cells)
    result = np.full(radii.shape, np.nan)
    if not ok.any():
        return result
    if ok.all():  # a slice takes views where a mask would copy
        ok = slice(None)
    rad = radii[ok, None]
    parity = np.zeros(rad.shape[0], dtype=np.int64)  # of the lowest cell sum
    starts = []  # per axis, (balls, targets): the rank where each later cell starts, n past the last
    for cell, edge, s, x, a, z in zip(cells, edges, planes, cols, lo, hi):
        a, x = a[ok], x[ok, None]
        parity += a.astype(np.int64)
        target = a[:, None] + np.arange(1.0, np.max(z[ok] - a) + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # band(inf) at the sentinel, a far edge
            guess = np.searchsorted(s, (edge(target) - x) / rad)
            starts.append(_cell_starts(cell, s, rad, x, target, guess))
    # the corner counts, zero on the lower border; on the upper one D[n, j] = j, D[i, n] = i
    corners = np.zeros((parity.size, *(m.shape[1] + 2 for m in starts)))
    if q == 1:
        corners[:, 1:-1], corners[:, -1] = starts[0], n
    else:
        s0, s1 = starts
        corners[:, 1:-1, 1:-1] = np.take(table, s0[:, :, None] * (n + 1) + s1[:, None, :])
        corners[:, -1, 1:-1], corners[:, 1:-1, -1], corners[:, -1, -1] = s1, s0, n
    damped = corners.reshape(parity.size, -1) @ _parity_weights(corners.shape[1:]).T
    result[ok] = np.where(parity & 1, damped[:, 1], damped[:, 0])
    return result


def _cell_starts(cell, s: np.ndarray, rad: np.ndarray, x: np.ndarray, target: np.ndarray, guess: np.ndarray):
    """The rank at which the nodes of each ball enter cell `target` on one axis.

    s holds the sorted node coordinates and the inf sentinel at rank n; rad
    and x are (balls, 1), target and guess (balls, targets), and every target
    lies above the cell of rank 0.  Returns #{j < n : cell(rad * s[j] + x) <
    target}, the unique start in [1, n] with rank start - 1 below the target
    and rank start (the sentinel at n) not.  The guess, clipped to [1, n], is
    kept where both ranks confirm it, two evaluations.  A miss, most often
    one rank off, probes the rank past the checked one on the start's side,
    then bisects what is left: at most 1 + ceil(log2 n) evaluations more.
    """
    n = s.size - 1
    start = np.clip(guess, 1, n)
    above = cell(rad * s[start] + x) < target  # the start lies above the guess
    miss = np.flatnonzero(above | ~(cell(rad * s[start - 1] + x) < target))
    if miss.size == 0:
        return start
    row = miss // target.shape[1]
    r, xm, t = rad[row, 0], x[row, 0], target.reshape(-1)[miss]
    up = above.reshape(-1)[miss]
    g = start.reshape(-1)[miss]
    below = np.where(up, g, 0)  # a rank known below the target
    top = np.where(up, n, g - 1)  # a rank known not below it
    todo, p = np.arange(miss.size), np.where(up, g + 1, g - 2)  # the one probe, then midpoints
    while todo.size:  # until every bracket is closed, which leaves p at neither of its ends
        inner = (p > below[todo]) & (p < top[todo])
        todo, p = todo[inner], p[inner]
        is_below = cell(r[todo] * s[p] + xm[todo]) < t[todo]
        below[todo[is_below]] = p[is_below]
        top[todo[~is_below]] = p[~is_below]
        p = (below[todo] + top[todo]) // 2
    start.reshape(-1)[miss] = top
    return start


@cache
def _parity_weights(shape: tuple) -> np.ndarray:
    """Weights on the corner counts that sum the boxes of nodes with an even cell sum.

    A box of runs (t_0, ..., t_{q-1}) holds the inclusion-exclusion sum of
    the counts at its 2^q corners, and is damped when p + sum t_i is even.
    Summing by parts puts the weight -diff(w) per axis on the corner counts,
    w the damped indicator padded with zeros.  Row p of the (2, prod(shape))
    result holds the weights for a lowest cell sum of parity p.  Built once per
    shape and read-only.
    """
    runs = tuple(m - 1 for m in shape)
    rows = []
    for p in (0, 1):
        w = ((np.indices(runs).sum(axis=0) + p) % 2 == 0).astype(float)
        for axis in range(len(runs)):
            w = -np.diff(w, axis=axis, prepend=0.0, append=0.0)
        rows.append(w.ravel())
    weights = np.array(rows)
    weights.setflags(write=False)
    return weights


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
    groups: dict

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


def _report(condition: str, params: dict, b: Damping, groups, **extra) -> ConditionReport:
    """The report over sample groups (labels, averages): one label per sample, the last
    group outermost, its least average the infimum; extra sits beside the labels."""
    return ConditionReport(
        condition=condition,
        params=params,
        sample_values=np.concatenate([vals for _, vals in groups]),
        infimum=float(groups[-1][1].min()),
        threshold=default_threshold(b),
        groups={"sample_labels": [label for labels, _ in groups for label in labels], **extra},
    )


def default_ray_family(d: int, box: float = 10.0, n_per_axis: int = 7, n_dirs: int = 16):
    """Deterministic lattice of base points crossed with a fan of line directions."""
    _require_window("box", box)
    axes = [np.linspace(-box, box, _require_count("n_per_axis", n_per_axis))] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    dirs = unit_directions(d, _require_count("n_dirs", n_dirs))
    if len(dirs) % 2 == 0:
        # an even fan pairs each direction with its reverse, which covers the
        # same segment: keep the first half, the angles in [0, pi)
        dirs = dirs[: len(dirs) // 2]
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
    if len(rays) == 0:
        raise ValueError("need at least one ray")
    base = _require_finite("base points", np.stack([as_points(p, b.d) for p, _ in rays]))
    dirs = _require_finite("directions", np.stack([as_points(q, b.d) for _, q in rays]))
    if not np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) <= 1e-12:
        raise ValueError("directions must be unit vectors")
    ts = np.linspace(-T, T, N_RAY)
    pts = base[:, None, :] + ts[None, :, None] * dirs[:, None, :]
    vals = _window_mean(b, r, pts, ts, axis=-1)
    labels = [f"ray{k}" for k in range(len(rays))]
    return _report("UGCC", {"T_time": T, "r_space": r, "n_rays": len(rays)}, b, [(labels, vals)])


TPC_SHELLS = 4.0 * 1.2 ** np.arange(81)  # shells of the turning-point lattice: 4 * 1.2^k up to 1e7
TPC_DIRECTIONS = 64  # directions per shell in 2D; both signs in 1D


def turning_lattice(d: int, rho_min: float = 0.0):
    """The shells of the turning-point lattice at or beyond rho_min and their
    points, shape (shells, directions, d): each shell times unit_directions."""
    shells = TPC_SHELLS[TPC_SHELLS >= rho_min]
    return shells, shells[:, None, None] * unit_directions(d, TPC_DIRECTIONS)


def _turning_balls(b: Damping, pot: Potential, R: float, pts: np.ndarray):
    """V at each point, the TPC ball radius R / V^(1/4) there and the mean of b
    over that ball; V must be positive at every point."""
    v = pot.raw_value(pts)
    if np.any(v <= 0.0):
        raise ValueError("shell must lie where V > 0")
    radii = R / v**0.25
    return v, radii, mollify_at(b, radii, pts)


def tpc_scan(b: Damping, pot: Potential, R: float) -> ConditionReport:
    """Ball averages of b at radius R / V(x)^(1/4) over the turning-point lattice.

    The liminf proxy is the infimum over the outer half of the shells, whose
    least ball the report names (point, |x| and radius); the per-shell trend
    table is reported so a decreasing tail is visible.
    """
    if pot.d != b.d:
        raise ValueError("potential and damping dimensions differ")
    _require_window("R", R)
    shells, pts = turning_lattice(b.d)
    _, radii, means = _turning_balls(b, pot, R, pts)
    half, n_dirs = len(shells) // 2, pts.shape[1]
    labels = [f"shell={rho:g}" for rho in shells]
    inner, outer = ([lab for lab in part for _ in range(n_dirs)] for part in (labels[:half], labels[half:]))
    k = half * n_dirs + int(np.argmin(means[half:]))
    point = pts.reshape(-1, b.d)[k]
    worst = {"point": point, "norm": float(_norm(point)), "ball_radius": float(radii.flat[k])}
    infima = {float(rho): float(m) for rho, m in zip(shells, means.min(axis=1))}
    groups = [(inner, means[:half].reshape(-1)), (outer, means[half:].reshape(-1))]
    return _report("TPC", {"R_space": R}, b, groups, shell_infima=infima, worst_sample=worst)


def _flow_window(pot: Potential, x0: np.ndarray, xi0: np.ndarray, T: float, lam: float):
    """The N_RAY times of the window |t| <= T/lam and the flow positions through
    (x0, xi0) at them, shape (N_RAY,) + x0.shape; no damping enters."""
    window = T / lam
    times = np.linspace(-window, window, N_RAY)
    return times, flow_positions(pot, x0, xi0, times, default_dt(lam))


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
    if pot.d != b.d:
        raise ValueError("potential and damping dimensions differ")
    for name, value in (("T", T), ("R", R), ("lam", lam)):
        _require_window(name, value)
    x0 = np.atleast_2d(as_points(x0, pot.d))
    xi0 = np.atleast_2d(as_points(xi0, pot.d))
    times, pos = _flow_window(pot, x0, xi0, T, lam)
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
) -> ConditionReport:
    """Shell-sampled infima of flow averages, per frequency.

    A fifth of the samples (dynamics.TURNING_FRACTION) is forced toward the
    turning surface (|xi| <= 0.1 lam) where failures concentrate.  The
    liminf proxy is the infimum at the largest sampled frequency.
    """
    return _dsc_scans((b,), pot, T, R, lambdas, n_shell_samples, seed)[0]


def _dsc_scans(
    dampings, pot: Potential, T: float, R: float, lambdas, n_shell_samples: int, seed: int
) -> list:
    """One dsc_scan report per damping, all averaged over the same flows.

    The flow depends on the potential, T, the frequency, the sample count
    and the seed, not on the damping, so each frequency's shell flow is
    integrated once, every damping is averaged over it, and it is dropped
    before the next frequency.
    """
    if any(b.d != pot.d for b in dampings):
        raise ValueError("potential and damping dimensions differ")
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

    results = []
    for lam, ss in zip(lams, seeds):
        xs, xis = sample_shell(pot, lam, n_shell_samples, np.random.default_rng(ss))
        times, pos = _flow_window(pot, xs, xis, T, lam)
        results.append([_window_mean(b, R / np.sqrt(lam), pos, times, axis=0) for b in dampings])
    params = {
        "T_time": T,
        "R_space": R,
        "lambdas": lams,
        "n_shell_samples": n_shell_samples,
        "turning_fraction": TURNING_FRACTION,
        "seed": seed,
    }
    reports = []
    for b, means in zip(dampings, zip(*results)):
        groups = [([f"lam={lam:g}"] * m.size, m) for lam, m in zip(lams, means)]
        infima = {lam: float(m.min()) for lam, m in zip(lams, means)}
        reports.append(_report("DSC", params, b, groups, lambda_infima=infima))
    return reports


def dsc_limit_scan(
    b: Damping,
    pot: Potential,
    tr_grid,
    lambdas,
    *,
    n_shell_samples: int = 256,
    seed: int = 0,
) -> ConditionReport:
    """Stabilization of the DSC proxy along an increasing (T, R) ladder.

    For each (T, R) the scan records the liminf proxy; the margin at the
    largest pair decides the verdict, and successive differences expose the
    Cauchy trend of the ladder.  Every T and R must be finite and > 0.
    """
    tr_grid = [(float(t), float(r)) for t, r in tr_grid]
    if not tr_grid:
        raise ValueError("need at least one (T, R) rung")
    if any(
        tr_grid[i + 1][0] < tr_grid[i][0] or tr_grid[i + 1][1] < tr_grid[i][1]
        for i in range(len(tr_grid) - 1)
    ):
        raise ValueError("(T, R) ladder must be non-decreasing in both slots")
    for k, slot in enumerate("TR"):
        where = " on every rung of the (T, R) ladder"
        _require_window(slot, [rung[k] for rung in tr_grid], where=where)

    scan = partial(dsc_scan, b, pot, lambdas=lambdas, n_shell_samples=n_shell_samples, seed=seed)
    proxies = np.array([scan(T, R).infimum for T, R in tr_grid])
    groups = [([f"T={t:g},R={r:g}"], proxies[k : k + 1]) for k, (t, r) in enumerate(tr_grid)]
    params = {"TR_grid": tr_grid, "lambdas": list(np.atleast_1d(lambdas)), "seed": seed}
    return _report("DSC_LIMIT", params, b, groups, proxies=proxies, successive_differences=np.abs(np.diff(proxies)))


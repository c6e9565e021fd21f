"""Gridded complex fields and the discretized operator V - Laplacian/2.

Grids are uniform tensor products, one extent per axis, optionally centered
away from the origin so that bumps localized far out in the potential can be
resolved on a small local patch instead of a gigantic global box.  Fields of
interest are compactly supported: they must vanish on the outermost two node
layers, which is what makes the Dirichlet reading of the stencil exact.

The Laplacian uses the standard 4th-order central stencil per axis,
(-1/12, 4/3, -5/2, 4/3, -1/12) / h^2.  This module is the one place that
stencil lives: the stencil kernel ``_PKernel`` and the 1D band matrix
``p_bands`` (resolvent scans and spectra).  A kernel is built once per grid
and dtype and keeps its zero-bordered copy of the field, its strip-sized
scratch for the stencil products, their shifted views and its output
buffer, so ``apply_P`` runs it once and the time stepper runs it every step
without allocating, in real arithmetic when the data are real.  Fields
must be finite; every reader names a NaN or inf instead of spreading it.
Field integrals share one rule, the trapezoid weights w of ``Grid.weights``
summed pairwise without BLAS.  The one quadratic form is the density
w |f|^2: its sum is ||f||^2, and the damping pairing and the ball mass are
means under it.  Its sum is finite exactly when every node is, so the
functionals read the point rule off it, and ``apply_P`` reads it off max |f|,
the same pass that checks the outermost layers; only the cross product
``inner`` (conjugate-linear in its first slot) checks its fields first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential, _require_count, _require_dimension, _require_finite, _require_window

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "apply_P",
    "p_bands",
    "l2_norm",
    "inner",
    "residual_ratio",
    "damping_pairing",
    "mass_in_ball",
    "check_resolution",
]

_STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])
POINTS_PER_WAVELENGTH = 16  # carrier resolution that check_resolution and resolvent grids use
_NODE_BUDGET = 2**15  # nodes per kernel strip and per evolve energy block


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on the box center + [-L_i, L_i] per axis."""

    d: int
    ns: tuple
    ls: tuple
    center: tuple = field(default=None)

    def __post_init__(self):
        _require_dimension(self.d)
        if len(self.ns) != self.d or len(self.ls) != self.d:
            raise ValueError("one extent and one point count per axis")
        object.__setattr__(self, "ns", tuple(_require_count("grid point count", n) for n in self.ns))
        if any(n < 8 for n in self.ns):
            raise ValueError("grid too coarse: need at least 8 points per axis")
        _require_window("grid half-widths", self.ls, where=f", got {self.ls}")
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.d)
        elif len(self.center) != self.d or not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"grid center must be {self.d} finite coordinate(s), got {self.center}")

    @property
    def hs(self) -> tuple:
        return tuple(2.0 * L / (n - 1) for L, n in zip(self.ls, self.ns))

    def axis(self, i: int) -> np.ndarray:
        return self.center[i] + np.linspace(-self.ls[i], self.ls[i], self.ns[i])

    def meshgrid(self) -> np.ndarray:
        """Node coordinates, shape ns + (d,).

        The coordinates are stored one axis plane at a time, (d,) + ns in
        memory, so x[..., i] is contiguous: V and b, which read their points a
        plane at a time, come out C-contiguous and fast.
        """
        mesh = np.empty((self.d, *self.ns))
        for i in range(self.d):
            mesh[i] = self.axis(i).reshape([-1 if k == i else 1 for k in range(self.d)])
        return np.moveaxis(mesh, 0, -1)

    def weights(self) -> np.ndarray:
        """Tensor trapezoid weights, shape ns."""
        ws = [np.full(n, h) for n, h in zip(self.ns, self.hs)]
        for w in ws:
            w[[0, -1]] *= 0.5
        return ws[0] if self.d == 1 else np.outer(*ws)


def make_grid(d: int, n, l, center=None) -> Grid:
    ns = tuple(n if np.iterable(n) else [n] * d)
    ls = tuple(float(v) for v in (l if np.iterable(l) else [l] * d))
    ctr = None if center is None else tuple(float(v) for v in np.atleast_1d(center))
    return Grid(d, ns, ls, ctr)


@dataclass
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.ns:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.ns}")


def check_resolution(grid: Grid, lam: float, axes=None) -> None:
    """Enforce h <= 2*pi / (lam * POINTS_PER_WAVELENGTH) on the axes carrying
    frequency-lam content.

    axes defaults to all of them; oscillation-free axes of a wave packet may be
    excluded by the caller and validated against the envelope scale instead.
    """
    _require_window("lam", lam)
    limit = 2.0 * np.pi / (lam * POINTS_PER_WAVELENGTH)
    idx = range(grid.d) if axes is None else axes
    worst = max(grid.hs[i] for i in idx)
    if worst > limit:
        raise ValueError(
            f"grid too coarse for frequency {lam:.6g}: h={worst:.3e} exceeds {limit:.3e} "
            f"({POINTS_PER_WAVELENGTH} points per wavelength)"
        )


def snap_to_grid(grid: Grid, point) -> np.ndarray:
    """Coordinates of the grid node nearest to the given point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (grid.d,):
        raise ValueError(f"expected a point with {grid.d} coordinates")
    _require_finite("point", p)
    out = np.empty(grid.d)
    for i in range(grid.d):
        idx = int(round((p[i] - (grid.center[i] - grid.ls[i])) / grid.hs[i]))
        out[i] = grid.axis(i)[min(max(idx, 0), grid.ns[i] - 1)]
    return out


def dominant_wavenumber(f: Field) -> np.ndarray:
    """Wavenumber vector at the peak of |DFT of f|.

    Bin width along axis i is 2*pi/(N_i h_i); peak location is exact only up
    to one bin, which is what the packet direction checks budget for.
    """
    spec = np.fft.fftn(f.values)
    idx = np.unravel_index(int(np.argmax(np.abs(spec))), spec.shape)
    ks = [2.0 * np.pi * np.fft.fftfreq(n, d=h)[i] for n, h, i in zip(f.grid.ns, f.grid.hs, idx)]
    return np.array(ks)


def wavenumber_bins(grid: Grid) -> np.ndarray:
    """DFT bin width per axis."""
    return np.array([2.0 * np.pi / (n * h) for n, h in zip(grid.ns, grid.hs)])


class _PKernel:
    """V f - Laplacian/2 f with the Dirichlet reading, reusable on one grid.

    The kernel owns a copy of the field with two extra node layers on both
    sides of every axis, zero there; each call rewrites only its interior, so
    one kernel serves every application on a grid.  The stencil is symmetric,
    c_-2 = c_2 and c_-1 = c_1, so one multiply forms the three products
    c_0 f, c_1 f and c_2 f, and the five taps of every axis are shifted views
    of them.  The work runs in strips of rows along axis 0, each of at most
    _NODE_BUDGET nodes, so the product scratch stays small whatever the grid;
    the strips and all their views are laid out at construction.  Within a
    strip the products lie flat, padded rows end to end: a tap along axis 0
    is a shift by whole padded rows and a tap along axis 1 a shift by single
    nodes, so every sum runs over one contiguous range, the full padded width,
    and the four padded columns it also fills are never read.  Per axis the
    stencil sums c_k f(x + k h) for k = -2..2 in that order and multiplies by
    1/h^2; the axes are summed into the Laplacian before it is halved and
    subtracted from V f.  The dtype is fixed at construction; the result lives
    in the kernel's output buffer, which the next call overwrites.
    """

    def __init__(self, vvals: np.ndarray, hs, dtype):
        ns = vvals.shape
        d = len(ns)
        padded = np.zeros(tuple(n + 4 for n in ns), dtype=dtype)
        self.interior = padded[(slice(2, -2),) * d]
        self.out = np.empty(ns, dtype=dtype)
        self.coefs = _STENCIL[:3, None]  # c_0 = c_4, c_1 = c_3 and c_2
        width = math.prod(padded.shape[1:])  # one padded row, 1 on the line
        rows = min(ns[0], max(1, _NODE_BUDGET // math.prod(ns[1:])))
        prods = np.empty(3 * (rows + 4) * width, dtype=dtype)
        lap = np.empty(rows * width, dtype=dtype)
        d2 = np.empty_like(lap)  # second derivative along axis 1
        self.strips = []
        for r0 in range(0, ns[0], rows):
            m = min(rows, ns[0] - r0)
            size = m * width
            p = prods[: 3 * (m + 4) * width].reshape(3, -1)
            taps = []  # per axis: the views c_k f(x + k h), k = -2..2, and 1/h^2
            for ax, (step, base) in enumerate(((width, 0), (1, 2 * width - 2))[:d]):
                views = [p[c, base + k * step : base + k * step + size] for k, c in enumerate((0, 1, 2, 1, 0))]
                taps.append((views, 1.0 / (hs[ax] * hs[ax])))
            lap_nodes = lap[:size].reshape((m,) + padded.shape[1:])[(slice(None),) + (slice(2, -2),) * (d - 1)]
            pad = padded[r0 : r0 + m + 4].reshape(1, -1)
            rs = slice(r0, r0 + m)
            nodes = (vvals[rs], self.interior[rs], self.out[rs])
            self.strips.append((pad, p, taps, lap[:size], d2[:size], lap_nodes, *nodes))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self.interior[...] = values
        for pad, prods, taps, lap, d2, lap_nodes, v, f, out in self.strips:
            np.multiply(self.coefs, pad, out=prods)
            for ax, (views, inv_h2) in enumerate(taps):
                acc = lap if ax == 0 else d2
                np.add(views[0], views[1], out=acc)
                acc += views[2]
                acc += views[3]
                acc += views[4]
                acc *= inv_h2
                if ax > 0:
                    lap += acc
            lap *= 0.5
            np.multiply(v, f, out=out)
            out -= lap_nodes
        return self.out


def apply_P(pot: Potential, f: Field) -> Field:
    """Apply V - Laplacian/2 with Dirichlet reading outside the grid."""
    if pot.d != f.grid.d:
        raise ValueError("potential and field dimensions differ")
    mag = np.abs(f.values)
    vmax = mag.max()
    if not vmax < math.inf:
        raise ValueError("need finite field values")
    mag[(slice(2, -2),) * f.grid.d] = 0.0  # leaves the outermost two node layers
    if mag.max() > 1e-10 * vmax:
        raise ValueError("field must vanish on the outermost two node layers")
    v = pot.raw_value(f.grid.meshgrid())
    return Field(f.grid, _PKernel(v, f.grid.hs, f.values.dtype)(f.values))


def p_bands(grid: Grid, diag) -> np.ndarray:
    """-Laplacian/2 + diag on the line as a (5, n) band matrix.

    The layout is solve_banded's with (l, u) = (2, 2), ab[2 + i - j, j] =
    A[i, j]; its upper three rows are eig_banded's upper form, and its five
    rows are rows 2..6 of the (7, n) work array that LAPACK's gbtrf factors
    in place (rows 0..1 take the fill-in).  The dtype follows diag.
    """
    if grid.d != 1:
        raise ValueError("band matrix requires d = 1")
    diag = np.asarray(diag)
    h2 = grid.hs[0] ** 2
    ab = np.zeros((5, grid.ns[0]), dtype=np.result_type(diag, float))
    ab[0, :] = ab[4, :] = -0.5 * _STENCIL[0] / h2
    ab[1, :] = ab[3, :] = -0.5 * _STENCIL[1] / h2
    ab[2, :] = -0.5 * _STENCIL[2] / h2 + diag
    return ab


def _density(f: Field) -> tuple:
    """The density w |f|^2 at the nodes and its sum, ||f||^2.

    The weights are finite and > 0 and the density is >= 0, so the sum is
    finite exactly when every node is and no square overflows; a NaN or inf
    node reaches it without a floating-point warning.
    """
    vals = f.values
    with np.errstate(over="ignore"):
        dens = vals.real * vals.real
        dens += vals.imag * vals.imag
        dens *= f.grid.weights()
        total = dens.sum()
    if not total < math.inf:
        raise ValueError("need finite field values")
    return dens, total


def l2_norm(f: Field) -> float:
    return math.sqrt(_density(f)[1])


def inner(f: Field, g: Field) -> complex:
    """Trapezoid-weighted inner product, conjugate-linear in the first slot."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    for h in (f,) if g is f else (f, g):
        _require_finite("field values", h.values)
    prod = np.conj(f.values) * g.values
    prod *= f.grid.weights()
    return complex(prod.sum())


def residual_ratio(pot: Potential, f: Field, lam: float) -> float:
    """|| P f - lam^2 f || / (lam ||f||)."""
    _require_window("lam", lam)
    res = apply_P(pot, f)
    nrm = l2_norm(f)
    if nrm == 0.0:
        raise ValueError("zero field")
    res.values -= lam**2 * f.values
    return l2_norm(res) / (lam * nrm)


def _mean_under_density(f: Field, q: np.ndarray) -> float:
    """Mean of the node weight q under w |f|^2; in [0, 1] to the bit if q is."""
    dens, total = _density(f)
    if total == 0.0:
        raise ValueError("zero field")
    return float((dens * q).sum() / total)


def damping_pairing(damping, f: Field) -> float:
    """<f, b f> / ||f||^2, with b clamped at 0."""
    if damping.d != f.grid.d:
        raise ValueError("damping and field dimensions differ")
    return _mean_under_density(f, np.maximum(damping.raw_func(f.grid.meshgrid()), 0.0))


def _cell_coverage(grid: Grid, center, radius: float) -> np.ndarray:
    """Fraction of each node's cell inside the ball, for mass bookkeeping.

    1D cells are clipped exactly, in units of h, so none exceeds 1; 2D partial
    cells are resolved on a 8x8 midpoint subgrid, giving an O(h^2) quadrature.
    """
    if grid.d == 1:
        x = grid.axis(0)
        h = grid.hs[0]
        lo = np.maximum((center[0] - radius - x) / h, -0.5)
        hi = np.minimum((center[0] + radius - x) / h, 0.5)
        return np.clip(hi - lo, 0.0, None)

    x0 = grid.axis(0)[:, None]
    x1 = grid.axis(1)[None, :]
    dist = np.sqrt((x0 - center[0]) ** 2 + (x1 - center[1]) ** 2)
    half_diag = 0.5 * np.hypot(grid.hs[0], grid.hs[1])
    cover = np.zeros(grid.ns)
    cover[dist <= radius - half_diag] = 1.0
    partial = (dist > radius - half_diag) & (dist < radius + half_diag)
    if np.any(partial):
        ii, jj = np.nonzero(partial)
        sub = (np.arange(8) + 0.5) / 8.0 - 0.5
        sx = x0[ii, 0, None, None] + sub[None, :, None] * grid.hs[0]
        sy = x1[0, jj, None, None] + sub[None, None, :] * grid.hs[1]
        inside = (sx - center[0]) ** 2 + (sy - center[1]) ** 2 <= radius**2
        cover[ii, jj] = inside.mean(axis=(1, 2))
    return cover


def mass_in_ball(f: Field, center, radius: float) -> float:
    """Fraction of the squared norm carried inside a ball; radius 0 carries
    none and radius inf all of it."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (f.grid.d,) or not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must be {f.grid.d} finite coordinate(s), got {center}")
    if not radius >= 0.0:
        raise ValueError(f"need radius >= 0, got {radius}")
    if radius == 0.0:
        return 0.0
    return _mean_under_density(f, _cell_coverage(f.grid, center, radius))

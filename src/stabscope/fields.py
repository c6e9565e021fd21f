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
and dtype and keeps its zero-bordered scratch, shifted views and output
buffer, so ``apply_P`` runs it once and the time stepper runs it every step
without allocating, in real arithmetic when the data are real.
Inner products and norms use tensor trapezoid weights; the inner product is
conjugate-linear in its first slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential

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


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on the box center + [-L_i, L_i] per axis."""

    d: int
    ns: tuple
    ls: tuple
    center: tuple = field(default=None)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if len(self.ns) != self.d or len(self.ls) != self.d:
            raise ValueError("one extent and one point count per axis")
        if any(n < 8 for n in self.ns):
            raise ValueError("grid too coarse: need at least 8 points per axis")
        if not all(0.0 < L < math.inf for L in self.ls):
            raise ValueError(f"grid half-widths must be finite and > 0, got {self.ls}")
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
        """Node coordinates, shape ns + (d,)."""
        axes = [self.axis(i) for i in range(self.d)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def trapezoid_weights(self) -> list:
        ws = []
        for i in range(self.d):
            w = np.full(self.ns[i], self.hs[i])
            w[0] *= 0.5
            w[-1] *= 0.5
            ws.append(w)
        return ws


def make_grid(d: int, n, l, center=None) -> Grid:
    ns = tuple(int(v) for v in (n if np.iterable(n) else [n] * d))
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

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def check_resolution(grid: Grid, lam: float, ppw: int = 16, axes=None) -> None:
    """Enforce h <= 2*pi / (lam * ppw) on the axes carrying frequency-lam content.

    axes defaults to all of them; oscillation-free axes of a wave packet may be
    excluded by the caller and validated against the envelope scale instead.
    """
    limit = 2.0 * np.pi / (lam * ppw)
    idx = range(grid.d) if axes is None else axes
    worst = max(grid.hs[i] for i in idx)
    if worst > limit:
        raise ValueError(
            f"grid too coarse for frequency {lam:.6g}: h={worst:.3e} exceeds {limit:.3e} "
            f"({ppw} points per wavelength)"
        )


def snap_to_grid(grid: Grid, point) -> np.ndarray:
    """Coordinates of the grid node nearest to the given point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (grid.d,):
        raise ValueError(f"expected a point with {grid.d} coordinates")
    out = np.empty(grid.d)
    for i in range(grid.d):
        lo = grid.center[i] - grid.ls[i]
        idx = int(round((p[i] - lo) / grid.hs[i]))
        idx = min(max(idx, 0), grid.ns[i] - 1)
        out[i] = lo + idx * grid.hs[i]
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


def _check_boundary_clear(f: Field, layers: int = 2) -> None:
    vals = f.values
    vmax = np.max(np.abs(vals))
    if vmax == 0.0:
        return
    for ax in range(f.grid.d):
        sl_lo = [slice(None)] * f.grid.d
        sl_hi = [slice(None)] * f.grid.d
        sl_lo[ax] = slice(0, layers)
        sl_hi[ax] = slice(-layers, None)
        edge = max(np.max(np.abs(vals[tuple(sl_lo)])), np.max(np.abs(vals[tuple(sl_hi)])))
        if edge > 1e-10 * vmax:
            raise ValueError("field must vanish on the outermost two node layers")


class _PKernel:
    """V f - Laplacian/2 f with the Dirichlet reading, reusable on one grid.

    The kernel owns a scratch with two extra node layers on both sides of
    every axis, zero there; each call rewrites only its interior, so one
    kernel serves every application on a grid.  The five shifted views per
    axis are taken once.  Per axis the stencil sums c_k * f(x + k h) for
    k = -2..2 in that order and multiplies by 1/h^2; the axes are summed into
    the Laplacian before it is halved and subtracted.  The dtype is fixed at
    construction; the result lives in the kernel's output buffer, which the
    next call overwrites.
    """

    def __init__(self, vvals: np.ndarray, hs, dtype):
        ns = vvals.shape
        self.vvals = vvals
        self.pad = np.zeros(tuple(n + 4 for n in ns), dtype=dtype)
        interior = (slice(2, -2),) * len(ns)
        self.interior = self.pad[interior]
        self.axes = []  # per axis: the shifted views f(x + k h), k = -2..2, and 1/h^2
        for ax, h in enumerate(hs):
            views = []
            for k in range(5):
                shifted = list(interior)
                shifted[ax] = slice(k, k + ns[ax])
                views.append(self.pad[tuple(shifted)])
            self.axes.append((views, 1.0 / (h * h)))
        self.lap = np.empty(ns, dtype=dtype)
        self.d2 = np.empty(ns, dtype=dtype)  # second derivative along axes after the first
        self.out = np.empty(ns, dtype=dtype)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self.interior[...] = values
        term = self.out  # scratch until the final product
        for ax, (views, inv_h2) in enumerate(self.axes):
            d2 = self.lap if ax == 0 else self.d2
            np.multiply(_STENCIL[0], views[0], out=d2)
            for c, view in zip(_STENCIL[1:], views[1:]):
                np.multiply(c, view, out=term)
                d2 += term
            d2 *= inv_h2
            if ax > 0:
                self.lap += d2
        self.lap *= 0.5
        np.multiply(self.vvals, values, out=self.out)
        self.out -= self.lap
        return self.out


def apply_P(pot: Potential, f: Field) -> Field:
    """Apply V - Laplacian/2 with Dirichlet reading outside the grid."""
    if pot.d != f.grid.d:
        raise ValueError("potential and field dimensions differ")
    _check_boundary_clear(f)
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


def l2_norm(f: Field) -> float:
    return float(np.sqrt(inner(f, f).real))


def inner(f: Field, g: Field) -> complex:
    """Trapezoid-weighted inner product, conjugate-linear in the first slot."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    ws = f.grid.trapezoid_weights()
    prod = np.conj(f.values) * g.values
    if f.grid.d == 1:
        return complex(np.dot(ws[0], prod))
    return complex(ws[0] @ prod @ ws[1])


def residual_ratio(pot: Potential, f: Field, lam: float) -> float:
    """|| P f - lam^2 f || / (lam ||f||)."""
    if lam <= 0.0:
        raise ValueError("need lam > 0")
    nrm = l2_norm(f)
    if nrm == 0.0:
        raise ValueError("zero field")
    res = apply_P(pot, f)
    res.values -= lam**2 * f.values
    return l2_norm(res) / (lam * nrm)


def damping_pairing(damping, f: Field) -> float:
    """<f, b f> / ||f||^2 for a nonnegative damping coefficient."""
    b = damping.raw_func(f.grid.meshgrid())
    weighted = Field(f.grid, np.sqrt(np.maximum(b, 0.0)) * f.values)
    n2 = inner(f, f).real
    if n2 == 0.0:
        raise ValueError("zero field")
    return float(inner(weighted, weighted).real / n2)


def _cell_coverage(grid: Grid, center, radius: float) -> np.ndarray:
    """Fraction of each node's cell inside the ball, for mass bookkeeping.

    1D cells are clipped exactly; 2D partial cells are resolved on a 8x8
    midpoint subgrid, giving an O(h^2) quadrature overall.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if grid.d == 1:
        x = grid.axis(0)
        h = grid.hs[0]
        lo = np.maximum(x - 0.5 * h, center[0] - radius)
        hi = np.minimum(x + 0.5 * h, center[0] + radius)
        return np.clip(hi - lo, 0.0, None) / h

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
    """Fraction of the squared norm carried inside a ball."""
    if radius < 0.0:
        raise ValueError("need radius >= 0")
    if radius == 0.0:
        return 0.0
    cover = _cell_coverage(f.grid, center, radius)
    cell = np.prod(f.grid.hs)
    inside = float(np.sum(cover * np.abs(f.values) ** 2) * cell)
    total = inner(f, f).real
    if total == 0.0:
        raise ValueError("zero field")
    return inside / total

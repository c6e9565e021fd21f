"""Gridded complex fields and the discretized operator V - Laplacian/2.

Grids are uniform tensor products, one extent per axis, optionally centered
away from the origin so that bumps localized far out in the potential can be
resolved on a small local patch instead of a gigantic global box.  Fields of
interest are compactly supported: they must vanish on the outermost two node
layers, which is what makes the Dirichlet reading of the stencil exact.

The Laplacian uses the standard 4th-order central stencil per axis,
(-1/12, 4/3, -5/2, 4/3, -1/12) / h^2.  This module is the one place that
stencil lives: the strip stencil ``_Stencil``, its whole-grid kernel
``_PKernel`` and the 1D band matrix ``p_bands`` (resolvent scans and
spectra).  Work on a field runs one strip of rows along axis 0 at a time,
each of at most _NODE_BUDGET nodes (``_row_strips``): the stencil forms
P f on a strip from its rows and two halo rows on each side in strip-sized
buffers that it reuses, and V, b and the ball coverage are read per strip
from the grid axes, so no node mesh and no full-size temporary is made.
The time stepper runs its kernel every step without allocating, in real
arithmetic when the data are real.  Every buffer the stepper writes on each
step, and the strip buffer that takes P f for ``apply_P`` and
``residual_ratio``, comes from ``_aligned`` and starts a 64-byte line; the
stencil's product rows are padded to whole lines with their first interior
node on a line.  numpy's AVX-512 loops store 64 bytes at a time without
first stepping to a line boundary, so from a buffer that starts 16 to 48
bytes past a line, as ``np.empty`` places them, every store splits two
lines: on an AVX-512 x86-64 core a multiply of 9409 doubles takes 5.2 us
into such a buffer and 2.7 us into an aligned one, wherever its inputs
start.  Fields must be finite; every reader names a NaN or inf instead of
spreading it.  Field integrals share one rule, the trapezoid weights w of
``Grid.weights`` summed pairwise without BLAS, one ``.sum()`` over a whole
contiguous buffer.  The one quadratic form is the density w |f|^2, filled
a strip at a time into one float buffer: its sum is ||f||^2, and the
damping pairing and the ball mass are means under it.  Its sum is finite
exactly when every node is, so the functionals read the point rule off it,
and the stencil's input check reads it off max |f|, the scale against
which the outermost layers are checked; only the cross product ``inner``
(conjugate-linear in its first slot) checks its fields first.
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
_LINE = 64  # bytes in a cache line, and in one AVX-512 store


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
        return self._row_mesh(slice(None))

    def weights(self) -> np.ndarray:
        """Tensor trapezoid weights, shape ns."""
        return self._row_weights(slice(None))

    def _row_axes(self, rows: slice) -> list:
        """The axes with axis 0 cut to rows, as open-grid broadcasts."""
        axes = [self.axis(0)[rows]] + [self.axis(i) for i in range(1, self.d)]
        return [a.reshape([-1 if j == i else 1 for j in range(self.d)]) for i, a in enumerate(axes)]

    def _row_mesh(self, rows: slice) -> np.ndarray:
        """meshgrid() on the rows along axis 0 only, with its bits and layout."""
        axes = self._row_axes(rows)
        mesh = np.empty((self.d, *np.broadcast_shapes(*(a.shape for a in axes))))
        for i, a in enumerate(axes):
            mesh[i] = a
        return np.moveaxis(mesh, 0, -1)

    def _row_weights(self, rows: slice) -> np.ndarray:
        """weights() on the rows along axis 0 only, with its bits."""
        ws = [np.full(n, h) for n, h in zip(self.ns, self.hs)]
        for w in ws:
            w[[0, -1]] *= 0.5
        ws[0] = ws[0][rows]
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


def _aligned(shape, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array whose first element starts a cache line.

    The array views a uint8 buffer one line longer than it needs, from the
    first byte of that buffer on a 64-byte boundary; the tail of the buffer
    past that byte is never empty, so an empty array starts there too.
    """
    dtype = np.dtype(dtype)
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _LINE, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % _LINE
    return raw[start:][:nbytes].view(dtype).reshape(shape)


def _line_pad(n: int, dtype) -> int:
    """n rounded up to whole cache lines of dtype's elements."""
    per_line = _LINE // np.dtype(dtype).itemsize
    return -(-n // per_line) * per_line


def _row_strips(ns) -> list:
    """The rows along axis 0 cut into strips of at most _NODE_BUDGET nodes,
    and at least one row, as slices; only the last strip may be shorter."""
    rows = min(ns[0], max(1, _NODE_BUDGET // math.prod(ns[1:])))
    return [slice(r0, min(r0 + rows, ns[0])) for r0 in range(0, ns[0], rows)]


class _Stencil:
    """V f - Laplacian/2 f with the Dirichlet reading, one strip of rows at a time.

    The strips are ``_row_strips``; they share one set of strip-sized
    buffers, laid out with all their views at construction, so the scratch
    stays small whatever the grid and nothing of the field's size is copied.
    The stencil is symmetric, c_-2 = c_2 and c_-1 = c_1, so one multiply forms
    the three products c_0 f, c_1 f and c_2 f on a strip's rows and its two
    halo rows on each side, and the five taps of every axis are shifted views
    of them.  The product buffer ``prods`` has two extra node layers on both
    sides of every axis, and its last axis is padded on to whole cache lines
    (8 real or 4 complex nodes); the padding, and halo rows past the ends of
    the grid, hold c_k * 0, the products of the Dirichlet zeros, with their
    signs.  The products lie flat, padded rows end to end: a tap along axis 0
    is a shift by whole padded rows and a tap along axis 1 a shift by single
    nodes, so every sum runs over one contiguous range, the full padded
    width, and the padded columns it also fills are never read.  The two sum
    buffers start a cache line, and ``prods`` is placed so that interior
    column 2 of every row (node 2 of each product on the line) does: each
    row the multiply stores then starts on a line, as each sum does, and
    numpy's 64-byte vector stores do not split two lines (see the module
    notes).  Per axis the stencil sums c_k f(x + k h) for k = -2..2 in that
    order and multiplies by 1/h^2; the axes are summed into the Laplacian
    before it is halved and subtracted from V f.  The dtype is fixed at
    construction.
    """

    def __init__(self, ns, hs, dtype):
        d = len(ns)
        self.rows = _row_strips(ns)
        full = self.rows[0].stop  # rows of a full strip
        shape = [full + 4] + [n + 4 for n in ns[1:]]  # a full strip's products with their halos
        shape[-1] = _line_pad(shape[-1], dtype)
        row_shape = tuple(shape[1:])  # one padded row, () on the line
        width = math.prod(row_shape)
        self.coefs = _STENCIL[:3].reshape((3,) + (1,) * d)  # c_0 = c_4, c_1 = c_3 and c_2
        self.zeros = np.multiply(self.coefs, np.zeros((), dtype=dtype))
        lead = _line_pad(2, dtype) - 2  # nodes ahead of prods, so that its column 2 starts a line
        self.prods = prods = _aligned(lead + 3 * math.prod(shape), dtype)[lead:].reshape([3] + shape)
        prods[...] = self.zeros
        flat = prods.reshape(3, -1)
        lap = _aligned(full * width, dtype)
        d2 = _aligned(full * width, dtype)  # second derivative along axis 1
        cols = tuple(slice(2, n + 2) for n in ns[1:])
        self.strips = []
        for rs in self.rows:
            m = rs.stop - rs.start
            size = m * width
            lo, hi = max(rs.start - 2, 0), min(rs.stop + 2, ns[0])  # the rows read, halos included
            a, b = lo - rs.start + 2, hi - rs.start + 2  # and where their products go
            p = flat[:, : (m + 4) * width]
            taps = []  # per axis: the views c_k f(x + k h), k = -2..2, and 1/h^2
            for ax, (step, base) in enumerate(((width, 0), (1, 2 * width - 2))[:d]):
                views = [p[c, base + k * step : base + k * step + size] for k, c in enumerate((0, 1, 2, 1, 0))]
                taps.append((views, 1.0 / (hs[ax] * hs[ax])))
            # halo rows past the grid, which another strip's rows overwrite
            blanks = [prods[:, i:j] for i, j in ((0, a), (b, m + 4)) if i < j and len(self.rows) > 1]
            lap_nodes = lap[:size].reshape((m,) + row_shape)[(slice(None),) + cols]
            dst = prods[(slice(None), slice(a, b)) + cols]
            self.strips.append((rs, slice(lo, hi), dst, blanks, taps, lap[:size], d2[:size], lap_nodes))

    def apply(self, k: int, values: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """P values on the rows of strip k into out, their shape; v is V on those rows."""
        rs, src, dst, blanks, taps, lap, d2, lap_nodes = self.strips[k]
        for blank in blanks:
            blank[...] = self.zeros
        np.multiply(self.coefs, values[src], out=dst)
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
        np.multiply(v, values[rs], out=out)
        out -= lap_nodes
        return out


class _PKernel(_Stencil):
    """The stencil on the whole grid of a fixed V, reusable: the time stepper's.

    V's rows and the output buffer's are laid out per strip at construction,
    so a call allocates nothing; the result lives in the output buffer, which
    the next call overwrites.
    """

    def __init__(self, vvals: np.ndarray, hs, dtype):
        super().__init__(vvals.shape, hs, dtype)
        self.out = _aligned(vvals.shape, dtype)
        self.parts = [(k, vvals[rs], self.out[rs]) for k, rs in enumerate(self.rows)]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        for k, v, out in self.parts:
            self.apply(k, values, v, out)
        return self.out


def _require_dirichlet(pot: Potential, f: Field) -> None:
    """What the stencil needs of f: its potential's dimension, finite values,
    and none of its mass on the outermost two node layers."""
    if pot.d != f.grid.d:
        raise ValueError("potential and field dimensions differ")
    vmax = 0.0
    for rs in _row_strips(f.grid.ns):
        top = np.abs(f.values[rs]).max()
        if not top < math.inf:
            raise ValueError("need finite field values")
        vmax = max(vmax, top)
    edge = max(np.abs(np.take(f.values, [0, 1, -2, -1], axis=ax)).max() for ax in range(f.grid.d))
    if edge > 1e-10 * vmax:
        raise ValueError("field must vanish on the outermost two node layers")


def _p_rows(pot: Potential, f: Field):
    """(rows, P f on those rows) for each strip, in one reused strip buffer."""
    grid = f.grid
    stencil = _Stencil(grid.ns, grid.hs, f.values.dtype)
    buf = _aligned((stencil.rows[0].stop,) + grid.ns[1:], f.values.dtype)
    for k, rs in enumerate(stencil.rows):
        v = pot.raw_value(grid._row_mesh(rs))
        yield rs, stencil.apply(k, f.values, v, buf[: rs.stop - rs.start])


def apply_P(pot: Potential, f: Field) -> Field:
    """Apply V - Laplacian/2 with Dirichlet reading outside the grid."""
    _require_dirichlet(pot, f)
    out = np.empty(f.grid.ns, dtype=f.values.dtype)
    for rs, pf in _p_rows(pot, f):
        out[rs] = pf
    return Field(f.grid, out)


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


def _density(f: Field, out: np.ndarray | None = None, parts=None) -> tuple:
    """The density w |f|^2 at the nodes and its sum, ||f||^2.

    The density is filled into out (a new float buffer by default) one strip
    of rows at a time, from parts: (rows, values on those rows) pairs, by
    default f's own.  The weights are finite and > 0 and the density is >= 0,
    so the sum is finite exactly when every node is and no square overflows;
    a NaN or inf node reaches it without a floating-point warning.
    """
    grid = f.grid
    dens = np.empty(grid.ns) if out is None else out
    if parts is None:
        parts = ((rs, f.values[rs]) for rs in _row_strips(grid.ns))
    with np.errstate(over="ignore"):
        for rs, vals in parts:
            part = dens[rs]
            np.multiply(vals.real, vals.real, out=part)
            part += vals.imag * vals.imag
            part *= grid._row_weights(rs)
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
    return _residual_ratio(pot, f, lam)


def _residual_ratio(pot: Potential, f: Field, lam: float, density: tuple | None = None) -> float:
    """residual_ratio, given f's density and its sum, or computing them.  The
    residual's density takes the density's buffer, one strip of P f - lam^2 f
    at a time, so no full-size P f is made."""
    _require_window("lam", lam)
    _require_dirichlet(pot, f)
    dens, total = _density(f) if density is None else density
    if total == 0.0:
        raise ValueError("zero field")

    def residual_rows():
        for rs, res in _p_rows(pot, f):
            res -= lam**2 * f.values[rs]
            yield rs, res

    _, res_total = _density(f, dens, residual_rows())
    return math.sqrt(res_total) / (lam * math.sqrt(total))


def _mean_under_density(density: tuple, q, out: np.ndarray | None) -> float:
    """Mean of a node weight under the density w |f|^2 with sum total; q(rows)
    gives the weight on a strip of rows, and the products fill out (a new
    float buffer when None).  In [0, 1] to the bit if the weight is."""
    dens, total = density
    if total == 0.0:
        raise ValueError("zero field")
    prod = np.empty_like(dens) if out is None else out
    for rs in _row_strips(dens.shape):
        np.multiply(dens[rs], q(rs), out=prod[rs])
    return float(prod.sum() / total)


def damping_pairing(damping, f: Field) -> float:
    """<f, b f> / ||f||^2, with b clamped at 0."""
    return _damping_pairing(damping, f)


def _damping_pairing(damping, f: Field, density: tuple | None = None, out: np.ndarray | None = None) -> float:
    """damping_pairing, given f's density and its sum, or computing them;
    out is scratch of the grid's shape, a new buffer when None."""
    if damping.d != f.grid.d:
        raise ValueError("damping and field dimensions differ")
    grid = f.grid
    density = _density(f) if density is None else density
    return _mean_under_density(density, lambda rs: np.maximum(damping.raw_func(grid._row_mesh(rs)), 0.0), out)


def _cell_coverage(grid: Grid, rows: slice, center, radius: float) -> np.ndarray:
    """Fraction of each node's cell inside the ball, on the rows along axis 0,
    for mass bookkeeping.

    1D cells are clipped exactly, in units of h, so none exceeds 1; 2D partial
    cells are resolved on a 8x8 midpoint subgrid, giving an O(h^2) quadrature.
    """
    if grid.d == 1:
        x = grid.axis(0)[rows]
        h = grid.hs[0]
        lo = np.maximum((center[0] - radius - x) / h, -0.5)
        hi = np.minimum((center[0] + radius - x) / h, 0.5)
        return np.clip(hi - lo, 0.0, None)

    x0, x1 = grid._row_axes(rows)
    dist = np.sqrt((x0 - center[0]) ** 2 + (x1 - center[1]) ** 2)
    half_diag = 0.5 * np.hypot(grid.hs[0], grid.hs[1])
    cover = np.zeros(dist.shape)
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
    return _mass_in_ball(f, center, radius)


def _mass_in_ball(f: Field, center, radius: float, density: tuple | None = None, out: np.ndarray | None = None) -> float:
    """mass_in_ball, given f's density and its sum, or computing them; out is
    scratch of the grid's shape, a new buffer when None."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (f.grid.d,) or not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must be {f.grid.d} finite coordinate(s), got {center}")
    if not radius >= 0.0:
        raise ValueError(f"need radius >= 0, got {radius}")
    if radius == 0.0:
        return 0.0
    density = _density(f) if density is None else density
    return _mean_under_density(density, lambda rs: _cell_coverage(f.grid, rs, center, radius), out)

"""Damped-wave time integration and the stationary frequency-side criteria.

The stepper is a leapfrog with the damping handled semi-implicitly, so the
update stays explicit in the elliptic part while remaining stable for
indicator-sized coefficients.  Energy and dissipation traces feed a
log-linear decay fit; the frequency side offers a banded resolvent scan and
a companion-matrix spectrum on the line, both built from the same stencil
as the time stepper so the two views are directly comparable.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .damping import Damping
from .fields import (
    _NODE_BUDGET,
    POINTS_PER_WAVELENGTH,
    Field,
    Grid,
    _aligned,
    _line_pad,
    _PKernel,
    check_resolution,
    make_grid,
    p_bands,
)
from .potentials import Potential, _equal_steps, _require_count, _require_finite, _require_window, sublevel_radius

log = logging.getLogger(__name__)

RESOLVENT_CERT_RTOL = 1e-6
LANCZOS_RTOL = 1e-13

# scipy.linalg costs about half of a CLI start, and only the resolvent and
# spectrum layers use it, so its band routines are bound onto this module on
# first use.  They stay module attributes: the benchmark tracer and the tests
# read and patch them here, and solve_banded is bound for the tracer alone.
# The last four are raw LAPACK: the banded LU and its solves, and the
# tridiagonal eigenpair of the Lanczos loop.
_LAPACK_ROUTINES = ("zgbtrf", "zgbtrs", "dstebz", "dstein")
_BAND_ROUTINES = ("cholesky_banded", "eig_banded", "solve_banded") + _LAPACK_ROUTINES


def _bind_band_routines() -> None:
    """Bind the scipy band routines as module globals, keeping any patched in earlier."""
    import scipy.linalg
    import scipy.linalg.lapack

    for name in _BAND_ROUTINES:
        source = scipy.linalg.lapack if name in _LAPACK_ROUTINES else scipy.linalg
        globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if name in _BAND_ROUTINES:
        _bind_band_routines()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class WaveState:
    """Displacement and velocity on a shared grid."""

    u: Field
    v: Field
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("displacement and velocity live on different grids")


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled energy E and dissipation D = <v, b v> along a run."""

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    dt: float
    balance_coefficient: float


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit E ~ C exp(-t/tau) over the stated window."""

    C: float
    tau: float
    rms: float
    window: tuple
    flags: tuple


def cfl_limit(pot: Potential, grid: Grid) -> float:
    """Largest admissible dt: 0.5 h / sqrt(1 + max V on the grid).

    V = phi(sum_i w2_i x_i^2) with phi increasing, so the maximum over the
    nodes is V at the node farthest out on every axis; no node mesh is built.
    """
    far = [np.abs(grid.axis(i)[[0, -1]]).max() for i in range(grid.d)]
    vmax = float(pot.raw_value(np.array([far]))[0])
    return 0.5 * min(grid.hs) / math.sqrt(1.0 + vmax)


def evolve(
    pot: Potential,
    b: Damping,
    state: WaveState,
    T_final: float,
    dt: float,
    *,
    record_every: int = 1,
) -> EnergyTrace:
    """March the damped wave equation and record (t, E, D).

    Leapfrog in the elliptic part; the damping enters through the centered
    velocity, so the update is u_next = A u + C u_prev - B P u, in that
    order, with the node arrays A = 2 / (1 + dt b/2), B = dt^2 / (1 + dt b/2)
    and C = (dt b/2 - 1) / (1 + dt b/2), each formed once by one division.
    The steps follow flow_integrate's rule (``potentials._equal_steps``):
    T_final / dt steps of dt when that is whole to 1e-9 relative, else
    n = ceil(T_final / dt) equal steps of T_final / n, the dt the trace
    reports, so the last sample lies at T_final.  Raises on non-finite initial data and on
    a CFL violation up front, and raises RuntimeError, without a
    floating-point warning, once an E or a D of the run is not finite, as
    when finite data overflow the energy.  The recorded E is not the
    quantity the scheme dissipates: it can rise by O(dt^2) where b misses
    the wave.

    The arithmetic follows the data: real when u and v have zero imaginary
    part, complex otherwise.  The three iterates live in the stencil
    kernel's padded layout (``fields._PKernel``), and the update and P u run
    over its one contiguous range, halo and pad nodes included; A, B and C
    are zero there, so the halo that the stencil reads stays zero.  Each
    step runs in preallocated buffers, each starting a cache line, and
    divides by 2 dt through its reciprocal, which is what complex division
    by a divisor with zero imaginary part computes, so a real run records
    the bits a complex run of the same data would.

    The energy bookkeeping runs by blocks of steps, in two block buffers of
    at most _NODE_BUDGET nodes whose rows are laid out like the kernel's
    range and padded to whole cache lines.  Each step writes u P u (Re of
    conj(u) P u for complex data) into a row of one, and u_next - u_prev
    (|v| of the centred velocity v for complex data) into a row of the
    other, over the whole range.  Once per block, real data's rows are
    scaled to v, the velocity rows are squared, the rows are weighted by w
    and by w b, laid out over the range with zeros at the halo and pad
    nodes, and each row is summed on its own: numpy's pairwise sum over the
    padded row, which on the line is the node row; the block's E and D must
    be finite.  E = (<u, P u> + ||v||^2) / 2 and D = <v, b v> of every step
    then give the balance coefficient, the largest
    |E_n - E_{n-1} + dt (D_n + D_{n-1}) / 2| / (dt (E_{n-1} + 1)) with NaN ignored,
    and the recorded samples, in one vectorized pass after the run.
    """
    grid = state.u.grid
    if pot.d != grid.d or b.d != grid.d:
        raise ValueError("potential, damping, and state dimensions differ")
    _require_window("T_final", T_final)
    _require_window("dt", dt)
    if T_final < dt:
        raise ValueError("need dt <= T_final")
    record_every = _require_count("record_every", record_every)
    u0 = _require_finite("state.u", state.u.values)
    v0 = _require_finite("state.v", state.v.values)
    limit = cfl_limit(pot, grid)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt violates the CFL bound: dt={dt:.6g} > {limit:.6g}")

    n_steps, dt = _equal_steps(T_final, dt)
    mesh = grid.meshgrid()
    vvals = pot.raw_value(mesh)
    bvals = b.raw_func(mesh)
    half_b = 0.5 * dt * bvals
    denom = 1.0 + half_b
    inv_2dt = 1.0 / (2.0 * dt)

    real = not (np.any(u0.imag) or np.any(v0.imag))
    dtype = float if real else complex
    if real:
        u0, v0 = u0.real, v0.real
    kernel = _PKernel(vvals, grid.hs, dtype)
    # u_next = A u_curr + C u_prev - B P u_curr over the kernel's range, with
    # zeros at its halo and pad nodes, which so stay zero; w and w b too
    coef_a, coef_b, coef_c = (kernel.spread(c) for c in (2.0 / denom, dt * dt / denom, (half_b - 1.0) / denom))
    w = kernel.spread(grid.weights(), float)
    wb = kernel.spread(bvals, float)
    wb *= w
    size = kernel.size
    work = _aligned(size, dtype)  # a term of the update, or conj(u) P u
    bufs = [kernel.field() for _ in range(3)]
    prev, curr, nxt = ((buf, kernel.span(buf)) for buf in bufs)  # u_prev, u_curr and u_next: (buffer, range)
    kernel.nodes(prev[1])[...] = u0
    v = None if real else _aligned(size, dtype)  # complex data's velocity

    block = min(n_steps + 1, max(1, _NODE_BUDGET // size))
    quad = _aligned((block, _line_pad(size, float)), float)[:, :size]  # u P u per step, then weighted
    speed = _aligned((block, _line_pad(size, float)), float)[:, :size]  # u_next - u_prev or |v|, then v^2
    energies = np.empty((2, n_steps + 1))
    E, D = energies

    def flush(n):
        # sum the rows of the block that ends with step n
        k = n % block + 1
        rows = slice(n + 1 - k, n + 1)
        q, v2 = quad[:k], speed[:k]
        if real:
            v2[int(rows.start == 0) :] *= inv_2dt  # step 0's row holds v itself
        q *= w
        quad_sums = q.sum(axis=1)
        np.multiply(v2, v2, out=v2)
        np.multiply(v2, w, out=q)
        E[rows] = 0.5 * (quad_sums + q.sum(axis=1))
        np.multiply(v2, wb, out=q)
        D[rows] = q.sum(axis=1)
        finite = np.isfinite(energies[:, rows]).all(axis=0)
        if not finite.all():
            first = rows.start + int(np.argmin(finite))
            raise RuntimeError(f"time integration produced a non-finite energy at t={first * dt:.6g}")

    start = time.perf_counter()
    # finite data may overflow the energy: its check raises, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pu = kernel(prev[0])
        if real:
            np.multiply(prev[1], pu, out=quad[0])
        else:
            np.multiply(np.conjugate(prev[1], out=work), pu, out=work)
            np.copyto(quad[0], work.real)
        speed[0] = 0.0
        kernel.nodes(speed[0])[...] = v0 if real else np.abs(v0)
        if block == 1:  # a block of one step
            flush(0)
        kernel.nodes(curr[1])[...] = u0 + dt * v0 + 0.5 * dt * dt * (-kernel.nodes(pu) - bvals * v0)

        for n in range(1, n_steps + 1):
            j = n % block
            u, u_prev, u_next = curr[1], prev[1], nxt[1]
            pu = kernel(curr[0])
            if real:
                np.multiply(u, pu, out=quad[j])
            else:
                np.multiply(np.conjugate(u, out=work), pu, out=work)
                np.copyto(quad[j], work.real)
            np.multiply(coef_a, u, out=u_next)
            np.multiply(coef_c, u_prev, out=work)
            u_next += work
            np.multiply(coef_b, pu, out=work)
            u_next -= work
            if real:
                np.subtract(u_next, u_prev, out=speed[j])
            else:
                np.subtract(u_next, u_prev, out=v)
                v *= inv_2dt
                np.abs(v, out=speed[j])
            if j == block - 1 or n == n_steps:
                flush(n)
            prev, curr, nxt = curr, nxt, prev

        # float semantics: inf - inf, possible only for E and D near the float range, is a NaN to skip
        defect = np.abs(E[1:] - E[:-1] + dt * 0.5 * (D[1:] + D[:-1]))
        balance = float(np.fmax.reduce(defect / (dt * (E[:-1] + 1.0)), initial=0.0))
    steps = np.arange(0, n_steps + 1, record_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    t = state.t + steps * dt
    t[0] = state.t
    elapsed = time.perf_counter() - start
    log.info(
        "evolve: %d steps on %d nodes in %s arithmetic, %.3g node-steps/s; "
        "%d samples, balance coefficient %.3e",
        n_steps,
        u0.size,
        "real" if real else "complex",
        n_steps * u0.size / elapsed if elapsed > 0.0 else math.inf,
        len(t),
        balance,
    )
    return EnergyTrace(t=t, E=E[steps], D=D[steps], dt=dt, balance_coefficient=balance)


def energy_balance_defect(trace: EnergyTrace) -> float:
    """|E(T) - E(0) + integral of D| on the recorded samples."""
    return float(abs(trace.E[-1] - trace.E[0] + np.trapezoid(trace.D, trace.t)))


def decay_fit(trace: EnergyTrace) -> DecayFit:
    """Least squares on log E over the window after the initial transient.

    The first 10% of samples are excluded; samples at or below the round-off
    floor truncate the window (flag "floor_truncated"); a slope above -1e-12
    flags "no_decay" and reports an infinite time constant.
    """
    n = len(trace.t)
    start = max(1, int(math.ceil(0.1 * n)))
    t = trace.t[start:]
    e = trace.E[start:]
    flags = []
    floor = float(np.max(trace.E)) * 1e-25
    bad = np.nonzero(e <= floor)[0]
    if bad.size:
        t, e = t[: bad[0]], e[: bad[0]]
        flags.append("floor_truncated")
    if len(t) < 2:
        raise ValueError("decay fit window has fewer than two usable samples")
    loge = np.log(e)
    slope, intercept = np.polyfit(t, loge, 1)
    rms = float(np.sqrt(np.mean((loge - (slope * t + intercept)) ** 2)))
    if slope >= -1e-12:
        flags.append("no_decay")
        tau = math.inf
    else:
        tau = -1.0 / slope
    return DecayFit(
        C=float(np.exp(intercept)),
        tau=float(tau),
        rms=rms,
        window=(float(t[0]), float(t[-1])),
        flags=tuple(flags),
    )


def quasimode_probe(pot: Potential, b: Damping, f: Field, lam: float, T_final: float, dt: float | None = None):
    """Evolve (f, i lam f) and fit the energy decay.

    The window is the caller's choice; the packet's own coherence scale is
    of order 1/lam, which is the regime where an asymptotically undamped
    packet shows its slow decay.
    """
    _require_window("T_final", T_final)
    check_resolution(f.grid, lam)
    if dt is None:
        dt = 0.5 * cfl_limit(pot, f.grid)
    _require_window("dt", dt)
    n_steps = max(int(round(T_final / dt)), 40)
    dt = T_final / n_steps
    state = WaveState(f, Field(f.grid, 1j * lam * f.values), 0.0)
    stride = max(1, n_steps // 2000)
    trace = evolve(pot, b, state, T_final, dt, record_every=stride)
    return trace, decay_fit(trace)


@dataclass(frozen=True)
class ResolventScan:
    """lam / sigma_min along a frequency grid, with per-entry certificate flags
    and the number of Lanczos matvecs each sigma_min took."""

    lambdas: np.ndarray
    sigma_min: np.ndarray
    ratio: np.ndarray
    flags: tuple
    grid: Grid
    matvecs: tuple


def resolvent_grid(pot: Potential, lam_max: float) -> Grid:
    """Dirichlet box at sublevel_radius(4 lam_max^2), carrier-resolved."""
    _require_window("lam_max", lam_max)
    L = sublevel_radius(pot, 4.0 * lam_max**2)
    h = 2.0 * np.pi / (POINTS_PER_WAVELENGTH * lam_max)
    n = int(math.ceil(2.0 * L / h)) + 1
    return make_grid(1, n, L)


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> = sum of conj(a) b, summed pairwise by numpy and never through BLAS."""
    return complex((np.conj(a) * b).sum())


def _top_ritz(d: np.ndarray, e: np.ndarray) -> tuple:
    """Top eigenvalue of the symmetric tridiagonal T with diagonal d and
    off-diagonal e, and the last entry of its unit eigenvector.

    This is eigh_tridiagonal's select="i" path for the top index without its
    per-call checks: dstebz bisects for the eigenvalue (absolute tolerance 0,
    block order), dstein finds its eigenvector by inverse iteration, and a
    1 x 1 T is its own answer.  Nonzero LAPACK info raises LinAlgError.
    """
    k = d.size
    if k == 1:
        return float(d[0]), 1.0
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        z, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
    return float(w[0]), float(z[-1, 0])


def _lanczos_top(matvec, v0: np.ndarray):
    """Top eigenvalue of a Hermitian positive definite operator, and the matvecs it took.

    The plain three-term Lanczos recurrence from v0, without
    reorthogonalization; every inner product is _dot, so the bits do not
    depend on the BLAS thread count.  After step k, _top_ritz gives the top
    Ritz pair (theta, s) of the tridiagonal T_k, and the loop stops once the
    residual estimate beta_k |s_k| <= LANCZOS_RTOL theta, which beta_k = 0
    (an invariant subspace) meets since theta > 0, or at k = n.  A NaN or inf
    alpha_k or beta_k raises ValueError.
    """
    n = v0.size
    q = v0 / math.sqrt(_dot(v0, v0).real)
    q_prev = np.zeros_like(q)
    alphas, betas = np.empty(n), np.empty(n)  # the diagonal and off-diagonal of T_n
    beta = 0.0
    for k in range(1, n + 1):
        w = matvec(q)
        w -= beta * q_prev
        alpha = _dot(q, w).real
        w -= alpha * q
        beta = math.sqrt(_dot(w, w).real)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("Lanczos tridiagonal must not contain infs or NaNs")
        alphas[k - 1] = alpha
        theta, s = _top_ritz(alphas[:k], betas[: k - 1])
        if beta * abs(s) <= LANCZOS_RTOL * theta or k == n:
            return theta, k
        betas[k - 1] = beta
        q_prev, q = q, w / beta


def _sigma_min(ab: np.ndarray, matvecs: list | None = None):
    """Smallest singular value of the banded A, certified from below.

    _lanczos_top finds the top eigenvalue mu of (A*A)^-1.  A is LU-factored
    once (zgbtrf, partial pivoting); each matvec is two zgbtrs solves, first
    with the conjugated factors, which are the LU of A* = conj(A) (A is
    complex symmetric) under the same pivots, then with the factors of A.
    These are the solves solve_banded's zgbsv would make, bit for bit; an
    exactly singular A raises LinAlgError as it does.  The seeded random
    complex start sees modes of both parities.  In exact arithmetic a Ritz
    value never exceeds the top eigenvalue; without reorthogonalization that
    holds only up to rounding, so sigma = mu^-1/2 >= sigma_min is not proven
    by the loop.  The certificate carries the proven side: a Cholesky
    factorization of A*A - ((1 - RESOLVENT_CERT_RTOL) sigma)^2 proves
    sigma_min > (1 - RESOLVENT_CERT_RTOL) sigma (flag "ok"), and a failed
    factorization, as after a loop that stopped short of the top, flags
    "failed".  A proven upper bracket on sigma_min is left to a later check.
    The number of matvecs is appended to matvecs when given.
    """
    _bind_band_routines()
    n = ab.shape[1]
    work = np.zeros((7, n), dtype=complex, order="F")  # zgbtrf's layout: two fill-in rows above ab
    work[2:] = np.asarray_chkfinite(ab)  # a NaN or inf band raises ValueError, as in solve_banded
    lu, piv, info = zgbtrf(work, 2, 2, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    luh = np.conj(lu)

    def apply_inverse(v):
        w = zgbtrs(luh, 2, 2, v, piv)[0]
        return zgbtrs(lu, 2, 2, w, piv, overwrite_b=1)[0]

    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mu, count = _lanczos_top(apply_inverse, v0)
    sigma = 1.0 / math.sqrt(mu)
    if matvecs is not None:
        matvecs.append(count)

    shifted = _normal_bands(ab)
    shifted[4, :] -= ((1.0 - RESOLVENT_CERT_RTOL) * sigma) ** 2
    try:
        cholesky_banded(shifted, lower=False)
    except np.linalg.LinAlgError:
        return sigma, "failed"
    return sigma, "ok"


def _normal_bands(ab: np.ndarray) -> np.ndarray:
    """Upper bands of A*A in cholesky_banded's layout, out[4 + i - j, j] = (A*A)[i, j].

    Band off is the sum over k of conj(A[j + k - 2, j - off]) A[j + k - 2, j]
    = conj(ab[off + k, j - off]) ab[k, j], added term by term from +0 in k
    order, one row at a time.
    """
    n = ab.shape[1]
    a = np.array(ab, dtype=complex)
    # the six cells of ab's two corners hold no entry of A: rows j + k - 2 < 0 or >= n
    a[0, :2] = a[1, :1] = a[3, n - 1 :] = a[4, max(n - 2, 0) :] = 0.0
    out = np.zeros((5, n), dtype=complex)
    term = np.empty(n, dtype=complex)
    for off in range(min(5, n)):  # an offset of n or more holds no entry
        band, t = out[4 - off, off:], term[: n - off]
        for k in range(5 - off):
            np.conjugate(a[off + k, : n - off], out=t)
            t *= a[k, off:]
            band += t
    return out


def _line_values(pot: Potential, b: Damping, grid: Grid, lam: float, level: float) -> tuple:
    """V and b on the nodes of a line grid, read off one mesh, once the grid
    resolves frequency lam and its Dirichlet box, wherever it is centred,
    holds |x| <= sublevel_radius(level)."""
    check_resolution(grid, lam)
    needed = abs(grid.center[0]) + sublevel_radius(pot, level)
    if grid.ls[0] < needed * (1.0 - 1e-9):
        raise ValueError(f"Dirichlet box too small: need half-width >= {needed:.6g}")
    x = grid.meshgrid()
    return pot.raw_value(x), b.raw_func(x)


def resolvent_scan(pot: Potential, b: Damping, lambdas, grid: Grid | None = None) -> ResolventScan:
    """Scan lam / sigma_min(P - lam^2 + i lam b) over the frequency grid, one
    frequency after the other."""
    if pot.d != 1 or b.d != 1:
        raise ValueError("resolvent scan requires d = 1")
    lams = np.asarray(list(lambdas), dtype=float)
    if lams.size == 0:
        raise ValueError("need at least one frequency")
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"need finite frequencies, got {lams.tolist()}")
    lam_max = float(np.max(np.abs(lams)))
    if lam_max <= 0.0:
        raise ValueError("need a positive frequency somewhere in the grid")
    if grid is None:
        grid = resolvent_grid(pot, lam_max)
    elif grid.d != 1:
        raise ValueError("resolvent scan requires d = 1")
    vvals, bvals = _line_values(pot, b, grid, lam_max, 4.0 * lam_max**2)

    sig, flags, matvecs = [], [], []
    for lam in lams.tolist():
        sigma, flag = _sigma_min(p_bands(grid, vvals - lam**2 + 1j * lam * bvals), matvecs)
        sig.append(sigma)
        flags.append(flag)
    sig = np.array(sig)
    return ResolventScan(
        lambdas=lams,
        sigma_min=sig,
        ratio=np.abs(lams) / sig,
        flags=tuple(flags),
        matvecs=tuple(matvecs),
        grid=grid,
    )


def p_spectrum_1d(pot: Potential, grid: Grid, count: int) -> np.ndarray:
    """Lowest count eigenvalues of the discretized P, ascending."""
    if grid.d != 1:
        raise ValueError("spectrum requires d = 1")
    n = grid.ns[0]
    count = _require_count("count", count)
    if count > n:
        raise ValueError("count out of range")
    band = p_bands(grid, pot.raw_value(grid.meshgrid()))[:3]
    _bind_band_routines()
    return eig_banded(band, lower=False, eigvals_only=True, select="i", select_range=(0, count - 1))


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of the first-order companion system nearest the origin."""

    values: np.ndarray
    residuals: np.ndarray
    flags: tuple

    @property
    def abscissa(self) -> float:
        return float(np.max(self.values.real))


def damped_spectrum_1d(pot: Potential, b: Damping, grid: Grid, count: int) -> SpectrumResult:
    """Modes of (0, I; -P, -b): shift-invert Arnoldi around the origin.

    The grid must resolve sqrt(count + 1/2), the count-th level of the
    harmonic well, which the spectrum command sizes its default grid for,
    and its Dirichlet box must reach sublevel_radius(count + 1/2), the rule
    resolvent_scan applies at level 4 lam_max^2.
    """
    import scipy.sparse as sp  # deferred, so that only this command loads scipy.sparse
    import scipy.sparse.linalg as spla

    if pot.d != 1 or b.d != 1 or grid.d != 1:
        raise ValueError("damped spectrum requires d = 1")
    count = _require_count("count", count)
    if count > 200:
        raise ValueError("count must stay at or below 200")
    vvals, bvals = _line_values(pot, b, grid, math.sqrt(count + 0.5), count + 0.5)
    n = grid.ns[0]
    # p_bands' rows ab[2 + i - j, j] = P[i, j] are the dia layout of offsets 2, 1, 0, -1, -2
    ab = p_bands(grid, vvals)
    p_mat = sp.dia_array((ab, [2, 1, 0, -1, -2]), shape=(n, n))
    b_mat = sp.diags(bvals)
    eye = sp.identity(n)
    comp = sp.bmat([[None, eye], [-p_mat, -b_mat]], format="csc")
    v0 = np.ones(2 * n)
    vals, vecs = spla.eigs(comp, k=count, sigma=0.0, which="LM", v0=v0)
    res = np.array(
        [
            float(np.linalg.norm(comp @ vecs[:, j] - vals[j] * vecs[:, j]) / np.linalg.norm(vecs[:, j]))
            for j in range(vals.size)
        ]
    )
    order = np.argsort(np.abs(vals), kind="stable")
    vals, res = vals[order], res[order]
    scale = float(np.abs(vals).max()) if vals.size else 1.0
    flags = tuple("ok" if r <= 1e-8 * max(scale, 1.0) else "poor" for r in res)
    return SpectrumResult(values=vals, residuals=res, flags=flags)

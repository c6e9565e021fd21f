"""Localized wave packets with measured spectral defects.

Two families share one smooth compactly supported envelope: kinetic packets
(an oscillating cylinder moved to a phase-space base point) and turning-point
bumps (zero-phase envelopes placed where the potential equals the squared
frequency).  Both take one path: ``_check_fit`` checks the grid against the
envelope, ``_sample_envelope`` samples it from the grid axes, and ``_finish``
normalizes the field and measures its report (residual ratio, damping
pairing, localization), so the stabilization scans can be cross-examined
against explicit witnesses.  Sampling and measuring run one strip of rows
at a time: a packet costs its field and two float buffers of its grid's
size, and no node mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .damping import Damping, _turning_balls, turning_lattice
from .fields import (
    Field,
    Grid,
    _damping_pairing,
    _density,
    _mass_in_ball,
    _residual_ratio,
    _row_strips,
    check_resolution,
    make_grid,
    snap_to_grid,
)
from .potentials import (
    Potential,
    _ball_sup,
    _require_count,
    _require_dimension,
    _require_window,
    as_points,
    epsilon_lambda,
    sublevel_radius,
)

# nodes across the envelope half-width; doubling changes residuals by well
# under the 5% grid-independence budget (checked in tests)
ENVELOPE_NODES = 32


def bump_raw(r2) -> np.ndarray:
    """Unnormalized exp(-1/(1-|y|^2)) on |y| < 1, zero outside, from r2 = |y|^2."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    # exp underflows to exactly 0 near the support edge, which keeps the
    # sampled field compactly supported to the last bit
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


# continuum norms of the envelope by radial quadrature of the closed-form
# derivatives of exp(-1/(1-rho^2)); tests/test_quasimodes.py recomputes them
PROFILE_CONSTANTS = {
    1: {
        "norm": 0.3648097049764345,
        "sup": 1.0084146231669087,
        "grad_axis": 1.7543115832805378,
        "laplacian": 9.022635232749835,
        "moment": 0.339009212036298,
    },
    2: {
        "norm": 0.34339097424534115,
        "sup": 1.0713136592477968,
        "grad_axis": 1.8988540208616511,
        "laplacian": 15.886952554782662,
        "moment": 0.4440458351670496,
    },
}


def profile_constants(d: int) -> dict:
    """Continuum norms of the L2-normalized envelope in dimension d.

    Keys: "norm" (raw L2 norm of the unnormalized bump), "sup", "grad_axis"
    (single-axis derivative), "laplacian", "moment" (|y| weight); all but
    "norm" refer to the normalized profile.
    """
    _require_dimension(d)
    return PROFILE_CONSTANTS[d]


@dataclass(frozen=True)
class QuasimodeReport:
    """Measured quality of one constructed packet."""

    lam: float
    residual_ratio: float
    damping_pairing: float | None
    mass: dict
    grid: Grid
    details: dict

    def to_json_dict(self) -> dict:
        """JSON payload; the CLI's writer turns numpy values into plain ones."""
        return {
            "lam": self.lam,
            "residual_ratio": self.residual_ratio,
            "damping_pairing": self.damping_pairing,
            "mass_in_ball": {f"{r:.9g}": m for r, m in self.mass.items()},
            "grid": {
                "ns": list(self.grid.ns),
                "ls": list(self.grid.ls),
                "center": list(self.grid.center),
            },
            "details": self.details,
        }


def _check_fit(grid: Grid, center: np.ndarray, extents, h_max) -> None:
    """Per axis: step at most h_max, and the envelope (half-width extents
    around center) clear of the two outermost node layers."""
    for i in range(grid.d):
        if grid.hs[i] > h_max[i]:
            raise ValueError("grid too coarse for the envelope scale")
        room = grid.ls[i] - abs(center[i] - grid.center[i]) - 2.0 * grid.hs[i]
        if extents[i] >= room:
            raise ValueError("support overflow: envelope does not fit inside the grid box")


def _sample_envelope(grid: Grid, nu, t: float, w: float, center, xi) -> np.ndarray:
    """The L2-normalized envelope of half-length t along the unit vector nu and
    half-width w across, centred at center and carrying e^{i xi.(x - center/2)},
    sampled one strip of rows at a time from open-grid broadcasts of the grid
    axes, one phase per axis."""
    d = grid.d
    frame = [(nu, t)] if d == 1 else [(nu, t), ((-nu[1], nu[0]), w)]
    scale = profile_constants(d)["norm"] * (t * w ** (d - 1)) ** 0.5
    vals = np.empty(grid.ns, dtype=complex)
    for rs in _row_strips(grid.ns):
        axes = grid._row_axes(rs)
        y2 = np.zeros(np.broadcast_shapes(*(a.shape for a in axes)))
        for e, half in frame:
            y = sum(e[i] * (axes[i] - center[i]) / half for i in range(d))
            y2 += y * y
        env = bump_raw(y2)
        env /= scale
        part = vals[rs]
        part[...] = env
        for i in range(d):
            part *= np.exp(1j * (xi[i] * (axes[i] - 0.5 * center[i])))
    return vals


def _finish(pot, grid, vals, lam, b, center, radii, details) -> tuple:
    """Normalize the sampled packet and measure it: the one exit of both
    constructors.  details gains raw_norm and base_point.

    w |f|^2 goes into one float buffer, once for the sampled field and once
    for the normalized one; the norm, the damping pairing and the ball masses
    read it, their products share one more buffer, and the residual's density
    takes the first buffer after its last read."""
    f = Field(grid, vals)
    dens, raw_total = _density(f)
    raw_norm = math.sqrt(raw_total)
    f.values /= raw_norm
    details.update(raw_norm=raw_norm, base_point=tuple(float(v) for v in center))
    density = _density(f, dens)
    scratch = np.empty_like(dens)
    pairing = None if b is None else _damping_pairing(b, f, density, scratch)
    mass = {float(r): _mass_in_ball(f, center, float(r), density, scratch) for r in radii}
    del scratch
    report = QuasimodeReport(
        lam=float(lam),
        residual_ratio=_residual_ratio(pot, f, lam, density),
        damping_pairing=pairing,
        mass=mass,
        grid=grid,
        details=details,
    )
    return f, report


@dataclass(frozen=True)
class WavePacketSpec:
    """Geometry of one kinetic packet.

    The dilation has eigenvalue t_n on the span of nu (half-length of the
    cylinder) and (n+1)/sqrt(lam_n) on its orthogonal complement, which stays
    at or below r_n under the sequence rule for lam_n.
    """

    d: int
    x_n: tuple
    nu: tuple
    t_n: float
    r_n: float
    n: int
    lam_n: float

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        if not (np.all(np.isfinite(self.x_n)) and np.all(np.isfinite(nu))):
            raise ValueError("packet base point and direction must be finite")
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        for name in ("t_n", "r_n", "lam_n"):
            _require_window(name, getattr(self, name))
        _require_count("n", self.n)

    @property
    def transverse_width(self) -> float:
        return (self.n + 1) / math.sqrt(self.lam_n)

    @property
    def sigma(self) -> np.ndarray:
        nu = np.asarray(self.nu, dtype=float)
        proj = np.outer(nu, nu)
        return self.t_n * proj + self.transverse_width * (np.eye(self.d) - proj)

    @property
    def momentum(self) -> np.ndarray:
        return self.lam_n * np.asarray(self.nu, dtype=float)

    def axis_extents(self) -> np.ndarray:
        """Half-widths of the bounding box of the dilated unit ball."""
        sig = self.sigma
        return np.sqrt(np.sum(sig * sig, axis=1))


def packet_spec(pot: Potential, n: int, nu=None, x_n=None, t_n: float = 2.0, r_n: float = 0.5) -> WavePacketSpec:
    """Sequence rule: lam_n = max((n+1)^2/r_n^2, n * sup V on the t_n ball)."""
    # the rule divides by r_n and reads sup V on the t_n ball before the spec can check them
    n = _require_count("n", n)
    _require_window("t_n", t_n)
    _require_window("r_n", r_n)
    if nu is None:
        nu = np.zeros(pot.d)
        nu[0] = 1.0
    nu = as_points(nu, pot.d).reshape(pot.d)
    base = np.zeros(pot.d) if x_n is None else as_points(x_n, pot.d).reshape(pot.d)
    lam_n = max((n + 1) ** 2 / r_n**2, n * _ball_sup(pot, base, t_n))
    return WavePacketSpec(
        d=pot.d,
        x_n=tuple(float(v) for v in base),
        nu=tuple(float(v) for v in nu),
        t_n=float(t_n),
        r_n=float(r_n),
        n=n,
        lam_n=float(lam_n),
    )


def packet_grid(spec: WavePacketSpec, ppw: int = 32) -> Grid:
    """Per-axis grid sized to the packet: carrier resolution along the
    momentum components, envelope resolution across, odd counts so the base
    point is a node."""
    _require_count("ppw", ppw)
    xi = spec.momentum
    extents = spec.axis_extents()
    ns, ls = [], []
    for i in range(spec.d):
        l_i = float(extents[i] * 1.12)
        h_i = extents[i] / ENVELOPE_NODES
        if abs(xi[i]) > 0.0:
            h_i = min(h_i, 2.0 * np.pi / (ppw * abs(xi[i])))
        n_i = int(math.ceil(2.0 * l_i / h_i)) + 1
        if n_i % 2 == 0:
            n_i += 1
        ns.append(max(n_i, 9))
        ls.append(l_i)
    return make_grid(spec.d, ns, ls, center=spec.x_n)


def kinetic_wavepacket(pot: Potential, spec: WavePacketSpec, grid: Grid | None = None, b: Damping | None = None):
    """Build T_rho M k for rho = (x_n, lam_n nu) and measure its defect.

    M scales by the packet dilation and T_rho is the phase-space translation
    e^{-i xi.x0/2} e^{i xi.x} k(x - x0), with x0 the base point snapped to the
    grid; the reported frequency squares to V(x_n) + lam_n^2/2, the full
    symbol at the packet center.
    """
    if pot.d != spec.d:
        raise ValueError("potential and packet dimensions differ")
    if grid is None:
        grid = packet_grid(spec)
    xi = spec.momentum
    extents = spec.axis_extents()
    osc_axes = [i for i in range(spec.d) if abs(xi[i]) > 0.0]
    for i in osc_axes:
        check_resolution(grid, abs(xi[i]), axes=(i,))
    center = snap_to_grid(grid, np.asarray(spec.x_n))
    _check_fit(grid, center, extents, extents / (ENVELOPE_NODES / 2))

    vals = _sample_envelope(grid, spec.nu, spec.t_n, spec.transverse_width, center, xi)
    lam = math.sqrt(float(pot.raw_value(center[None, :])[0]) + spec.lam_n**2 / 2.0)
    details = {
        "lam_n": spec.lam_n,
        "nu": spec.nu,
        "t_n": spec.t_n,
        "r_n": spec.r_n,
        "n": spec.n,
        "transverse_width": spec.transverse_width,
    }
    return _finish(pot, grid, vals, lam, b, center, (spec.r_n, spec.t_n), details)


def turning_point_bump(pot: Potential, x0, R: float, grid: Grid | None = None, b: Damping | None = None):
    """Zero-phase envelope of radius R/sqrt(lam) at x0, lam = sqrt(V(x0)).

    The report carries the two comparison terms of the defect bound,
    (laplacian + moment norms of the profile) * (1/R^2 + R * eps_hat(lam)).
    """
    _require_window("R", R)
    x0 = as_points(x0, pot.d).reshape(pot.d)
    if not np.all(np.isfinite(x0)):
        raise ValueError("base point must be finite")
    lam0 = math.sqrt(float(pot.raw_value(x0[None, :])[0]))
    if lam0 < 1.0:
        raise ValueError("base point too close in: need V(x0) >= 1")
    if grid is None:
        r0 = R / math.sqrt(lam0)
        grid = make_grid(pot.d, 257, 1.25 * r0, center=x0)
        center = x0
    else:
        center = snap_to_grid(grid, x0)
    lam = math.sqrt(float(pot.raw_value(center[None, :])[0]))
    if not 1.0 <= R <= lam:
        raise ValueError(f"R must lie in [1, lam] = [1, {lam:.6g}]")
    r = R / math.sqrt(lam)
    _check_fit(grid, center, [r] * pot.d, [r / ENVELOPE_NODES] * pot.d)

    vals = _sample_envelope(grid, np.eye(pot.d)[0], r, r, center, np.zeros(pot.d))

    consts = profile_constants(pot.d)
    eps_hat = float(epsilon_lambda(pot, [lam]).values[0])
    c_est = consts["laplacian"] + consts["moment"]
    details = {
        "R": float(R),
        "radius": r,
        "eps_hat": eps_hat,
        "c_estimate": c_est,
        "curvature_term": 1.0 / R**2,
        "gradient_term": R * eps_hat,
        "bound_value": c_est * (1.0 / R**2 + R * eps_hat),
    }
    return _finish(pot, grid, vals, lam, b, center, (0.5 * r, r), details)


def tpc_violation_sequence(pot: Potential, b: Damping, n_max: int) -> list:
    """Turning-point witnesses on balls where the damping average collapses.

    For each n the search walks the turning-point lattice (`turning_lattice`)
    outward from the radius where the admissibility caps leave R_n = n+1
    intact, to the first shell holding a point whose TPC ball average of b at
    radius (n+1)/sqrt(lam) drops below 2^-n * b_max; it builds the bump at
    that shell's deepest such ball.  Raises when the damping never violates
    the thin-point condition on the lattice.
    """
    if pot.d != b.d:
        raise ValueError("potential and damping dimensions differ")
    n_max = _require_count("n_max", n_max)

    # the eps_hat profile reaches the frequencies of |x| <= 1e7, where the lattice ends
    lam_cap = math.sqrt(_ball_sup(pot, np.zeros(pot.d), 1e7))
    profile = epsilon_lambda(pot, np.geomspace(1.0, max(lam_cap, 2.0), 160))

    reports = []
    for n in range(1, n_max + 1):
        thr = 2.0 ** (-n) * b.b_max
        R_n = float(n + 1)
        # R_n survives its caps once eps_hat <= 1/R_n^2 and lam >= R_n
        feas = profile.values <= 1.0 / R_n**2
        if not np.any(feas):
            raise ValueError("TPC not violated in range")
        lam_floor = max(float(profile.lambdas[np.argmax(feas)]), R_n)
        found = None
        for pts in turning_lattice(pot.d, sublevel_radius(pot, lam_floor**2))[1]:
            v, _, avgs = _turning_balls(b, pot, R_n, pts)
            lam_pts = np.sqrt(v)
            ok = (lam_pts >= lam_floor) & (avgs <= thr)
            if np.any(ok):
                k = int(np.argmin(np.where(ok, avgs, np.inf)))
                found = (pts[k], float(avgs[k]), float(lam_pts[k]))
                break
        if found is None:
            raise ValueError("TPC not violated in range")
        x_n, avg, lam_x = found
        R_used = min(R_n, float(profile.at(lam_x)) ** -0.5, lam_x)
        _, rep = turning_point_bump(pot, x_n, R_used, b=b)
        rep.details.update(
            {
                "n": n,
                "threshold": thr,
                "ball_average": avg,
                "ball_radius": R_n / math.sqrt(lam_x),
            }
        )
        reports.append(rep)
    return reports

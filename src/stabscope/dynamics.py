"""Classical Hamiltonian flow for p(x, xi) = V(x) + |xi|^2 / 2.

The flow is integrated with velocity Verlet, which is symplectic and
time-reversible; the conserved energy p is the accuracy monitor.  One kernel
serves a single trajectory and a batch alike: it holds the per-axis
components of x, xi and the force in locals, each a float for one trajectory
or an array for a whole family advancing in lockstep (what the
shell-sampling scans on top of this module rely on), and takes the force
-grad V from the potential's own ``force``.  Every flow starts from a
position x0 and a momentum xi0, in dimension 1 or 2.

The rescaled picture runs the same flow at energy lam^2 through slow time
s = lam * t with momenta scaled down by lam, so that over |s| <= T the motion
stays uniformly close to the straight line y + s*eta; the admissible drift is
controlled by the potential's smallness factor eps(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import (
    EpsilonProfile,
    Potential,
    _equal_steps,
    _require_count,
    _require_dimension,
    _require_finite,
    _require_window,
    as_points,
    sublevel_radius,
)

__all__ = [
    "Trajectory",
    "flow_integrate",
    "flow_positions",
    "linearization_deviation",
    "LinearizationReport",
    "sample_shell",
    "default_dt",
]

ENERGY_DRIFT_TOL = 1e-6  # relative drift of p reported on a trajectory; 100x aborts
TURNING_FRACTION = 0.2  # share of shell samples forced toward the turning surface


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow line: strictly increasing times, states, conserved energy."""

    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    p: np.ndarray
    dt: float
    p0: float
    drift: float


def default_dt(lam: float) -> float:
    """Step size used by the frequency-rescaled kernels."""
    _require_window("lam", lam)
    return 1e-3 * min(1.0, 1.0 / np.sqrt(lam))


def _verlet(force, x, xi, a, dt: float, n: int):
    """Velocity-Verlet state (x, xi, a) after n steps of size dt, as d-tuples.

    ``x``, ``xi`` and the force ``a`` at x hold d = 1 or 2 per-axis
    components, each a float for one trajectory or an array for a batch; the
    same lines run both ways.  Returning the force lets the next call start
    without evaluating it again.  The components are unpacked into locals,
    one loop per dimension, which keeps a single trajectory's step at a few
    float operations and one call of ``force``.
    """
    h, h2 = 0.5 * dt, 0.5 * dt * dt
    if len(x) == 1:
        (x0,), (p0,), (a0,) = x, xi, a
        for _ in range(n):
            x0 = x0 + (dt * p0 + h2 * a0)
            (b0,) = force((x0,))
            p0 = p0 + h * (a0 + b0)
            a0 = b0
        return (x0,), (p0,), (a0,)
    (x0, x1), (p0, p1), (a0, a1) = x, xi, a
    for _ in range(n):
        x0 = x0 + (dt * p0 + h2 * a0)
        x1 = x1 + (dt * p1 + h2 * a1)
        b0, b1 = force((x0, x1))
        p0 = p0 + h * (a0 + b0)
        p1 = p1 + h * (a1 + b1)
        a0, a1 = b0, b1
    return (x0, x1), (p0, p1), (a0, a1)


def flow_integrate(
    pot: Potential,
    x0,
    xi0,
    T: float,
    dt: float,
    *,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the flow from (x0, xi0) over [0, T], sampling every few steps.

    When T is a whole number of steps dt (to 1e-9 relative) the flow takes
    them; else it takes n = ceil(T / dt) equal steps of T / n, the step the
    trajectory reports.  Aborts when the relative energy drift exceeds 100x
    ENERGY_DRIFT_TOL; a drift above the tolerance itself is reported on the
    trajectory for the caller to inspect.
    """
    _require_dimension(pot.d)
    _require_window("T", T)
    _require_window("dt", dt)
    if T < dt:
        raise ValueError("need T >= dt")
    record_every = _require_count("record_every", record_every)
    x = _require_finite("x0", as_points(x0, pot.d).astype(float))
    xi = _require_finite("xi0", as_points(xi0, pot.d).astype(float))
    n_steps, dt = _equal_steps(T, dt)

    xc, xic = tuple(float(c) for c in x.reshape(pot.d)), tuple(float(c) for c in xi.reshape(pot.d))
    a = pot.force(xc)
    ts, states = [0.0], [(xc, xic)]
    k = 0
    while k < n_steps:
        n = min(record_every, n_steps - k)
        xc, xic, a = _verlet(pot.force, xc, xic, a, dt, n)
        k += n
        ts.append(k * dt)
        states.append((xc, xic))  # the kernel's own tuples, which hold a long record in little memory

    t = np.array(ts)
    xs, xis = np.array(states).swapaxes(0, 1).reshape((2,) + t.shape + x.shape)
    p = pot.raw_value(xs) + 0.5 * np.sum(xis**2, axis=-1)
    p0 = float(p.flat[0])  # drift from the trajectory's own first sample
    drift = float(np.max(np.abs(p - p0)) / max(p0, 1.0))
    if not drift <= 100.0 * ENERGY_DRIFT_TOL:  # a NaN drift aborts too
        raise RuntimeError("integrator unstable -- reduce dt")
    return Trajectory(t, xs, xis, p, dt=dt, p0=p0, drift=drift)


def _flow_states(pot: Potential, x0, xi0, times, dt: float):
    """States (x, xi) of the flow through (x0, xi0) at each of ``times``.

    Integration runs separately forward and backward from t = 0; each span
    between consecutive |t| is cut into equal steps no longer than dt so the
    requested times are hit exactly.  xi carries its true sign on both legs.
    Returns two arrays of shape (n_times,) + x0.shape.
    """
    _require_dimension(pot.d)
    x0 = _require_finite("x0", np.asarray(x0, dtype=float))
    xi0 = _require_finite("xi0", np.asarray(xi0, dtype=float))
    times = _require_finite("flow times", np.asarray(times, dtype=float))
    _require_window("dt", dt)
    xs = np.empty(times.shape + x0.shape)
    xis = np.empty_like(xs)

    for sign in (1.0, -1.0):
        sel = np.nonzero(times * sign >= 0.0)[0]
        x = [x0[..., i] for i in range(pot.d)]
        xi = [sign * xi0[..., i] for i in range(pot.d)]
        a = pot.force(x)
        t_cur = 0.0
        for j in sel[np.argsort(np.abs(times[sel]))]:
            span = abs(times[j]) - t_cur
            if span > 1e-15:
                n = max(1, int(np.ceil(span / dt)))
                x, xi, a = _verlet(pot.force, x, xi, a, span / n, n)
                t_cur = abs(times[j])
            xs[j] = np.stack(x, axis=-1)
            xis[j] = sign * np.stack(xi, axis=-1)
    return xs, xis


def flow_positions(
    pot: Potential,
    x0: np.ndarray,
    xi0: np.ndarray,
    times: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Positions of batched trajectories at the requested times.

    ``times`` may be any finite times, of either sign and in any order;
    integration runs separately forward and backward from t = 0 with step
    refinement so each requested time is hit exactly.

    Returns an array of shape (n_times,) + x0.shape.
    """
    return _flow_states(pot, x0, xi0, times, dt)[0]


@dataclass(frozen=True)
class LinearizationReport:
    """Measured drift of the rescaled flow from its straight-line shadow."""

    dev_eta: np.ndarray
    dev_y: np.ndarray
    bound_eta: float
    bound_y: float
    eta_ok: np.ndarray
    y_ok: np.ndarray


def linearization_deviation(
    pot: Potential,
    y: np.ndarray,
    eta: np.ndarray,
    T: float,
    lam: float,
    eps_profile: EpsilonProfile,
    *,
    dt: float | None = None,
) -> LinearizationReport:
    """Compare the rescaled flow against straight-line motion over |s| <= T.

    dev_eta = sup_s |eta_s - eta|   checked against (T  / sqrt(lam)) eps(lam)
    dev_y   = sup_s |y_s - y - s*eta| checked against (T^2 / sqrt(lam)) eps(lam)

    Batched: y, eta may be (d,) or (n, d); deviations come back per sample.
    """
    if not math.isfinite(T):  # T = 0 is the degenerate window with no motion
        raise ValueError(f"need finite T, got T={T}")
    _require_window("lam", lam)
    y = np.atleast_2d(as_points(y, pot.d).astype(float))
    eta = np.atleast_2d(as_points(eta, pot.d).astype(float))
    if dt is None:
        dt = default_dt(lam)

    s_grid = np.linspace(-T, T, 65)
    xs, xis = _flow_states(pot, y, lam * eta, s_grid / lam, dt)
    dev_eta = np.max(np.linalg.norm(xis / lam - eta, axis=-1), axis=0)
    dev_y = np.max(np.linalg.norm(xs - (y + s_grid[:, None, None] * eta), axis=-1), axis=0)

    eps = float(eps_profile.at(lam))
    bound_eta = T / np.sqrt(lam) * eps
    bound_y = T**2 / np.sqrt(lam) * eps
    return LinearizationReport(
        dev_eta=dev_eta,
        dev_y=dev_y,
        bound_eta=bound_eta,
        bound_y=bound_y,
        eta_ok=dev_eta <= bound_eta,
        y_ok=dev_y <= bound_y,
    )


def sample_shell(
    pot: Potential,
    lam: float,
    n: int,
    rng: np.random.Generator,
):
    """Draw n points on the energy shell {V(x) + |xi|^2/2 = lam^2}.

    Positions are uniform in the sublevel set {V <= lam^2} by rejection in the
    bounding box, momenta uniform on the sphere of radius sqrt(2(lam^2 - V)).
    A TURNING_FRACTION of the samples is forced to |xi| <= 0.1*lam by
    solving for the position radius along a random direction instead; those
    samples probe the neighborhood of the turning surface.
    """
    _require_window("lam", lam)
    n = _require_count("n", n)
    d = pot.d
    box = sublevel_radius(pot, lam**2)
    n_turn = int(round(TURNING_FRACTION * n))
    n_free = n - n_turn

    xs = np.empty((n, d))
    xis = np.empty((n, d))

    got = 0
    while got < n_free:
        cand = rng.uniform(-box, box, size=(max(2 * (n_free - got), 16), d))
        keep = cand[pot.raw_value(cand) <= lam**2]
        take = min(len(keep), n_free - got)
        xs[got : got + take] = keep[:take]
        got += take
    kinetic = 2.0 * (lam**2 - pot.raw_value(xs[:n_free]))
    kinetic = np.maximum(kinetic, 0.0)
    dirs = _random_directions(d, n_free, rng)
    xis[:n_free] = np.sqrt(kinetic)[:, None] * dirs

    w2 = np.array(pot.w2)
    for k in range(n_turn):
        u = rng.uniform()
        speed = (u * u) * 0.1 * lam  # biased toward true turning points
        v_target = lam**2 - 0.5 * speed**2
        direction = _random_directions(d, 1, rng)[0]
        # V(r u) = phi(r^2 u.W u) = v_target along the direction u
        radius = math.sqrt(pot.phi_inv(v_target) / float(np.sum(w2 * direction**2)))
        xs[n_free + k] = radius * direction
        xis[n_free + k] = speed * _random_directions(d, 1, rng)[0]
    return xs, xis


def _random_directions(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    if d == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)

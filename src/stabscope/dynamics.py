"""Classical Hamiltonian flow for p(x, xi) = V(x) + |xi|^2 / 2.

The flow is integrated with velocity Verlet, which is symplectic and
time-reversible; the conserved energy p is the accuracy monitor.  One kernel
serves a single trajectory and a batch alike: it advances per-axis
components, each a float for one trajectory or an array for a whole family
advancing in lockstep (what the shell-sampling scans on top of this module
rely on), and takes the force -grad V from the potential's own ``force``.
Every flow starts from a position x0 and a momentum xi0.

The rescaled picture runs the same flow at energy lam^2 through slow time
s = lam * t with momenta scaled down by lam, so that over |s| <= T the motion
stays uniformly close to the straight line y + s*eta; the admissible drift is
controlled by the potential's smallness factor eps(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .potentials import EpsilonProfile, Potential, as_points, sublevel_radius

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
    return 1e-3 * min(1.0, 1.0 / np.sqrt(lam))


def _verlet(pot: Potential, x, xi, dt: float):
    """Velocity-Verlet states (x, xi) after each step of size dt, without end.

    ``x`` and ``xi`` hold per-axis components, each a float for one
    trajectory or an array for a batch; the same lines run both ways.  The
    axes are walked by plain loops, which keeps a single trajectory's step
    at a few float operations.
    """
    force = pot.force
    h, h2 = 0.5 * dt, 0.5 * dt * dt
    axes = range(pot.d)

    x, xi, a = list(x), list(xi), force(x)
    while True:
        for i in axes:
            x[i] = x[i] + (dt * xi[i] + h2 * a[i])
        b = force(x)
        for i in axes:
            xi[i] = xi[i] + h * (a[i] + b[i])
        a = b
        yield tuple(x), tuple(xi)


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

    Aborts when the relative energy drift exceeds 100x ENERGY_DRIFT_TOL; a
    drift above the tolerance itself is reported on the trajectory for the
    caller to inspect.
    """
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError(f"need finite T and dt, got T={T}, dt={dt}")
    if dt <= 0.0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    if record_every < 1:
        raise ValueError("need record_every >= 1")
    x = as_points(x0, pot.d).astype(float)
    xi = as_points(xi0, pot.d).astype(float)
    n_steps = int(round(T / dt))

    p0 = float(pot.raw_value(x) + 0.5 * np.sum(xi**2))
    start = ([float(c) for c in x.reshape(pot.d)], [float(c) for c in xi.reshape(pot.d)])
    ts, states = [0.0], [start]
    for k, state in enumerate(islice(_verlet(pot, *start, dt), n_steps), 1):
        if k % record_every == 0 or k == n_steps:
            ts.append(k * dt)
            states.append(state)

    t = np.array(ts)
    xs, xis = np.array(states).swapaxes(0, 1).reshape((2,) + t.shape + x.shape)
    p = pot.raw_value(xs) + 0.5 * np.sum(xis**2, axis=-1)
    drift = float(np.max(np.abs(p - p0)) / max(p0, 1.0))
    if drift > 100.0 * ENERGY_DRIFT_TOL:
        raise RuntimeError("integrator unstable -- reduce dt")
    return Trajectory(t, xs, xis, p, dt=dt, p0=p0, drift=drift)


def _flow_states(pot: Potential, x0, xi0, times, dt: float):
    """States (x, xi) of the flow through (x0, xi0) at each of ``times``.

    Integration runs separately forward and backward from t = 0; each span
    between consecutive |t| is cut into equal steps no longer than dt so the
    requested times are hit exactly.  xi carries its true sign on both legs.
    Returns two arrays of shape (n_times,) + x0.shape.
    """
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.asarray(xi0, dtype=float)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("need finite flow times")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"need finite dt > 0, got dt={dt}")
    xs = np.empty(times.shape + x0.shape)
    xis = np.empty_like(xs)

    for sign in (1.0, -1.0):
        sel = np.nonzero(times * sign >= 0.0)[0]
        x = [x0[..., i] for i in range(pot.d)]
        xi = [sign * xi0[..., i] for i in range(pot.d)]
        t_cur = 0.0
        for j in sel[np.argsort(np.abs(times[sel]))]:
            span = abs(times[j]) - t_cur
            if span > 1e-15:
                n = max(1, int(np.ceil(span / dt)))
                x, xi = next(islice(_verlet(pot, x, xi, span / n), n - 1, None))
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
    if not (math.isfinite(T) and math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"need finite T and finite lam > 0, got T={T}, lam={lam}")
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
    *,
    turning_fraction: float = 0.0,
):
    """Draw n points on the energy shell {V(x) + |xi|^2/2 = lam^2}.

    Positions are uniform in the sublevel set {V <= lam^2} by rejection in the
    bounding box, momenta uniform on the sphere of radius sqrt(2(lam^2 - V)).
    A ``turning_fraction`` of the samples is forced to |xi| <= 0.1*lam by
    solving for the position radius along a random direction instead; those
    samples probe the neighborhood of the turning surface.
    """
    d = pot.d
    box = sublevel_radius(pot, lam**2)
    n_turn = int(round(turning_fraction * n))
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

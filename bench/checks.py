"""Correctness checks on the CLI artifacts, against references made here.

Every reference is computed by this file from the problem definition: the
potentials, the damping patterns and the 4th-order stencil are written out
again below rather than imported from stabscope, and the band eigenproblems,
closed-form flows and ball quadratures are solved here.  Nothing is compared
with a stored copy of program output.

Each workload has a loader (artifacts -> plain arrays), a reference builder,
a ``verify`` function that returns a list of failure messages, and a
perturbation that a correct ``verify`` must reject.  ``run_checks`` applies
``verify`` to the real output and to the perturbed copy, so every run also
tests that its own checks can fail.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded
from scipy.special import jn_zeros

# (-1/12, 4/3, -5/2, 4/3, -1/12) / h^2, as stated in the stabscope.fields docstring
STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])

B_MAX = 1.0  # every benchmark damping has amplitude 1
SIGMA_RTOL = 1e-6  # sigma_min against the band eigensolver (seen: 2e-8)
QUAD_RTOL = 1e-6  # |z^2 + z + mu| for the b = 1 spectrum, relative to |mu|
UGCC_QMC_TOL = 2e-3  # 1024 Sobol nodes x 256 trapezoid times against the dense rule (seen: 1e-4)
BALANCE_FRACTION = 1e-4  # energy-balance defect and energy rise, as a share of E(0)
TAU_RTOL = 0.10  # fitted decay time against the modal value 1 for b = 1
FLOW_ERR = 1e-6  # closed-form harmonic flow
DRIFT_TOL = 1e-6  # relative energy drift of every builtin flow


# ---------------------------------------------------------------------------
# the problem, written out again


def potential_value(name: str, pts: np.ndarray, **params) -> np.ndarray:
    r2 = np.sum(pts * pts, axis=-1)
    if name == "harmonic":
        return 0.5 * r2
    if name == "power":
        return (1.0 + r2) ** (params["s_exponent"] / 2.0) - 1.0
    if name == "anisotropic":
        w = np.asarray(params["weights"], dtype=float)
        return 0.5 * np.sum((w * pts) ** 2, axis=-1)
    raise ValueError(name)


def damping_value(name: str, pts: np.ndarray, **params) -> np.ndarray:
    if name == "constant":
        return np.full(pts.shape[:-1], B_MAX)
    if name == "exterior":
        return B_MAX * (np.sqrt(np.sum(pts * pts, axis=-1)) >= params["radius_space"])
    if name == "ball":
        return B_MAX * (np.sqrt(np.sum(pts * pts, axis=-1)) <= params["radius_space"])
    if name == "checkerboard":
        cell = params["duty"] * params["period_space"]
        return B_MAX * (np.floor(pts / cell).astype(np.int64).sum(axis=-1) % 2 == 0)
    raise ValueError(name)


def _damping_params(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k != "name"}


def operator_1d(x: np.ndarray, diag: np.ndarray):
    """-Laplacian/2 + diag on the line, Dirichlet outside the nodes, as sparse."""
    h2 = (x[1] - x[0]) ** 2
    n = len(x)
    offsets = (-2, -1, 0, 1, 2)
    bands = [np.full(n - abs(k), -0.5 * STENCIL[2 + k] / h2, dtype=complex) for k in offsets]
    bands[2] = bands[2] + diag
    return sp.diags(bands, offsets, format="csr")


def _upper_bands(mat, width: int) -> np.ndarray:
    n = mat.shape[0]
    ab = np.zeros((width + 1, n), dtype=mat.dtype)
    for m in range(width + 1):
        ab[width - m, m:] = mat.diagonal(m)
    return ab


def sigma_min_reference(x, vvals, bvals, lam: float) -> float:
    """sqrt of the smallest eigenvalue of A*A, A = P - lam^2 + i lam b, by eig_banded."""
    a = operator_1d(x, vvals - lam**2 + 1j * lam * bvals)
    normal = (a.conj().T @ a).tocsr()
    ev = eig_banded(_upper_bands(normal, 4), lower=False, eigvals_only=True, select="i", select_range=(0, 0))
    return math.sqrt(max(float(ev[0]), 0.0))


def p_eigenvalues(x, vvals, upper: float) -> np.ndarray:
    """Eigenvalues of the discrete P = V - Laplacian/2 below ``upper``."""
    p = operator_1d(x, vvals.astype(complex)).real.tocsr()
    return eig_banded(_upper_bands(p, 2), lower=False, eigvals_only=True, select="v", select_range=(-1.0, upper))


def ray_average_reference(b_name, b_params, x0, nu, T, r, *, n_t=512, m=160) -> float:
    """Ray average of the r-mollified damping: midpoint rule in time, Cartesian midpoint rule on the disc."""
    g = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    inside = gx**2 + gy**2 < 1.0
    disc = r * np.stack([gx[inside], gy[inside]], axis=-1)
    ts = -T + (np.arange(n_t) + 0.5) * (2.0 * T / n_t)
    total = 0.0
    for chunk in np.array_split(ts, 16):
        centers = np.asarray(x0)[None, :] + chunk[:, None] * np.asarray(nu)[None, :]
        vals = damping_value(b_name, centers[:, None, :] + disc[None, :, :], **b_params)
        total += float(vals.mean(axis=1).sum())
    return total / n_t


# ---------------------------------------------------------------------------
# artifact readers


def read_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in rows[0]}


def floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def read_json(path: Path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# condition-matrix

# the theorem's verdicts, in the order UGCC, TPC, DSC
EXPECTED_VERDICTS = {"constant": "PPP", "exterior": "PPP", "ball": "FFF", "checkerboard": "PFF"}


def load_conditions(out: Path, suite) -> dict:
    cols = read_columns(out / suite.tag / "suite_matrix.csv")
    matrix = {}
    for pair, cond, inf, thr, passed in zip(
        cols["pair"], cols["condition"], cols["infimum"], cols["threshold"], cols["passed"]
    ):
        matrix[(pair, cond)] = {"infimum": float(inf), "threshold": float(thr), "passed": passed == "true"}
    samples = {}
    for label in EXPECTED_VERDICTS:
        for check in ("ugcc", "tpc", "dsc"):
            samples[(label, check)] = floats(
                read_columns(out / suite.tag / f"conditions_{label}_{check}.csv")["average"]
            )
    return {"matrix": matrix, "samples": samples, "ugcc": suite.config.get("ugcc", {})}


def reference_conditions(data: dict, dampings: dict) -> dict:
    from stabscope.damping import default_ray_family

    T = float(data["ugcc"].get("T_time", 2.0))
    r = float(data["ugcc"].get("r_space", 0.25))
    rays = default_ray_family(2)
    ref = {}
    for label in ("exterior", "checkerboard"):
        k = int(np.argmin(data["samples"][(label, "ugcc")]))
        base, nu = rays[k]
        ref[label] = (k, ray_average_reference(label, dampings[label], base, nu, T, r))
    return ref


def verify_conditions(data: dict, ref: dict) -> list:
    fails = []
    matrix = data["matrix"]
    for label, expected in EXPECTED_VERDICTS.items():
        got = "".join("P" if matrix[(label, c)]["passed"] else "F" for c in ("UGCC", "TPC", "DSC"))
        if got != expected:
            fails.append(f"{label}: verdicts {got}, theorem predicts {expected}")
        if (got[2] == "P") != (got[0] == "P" and got[1] == "P"):
            fails.append(f"{label}: DSC != UGCC and TPC ({got})")
        for c in ("UGCC", "TPC", "DSC"):
            cell = matrix[(label, c)]
            if cell["passed"] != (cell["infimum"] > cell["threshold"]):
                fails.append(f"{label} {c}: passed flag disagrees with infimum > threshold")
    for c in ("UGCC", "TPC", "DSC"):
        if matrix[("constant", c)]["infimum"] != 1.0:
            fails.append(f"constant {c}: infimum {matrix[('constant', c)]['infimum']!r}, a mollified constant is 1")
    if matrix[("exterior", "TPC")]["infimum"] != 1.0:
        fails.append("exterior TPC: infimum is not exactly 1, every sampled ball lies in |x| >= 1")
    for key, vals in data["samples"].items():
        if vals.size == 0 or vals.min() < 0.0 or vals.max() > B_MAX:
            fails.append(f"{key}: sample outside [0, b_max]")
    for label, (k, expected) in ref.items():
        got = float(data["samples"][(label, "ugcc")][k])
        if abs(got - expected) > UGCC_QMC_TOL:
            fails.append(f"{label} UGCC ray {k}: {got:.6f} vs dense quadrature {expected:.6f}")
    return fails


def perturb_conditions(data: dict) -> dict:
    matrix = {key: dict(cell) for key, cell in data["matrix"].items()}
    cell = matrix[("checkerboard", "TPC")]
    cell["passed"] = not cell["passed"]
    return {**data, "matrix": matrix}


# ---------------------------------------------------------------------------
# resolvent-sweep


def load_resolvent(out: Path, commands) -> dict:
    """Resolvent rows gathered per damping in command order, and the spectra."""
    scans, spectra = {}, {}
    for cmd in commands:
        name = cmd.config["damping"]["name"]
        if cmd.command == "resolvent":
            cols = read_columns(out / cmd.tag / "resolvent.csv")
            scan = scans.setdefault(name, {"lambda": [], "sigma": [], "flags": [], "config": dict(cmd.config, lambdas_freq=[])})
            scan["lambda"] += [float(v) for v in cols["lambda"]]
            scan["sigma"] += [float(v) for v in cols["sigma_min"]]
            scan["flags"] += cols["flag"]
            scan["config"]["lambdas_freq"] += cmd.config["lambdas_freq"]
        else:
            cols = read_columns(out / cmd.tag / "spectrum.csv")
            spectra[name] = {"z": floats(cols["re"]) + 1j * floats(cols["im"]), "config": cmd.config}
    for scan in scans.values():
        scan["lambda"] = np.array(scan["lambda"])
        scan["sigma"] = np.array(scan["sigma"])
    return {"scans": scans, "spectra": spectra}


def _grid_nodes(config: dict) -> np.ndarray:
    g = config["grid"]
    return np.linspace(-g["half_width_space"], g["half_width_space"], g["n_nodes"])


def reference_resolvent(data: dict, seed: int, per_damping: int = 2) -> dict:
    rng = np.random.default_rng(seed)
    checked = {}
    for name, scan in data["scans"].items():
        x = _grid_nodes(scan["config"])
        vvals = potential_value("harmonic", x[:, None])
        bvals = damping_value(name, x[:, None], **_damping_params(scan["config"]["damping"]))
        lams = np.asarray(scan["config"]["lambdas_freq"])
        picks = sorted(rng.choice(len(lams), size=per_damping, replace=False).tolist())
        checked[name] = {k: sigma_min_reference(x, vvals, bvals, float(lams[k])) for k in picks}
    const = data["scans"]["constant"]["config"]
    x = _grid_nodes(const)
    lam_max = max(const["lambdas_freq"])
    mu_res = p_eigenvalues(x, potential_value("harmonic", x[:, None]), 4.0 * lam_max**2 + 10.0)
    spec = data["spectra"]["constant"]["config"]
    xs = _grid_nodes(spec)
    mu_spec = p_eigenvalues(xs, potential_value("harmonic", xs[:, None]), 4.0 * spec["count"] + 10.0)
    return {"checked": checked, "mu_resolvent": mu_res, "mu_spectrum": mu_spec}


def verify_resolvent(data: dict, ref: dict) -> list:
    fails = []
    for name, scan in data["scans"].items():
        lams = np.asarray(scan["config"]["lambdas_freq"])
        if scan["lambda"].shape != lams.shape or np.max(np.abs(scan["lambda"] / lams - 1.0)) > 1e-12:
            fails.append(f"{name}: swept frequencies differ from the requested ones")
            continue
        if "failed" in scan["flags"]:
            fails.append(f"{name}: {scan['flags'].count('failed')} frequencies flagged failed")
        for k, sigma_ref in ref["checked"][name].items():
            err = abs(scan["sigma"][k] / sigma_ref - 1.0)
            if not err <= SIGMA_RTOL:
                fails.append(f"{name}: sigma_min at lam={lams[k]:.6g} off by {err:.2e} from eig_banded of A*A")
    const = data["scans"]["constant"]
    lam = const["lambda"]
    mu = ref["mu_resolvent"]
    exact = np.min(np.abs(mu[None, :] - lam[:, None] ** 2 + 1j * lam[:, None]), axis=1)
    err = np.max(np.abs(const["sigma"] / exact - 1.0))
    if not err <= SIGMA_RTOL:
        fails.append(f"constant: sigma_min off by {err:.2e} from min_k |mu_k - lam^2 + i lam|")
    ratio = lam / const["sigma"]
    if ratio.max() > 1.0 + 1e-9:
        fails.append(f"constant: lam / sigma_min reaches {ratio.max():.6f} > 1")
    if ratio.max() / np.median(ratio) > 10.0:
        fails.append("constant: resolvent ratio not bounded (max/median > 10)")
    ball = data["scans"]["ball"]
    lo, hi = np.nonzero(ball["lambda"][None, :] >= 10.0 * ball["lambda"][:, None])
    if lo.size:
        ball_ratio = ball["lambda"] / ball["sigma"]
        gain = float(np.min(ball_ratio[hi] / ball_ratio[lo]))
        if gain < 10.0:
            fails.append(f"ball: resolvent gain {gain:.2f}x over a frequency decade, dichotomy needs >= 10x")
    z = data["spectra"]["constant"]["z"]
    mu = ref["mu_spectrum"]
    quad = np.min(np.abs(z[:, None] ** 2 + z[:, None] + mu[None, :]) / np.maximum(np.abs(mu[None, :]), 1.0), axis=1)
    if not quad.max() <= QUAD_RTOL:
        fails.append(f"b = 1 spectrum: z^2 + z + mu_k residual {quad.max():.2e}")
    if not abs(z.real.max() + 0.5) <= QUAD_RTOL:
        fails.append(f"b = 1 spectrum: abscissa {z.real.max():.8f}, expected -1/2")
    zb = data["spectra"]["ball"]["z"]
    if not zb.real.max() < 0.0:
        fails.append(f"ball spectrum: eigenvalue with Re z = {zb.real.max():.3e} >= 0")
    return fails


def perturb_resolvent(data: dict) -> dict:
    scans = {name: {**scan, "sigma": scan["sigma"] * (1.0 + 1e-4)} for name, scan in data["scans"].items()}
    return {**data, "scans": scans}


# ---------------------------------------------------------------------------
# wave-evolution


def load_evolution(out: Path, commands) -> dict:
    runs = {}
    for cmd in commands:
        cols = read_columns(out / cmd.tag / "trace.csv")
        fit = read_json(out / cmd.tag / "evolve.json")["fit"]
        runs[cmd.tag] = {
            "t": floats(cols["t"]),
            "E": floats(cols["E"]),
            "D": floats(cols["D"]),
            "tau": fit["tau"],
            "constant": cmd.config["damping"]["name"] == "constant",
        }
    return runs


def fitted_decay_time(t: np.ndarray, e: np.ndarray) -> float:
    keep = t >= t[0] + 0.1 * (t[-1] - t[0])
    slope = np.polyfit(t[keep], np.log(e[keep]), 1)[0]
    return -1.0 / slope


def verify_evolution(runs: dict, ref=None) -> list:
    fails = []
    for tag, run in runs.items():
        t, e, d = run["t"], run["E"], run["D"]
        dissipated = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(t)))
        defect = abs(e[-1] - e[0] + dissipated)
        if not defect <= BALANCE_FRACTION * e[0]:
            fails.append(f"{tag}: energy-balance defect {defect:.3e} above {BALANCE_FRACTION:g} E(0)")
        rise = float(np.max(np.diff(e)))
        if rise > BALANCE_FRACTION * e[0]:
            fails.append(f"{tag}: energy rises by {rise:.3e} between samples")
        if run["constant"]:
            for label, tau in (("reported", run["tau"]), ("refitted", fitted_decay_time(t, e))):
                if tau is None or not abs(tau - 1.0) <= TAU_RTOL:
                    fails.append(f"{tag}: {label} decay time {tau} not within 10% of the modal value 1")
    return fails


def perturb_evolution(runs: dict) -> dict:
    return {
        tag: {**run, "tau": run["tau"] * 1.2} if run["constant"] else run for tag, run in runs.items()
    }


# ---------------------------------------------------------------------------
# flow-witness


def load_flow(out: Path, commands) -> dict:
    flows, witness, kinetic = [], None, None
    for cmd in commands:
        if cmd.command == "flow":
            cols = read_columns(out / cmd.tag / "trajectory.csv")
            d = cmd.config["potential"]["d"]
            flows.append(
                {
                    "tag": cmd.tag,
                    "config": cmd.config,
                    "t": floats(cols["t"]),
                    "x": np.stack([floats(cols[f"x_{i + 1}"]) for i in range(d)], axis=-1),
                    "xi": np.stack([floats(cols[f"xi_{i + 1}"]) for i in range(d)], axis=-1),
                }
            )
        elif cmd.command == "tpc-witness":
            witness = read_json(out / cmd.tag / "tpc_witness.json")
        else:
            kinetic = floats(read_columns(out / cmd.tag / "kinetic_sequence.csv")["residual_ratio"])
    return {"flows": flows, "witness": witness, "kinetic": kinetic}


def verify_flow(data: dict, ref=None) -> list:
    fails = []
    for run in data["flows"]:
        cfg, t, x, xi = run["config"], run["t"], run["x"], run["xi"]
        pot = dict(cfg["potential"])
        name = pot.pop("name")
        pot.pop("d")
        if run["tag"] == "flow_closed_form":
            err = max(
                float(np.max(np.abs(x[:, 0] - (np.cos(t) + 0.5 * np.sin(t))))),
                float(np.max(np.abs(xi[:, 0] - (-np.sin(t) + 0.5 * np.cos(t))))),
            )
            if not err <= FLOW_ERR:
                fails.append(f"{run['tag']}: error {err:.2e} against cos t + sin t / 2")
            continue
        x0 = np.asarray(cfg["x0_space"], dtype=float)
        xi0 = np.asarray(cfg["xi0_momentum"], dtype=float)
        p0 = float(potential_value(name, x0, **pot) + 0.5 * np.sum(xi0**2))
        p = potential_value(name, x, **pot) + 0.5 * np.sum(xi**2, axis=-1)
        drift = float(np.max(np.abs(p - p0)) / max(p0, 1.0))
        if not drift <= DRIFT_TOL:
            fails.append(f"{run['tag']}: relative energy drift {drift:.2e}")
    j01 = float(jn_zeros(0, 1)[0])
    reps = data["witness"]
    for rep in reps:
        det = rep["details"]
        if not det["ball_average"] <= det["threshold"]:
            fails.append(f"witness n={det['n']}: ball average {det['ball_average']:.3e} above threshold")
        floor = j01**2 / (2.0 * det["R"] ** 2)
        if not rep["residual_ratio"] >= floor * (1.0 - 1e-9):
            fails.append(f"witness n={det['n']}: residual {rep['residual_ratio']:.4f} below Rayleigh floor {floor:.4f}")
    pairings = [rep["damping_pairing"] for rep in reps]
    if not all(pairings[i + 1] <= 0.5 * pairings[i] for i in range(len(pairings) - 1)):
        fails.append(f"witness damping pairings do not halve: {pairings}")
    kin = data["kinetic"]
    if not np.all(np.diff(kin) < 0.0):
        fails.append(f"kinetic residuals not strictly decreasing: {kin.tolist()}")
    return fails


def perturb_flow(data: dict) -> dict:
    flows = []
    for run in data["flows"]:
        if run["tag"] == "flow_closed_form":
            x = run["x"].copy()
            x[len(x) // 2, 0] += 1e-5
            run = {**run, "x": x}
        flows.append(run)
    return {**data, "flows": flows}

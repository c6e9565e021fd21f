"""Command-line front end: JSON configs in, deterministic CSV/JSON artifacts out.

Every command validates its whole config before computing anything and
returns its artifacts by name; ``main`` alone writes them into --out and
finishes with a manifest recording the config hash, seed, library versions,
wall time and write time.  Exit codes: 0 on success, 2 when a precondition or
the config is invalid or --out cannot be written, 3 when a numerical stage
fails.  A failed command writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .damping import (
    _dsc_scans,
    builtin_damping,
    dsc_limit_scan,
    tpc_scan,
    ugcc_scan,
)
from .dynamics import flow_integrate
from .evolution import (
    WaveState,
    cfl_limit,
    damped_spectrum_1d,
    decay_fit,
    energy_balance_defect,
    evolve,
    quasimode_probe,
    resolvent_grid,
    resolvent_scan,
)
from .fields import Field, make_grid
from .potentials import _require_count, _require_window, builtin_potential
from .quasimodes import (
    kinetic_wavepacket,
    packet_grid,
    packet_spec,
    tpc_violation_sequence,
    turning_point_bump,
)

log = logging.getLogger("stabscope")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_MISSING = object()


class _Section:
    """Pop-only view of one JSON object; leftover keys are a config error."""

    def __init__(self, name: str, data):
        if not isinstance(data, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
        self.name = name
        self.data = dict(data)

    def take(self, key: str, default=_MISSING):
        if key in self.data:
            return self.data.pop(key)
        if default is _MISSING:
            raise ValueError(f"missing config key {key!r} in {self.name}")
        return default

    def number(self, key: str, default=_MISSING, kind=float):
        """The number under key as kind; a None default makes the key optional."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        return _number(value, f"{self.name}.{key}", kind)

    def numbers(self, key: str, default=_MISSING, kind=float):
        """A number or a flat list of numbers under key, as number() reads one."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        return _numbers(value, f"{self.name}.{key}", kind)

    def sub(self, key: str) -> "_Section":
        return _Section(f"{self.name}.{key}", self.take(key, {}))

    def done(self) -> None:
        if self.data:
            raise ValueError(f"unknown config keys in {self.name}: {sorted(self.data)}")


def _number(value, name: str, kind=float):
    """A JSON number as kind; any other JSON value is a config error naming the key.

    An int must be integral: 2.0 reads as 2, 2.5 is an error, not 2.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = kind(value)
    except (ValueError, OverflowError) as exc:  # int() of a non-finite float
        raise ValueError(f"{name} must be a number, got {value!r}") from exc
    if kind is int and number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def _numbers(value, name: str, kind=float):
    if isinstance(value, list):
        return [_number(v, f"{name}[{i}]", kind) for i, v in enumerate(value)]
    return _number(value, name, kind)


def _build_potential(sec: _Section):
    name = str(sec.take("name", "harmonic"))
    d = sec.number("d", 1, int)
    kwargs = {}
    if name == "power":
        kwargs["s"] = sec.number("s_exponent")
    elif name == "anisotropic" and "weights" in sec.data:
        kwargs["weights"] = sec.numbers("weights")
    sec.done()
    return builtin_potential(name, d=d, **kwargs)


def _build_damping(sec: _Section, d: int):
    name = str(sec.take("name"))
    kwargs = {"amplitude": sec.number("amplitude", 1.0)}
    if name in ("exterior", "ball"):
        kwargs["radius"] = sec.number("radius_space", 1.0)
    if name == "ball" and "center_space" in sec.data:
        kwargs["center"] = sec.numbers("center_space")
    if name in ("checkerboard", "radial_shells", "strip_lattice"):
        kwargs["period"] = sec.number("period_space", 1.0)
        kwargs["duty"] = sec.number("duty", 0.5)
    sec.done()
    return builtin_damping(name, d=d, **kwargs)


def _build_grid(sec: _Section, d: int):
    ns = sec.numbers("n_nodes", kind=int)
    ls = sec.numbers("half_width_space")
    center = sec.numbers("center_space", None)
    sec.done()
    return make_grid(d, ns, ls, center=center)


# ---------------------------------------------------------------------------
# artifacts: the only writer, so every byte of every artifact follows one rule;
# main is its only caller


def _cell(x) -> str:
    """CSV cell: exact float repr, plain int, true/false, empty for None, other text quoted."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _quoted(str(x))


# the csv module's minimal quoting under LF line ends: a cell holding a comma, a
# quote or a line feed (from Python 3.13 on also a carriage return) is quoted,
# its quotes doubled
_CSV_SPECIALS = ',"\n\r' if sys.version_info >= (3, 13) else ',"\n'


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in _CSV_SPECIALS)


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _column(values) -> list:
    """The cells of one column under _cell's rule, formatted a column at a time.

    A float64 array formats each distinct bit pattern once (so -0.0 and nan
    keep their own text), an integer or bool array goes straight to text, a
    column of plain strings (the group labels) is its own text, quoted, and any
    other column goes through _cell value by value.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype == np.float64:
            keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
            texts = np.array(list(map(float.__repr__, keys.view(np.float64).tolist())), dtype=object)
            return texts[inverse].tolist()
        if values.dtype.kind in "iu":
            return list(map(int.__repr__, values.tolist()))
        if values.dtype == np.bool_:
            return np.where(values, "true", "false").tolist()
    elif all(type(x) is str for x in values):
        # one scan of the joined column tells whether any label needs quotes
        return list(map(_quoted, values)) if _needs_quotes("".join(values)) else list(values)
    return [_cell(x) for x in values]


CSV_BLOCK_ROWS = 2048  # rows formatted at a time, so a long table's cells never sit in memory at once


def _write_csv(path: Path, header, columns) -> None:
    """UTF-8, LF line endings, csv quoting (labels such as T=2,R=1 hold commas).

    Each block of rows is formatted a column at a time and written as lines of
    its cells; a one-column row of the empty cell is written as "" so that it
    is not a blank line, as the csv module writes it.
    """
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of {path.name} differ in length")
    line = ",".join(["{}"] * len(columns)) + "\n"

    def lines(cells):  # the cells of a block, column by column
        if len(cells) == 1:
            cells = [[c or '""' for c in cells[0]]]
        return map(line.format, *cells) if cells else [line]

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines([[h] for h in _column(list(header))]))
        for start in range(0, n, CSV_BLOCK_ROWS):
            fh.writelines(lines([_column(c[start : start + CSV_BLOCK_ROWS]) for c in columns]))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_table(report) -> tuple:
    """Per-sample columns of a condition report: index, group label, average."""
    n = report.sample_values.size
    return ("index", "group", "average"), (np.arange(n), report.groups["sample_labels"], report.sample_values)


def _trace_table(trace) -> tuple:
    return ("t", "E", "D"), (trace.t, trace.E, trace.D)


def _fit_dict(fit) -> dict:
    return {
        "C": fit.C,
        "tau": fit.tau if math.isfinite(fit.tau) else None,
        "rms": fit.rms,
        "window": [float(fit.window[0]), float(fit.window[1])],
        "flags": list(fit.flags),
    }


# ---------------------------------------------------------------------------
# commands: each maps its config to an ordered {artifact name: payload} dict,
# a .csv payload being (header, columns) and a .json payload the document


def _cmd_flow(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    x0 = np.asarray(cfg.numbers("x0_space"))
    xi0 = np.asarray(cfg.numbers("xi0_momentum"))
    T = cfg.number("T_time", 10.0)
    dt = cfg.number("dt_time", 1e-3)
    record = cfg.number("record_every", 1, int)
    cfg.done()
    traj = flow_integrate(pot, x0, xi0, T, dt, record_every=record)
    log.info("flow: %d samples, drift %.3e", len(traj.t), traj.drift)
    d, n = pot.d, len(traj.t)
    header = ["t"] + [f"x_{i+1}" for i in range(d)] + [f"xi_{i+1}" for i in range(d)] + ["p"]
    x, xi = traj.x.reshape(n, d), traj.xi.reshape(n, d)
    columns = [traj.t, *(x[:, i] for i in range(d)), *(xi[:, i] for i in range(d)), traj.p.reshape(n)]
    return {
        "trajectory.csv": (header, columns),
        "flow.json": {"drift": traj.drift, "p0": traj.p0, "dt_time": traj.dt},
    }


_CONDITION_DEFAULTS = {
    "ugcc": {"T_time": 2.0, "r_space": 0.25},
    "tpc": {"R_space": 1.0},
    "dsc": {
        "T_time": 2.0,
        "R_space": 1.0,
        "lambdas_freq": [25.0, 100.0, 400.0],
        "n_shell_samples": 256,
    },
}


def _scan_param(sec: _Section, key: str, default, prefix: str = ""):
    """One scan parameter, typed like its default: a non-empty list of
    windows, a count or a window, each under the library's rule."""
    name, value = prefix + key, sec.take(key, default)
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{name} must be a non-empty list")
        return _require_window(f"{name} entries", _numbers(value, name))
    if isinstance(default, int):
        return _require_count(name, _number(value, name))
    return _require_window(key[0], _number(value, name), where=f" in {name}")


def _condition_params(cfg: _Section) -> dict:
    """Typed scan parameters; every one is checked before any scan runs."""
    params = {}
    for check, defaults in _CONDITION_DEFAULTS.items():
        sec = cfg.sub(check)
        params[check] = {key: _scan_param(sec, key, default, f"{check}.") for key, default in defaults.items()}
        sec.done()
    return params


def _run_conditions(pot, dampings, params: dict, checks, seed: int) -> list:
    """One {check: report} dict per damping, in the order ugcc, tpc, dsc; DSC's
    shell flows do not depend on b, so one _dsc_scans call serves all dampings."""
    reports = [{} for _ in dampings]
    for b, reps in zip(dampings, reports):
        if "ugcc" in checks:
            reps["ugcc"] = ugcc_scan(b, params["ugcc"]["T_time"], params["ugcc"]["r_space"])
        if "tpc" in checks:
            reps["tpc"] = tpc_scan(b, pot, params["tpc"]["R_space"])
    if "dsc" in checks:
        p = params["dsc"]
        dsc = _dsc_scans(dampings, pot, p["T_time"], p["R_space"], p["lambdas_freq"], p["n_shell_samples"], seed)
        for reps, rep in zip(reports, dsc):
            reps["dsc"] = rep
    return reports


def _cmd_conditions(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    checks = [str(c) for c in cfg.take("checks", ["ugcc", "tpc", "dsc"])]
    unknown = sorted(set(checks) - set(_CONDITION_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown condition checks {unknown}")
    params = _condition_params(cfg)
    cfg.done()

    (reports,) = _run_conditions(pot, [b], params, checks, opts.seed)
    artifacts = {}
    summary = {}
    for check, rep in reports.items():
        log.info("%s: infimum %.6g, passed=%s", rep.condition, rep.infimum, rep.passed)
        artifacts[f"conditions_{check}.csv"] = _report_table(rep)
        artifacts[f"conditions_{check}.json"] = rep.to_json_dict()
        summary[rep.condition] = {
            "infimum": rep.infimum,
            "threshold": rep.threshold,
            "passed": rep.passed,
        }
    artifacts["conditions_summary.json"] = summary
    return artifacts


def _cmd_dsc_limit(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    ladder = cfg.take("tr_ladder")
    if not isinstance(ladder, list) or not ladder:
        raise ValueError("tr_ladder must be a non-empty list of {T_time, R_space} entries")
    tr_grid = []
    for k, entry in enumerate(ladder):
        sec = _Section(f"config.tr_ladder[{k}]", entry)
        tr_grid.append((sec.number("T_time"), sec.number("R_space")))
        sec.done()
    defaults = _CONDITION_DEFAULTS["dsc"]
    lambdas = _scan_param(cfg, "lambdas_freq", defaults["lambdas_freq"])
    n_samples = _scan_param(cfg, "n_shell_samples", defaults["n_shell_samples"])
    cfg.done()

    rep = dsc_limit_scan(b, pot, tr_grid, lambdas, n_shell_samples=n_samples, seed=opts.seed)
    log.info("dsc-limit: proxy at largest (T, R) = %.6g", rep.infimum)
    return {"dsc_limit.csv": _report_table(rep), "dsc_limit.json": rep.to_json_dict()}


def _cmd_quasimode(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    damping = None
    if "damping" in cfg.data:
        damping = _build_damping(cfg.sub("damping"), pot.d)
    x0 = np.asarray(cfg.numbers("x0_space"))
    R = cfg.number("R_width")
    grid = None
    if "grid" in cfg.data:
        grid = _build_grid(cfg.sub("grid"), pot.d)
    cfg.done()

    f, rep = turning_point_bump(pot, x0, R, grid=grid, b=damping)
    log.info("quasimode: lam %.4f, residual ratio %.4f", rep.lam, rep.residual_ratio)
    vals = f.values.reshape(-1)
    header = [f"x_{i+1}" for i in range(f.grid.d)] + ["re", "im"]
    mesh = f.grid.meshgrid()
    columns = [*(mesh[..., i].ravel() for i in range(f.grid.d)), vals.real, vals.imag]
    return {"mode.csv": (header, columns), "quasimode.json": rep.to_json_dict()}


def _cmd_kinetic(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    damping = None
    if "damping" in cfg.data:
        damping = _build_damping(cfg.sub("damping"), pot.d)
    n_list = cfg.take("n_list", [4, 6, 8])
    if not isinstance(n_list, list) or not n_list:
        raise ValueError("n_list must be a non-empty list")
    n_list = _numbers(n_list, "config.n_list", int)
    nu = cfg.numbers("direction", None)
    x_n = cfg.numbers("x0_space", None)
    t_n = cfg.number("t_width_space", 2.0)
    r_n = cfg.number("r_width_space", 0.5)
    ppw = cfg.number("ppw_nodes", 32, int)
    cfg.done()

    reports = []
    for n in n_list:
        spec = packet_spec(
            pot,
            n,
            nu=None if nu is None else np.asarray(nu, dtype=float),
            x_n=None if x_n is None else np.asarray(x_n, dtype=float),
            t_n=t_n,
            r_n=r_n,
        )
        _, rep = kinetic_wavepacket(pot, spec, grid=packet_grid(spec, ppw=ppw), b=damping)
        log.info("kinetic n=%d: lam %.4f, residual ratio %.4f", n, rep.lam, rep.residual_ratio)
        reports.append(rep)

    header = ("n", "lam", "residual_ratio", "damping_pairing")
    columns = [[r.details["n"] for r in reports], [r.lam for r in reports],
               [r.residual_ratio for r in reports], [r.damping_pairing for r in reports]]
    return {"kinetic_sequence.csv": (header, columns), "kinetic_sequence.json": [r.to_json_dict() for r in reports]}


def _cmd_tpc_witness(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    n_max = cfg.number("n_max", 6, int)
    cfg.done()

    reports = tpc_violation_sequence(pot, b, n_max)
    header = ("n", "lam", "ball_average", "threshold", "damping_pairing", "residual_ratio")
    columns = [[r.details["n"] for r in reports], [r.lam for r in reports],
               [r.details["ball_average"] for r in reports], [r.details["threshold"] for r in reports],
               [r.damping_pairing for r in reports], [r.residual_ratio for r in reports]]
    return {"tpc_witness.csv": (header, columns), "tpc_witness.json": [rep.to_json_dict() for rep in reports]}


def _initial_state(grid, sec: _Section) -> WaveState:
    kind = str(sec.take("kind", "gaussian"))
    if kind != "gaussian":
        raise ValueError(f"unknown initial data kind {kind!r}")
    center = np.atleast_1d(sec.numbers("center_space", [0.0] * grid.d))
    if center.shape != (grid.d,) or not np.all(np.isfinite(center)):
        raise ValueError(f"{sec.name}.center_space must be {grid.d} finite coordinate(s), got {center.tolist()}")
    width = _require_window("width", sec.number("width_space", 1.0), where=f" in {sec.name}.width_space")
    sec.done()
    pts = grid.meshgrid()
    u0 = np.exp(-np.sum((pts - center) ** 2, axis=-1) / (2.0 * width * width))
    return WaveState(
        Field(grid, u0.astype(complex)),
        Field(grid, np.zeros(grid.ns, dtype=complex)),
        0.0,
    )


def _cmd_evolve(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    grid = _build_grid(cfg.sub("grid"), pot.d)
    state = _initial_state(grid, cfg.sub("initial"))
    T = cfg.number("T_time")
    dt = cfg.number("dt_time", None)
    record = cfg.number("record_every", 1, int)
    cfg.done()

    dt = 0.5 * cfl_limit(pot, grid) if dt is None else dt
    trace = evolve(pot, b, state, T, dt, record_every=record)
    fit = decay_fit(trace)
    return {
        "trace.csv": _trace_table(trace),
        "evolve.json": {
            "dt_time": trace.dt,
            "balance_coefficient": trace.balance_coefficient,
            "balance_defect": energy_balance_defect(trace),
            "fit": _fit_dict(fit),
        },
    }


def _cmd_probe(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    x0 = np.asarray(cfg.numbers("x0_space"))
    R = cfg.number("R_width")
    grid = _build_grid(cfg.sub("grid"), pot.d)
    T = cfg.number("T_time")
    dt = cfg.number("dt_time", None)
    cfg.done()

    f, rep = turning_point_bump(pot, x0, R, grid=grid, b=b)
    trace, fit = quasimode_probe(pot, b, f, rep.lam, T, dt=dt)
    log.info("probe: lam %.4f, tau %s", rep.lam, fit.tau)
    return {
        "probe_trace.csv": _trace_table(trace),
        "probe.json": {"fit": _fit_dict(fit), "quasimode": rep.to_json_dict()},
    }


def _resolvent_lambdas(cfg: _Section) -> np.ndarray:
    lams = cfg.numbers("lambdas_freq", None)
    n_max = cfg.number("n_max", None, int)
    if (lams is None) == (n_max is None):
        raise ValueError("give exactly one of lambdas_freq or n_max")
    if lams is not None:
        return np.atleast_1d(np.asarray(lams, dtype=float))
    return np.sqrt(np.arange(n_max + 1) + 0.5)


def _cmd_resolvent(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    lams = _resolvent_lambdas(cfg)
    grid = None
    if "grid" in cfg.data:
        grid = _build_grid(cfg.sub("grid"), pot.d)
    cfg.done()

    scan = resolvent_scan(pot, b, lams, grid)
    log.info("resolvent: max ratio %.4g", float(np.max(scan.ratio)))
    log.info(
        "resolvent: Lanczos matvecs per frequency median %g, max %d",
        float(np.median(scan.matvecs)),
        max(scan.matvecs),
    )
    header = ("lambda", "sigma_min", "lambda_over_sigma_min", "flag")
    return {"resolvent.csv": (header, (scan.lambdas, scan.sigma_min, scan.ratio, scan.flags))}


def _cmd_spectrum(cfg: _Section, opts) -> dict:
    pot = _build_potential(cfg.sub("potential"))
    b = _build_damping(cfg.sub("damping"), pot.d)
    count = _scan_param(cfg, "count", 40, "config.")
    if "grid" in cfg.data:
        grid = _build_grid(cfg.sub("grid"), pot.d)
    else:
        grid = resolvent_grid(pot, math.sqrt(count + 0.5))
    cfg.done()

    result = damped_spectrum_1d(pot, b, grid, count)
    log.info("spectrum: abscissa %.6f", result.abscissa)
    summary = {"abscissa": result.abscissa, "count": len(result.values), "flags": sorted(set(result.flags))}
    columns = (result.values.real, result.values.imag, result.residuals)
    return {"spectrum.csv": (("re", "im", "residual"), columns), "spectrum.json": summary}


CANONICAL_PAIRS = (
    ("constant", {}),
    ("exterior", {"radius_space": 1.0}),
    ("ball", {"radius_space": 1.0}),
    ("checkerboard", {"period_space": 1.0, "duty": 0.5}),
)


def _cmd_suite(cfg: _Section, opts) -> dict:
    params = _condition_params(cfg)
    cfg.done()
    pot = builtin_potential("harmonic", d=2)

    artifacts = {}
    matrix = {}
    rows = []
    dampings = [_build_damping(_Section(label, {"name": label, **spec}), 2) for label, spec in CANONICAL_PAIRS]
    all_reports = _run_conditions(pot, dampings, params, ("ugcc", "tpc", "dsc"), opts.seed)
    for (label, _), reports in zip(CANONICAL_PAIRS, all_reports):
        matrix[label] = {}
        for check, rep in reports.items():
            log.info("suite %s %s: passed=%s", label, rep.condition, rep.passed)
            artifacts[f"conditions_{label}_{check}.csv"] = _report_table(rep)
            matrix[label][rep.condition] = rep.passed
            rows.append((label, rep.condition, rep.infimum, rep.threshold, rep.passed))

    artifacts["suite_matrix.csv"] = (("pair", "condition", "infimum", "threshold", "passed"), list(zip(*rows)))
    artifacts["suite_matrix.json"] = matrix
    return artifacts


_DISPATCH = {
    "flow": _cmd_flow,
    "conditions": _cmd_conditions,
    "dsc-limit": _cmd_dsc_limit,
    "quasimode": _cmd_quasimode,
    "kinetic-sequence": _cmd_kinetic,
    "tpc-witness": _cmd_tpc_witness,
    "evolve": _cmd_evolve,
    "probe": _cmd_probe,
    "resolvent": _cmd_resolvent,
    "spectrum": _cmd_spectrum,
    "suite": _cmd_suite,
}


def _manifest(command: str, config_bytes: bytes, opts, wall: float, write: float, artifacts) -> dict:
    import scipy  # here, its only use, so that importing the CLI loads no scipy module

    return {
        "command": command,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seed": opts.seed,
        "threads": opts.threads,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "stabscope": __version__,
        },
        "wall_time_s": wall,
        "write_time_s": write,
        "artifacts": sorted(artifacts),
    }


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of main; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stabscope",
        description="Stabilization-condition experiments for damped waves with confinement.",
    )
    parser.add_argument("command", choices=list(_DISPATCH))
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    parser.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    parser.add_argument("--threads", type=int, default=1, help="at least 1; recorded in the manifest, selects nothing")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    opts = _parser().parse_args(argv)

    level = _LOG_LEVELS.get(os.environ.get("STABSCOPE_LOG", "warning").strip().lower())
    logging.basicConfig(level=logging.WARNING if level is None else level)

    try:
        if opts.config is None:
            config_bytes = b"{}"
        else:
            try:
                config_bytes = opts.config.read_bytes()
            except OSError as exc:
                raise ValueError(f"config not readable: {exc}") from exc
        try:
            raw = json.loads(config_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        _require_count("threads", opts.threads)
        if opts.seed < 0:
            raise ValueError("need seed >= 0")

        try:
            opts.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot write artifacts: {exc}") from exc
        start = time.perf_counter()
        artifacts = _DISPATCH[opts.command](_Section("config", raw), opts)
        computed = time.perf_counter()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    try:
        for name, payload in artifacts.items():
            if name.endswith(".csv"):
                _write_csv(opts.out / name, *payload)
            else:
                _write_json(opts.out / name, payload)
        done = time.perf_counter()
        wall, write = done - start, done - computed
        manifest = _manifest(opts.command, config_bytes, opts, wall, write, artifacts)
        _write_json(opts.out / "manifest.json", manifest)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    log.info("%s finished in %.2fs (%.3fs writing), %d artifacts", opts.command, wall, write, len(artifacts))
    return 0


if __name__ == "__main__":
    sys.exit(main())

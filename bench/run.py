"""stabscope benchmark: four CLI workloads, timed end to end, traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in this process through
``stabscope.cli.main`` (closed loop, one client: each command starts when
the previous one has finished).  After a warm-up, whole passes over the
workload's commands repeat until ``--seconds`` have elapsed; at least one
pass always runs.  The artifacts of the last pass are then checked against
references computed in ``checks.py``.

With ``--trace 0`` the end-to-end metrics are printed: the median pass time,
the median fresh-interpreter import time of ``stabscope.cli`` and the peak
resident set.  Times are rescaled to a reference machine speed (see
``speed.py``); the raw wall times are printed beside them.  With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
of the traced passes are printed, together with the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy loads, in this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedClock
from tracing import Tracer
from workloads import WORKLOADS, run_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "stabscope" / "cli.py").is_file():
        raise SystemExit(f"error: no stabscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stabscope
    import stabscope.cli

    if not Path(stabscope.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: stabscope imported from {stabscope.__file__}, not {SRC}")
    return stabscope


# Imports stabscope.cli between two pure-Python speed probes and prints the
# probe times; the parent rescales the import time by the probe speed.
SETUP_SCRIPT = """
import time
def probe():
    start = time.perf_counter()
    total = 0
    for i in range(300000):
        total += i
    return time.perf_counter() - start
before = probe()
import stabscope.cli
print(before, probe())
"""
SETUP_PROBE_REFERENCE = 0.015  # seconds per probe on the calibration machine


def measure_setup() -> float:
    """Median rescaled time for a fresh interpreter to start and import stabscope.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT], env=env, cwd=ROOT, check=True, capture_output=True, text=True
        )
        wall = time.perf_counter() - start
        probes = [float(v) for v in done.stdout.split()]
        raw = wall - sum(probes)
        factor = sum(SETUP_PROBE_REFERENCE / p for p in probes) / len(probes)
        times.append((raw, raw * factor))
    print("setup: rescaled [raw] import seconds: " + ", ".join(f"{s:.3f} [{r:.3f}]" for r, s in times))
    return statistics.median(s for _, s in times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class Runner:
    """Runs passes of one workload through the CLI and keeps their timings."""

    def __init__(self, cli, workload, out: Path, seed: int):
        self.clock = SpeedClock()
        self.cli = cli
        self.workload = workload
        self.out = out
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        cfg_dir = out / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for cmd in workload.commands + workload.warmup:
            path = cfg_dir / f"{cmd.tag}.json"
            path.write_text(json.dumps(cmd.config))
            self.config_paths[cmd.tag] = path

    def _run(self, cmd) -> int:
        argv = [
            cmd.command,
            "--config", str(self.config_paths[cmd.tag]),
            "--out", str(self.out / cmd.tag),
            "--threads", "1",
            "--seed", str(self.seed),
        ]
        return self.cli.main(argv)

    def warm_up(self) -> None:
        for cmd in self.workload.warmup:
            if self._run(cmd) != 0:
                raise SystemExit(f"error: warm-up command {cmd.tag} failed")

    def one_pass(self, tracer=None) -> dict:
        """Run every command once; return (raw, rescaled) seconds of each, by tag."""
        times = {}
        with self.clock:
            for cmd in self.workload.commands:
                if tracer is not None:
                    tracer.group = cmd.group
                rc = self._run(cmd)
                times[cmd.tag] = self.clock.mark()
                self.attempted += 1
                self.failed += rc != 0
        if tracer is not None:
            tracer.settle(lambda start, end: self.clock.span(start, end)[1])
        return times

    def passes(self, seconds: float, tracer=None):
        """Whole passes until ``seconds`` have elapsed, at least one.

        With a tracer, untraced and traced passes alternate, and both lists
        are returned.
        """
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(self.one_pass())
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(self.one_pass(tracer))
                finally:
                    tracer.remove()
        return (plain, traced) if tracer is not None else plain

    def median(self, passes: list, group=None, rescaled=True) -> float:
        """Median over passes of the time spent in one group's commands, or all."""
        tags = [cmd.tag for cmd in self.workload.commands if group is None or cmd.group == group]
        return statistics.median(sum(p[tag][rescaled] for tag in tags) for p in passes)


def end_to_end(runner: Runner, seconds: float) -> dict:
    passes = runner.passes(seconds)
    rss = peak_rss_mb()
    setup = measure_setup()
    print(f"passes: {len(passes)}; rescaled [raw] seconds, medians over passes:")
    for group in dict.fromkeys(cmd.group for cmd in runner.workload.commands):
        print(f"  {group}_s = {runner.median(passes, group):.4f} [{runner.median(passes, group, False):.4f}] s")
    print(f"  wall_s = {runner.median(passes):.4f} [{runner.median(passes, rescaled=False):.4f}] s")
    return {
        "wall_s": (runner.median(passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def _quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def traced(runner: Runner, stabscope, seconds: float) -> dict:
    tracer = Tracer(stabscope)
    plain, traced_passes = runner.passes(seconds, tracer)
    n = len(traced_passes)
    cli_walls = sum(scaled for p in traced_passes for _, scaled in p.values())
    t, c = tracer.total, tracer.counts

    def rate(work, seconds_):
        return work / seconds_ if seconds_ > 0 else 0.0

    m = {}
    m["damping.mollify_s"] = (t("damping.mollify_at") / n, "s")
    m["damping.b_evals"] = (c["damping.b_evals"] // n, "count")
    m["damping.b_evals_per_s"] = (rate(c["damping.b_evals"], t("damping.mollify_at")), "1/s")
    for scan in ("ugcc", "tpc", "dsc"):
        m[f"damping.{scan}_scan_s"] = (t(f"damping.{scan}_scan") / n, "s")
    m["dynamics.flow_integrate_s"] = (t("dynamics.flow_integrate") / n, "s")
    m["dynamics.verlet_steps"] = (c["dynamics.verlet_steps"] // n, "count")
    m["dynamics.verlet_steps_per_s"] = (rate(c["dynamics.verlet_steps"], t("dynamics.flow_integrate")), "1/s")
    m["dynamics.grad_evals"] = (c["dynamics.grad_evals"] // n, "count")
    m["dynamics.flow_positions_s"] = (t("dynamics.flow_positions") / n, "s")
    m["dynamics.sample_shell_s"] = (t("dynamics.sample_shell") / n, "s")
    for family in ("clustered", "separated"):
        group = f"resolvent_{family}"
        sig = tracer.durations("evolution._sigma_min", group)
        m[f"evolution.resolvent_scan_s.{family}"] = (t("evolution.resolvent_scan", group) / n, "s")
        m[f"evolution.sigma_min_s.p50.{family}"] = (_quantile(sig, 0.5), "s")
        m[f"evolution.sigma_min_s.p95.{family}"] = (_quantile(sig, 0.95), "s")
        for counter in ("banded_solves", "cholesky_factorizations", "bisect_fallbacks"):
            m[f"evolution.{counter}.{family}"] = (c[f"evolution.{counter}.{group}"] // n, "count")
    m["evolution.damped_spectrum_s"] = (t("evolution.damped_spectrum_1d") / n, "s")
    for dim in ("2d", "1d"):
        group = f"evolve_{dim}"
        m[f"evolution.evolve_s.{dim}"] = (t("evolution.evolve", group) / n, "s")
        m[f"evolution.node_steps_per_s.{dim}"] = (
            rate(c[f"evolution.node_steps.{group}"], t("evolution.evolve", group)),
            "1/s",
        )
    m["evolution.decay_fit_s"] = (t("evolution.decay_fit") / n, "s")
    m["fields.apply_P_s"] = (t("fields.apply_P") / n, "s")
    m["fields.apply_P_calls"] = (len(tracer.durations("fields.apply_P")) // n, "count")
    for name in ("tpc_violation_sequence", "kinetic_wavepacket", "turning_point_bump"):
        m[f"quasimodes.{name}_s"] = (t(f"quasimodes.{name}") / n, "s")
    for name in ("epsilon_lambda", "sublevel_radius"):
        m[f"potentials.{name}_s"] = (t(f"potentials.{name}") / n, "s")
    m["cli.overhead_s"] = ((cli_walls - tracer.library_top_level()) / n, "s")
    m["cli.write_s"] = (tracer.writer_top_level() / n, "s")
    m["bench.tracing_overhead_s"] = (runner.median(traced_passes) - runner.median(plain), "s")
    print(f"pass pairs: {n}; median rescaled pass: untraced {runner.median(plain):.4f} s, traced {runner.median(traced_passes):.4f} s")
    for name, (value, unit) in m.items():
        if value:  # layers this workload does not reach are left out
            print(f"{name} = {value:.6g} {unit}")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    stabscope = import_program()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("error: need --seed >= 0 and --seconds > 0")

    out = BENCH / "out" / f"{workload.name}-{os.getpid()}"
    try:
        runner = Runner(stabscope.cli, workload, out, args.seed)
        runner.warm_up()
        if args.trace:
            metrics = traced(runner, stabscope, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
        try:
            fails = run_checks(workload, out, args.seed)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            fails = [f"artifacts could not be checked: {exc!r}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for msg in fails:
        print(f"check failed: {msg}")
    print(f"{workload.name}: {runner.attempted} commands, {runner.failed} failed, "
          f"{'all checks passed' if not fails else f'{len(fails)} check failures'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not fails,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in selected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

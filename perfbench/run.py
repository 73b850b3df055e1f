"""cylmode benchmark: time-to-checked-result for four solver workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ns_small --seed 1 --seconds 30 --trace 0

Each workload is one cylmode command run the way a user runs it: a fresh
Python process calls ``cylmode.cli.main([...])`` with the default single
thread and BLAS pinned to one thread.  ``--trace 0`` repeats the full
command and its one-unit cut (one step, one oracle step or one trial) for
``--seconds`` seconds, with a fixed calibration kernel timed before each
child run, and reports the end-to-end metrics; times are scaled to the
reference host speed measured by that kernel.  The benchmark and its
children stay on one core.  ``--trace 1``
alternates an untraced and a traced full run (see ``layers.py``) and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs come from ``--seed``: the scan seed is ``7 + seed`` and the ns and
oracle workloads read a generated smooth profile file; seed 0 reproduces the
demo inputs.  The first full run of every invocation uses the seed-0 inputs
and is checked against ``reference.json``; every run must exit 0 with all of
its report's invariant flags true.  Outputs go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# the calibration runs in this process; its BLAS is pinned like the children's
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
from scipy.linalg import lu_factor, lu_solve  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"

# a run stops starting children after BUDGET_S and kills any child still
# running then, so it always ends well within three minutes
BUDGET_S = 165.0
MIN_ROUNDS = 2
# median seconds of calibrate() on the reference host, a 2-core Intel Xeon at
# 2.1 GHz; end-to-end times are scaled to that host speed
CAL_REF_S = 0.96
CHILD = "import sys; from cylmode.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = """
import json, sys
import numpy, scipy
import cylmode.cli
def blas(mod):
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    except Exception as exc:
        return f"unknown ({type(exc).__name__})"
print(json.dumps({"cylmode_file": cylmode.cli.__file__,
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""
# invariant flags a report carries; every one must be true
FLAG_KEYS = ("within_tol", "invariants_held")
# Reference outputs must agree to REF_RTOL relative.  Per-mode sup norms of
# cascade harmonics fall far below round-off of the leading mode (1e-61 at
# K=12), so those also get an absolute floor of REF_SUP_FLOOR times the
# largest sup norm: a change of summation order may move them by that much.
REF_RTOL = 1e-6
REF_SUP_FLOOR = 1e-12
SCAN_SEED_BASE = 7
PROFILE_AMPLITUDE = 0.05


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    report: str


# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "ns_small": Workload("simulate", "ns_small.ini", "simulate_report.json"),
    "ns_wide_k": Workload("simulate", "ns_wide_k.ini", "simulate_report.json"),
    "oracle": Workload("oracle-compare", "oracle.ini", "oracle_compare.json"),
    "scan": Workload("inequality-scan", "scan.ini", "inequality_scan.json"),
}


# -- inputs -----------------------------------------------------------------------

def _read_config(name: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read(CONFIGS / name, encoding="utf-8")
    return cp


def _grid_nodes(cp: configparser.ConfigParser):
    """Radial and vertical nodes of the default (mapped Chebyshev) grid."""
    n_r = cp.getint("grid", "n_r")
    n_z = cp.getint("grid", "n_z")
    L_z = cp.getfloat("grid", "L_z", fallback=2.0 * math.pi)
    j = np.arange(n_r + 1)
    r = 0.5 * (1.0 - np.cos(np.pi * j / n_r))[1:]
    z = (L_z / n_z) * np.arange(n_z)
    return r, z, L_z


def profile_arrays(cp: configparser.ConfigParser, seed: int) -> dict:
    """Four free profile components on the workload's grid.

    Every component is ``0.05 r (1 - r^2)^2`` times a vertical factor, so
    the radial components keep the double zero at the wall that the solver
    needs and the amplitude stays where the demo keeps CFL.  Seed 0 is the
    demo's poloidal profile (sin / cos of one vertical wave, no swirl);
    another seed draws each vertical factor from the first two waves with
    coefficients normalised to unit l1 norm, so its maximum is at most 1.
    """
    r, z, L_z = _grid_nodes(cp)
    env = PROFILE_AMPLITUDE * r * (1.0 - r**2) ** 2
    q = 2.0 * math.pi / L_z
    if seed == 0:
        zero = np.zeros((r.size, z.size))
        return {"a_r": env[:, None] * np.sin(q * z)[None, :],
                "a_z": env[:, None] * np.cos(q * z)[None, :],
                "b_r": zero, "b_z": zero}
    rng = np.random.default_rng(seed)
    waves = np.stack([f(m * q * z) for m in (1, 2) for f in (np.sin, np.cos)])
    out = {}
    for name in ("a_r", "a_z", "b_r", "b_z"):
        c = rng.uniform(-1.0, 1.0, size=waves.shape[0])
        out[name] = env[:, None] * (c / np.abs(c).sum() @ waves)[None, :]
    return out


def make_inputs(name: str, seed: int, setup: bool, where: Path) -> list[str]:
    """Write the config (and profile) for one run; returns the cli args."""
    wl = WORKLOADS[name]
    cp = _read_config(wl.config)
    where.mkdir(parents=True, exist_ok=True)
    tag = f"seed{seed}{'_setup' if setup else ''}"
    if cp.has_section("profile"):
        npz = where / f"profile_{tag}.npz"
        np.savez(npz, **profile_arrays(cp, seed))
        cp["profile"] = {"family": "file", "path": str(npz),
                         "amplitude": "1.0"}
    if setup:
        if wl.command == "simulate":
            cp["step"]["t_end"] = cp["step"]["dt"]
        elif wl.command == "oracle-compare":
            cp["oracle"]["n_steps"] = "1"
        else:
            cp["scan"]["trials"] = "1"
    if cp.has_section("scan"):
        cp["scan"]["seed"] = str(SCAN_SEED_BASE + seed)
    ini = where / f"{name}_{tag}.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return [wl.command, "--config", str(ini), "--quiet"]


# -- child processes ----------------------------------------------------------------

def child_env() -> dict:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}


@dataclass
class Run:
    exit_code: int
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str], log: Path, timeout: float) -> Run:
    """Run one child to completion; wall time and its own peak RSS."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0)


# -- output checks ------------------------------------------------------------------

def _flags(obj, path=""):
    """Every invariant flag in a report: ``*_ok``, within_tol, invariants_held."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "config":  # echoed settings, not outcomes
                continue
            where = f"{path}.{key}" if path else key
            if key.endswith("_ok") or key in FLAG_KEYS:
                yield where, value
            else:
                yield from _flags(value, where)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flags(value, f"{path}[{i}]")


def physics_outputs(name: str, report: dict) -> dict[str, float]:
    """The named physics outputs compared against the reference."""
    if WORKLOADS[name].command == "simulate":
        out = {k: report["energy"]["final"][k] for k in ("E0", "E1", "D0", "D1")}
        for row in report["decay"]["per_mode"]:
            out[f"sup_norm_k{row['k']}_j{row['j']}"] = row["sup_norm"]
        return out
    if WORKLOADS[name].command == "oracle-compare":
        return {"oracle_gap": report["discrepancy"]}
    return {"max_ratio": report["max_ratio"],
            "median_ratio": report["median_ratio"]}


def check_run(name: str, run: Run, out_dir: Path, args: list[str],
              reference: dict | None) -> tuple[list[str], dict]:
    """Problems with one run's outputs (none when it is correct), and its
    physics outputs."""
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}"], {}
    path = out_dir / WORKLOADS[name].report
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read {path.name}: {exc}"], {}
    problems = [f"flag {k} is {v!r}" for k, v in _flags(report) if v is not True]
    try:
        values = physics_outputs(name, report)
    except (KeyError, TypeError) as exc:
        return problems + [f"report lacks {exc}"], {}
    bad = [k for k, v in values.items()
           if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0)]
    problems += [f"{k} is not a finite nonnegative number" for k in bad]
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read(args[2], encoding="utf-8")
    if name.startswith("ns"):
        want = round(cfg.getfloat("step", "t_end") / cfg.getfloat("step", "dt"))
        if report["run"]["n_steps"] != want:
            problems.append(f"ran {report['run']['n_steps']} steps, not {want}")
    elif name == "scan":
        if (report["trials"], report["seed"]) != (
                cfg.getint("scan", "trials"), cfg.getint("scan", "seed")):
            problems.append("scan report does not echo its trials and seed")
        if not 0 < report["median_ratio"] <= report["max_ratio"]:
            problems.append("scan ratios out of order")
    elif not 0 < report["discrepancy"]:
        problems.append("oracle gap is not positive")
    if reference is not None:
        sups = [abs(v) for k, v in reference.items() if k.startswith("sup_norm")]
        floor = REF_SUP_FLOOR * max(sups, default=0.0)
        for key, want in reference.items():
            got = values.get(key)
            tol = REF_RTOL * abs(want)
            if key.startswith("sup_norm"):
                tol += floor
            if got is None or abs(got - want) > tol:
                problems.append(f"{key} = {got!r}, reference {want!r} "
                                f"(tolerance {tol:.3g})")
    return problems, values


# -- machine fingerprint ------------------------------------------------------------

def fingerprint(probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"  # a checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for src in sorted((ROOT / "src" / "cylmode").glob("*.py")):
        digest.update(src.name.encode())
        digest.update(src.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_commit": commit,
            "source_digest": digest.hexdigest()[:16],
            "blas_env": BLAS_ENV, **probe}


# -- host speed ---------------------------------------------------------------------

@functools.cache
def _calibration_inputs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)) + 96.0 * np.eye(96)
    return (rng.standard_normal((24, 16)), lu_factor(a),
            rng.standard_normal((96, 4)), rng.standard_normal((40, 24, 16)))


def calibrate() -> float:
    """Seconds for a fixed slice of the kinds of work cylmode does.

    Interpreted Python, ufuncs on grid-sized arrays, small LU solves and real
    FFTs along a 40-point angle, in about equal shares.  It is timed next to
    every child run, so the ratio of ``CAL_REF_S`` to its median is the
    host's speed over the same minutes as the samples.
    """
    x, lu, rhs, cube = _calibration_inputs()
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(1_800_000):
        acc += i * 0.5
        table[i & 255] = acc
    y = x
    for _ in range(36_000):
        y = np.sin(y) * 0.5 + x * 0.25
    for _ in range(7_500):
        lu_solve(lu, rhs, check_finite=False)
    for _ in range(1_800):
        np.fft.irfft(np.fft.rfft(cube, axis=0), n=40, axis=0)
    return time.perf_counter() - t0


# -- measurement --------------------------------------------------------------------

class Session:
    """One benchmark invocation: runs, checks and failure accounting."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.deadline = deadline
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.reference = reference[name]
        self.args = {}
        for s in sorted({0, seed}):
            for setup in (False, True):
                self.args[(s, setup)] = make_inputs(name, s, setup, WORK / name)
        self.serial = 0
        self.reference_outputs: dict = {}

    def run(self, seed: int, setup: bool = False, traced: bool = False):
        """One checked run; returns (Run, traced layer dict or None)."""
        args = self.args[(seed, setup)]
        self.serial += 1
        out = WORK / self.name / f"run{self.serial:03d}"
        out.mkdir(parents=True)
        cli = args + ["--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "layers.py"),
                    str(out / "layers.json"), str(out / "spans.npz"), "--", *cli]
        else:
            argv = [sys.executable, "-c", CHILD, *cli]
        run = spawn(argv, out / "log.txt",
                    max(self.deadline - time.perf_counter(), 1.0))
        checked = seed == 0 and not setup
        problems, values = check_run(self.name, run, out, args,
                                     self.reference if checked else None)
        if checked:
            self.reference_outputs = values
        layers = None
        if traced and not problems:
            layers = json.loads((out / "layers.json").read_text("utf-8"))
            if layers["exit_code"] != 0:
                problems.append(f"traced exit code {layers['exit_code']}")
        self.attempted += 1
        if problems:
            self.failures.append(f"{out.name}: " + "; ".join(problems))
        return run, layers


def rounds(seconds: float, min_rounds: int, deadline: float):
    """Yield round indices while the next round is expected to end by
    ``seconds`` give or take half a round, so runs last ``seconds`` on
    average whatever their round length.

    At least ``min_rounds`` rounds run unless the hard deadline passes.
    """
    start = time.perf_counter()
    lengths = []
    i = 0
    while True:
        t = time.perf_counter()
        yield i
        lengths.append(time.perf_counter() - t)
        i += 1
        now = time.perf_counter()
        if now + statistics.median(lengths) > deadline:
            return
        if (i >= min_rounds
                and now - start + statistics.median(lengths) / 2 > seconds):
            return


def summary(values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f", quartiles {q1:.4g}..{q3:.4g}"
    else:
        spread = ""
    return f"median of {len(values)}{spread}"


def measure_end_to_end(sess: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and the samples behind them.

    Times are medians scaled by the host speed measured alongside them, so
    they read as seconds on the reference host.
    """
    full: list[Run] = []
    setups: list[Run] = []
    cal: list[float] = []
    for i in rounds(seconds, MIN_ROUNDS, sess.deadline):
        cal.append(calibrate())
        full.append(sess.run(0 if i == 0 else sess.seed)[0])
        cal.append(calibrate())
        setups.append(sess.run(sess.seed, setup=True)[0])
    speed = CAL_REF_S / statistics.median(cal)
    samples = {"wall_s": [r.wall_s for r in full],
               "setup_s": [r.wall_s for r in setups],
               "peak_rss_mb": [r.peak_rss_mb for r in full],
               "calibration_s": cal}
    print(f"host speed = {speed:.4g} x reference (calibration "
          f"{summary(cal)}, reference {CAL_REF_S} s)")
    for key in ("wall_s", "setup_s"):
        raw = statistics.median(samples[key])
        print(f"{key} = {raw * speed:.6g} s at reference speed; "
              f"{raw:.6g} s as measured ({summary(samples[key])})")
    rss = statistics.median(samples["peak_rss_mb"])
    print(f"peak_rss_mb = {rss:.6g} MB ({summary(samples['peak_rss_mb'])})")
    if "oracle_gap" in sess.reference_outputs:
        print(f"oracle_gap = {sess.reference_outputs['oracle_gap']:.6g} "
              f"(seed-0 run; reference {sess.reference['oracle_gap']:.6g})")
    metrics = {k: {"value": statistics.median(samples[k]) * speed, "unit": "s"}
               for k in ("wall_s", "setup_s")}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics, samples


LAYER_UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_p95": "ms", "_bytes": "B",
               "_ratio": "ratio", "coverage": "ratio"}


def _unit(metric: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def measure_layers(sess: Session, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics and the wall-time samples behind them."""
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []
    missing: set[str] = set()
    for i in rounds(seconds, 1, sess.deadline):
        seed = 0 if i == 0 else sess.seed
        plain.append(sess.run(seed)[0].wall_s)
        run, layers = sess.run(seed, traced=True)
        if layers is not None:
            traced.append((run.wall_s, layers["metrics"]))
            missing.update(layers["missing"])
    if not traced:
        return {}, {"untraced_wall_s": plain}
    per_run: dict[str, list[float]] = {}
    for wall, m in traced:
        m = dict(m)
        named = m.pop("_named_self_s") + m["cli.import_s"]
        m["cli.untraced_s"] = wall - named
        m["trace.coverage"] = named / wall
        for key, value in m.items():
            per_run.setdefault(key, []).append(value)
    out = {k: statistics.median(v) for k, v in per_run.items()}
    samples = {"traced_wall_s": [w for w, _ in traced], "untraced_wall_s": plain}
    traced_wall = statistics.median(samples["traced_wall_s"])
    out["trace.overhead_s"] = traced_wall - statistics.median(plain)
    if missing:
        print(f"missing entry points (their metrics are left out): "
              f"{', '.join(sorted(missing))}")
    print(f"traced wall_s = {traced_wall:.6g} s "
          f"({summary(samples['traced_wall_s'])}); "
          f"untraced wall_s = {statistics.median(plain):.6g} s "
          f"({summary(plain)})")
    steps = out.get("stepper.steps")
    for key in sorted(out):
        note = f" (from {steps:.0f} steps)" if key.startswith("stepper.step_ms") else ""
        print(f"{key} = {out[key]:.6g} {_unit(key)}{note}")
    return {k: {"value": v, "unit": _unit(k)} for k, v in out.items()}, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    # a terminated benchmark still stops and reaps the child it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # the calibration and every child share one core, so the host speed it
    # measures is that of the core the samples ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "cylmode" / "cli.py").is_file():
        print(f"no cylmode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    probe_run = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                               env=child_env(), capture_output=True, text=True,
                               timeout=BUDGET_S / 2)
    if probe_run.returncode != 0:
        print(f"cannot import cylmode:\n{probe_run.stderr}", file=sys.stderr)
        return 2
    probe = json.loads(probe_run.stdout.strip().splitlines()[-1])
    if Path(probe["cylmode_file"]).resolve().parent != ROOT / "src" / "cylmode":
        print(f"cylmode imported from {probe['cylmode_file']}, not from this "
              "checkout", file=sys.stderr)
        return 2
    machine = fingerprint(probe)
    print("machine: " + json.dumps(machine, sort_keys=True))

    sess = Session(args.workload, args.seed, deadline)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, samples = measure(sess, args.seconds)
    failed = len(sess.failures)
    for line in sess.failures:
        print(f"FAILED {line}")
    print(f"ops_failed = {failed / max(sess.attempted, 1):.6g} "
          f"({failed} of {sess.attempted} runs)")
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": sess.attempted, "failed": failed,
              "metrics": metrics}
    (WORK / args.workload / "result.json").write_text(
        json.dumps({**result, "machine": machine, "seed": args.seed,
                    "trace": args.trace, "samples": samples,
                    "failures": sess.failures}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

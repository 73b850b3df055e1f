"""Traced run of one cylmode command: per-layer spans, counts and metrics.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/layers.py OUT_JSON SPANS_NPZ -- simulate --config ...

The script imports ``cylmode.cli``, rebinds the public names that callers
look up (module functions in every ``cylmode`` module that imported them,
methods on their classes, and the ``scipy.linalg`` LU routines inside the
module that uses them) to wrappers that record spans, then calls
``cylmode.cli.main`` with the given arguments.  Each span records its name,
start, end and parent; spans stay in memory and are written to SPANS_NPZ
when the command returns.  Self times are derived from the spans
afterwards.  ``CylGrid`` derivative and quadrature methods are counted, not
timed, because they are called about a thousand times per step.

An entry point that no longer exists is listed under ``missing`` and every
metric that needs it is left out; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Span targets: name -> (module, attribute path, bucket).  A bucket of None
# makes the span inherit its parent's bucket, so an LU solve made while
# factoring counts as factoring.  Every span's self time lands in exactly
# one bucket; the buckets partition the traced command's time.
SPANS = {
    "cli.main": ("cli", "main", "cli.root"),
    "cli.load_config": ("cli", "load_config", "cli.config"),
    "cli._write_json": ("cli", "_write_json", "cli.report_write"),
    "state.divergence_residual": ("state", "divergence_residual",
                                  "state.divergence"),
    "state.total_l2_sq": ("state", "ModeState.total_l2_sq", "state.l2"),
    "state.mode_l2_sq": ("state", "ModeState.mode_l2_sq", "state.l2"),
    "state.copy": ("state", "ModeState.copy", "state.copy"),
    "state.save_checkpoint": ("state", "save_checkpoint", "state.checkpoint"),
    "state.make_initial_state": ("state", "make_initial_state", "state.init"),
    "state.make_profile_divfree": ("state", "make_profile_divfree",
                                   "state.init"),
    "stokes.stokes_step": ("stokes", "stokes_step", "stokes.solve"),
    "stokes.project_divfree": ("stokes", "project_divfree", "stokes.solve"),
    "stokes.factors": ("stokes", "StokesOpCache.factors", "stokes.factor"),
    "stokes.lu_factor": ("stokes", "lu_factor", None),
    "stokes.lu_solve": ("stokes", "lu_solve", None),
    "nonlinear.assemble_quadratic_rhs": ("nonlinear", "assemble_quadratic_rhs",
                                         "nonlinear.quadratic"),
    "nonlinear.flux_identity_residual": ("nonlinear", "flux_identity_residual",
                                         "nonlinear.flux_check"),
    "stepper.run": ("stepper", "run", "stepper.step_self"),
    "stepper.step": ("stepper", "step", "stepper.step_self"),
    "stepper.cfl_limit": ("stepper", "cfl_limit", "stepper.cfl"),
    "stepper.energy_budget": ("stepper", "energy_budget", "stepper.budget"),
    "stepper.write_budget_header": ("stepper", "write_budget_header",
                                    "stepper.budget_csv"),
    "stepper.append_budget_rows": ("stepper", "append_budget_rows",
                                   "stepper.budget_csv"),
    "functionals.accumulate": ("functionals", "accumulate",
                               "functionals.accumulate"),
    "functionals.save_history": ("functionals", "save_history",
                                 "functionals.history_write"),
    "functionals.decay_report": ("functionals", "decay_report",
                                 "functionals.report"),
    "functionals.smallness_check": ("functionals", "smallness_check",
                                    "functionals.report"),
    "functionals.compute_E": ("functionals", "compute_E", "functionals.report"),
    "functionals.compute_D": ("functionals", "compute_D", "functionals.report"),
    "oracle.oracle_step": ("oracle", "oracle_step", "oracle.step"),
    "oracle.factors": ("oracle", "OracleOpCache.factors", "oracle.factor"),
    # private, but the per-bin solve loop has no public entry point
    "oracle._solve_all_bins": ("oracle", "_solve_all_bins", "oracle.bin_solve"),
    "oracle.lu_factor": ("oracle", "lu_factor", None),
    "oracle.lu_solve": ("oracle", "lu_solve", None),
    "oracle.nonlinear_term": ("oracle", "nonlinear_term", "oracle.nonlinear"),
    "oracle.reconstruct_to_full": ("oracle", "reconstruct_to_full",
                                   "oracle.transfer"),
    "oracle.project_to_modes": ("oracle", "project_to_modes",
                                "oracle.transfer"),
    "oracle.relative_l2": ("oracle", "relative_l2", "oracle.transfer"),
    "inequalities.constant_scan": ("inequalities", "constant_scan",
                                   "inequalities.trial_gen"),
    "inequalities.disk_function": ("inequalities", "disk_function",
                                   "inequalities.trial_gen"),
    "inequalities.anisotropic_ratio": ("inequalities", "anisotropic_ratio",
                                       "inequalities.ratio"),
    "inequalities.isotropic_ratio": ("inequalities", "isotropic_ratio",
                                     "inequalities.ratio"),
    "inequalities.radial_ratio": ("inequalities", "radial_ratio",
                                  "inequalities.ratio"),
    "inequalities.radial_quartic_ratio": ("inequalities",
                                          "radial_quartic_ratio",
                                          "inequalities.ratio"),
    "inequalities.angular_poincare_ratio": ("inequalities",
                                            "angular_poincare_ratio",
                                            "inequalities.ratio"),
    "inequalities.vertical_sup_ratio": ("inequalities", "vertical_sup_ratio",
                                        "inequalities.ratio"),
    "inequalities.pointwise_weight_ok": ("inequalities", "pointwise_weight_ok",
                                         "inequalities.weight_check"),
    "inequalities.build_disk_grid": ("inequalities", "build_disk_grid",
                                     "inequalities.disk_grid"),
}

# Counted-only targets: name -> (module, attribute path).
COUNTS = {
    "grid.dr": ("grid", "CylGrid.dr"),
    "grid.dz": ("grid", "CylGrid.dz"),
    "grid.dz_pow": ("grid", "CylGrid.dz_pow"),
    "grid.quad": ("grid", "CylGrid.quad"),
}

RATIO_SPANS = tuple(n for n, (_, _, b) in SPANS.items()
                    if b == "inequalities.ratio")


def _file_size(args, index: int) -> int:
    path = args[index] if len(args) > index else None
    return os.path.getsize(path) if isinstance(path, str) \
        and os.path.isfile(path) else 0


# Tallies taken after a wrapped call returns, outside its span:
# span name -> f(tally, args, result).  Each save rewrites its file, so
# checkpoint and history bytes add up; the budget CSV is only appended to.
OBSERVERS = {
    "state.save_checkpoint": lambda t, a, out: t.update(
        checkpoint_bytes=t["checkpoint_bytes"] + _file_size(a, 1)),
    "functionals.save_history": lambda t, a, out: t.update(
        history_bytes=t["history_bytes"] + _file_size(a, 1)),
    "stepper.energy_budget": lambda t, a, out: t.update(
        rows_computed=t["rows_computed"] + len(out)),
    "stepper.append_budget_rows": lambda t, a, out: t.update(
        rows_sunk=t["rows_sunk"] + len(a[1]),
        budget_csv_bytes=_file_size(a, 0)),
    "inequalities.constant_scan": lambda t, a, out: t.update(
        trials=t["trials"] + int(out["trials"])),
}


class Tracer:
    """Spans in flat lists, indexed in order of entry."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.tally = dict.fromkeys(
            ("checkpoint_bytes", "history_bytes", "budget_csv_bytes",
             "rows_computed", "rows_sunk", "trials"), 0)

    def span(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(f"cylmode.{module}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(owner, attr: str, original, wrapper) -> None:
    """Replace ``original`` wherever callers look it up.

    A class attribute is replaced on its class.  A cylmode function is
    replaced in every loaded cylmode module that imported it by name; a
    foreign function (the scipy LU routines) only in the module named.
    """
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    if not getattr(original, "__module__", "").startswith("cylmode"):
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cylmode" or name.startswith("cylmode.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _observed(tally: dict, observe, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        observe(tally, args, out)
        return out
    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the names of entry points not found."""
    missing = []
    for name, (module, path, _) in SPANS.items():
        found = _resolve(module, path)
        if found is None:
            missing.append(name)
            continue
        owner, attr, original = found
        wrapper = tracer.span(name, original)
        if name in OBSERVERS:
            wrapper = _observed(tracer.tally, OBSERVERS[name], wrapper)
        _rebind(owner, attr, original, wrapper)
    for name, (module, path) in COUNTS.items():
        found = _resolve(module, path)
        if found is None:
            missing.append(name)
            continue
        owner, attr, original = found
        _rebind(owner, attr, original, tracer.counter(name, original))
    return missing


# -- metrics derived from the spans ---------------------------------------------

def span_table(tracer: Tracer):
    """Per-span arrays: name index, duration, self time, bucket."""
    import numpy as np

    n = len(tracer.names)
    starts = np.asarray(tracer.starts)
    ends = np.asarray(tracer.ends)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=n) if n else np.zeros(0)
    self_time = dur - child
    buckets = []
    for i, name in enumerate(tracer.names):
        own = SPANS[name][2]
        if own is None:
            own = buckets[parents[i]] if parents[i] >= 0 else "cli.root"
        buckets.append(own)
    return dur, self_time, buckets


def layer_metrics(tracer: Tracer, missing: list[str]) -> dict:
    """Metric name -> value; metrics that need a missing target are absent."""
    import numpy as np

    dur, self_time, buckets = span_table(tracer)
    names = np.asarray(tracer.names, dtype=object)
    buckets = np.asarray(buckets, dtype=object)

    def self_in(bucket: str) -> float:
        return float(self_time[buckets == bucket].sum())

    def calls(*span_names: str) -> int:
        return int(np.isin(names, span_names).sum())

    def self_of(span_name: str, bucket: str) -> float:
        return float(self_time[(names == span_name)
                               & (buckets == bucket)].sum())

    steps = dur[names == "stepper.step"] * 1e3
    tally = tracer.tally
    ratio_rows = (tally["rows_sunk"] / tally["rows_computed"]
                  if tally["rows_computed"] else 0.0)
    specs = [
        # (metric, spans it needs, value)
        ("stokes.solve_s", ["stokes.stokes_step"], lambda: self_in("stokes.solve")),
        ("stokes.solve_calls", ["stokes.stokes_step"],
         lambda: calls("stokes.stokes_step")),
        ("stokes.lu_solves", ["stokes.lu_solve"],
         lambda: int(((names == "stokes.lu_solve")
                      & (buckets == "stokes.solve")).sum())),
        ("stokes.lu_solve_s", ["stokes.lu_solve"],
         lambda: self_of("stokes.lu_solve", "stokes.solve")),
        ("stokes.factor_s", ["stokes.factors"], lambda: self_in("stokes.factor")),
        ("stokes.lu_factors", ["stokes.lu_factor"],
         lambda: calls("stokes.lu_factor")),
        ("stokes.cleanup_calls", ["stokes.project_divfree"],
         lambda: calls("stokes.project_divfree")),
        ("nonlinear.quadratic_s", ["nonlinear.assemble_quadratic_rhs"],
         lambda: self_in("nonlinear.quadratic")),
        ("nonlinear.quadratic_calls", ["nonlinear.assemble_quadratic_rhs"],
         lambda: calls("nonlinear.assemble_quadratic_rhs")),
        ("nonlinear.flux_check_s", ["nonlinear.flux_identity_residual"],
         lambda: self_in("nonlinear.flux_check")),
        ("state.divergence_s", ["state.divergence_residual"],
         lambda: self_in("state.divergence")),
        ("state.divergence_calls", ["state.divergence_residual"],
         lambda: calls("state.divergence_residual")),
        ("state.l2_s", ["state.total_l2_sq", "state.mode_l2_sq"],
         lambda: self_in("state.l2")),
        ("state.copy_s", ["state.copy"], lambda: self_in("state.copy")),
        ("state.init_s", ["state.make_initial_state"],
         lambda: self_in("state.init")),
        ("state.checkpoint_s", ["state.save_checkpoint"],
         lambda: self_in("state.checkpoint")),
        ("state.checkpoint_calls", ["state.save_checkpoint"],
         lambda: calls("state.save_checkpoint")),
        ("state.checkpoint_bytes", ["state.save_checkpoint"],
         lambda: tally["checkpoint_bytes"]),
        ("functionals.accumulate_s", ["functionals.accumulate"],
         lambda: self_in("functionals.accumulate")),
        ("functionals.accumulate_calls", ["functionals.accumulate"],
         lambda: calls("functionals.accumulate")),
        ("functionals.history_write_s", ["functionals.save_history"],
         lambda: self_in("functionals.history_write")),
        ("functionals.history_bytes", ["functionals.save_history"],
         lambda: tally["history_bytes"]),
        ("functionals.report_s", ["functionals.decay_report"],
         lambda: self_in("functionals.report")),
        ("stepper.budget_s", ["stepper.energy_budget"],
         lambda: self_in("stepper.budget")),
        ("stepper.budget_calls", ["stepper.energy_budget"],
         lambda: calls("stepper.energy_budget")),
        ("stepper.budget_csv_s", ["stepper.append_budget_rows"],
         lambda: self_in("stepper.budget_csv")),
        ("stepper.budget_csv_bytes", ["stepper.append_budget_rows"],
         lambda: tally["budget_csv_bytes"]),
        ("stepper.budget_rows_used_ratio",
         ["stepper.energy_budget", "stepper.append_budget_rows"],
         lambda: ratio_rows),
        ("stepper.steps", ["stepper.step"], lambda: int(steps.size)),
        ("stepper.step_ms_p50", ["stepper.step"],
         lambda: float(np.percentile(steps, 50)) if steps.size else 0.0),
        ("stepper.step_ms_p95", ["stepper.step"],
         lambda: float(np.percentile(steps, 95)) if steps.size else 0.0),
        ("stepper.step_self_s", ["stepper.step", "stepper.run"],
         lambda: self_in("stepper.step_self")),
        ("stepper.cfl_s", ["stepper.cfl_limit"], lambda: self_in("stepper.cfl")),
        ("oracle.step_s", ["oracle.oracle_step"], lambda: self_in("oracle.step")),
        ("oracle.step_calls", ["oracle.oracle_step"],
         lambda: calls("oracle.oracle_step")),
        ("oracle.bin_solve_s", ["oracle._solve_all_bins"],
         lambda: self_in("oracle.bin_solve")),
        ("oracle.lu_solves", ["oracle.lu_solve", "oracle._solve_all_bins"],
         lambda: int(((names == "oracle.lu_solve")
                      & (buckets == "oracle.bin_solve")).sum())),
        ("oracle.factor_s", ["oracle.factors"], lambda: self_in("oracle.factor")),
        ("oracle.lu_factors", ["oracle.lu_factor"],
         lambda: calls("oracle.lu_factor")),
        ("oracle.nonlinear_s", ["oracle.nonlinear_term"],
         lambda: self_in("oracle.nonlinear")),
        ("oracle.transfer_s", ["oracle.reconstruct_to_full",
                               "oracle.project_to_modes"],
         lambda: self_in("oracle.transfer")),
        ("inequalities.scan_s", ["inequalities.constant_scan"],
         lambda: float(dur[names == "inequalities.constant_scan"].sum())),
        ("inequalities.trials", ["inequalities.constant_scan"],
         lambda: tally["trials"]),
        ("inequalities.ratio_s", ["inequalities.anisotropic_ratio"],
         lambda: self_in("inequalities.ratio")),
        ("inequalities.ratio_calls", ["inequalities.anisotropic_ratio"],
         lambda: calls(*RATIO_SPANS)),
        ("inequalities.trial_gen_s", ["inequalities.constant_scan",
                                      "inequalities.disk_function"],
         lambda: self_in("inequalities.trial_gen")),
        ("inequalities.weight_check_s", ["inequalities.pointwise_weight_ok"],
         lambda: self_in("inequalities.weight_check")),
        ("inequalities.disk_grid_s", ["inequalities.build_disk_grid"],
         lambda: self_in("inequalities.disk_grid")),
        ("cli.config_s", ["cli.load_config"], lambda: self_in("cli.config")),
        ("cli.report_write_s", ["cli._write_json"],
         lambda: self_in("cli.report_write")),
    ]
    for name in COUNTS:
        specs.append((f"{name}_calls", [name],
                      functools.partial(tracer.counts.get, name, 0)))
    gone = set(missing)
    out = {name: value() for name, needs, value in specs
           if not gone.intersection(needs)}
    out["_named_self_s"] = float(self_time[buckets != "cli.root"].sum())
    return out


def main(argv: list[str]) -> int:
    out_json, spans_npz, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: layers.py OUT_JSON SPANS_NPZ -- CLI_ARGS...")
    t0 = time.perf_counter()
    import cylmode.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    missing = install(tracer)
    code = cylmode.cli.main(cli_args)

    import numpy as np
    metrics = layer_metrics(tracer, missing)
    metrics["cli.import_s"] = import_s
    names = sorted(set(tracer.names))
    index = {n: i for i, n in enumerate(names)}
    np.savez(spans_npz, names=np.asarray(names),
             name=np.asarray([index[n] for n in tracer.names], dtype=np.int32),
             start=np.asarray(tracer.starts), end=np.asarray(tracer.ends),
             parent=np.asarray(tracer.parents, dtype=np.int64))
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "missing": missing,
                   "cylmode_file": cylmode.cli.__file__,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

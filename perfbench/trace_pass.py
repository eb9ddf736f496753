"""Traced pass: one workload's inputs run in one process, with a span around
every call into edgekit's public functions; prints nothing, writes JSON.

    PYTHONPATH=src python3 perfbench/trace_pass.py --workload mc_tw --seed 1 --out trace.json

run.py --trace 1 starts it with the benchmark's environment.  The pass calls
edgekit.cli.main in-process for each of the workload's commands at the
``trace`` size, with --threads 1 so every span is recorded here; simulate runs
once more at --threads 2 to time the parallel replicate engine.  The same
pass runs three times: untraced as a warm-up, traced, and untraced again;
trace.overhead_frac compares the last two.  Spans stay in memory until the end.

A layer a workload never calls reads 0 in every metric of that layer.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import edgekit.cli as cli  # noqa: E402  (timed: first edgekit import of this process)
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from edgekit.stieltjes import solve_mfc_grid  # noqa: E402

from workloads import WORKLOADS, Op, exit_ok, run_checks  # noqa: E402


class Tracer:
    """Spans (name, start, end, parent, attrs) recorded in memory, single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, record=None):
        """fn with a span around each call; record(bound arguments, result) -> span attrs."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if record is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = record(bound.arguments, out)
            return out

        return traced


# ---------------------------------------------------------------------------
# what is traced, and which counts each span keeps from its call


def _check_record(args, report):
    return {"reps": int(args["reps"]), "status": report.status}


def targets(density_grids: list) -> dict:
    """Traced functions -> record(bound arguments, result), or None for a bare span.

    density's record also keeps each solved grid in density_grids, so that its
    iteration counts can be recomputed after the timed passes.
    """
    def density_record(args, curve):
        density_grids.append((args["spec"], curve.E, curve.eta0))
        return {"points": int(curve.rho.size), "unconverged": int(np.isnan(curve.rho).sum())}

    return {
        "population.edge_params": None,
        "stieltjes.density": density_record,
        "stieltjes.solve_mfc": lambda args, out: {"iterations": int(out.iterations)},
        "tracy_widom.hastings_mcleod": None,
        "tracy_widom.tw_table": None,
        "tracy_widom.cached_tw_table": None,
        "ensemble.run_monte_carlo": lambda args, out: {"threads": int(args["threads"]),
                                                       "replicates": int(out.rows.shape[0])},
        "ensemble.sample_data_matrix": None,
        "ensemble.top_eigenvalues": None,
        "ensemble.sample_goe_top": lambda args, out: {"replicates": int(out.rows.shape[0])},
        "ensemble.ks_statistic": None,
        "detect.calibrate_null": None,
        "detect.detect": None,
        "flow.flow_state": None,
        "flow.zdot_check": None,
        "green.optical_residual": _check_record,
        "green.cancellation_check": _check_record,
        "green.decoupling_residual": _check_record,
        "green.comparison_functional": lambda args, out: {"reps": int(args["reps"])},
        "green.control_parameter": None,
    }


@contextlib.contextmanager
def installed(tracer: Tracer, density_grids: list):
    """Replace each target in every edgekit namespace that holds it, restore on exit."""
    edgekit_modules = [m for name, m in list(sys.modules.items())
                       if name == "edgekit" or name.startswith("edgekit.")]
    patched = []
    for qualname, record in targets(density_grids).items():
        module_name, fn_name = qualname.split(".")
        original = getattr(importlib.import_module(f"edgekit.{module_name}"), fn_name)
        wrapper = tracer.wrap(qualname, original, record)
        for module in edgekit_modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# the pass


def trace_commands(workload, work: Path, seed: int, size: str) -> list:
    """The workload's commands at --threads 1, plus simulate again at --threads 2."""
    commands = []
    for argv in workload.commands(work, seed, size):
        if "--threads" in argv:
            serial = list(argv)
            serial[serial.index("--threads") + 1] = "1"
            commands.append(serial)
        else:
            commands.append(argv)
        if argv[0] == "simulate":
            parallel = [a for a in argv if a != "--ks"]
            parallel[parallel.index("--out") + 1] = "sim_threads2"
            commands.append(parallel)
    return commands


def run_pass(workload, work: Path, seed: int, size: str, tracer: Tracer | None):
    """Run the commands in work/, on a fresh cache; returns (wall seconds, ops)."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    os.environ["EDGEKIT_CACHE"] = str(work / "cache")
    os.chdir(work)
    commands = trace_commands(workload, work, seed, size)
    ops = []
    start = time.perf_counter()
    for argv in commands:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            detail = ""
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the CLI process would die with exit 1
                code, detail = 1, f": {type(exc).__name__}: {exc}"
        ops.append(Op(f"cli_{argv[0]}", exit_ok(argv, code, size), f"exit {code}{detail}"))
    wall = time.perf_counter() - start
    return wall, ops + run_checks(workload, work, seed, size)


# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans: list, name: str) -> list:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list) -> list:
    """Span duration minus the time its direct children cover (children never overlap)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list, grid_iterations: list, overhead_frac: float) -> dict:
    own = self_times(spans)

    def median_ms(name):
        d = _durations(spans, name)
        return statistics.median(d) * 1e3 if d else 0.0

    def total(name):
        return sum(_durations(spans, name), 0.0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def per_rep_ms(name):
        reps = attr_sum(name, "reps")
        return total(name) * 1e3 / reps if reps else 0.0

    engine = {1: 0.0, 2: 0.0}
    for s in spans:
        if s["name"] == "ensemble.run_monte_carlo":
            engine[1 if s["attrs"]["threads"] <= 1 else 2] += s["end"] - s["start"]
    goe_reps = attr_sum("ensemble.sample_goe_top", "replicates")
    points = attr_sum("stieltjes.density", "points")
    unconverged = attr_sum("stieltjes.density", "unconverged")
    iterations = np.concatenate(grid_iterations) if grid_iterations else np.zeros(0, dtype=int)
    checks = [s for s in spans if s["name"] in
              ("green.optical_residual", "green.cancellation_check", "green.decoupling_residual")]
    values = {
        ("cli.import_s", "s"): IMPORT_S,
        ("population.edge_params.ms", "ms"): median_ms("population.edge_params"),
        ("stieltjes.density.s", "s"): total("stieltjes.density"),
        ("stieltjes.iterations", "count"): int(iterations.sum()),
        ("stieltjes.iterations_max", "count"): int(iterations.max()) if iterations.size else 0,
        ("stieltjes.unconverged", "count"): unconverged,
        ("stieltjes.converged_frac", "frac"): (points - unconverged) / points if points else 0.0,
        ("stieltjes.solve_mfc.ms", "ms"): median_ms("stieltjes.solve_mfc"),
        ("stieltjes.solve_mfc.iterations", "count"): attr_sum("stieltjes.solve_mfc", "iterations"),
        ("tracy_widom.hastings_mcleod.s", "s"): total("tracy_widom.hastings_mcleod"),
        ("tracy_widom.tw_table.ms", "ms"):
            sum(o for o, s in zip(own, spans) if s["name"] == "tracy_widom.tw_table") * 1e3,
        ("tracy_widom.cached_tw_table.s", "s"): total("tracy_widom.cached_tw_table"),
        ("ensemble.sample_data_matrix.ms", "ms"): median_ms("ensemble.sample_data_matrix"),
        ("ensemble.top_eigenvalues.ms", "ms"): median_ms("ensemble.top_eigenvalues"),
        ("ensemble.run_monte_carlo.t1_s", "s"): engine[1],
        ("ensemble.run_monte_carlo.t2_s", "s"): engine[2],
        ("ensemble.engine_speedup", "x"): engine[1] / engine[2] if engine[1] and engine[2] else 0.0,
        ("ensemble.replicates", "count"):
            attr_sum("ensemble.run_monte_carlo", "replicates") + goe_reps,
        ("ensemble.sample_goe_top.ms_per_rep", "ms"):
            total("ensemble.sample_goe_top") * 1e3 / goe_reps if goe_reps else 0.0,
        ("detect.calibrate_null.s", "s"): total("detect.calibrate_null"),
        ("detect.detect.ms", "ms"): total("detect.detect") * 1e3,
        ("flow.flow_state.ms", "ms"): median_ms("flow.flow_state"),
        ("flow.zdot_check.ms", "ms"): median_ms("flow.zdot_check"),
        ("green.optical_residual.ms_per_rep", "ms"): per_rep_ms("green.optical_residual"),
        ("green.cancellation_check.ms_per_rep", "ms"): per_rep_ms("green.cancellation_check"),
        ("green.decoupling_residual.ms_per_rep", "ms"): per_rep_ms("green.decoupling_residual"),
        ("green.comparison_functional.ms_per_rep", "ms"):
            per_rep_ms("green.comparison_functional"),
        ("green.control_parameter.ms", "ms"): median_ms("green.control_parameter"),
        ("green.checks_pass", "count"): sum(s["attrs"]["status"] == "PASS" for s in checks),
        ("trace.overhead_frac", "frac"): overhead_frac,
    }
    return {name: {"value": value, "unit": unit} for (name, unit), value in values.items()}


def span_tree(spans: list) -> list:
    """Spans aggregated by their path of names, as indented text lines."""
    own = self_times(spans)
    paths, rows = {}, {}
    for s, o in zip(spans, own):
        parent = paths[s["parent"]] if s["parent"] is not None else ()
        paths[s["id"]] = parent + (s["name"],)
        calls, dur, self_s = rows.get(paths[s["id"]], (0, 0.0, 0.0))
        rows[paths[s["id"]]] = (calls + 1, dur + s["end"] - s["start"], self_s + o)
    return [f"{'  ' * (len(path) - 1)}{path[-1]}: {calls}, {dur:.4f}, {self_s:.4f}"
            for path, (calls, dur, self_s) in sorted(rows.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("trace", "tiny"), default="trace")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    workload = WORKLOADS[args.workload]
    base = out.parent / "trace_pass"

    # the first pass in a process runs slower (allocator and library warm-up),
    # so it is a warm-up; the traced pass is compared with the untraced one after it
    _, ops = run_pass(workload, base / "warmup", args.seed, args.size, None)
    tracer, grids = Tracer(), []
    with installed(tracer, grids):
        traced_s, traced_ops = run_pass(workload, base / "traced", args.seed, args.size, tracer)
    untraced_s, untraced_ops = run_pass(workload, base / "untraced", args.seed, args.size, None)
    ops += traced_ops + untraced_ops
    # iteration counts: density discards them, solve_mfc_grid returns them for the same z
    grid_iterations = [solve_mfc_grid(spec, E + 1j * eta0)[2] for spec, E, eta0 in grids]

    metrics = layer_metrics(tracer.spans, grid_iterations, traced_s / untraced_s - 1.0)
    result = {"metrics": metrics, "tree": span_tree(tracer.spans),
              "ops": [op.__dict__ for op in ops],
              "passes_s": {"untraced": untraced_s, "traced": traced_s},
              "spans": tracer.spans}
    out.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

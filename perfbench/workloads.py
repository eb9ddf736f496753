"""The benchmark's workloads: which edgekit CLI commands each one runs, and the
checks on their outputs.

Every workload comes in three sizes:

- ``full``: what the timed runs execute (``run.py --trace 0``);
- ``trace``: the same spectra and seeds with fewer replicates, run serially
  in one process by ``trace_pass.py``, which measures per-replicate costs;
- ``tiny``: a few seconds per workload, for the benchmark's own test.

Checks reuse the bounds of the test suite.  A bound the tests set for one
replicate count (the KS bound of c05a, the status of a flow check) is only
applied at the full size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREADS = 2  # --threads for every command: nproc of the reference machine
_THREADS_ARGS = ["--threads", str(THREADS)]


@dataclass(frozen=True)
class Op:
    """One counted operation: a CLI invocation, a grid point or an output check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    # (work dir, seed, size) -> CLI argv lists; may write input files into the work dir
    commands: Callable[[Path, int, str], list]
    # (work dir, seed, size) -> checks on the outputs the commands left in the work dir
    check: Callable[[Path, int, str], list]
    pin_blas: bool = True


def exit_ok(argv: list, code: int, size: str) -> bool:
    """Whether a CLI exit code counts as success.

    flow-verify exits 4 when a check reports FAIL.  Check statuses are only
    gated at the full size (see module docstring), so below it exit 4 is a
    status report, not a failed invocation.
    """
    return code == 0 or (size != "full" and argv[0] == "flow-verify" and code == 4)


def run_checks(workload: Workload, work: Path, seed: int, size: str) -> list:
    """The workload's checks; a check that crashes on unexpected output is one failed op."""
    try:
        return workload.check(work, seed, size)
    except Exception as exc:  # the run must still report its result
        return [Op("output_check", False, f"{type(exc).__name__}: {exc}")]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# mc_tw: the main-theorem Monte Carlo check

_MC_TW = {"full": (400, 1000), "trace": (400, 200), "tiny": (60, 40)}  # N = M, replicates


def _mc_tw_commands(work: Path, seed: int, size: str) -> list:
    n, reps = _MC_TW[size]
    return [["simulate", "--spectrum", f"twopoint:a=1,b=2,w=0.5,M={n},N={n}",
             "--reps", str(reps), "--k", "1", "--ks", "--seed", str(seed), *_THREADS_ARGS,
             "--out", "sim"]]


def _samples_op(path: Path, reps: int) -> Op:
    """samples.csv holds one finite row per replicate."""
    try:
        rows = path.read_text().strip().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")[1:]]
    except (OSError, ValueError) as exc:
        return Op("samples_rows", False, str(exc))
    ok = len(rows) == reps and all(math.isfinite(v) for v in values)
    return Op("samples_rows", ok, f"{len(rows)} rows for {reps} replicates")


def _mc_tw_check(work: Path, seed: int, size: str) -> list:
    ops = [_samples_op(work / "sim" / "samples.csv", _MC_TW[size][1])]
    if size == "full":
        report = _read_json(work / "sim" / "ks.json")
        ks = report["statistic"] if report else math.inf
        ops.append(Op("ks_le_0.10", ks <= 0.10, f"KS to F1 = {ks!r} (c05a bound 0.10)"))
    return ops


# The oversubscription diagnostic: mc_tw under the default BLAS environment.
# Not a gated workload: its run-to-run spread is far above any usable bound.
def _diag_commands(work: Path, seed: int, size: str) -> list:
    argv = _mc_tw_commands(work, seed, size)[0]
    argv[argv.index("--reps") + 1] = "300"
    return [argv]


def _diag_check(work: Path, seed: int, size: str) -> list:
    return [_samples_op(work / "sim" / "samples.csv", 300)]


# ---------------------------------------------------------------------------
# density_grid: the batched Stieltjes solve

# (M of the uniform spectrum, its points), (M of the d=2 identity, its points)
_DENSITY = {"full": ((1000, 500), (200, 2000)), "tiny": ((50, 50), (20, 200))}
_DENSITY["trace"] = _DENSITY["full"]
_ETA0 = 1e-6  # the CLI default, at which the d=2 grid is compared with the closed form


def _density_commands(work: Path, seed: int, size: str) -> list:
    # The grids are deterministic: no input of this workload is random, so the
    # seed does not enter.
    (m1, p1), (m2, p2) = _DENSITY[size]
    return [
        ["density", "--spectrum", f"uniform:lo=0.5,hi=2,M={m1},N={m1}",
         "--emin", "0", "--emax", "8", "--points", str(p1), "--out", "uniform"],
        ["density", "--spectrum", f"identity:M={m2},N={2 * m2}",
         "--emin", "-0.5", "--emax", "7", "--points", str(p2), "--out", "identity_d2"],
    ]


def _read_density(path: Path):
    import numpy as np
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    return data[:, 0], data[:, 1]


def mp_density(E, d: float, eta: float):
    """Closed-form Marchenko-Pastur density pi^-1 Im m(E + i eta), clipped at 0.

    m is the root of z m^2 + (z + 1 - 1/d) m + 1 = 0 with the larger imaginary
    part, the identity-population case of the self-consistent equation.
    """
    import numpy as np
    z = np.asarray(E, dtype=float) + 1j * eta
    b = z + 1.0 - 1.0 / d
    disc = np.sqrt(b * b - 4.0 * z)
    r1, r2 = (-b + disc) / (2.0 * z), (-b - disc) / (2.0 * z)
    m = np.where(r1.imag >= r2.imag, r1, r2)
    return np.maximum(m.imag / np.pi, 0.0)


def _density_check(work: Path, seed: int, size: str) -> list:
    import numpy as np
    ops = []
    (_, p1), (_, p2) = _DENSITY[size]
    for name, points in (("uniform", p1), ("identity_d2", p2)):
        curve = _read_density(work / name / "density.csv")
        if curve is None or curve[0].size != points:
            ops.append(Op(f"{name}_grid", False, "density.csv missing or wrong length"))
            continue
        ops += [Op(f"{name}_point", not math.isnan(r), f"E={float(e)!r}") for e, r in zip(*curve)]
    curve = _read_density(work / "identity_d2" / "density.csv")
    if curve is not None:
        E, rho = curve
        ok = ~np.isnan(rho)
        err = float(np.max(np.abs(rho[ok] - mp_density(E[ok], 2.0, _ETA0)))) if ok.any() else math.inf
        # c02 bounds |m - m_MP| by 1e-10; rho = Im m / pi
        ops.append(Op("rho_max_err", err <= 1e-10 / math.pi,
                      f"{err!r} (max |rho - rho_MP| over the d=2 grid, bound 1e-10/pi)"))
    return ops


# ---------------------------------------------------------------------------
# green_mc: the Green-function flow checks and the comparison functional

# N of every spectrum, replicates of each Monte Carlo check, replicates of compare
_GREEN = {"full": (200, 2000, 200), "trace": (200, 400, 40), "tiny": (40, 100, 20)}
# decoupling keeps the README manifest's seed: at 2000 replicates it is PASS at
# seed 7 but INCONCLUSIVE at some other seeds (1 and 5), so its outcome would
# otherwise depend on the benchmark seed rather than on the code
_DECOUPLING_SEED = 7


def _green_commands(work: Path, seed: int, size: str) -> list:
    n, reps, cmp_reps = _GREEN[size]
    twopoint = f"twopoint:a=1,b=2,w=0.5,M={n},N={n}"
    manifest = [
        {"check": "sum_rules", "spectrum": twopoint, "t": 0.5},
        {"check": "optical", "spectrum": twopoint, "t": 0.5, "reps": reps, "seed": seed},
        {"check": "decoupling", "spectrum": f"identity:M={n},N={n}", "reps": reps,
         "seed": _DECOUPLING_SEED},
        {"check": "cancellation", "spectrum": twopoint, "t": 0.5, "reps": reps, "seed": seed},
    ]
    (work / "checks.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return [
        ["flow-verify", "--manifest", "checks.json", *_THREADS_ARGS, "--out", "verify"],
        ["compare", "--spectrum", f"identity:M={n},N={n}", "--reps", str(cmp_reps),
         "--seed", str(seed), *_THREADS_ARGS, "--out", "compare"],
    ]


def _green_check(work: Path, seed: int, size: str) -> list:
    ops = []
    reports = _read_json(work / "verify" / "flow_verify.json")
    if not isinstance(reports, list) or len(reports) != 4:
        ops.append(Op("flow_reports", False, "flow_verify.json missing or incomplete"))
    elif size == "full":
        ops += [Op(f"{r['check']}_pass", r["status"] == "PASS",
                   f"{r['status']} residual={r['residual']!r} ci={r['ci']!r}") for r in reports]
    payload = _read_json(work / "compare" / "compare.json")
    if payload is None:
        ops.append(Op("compare_gap", False, "compare.json missing"))
    else:
        gap, ci = payload["gap"], payload["ci"]
        ops.append(Op("compare_gap", abs(gap) <= 6.0 * ci,
                      f"|gap| = {abs(gap)!r} against 6 ci = {6.0 * ci!r} (test_compare_command)"))
    return ops


# ---------------------------------------------------------------------------
# references: the Tracy-Widom table and gap-ratio detection on a cold cache

# N of the detection spectrum and of its GOE null table, null-table replicates
_REFS = {"full": (200, 2000), "trace": (200, 1000), "tiny": (40, 1000)}
_TW_SPOTS = [-6.0 + 0.5 * i for i in range(19)]  # s = -6, -5.5, ..., 3: rows of the 0.01 grid
_TW_SMIN, _TW_STEP = -10.0, 0.01                  # tw-table defaults


def _refs_commands(work: Path, seed: int, size: str) -> list:
    n, reps = _REFS[size]
    return [
        ["tw-table", "--out", "tw"],
        ["detect", "--spectrum", f"identity:M={n},N={n}", "--table-N", str(n),
         "--null-reps", str(reps), "--seed", str(seed), "--table-seed", str(seed),
         *_THREADS_ARGS, "--out", "detect"],
    ]


def _refs_check(work: Path, seed: int, size: str) -> list:
    import numpy as np
    ops = []
    try:
        table = np.loadtxt(work / "tw" / "tw_table.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        table = None
    if table is None:
        ops.append(Op("tw_max_err", False, "tw_table.csv missing"))
    else:
        from edgekit.tracy_widom import airy_kernel_f2
        rows = [int(round((s - _TW_SMIN) / _TW_STEP)) for s in _TW_SPOTS]
        err = float(max(abs(table[r, 2] - airy_kernel_f2(s)) for r, s in zip(rows, _TW_SPOTS)))
        ops.append(Op("tw_max_err", err <= 1e-6,
                      f"{err!r} (max |F2 row - airy_kernel_f2| at s=-6..3, c04 bound 1e-6)"))
    n_null = _REFS[size][1]
    result = _read_json(work / "detect" / "detect.json")
    if result is None:
        ops.append(Op("detect_p_value", False, "detect.json missing"))
    else:
        p = result["p_value"]
        ok = 1.0 / (n_null + 1) <= p <= 1.0 and result["n_null"] == n_null
        ops.append(Op("detect_p_value", ok, f"p={p!r} n_null={result['n_null']}"))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("mc_tw", _mc_tw_commands, _mc_tw_check),
    Workload("density_grid", _density_commands, _density_check),
    Workload("green_mc", _green_commands, _green_check),
    Workload("references", _refs_commands, _refs_check),
    # ungated diagnostic, not in BENCHMARK.json: see README.md
    Workload("diag_default_blas", _diag_commands, _diag_check, pin_blas=False),
)}

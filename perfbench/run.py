"""edgekit benchmark: runs one workload through the edgekit CLI and reports its metrics.

    python3 perfbench/run.py --workload mc_tw --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is taken from src/,
not from an installed copy.  Every CLI invocation is a separate process with a
fresh, empty EDGEKIT_CACHE, BLAS pinned to one thread, and --threads 2.

--trace 0 measures the end-to-end metrics (see BENCHMARK.json): the workload's
commands run back to back, as a user runs them, as many times as fit in
--seconds, and each metric is the median over those repetitions.  set-up time
is the median of several invocations that only import edgekit.cli and parse
the workload's first command line.

--trace 1 runs trace_pass.py instead, which executes the workload's inputs in
one process with spans around edgekit's public functions, and reports the
per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Everything before it is a readable report.  Scratch files
live under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import THREADS, WORKLOADS, Op, exit_ok, run_checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# import edgekit.cli and parse argv, nothing else: the start-up every invocation pays
_SETUP_CODE = "import sys, edgekit.cli; edgekit.cli.build_parser().parse_args(sys.argv[1:])"

_ENV_CODE = r"""
import ctypes, json, os, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path and ".so" in path:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
        break
print(json.dumps({"nproc": os.cpu_count(), "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ops: list = field(default_factory=list)


def child_env(cache: Path, pin_blas: bool = True) -> dict:
    """The whole environment of a child: nothing is inherited but PATH."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(WORK),
           "TMPDIR": str(WORK), "PYTHONPATH": str(SRC), "EDGEKIT_CACHE": str(cache),
           "LC_ALL": "C.UTF-8"}
    if pin_blas:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list, cwd: Path, env: dict, timeout: float, log: Path) -> Proc:
    """Run one process to its end; its rusage covers every descendant it waited for.

    On timeout the whole process group is killed and the code is -9.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _last_line(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def cli_argv(argv: list) -> list:
    return [sys.executable, "-m", "edgekit.cli", *argv]


def run_rep(workload, seed: int, size: str, rep_dir: Path, deadline: float) -> Rep:
    """One repetition: the workload's commands back to back on a fresh cache."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    (rep_dir / "cache").mkdir(parents=True)
    env = child_env(rep_dir / "cache", workload.pin_blas)
    commands = workload.commands(rep_dir, seed, size)
    rep = Rep(0.0, 0.0, 0.0)
    start = time.perf_counter()
    for argv in commands:
        p = run_process(cli_argv(argv), rep_dir, env, deadline - time.perf_counter(),
                        rep_dir / "cli.log")
        rep.cpu_s += p.cpu_s
        rep.rss_mb = max(rep.rss_mb, p.rss_mb)
        ok = exit_ok(argv, p.code, size)
        detail = f"exit {p.code}" + ("" if ok else f": {_last_line(rep_dir / 'cli.log')}")
        rep.ops.append(Op(f"cli_{argv[0]}", ok, detail))
    rep.wall_s = time.perf_counter() - start
    rep.ops += run_checks(workload, rep_dir, seed, size)
    return rep


def probe_setup(argv: list, deadline: float) -> Proc:
    return run_process([sys.executable, "-c", _SETUP_CODE, *argv], WORK, child_env(WORK / "cache"),
                       deadline - time.perf_counter(), WORK / "setup.log")


def environment(pin_blas: bool) -> dict:
    """Versions and BLAS set-up as the children see them, plus the code's identity."""
    out = subprocess.run([sys.executable, "-c", _ENV_CODE], env=child_env(WORK / "cache", pin_blas),
                         cwd=WORK, capture_output=True, text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {"error": out.stderr[-500:]}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    info["commit"] = commit
    info["cli_threads"] = THREADS
    return info


def summarize_ops(ops: list) -> None:
    """One line per kind of operation, with the detail of its first failure or first run."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.name, []).append(op)
    for name, group in groups.items():
        bad = [op for op in group if not op.ok]
        print(f"  {name}: {len(group) - len(bad)}/{len(group)} ok; {(bad or group)[0].detail}")


def measure(workload, seed: int, seconds: float, size: str, deadline: float) -> dict:
    start = time.perf_counter()
    first = workload.commands(WORK, seed, size)[0]
    setups = [probe_setup(first, deadline) for _ in range(SETUP_PROBES)]
    ops = [Op("setup_probe", p.code == 0, f"exit {p.code}") for p in setups]
    reps = []
    while True:
        rep = run_rep(workload, seed, size, WORK / "rep", deadline)
        reps.append(rep)
        ops += rep.ops
        print(f"  rep {len(reps)}: wall {rep.wall_s:.3f} s, cpu {rep.cpu_s:.3f} s, "
              f"peak rss {rep.rss_mb:.1f} MB", flush=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if elapsed + typical > seconds or time.perf_counter() + 2 * typical > deadline:
            break
    shutil.rmtree(WORK / "rep", ignore_errors=True)
    values = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(p.wall_s for p in setups),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    print(f"  {len(reps)} repetitions, {len(setups)} set-up probes")
    summarize_ops(ops)
    return {"ops": ops, "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                    for k, v in values.items()}}


def traced(workload, seed: int, size: str, deadline: float) -> dict:
    out = WORK / "trace.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "trace_pass.py"), "--workload", workload.name,
            "--seed", str(seed), "--size", "trace" if size == "full" else size, "--out", str(out)]
    p = run_process(argv, WORK, child_env(WORK / "cache", workload.pin_blas),
                    deadline - time.perf_counter(), WORK / "trace.log")
    result = json.loads(out.read_text()) if p.code == 0 and out.exists() else None
    if result is None:
        sys.stderr.write((WORK / "trace.log").read_text()[-3000:])
        return {"ops": [Op("trace_pass", False, f"exit {p.code}")], "metrics": {}}
    print("  span tree (calls, total s, self s):")
    for line in result["tree"]:
        print("    " + line)
    ops = [Op(**op) for op in result["ops"]]
    summarize_ops(ops)
    return {"ops": ops, "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "edgekit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no edgekit sources under {SRC}; run from a checkout root\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("perfbench: --seed must be non-negative\n")
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    sys.path.insert(0, str(SRC))  # the output checks use edgekit's Fredholm F2
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("  env " + json.dumps(environment(workload.pin_blas), sort_keys=True), flush=True)
    if args.trace:
        result = traced(workload, args.seed, args.size, deadline)
    else:
        result = measure(workload, args.seed, args.seconds, args.size, deadline)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    failed = sum(not op.ok for op in result["ops"])
    attempted = max(len(result["ops"]), 1)
    print(json.dumps({"correct": failed == 0 and bool(result["metrics"]), "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

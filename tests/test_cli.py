import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgekit
from edgekit import cli
from edgekit.population import two_point_spectrum

# The child imports the same edgekit as this process (a src/ checkout or an
# installed copy); the rest of its environment stays isolated.
_CHILD_PYTHONPATH = os.pathsep.join(
    [str(Path(edgekit.__file__).resolve().parents[1])]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))


def _child_env(cwd, home=None):
    return {"PATH": "/usr/bin:/bin", "HOME": str(home or cwd), "PYTHONPATH": _CHILD_PYTHONPATH}


def run_cli(args, cwd, home=None, **env):
    return subprocess.run([sys.executable, "-m", "edgekit.cli", *args], capture_output=True,
                          text=True, cwd=cwd, env=dict(_child_env(cwd, home), **env))


def test_edge_identity(tmp_path):
    cwd = tmp_path
    proc = run_cli(["edge", "--spectrum", "identity:M=100,N=100", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["E_plus"] == pytest.approx(4.0, abs=1e-10)
    assert (cwd / "out" / "edge.json").exists()
    assert (cwd / "out" / "manifest.json").exists()


def test_edge_from_file_and_supercritical_exit(tmp_path):
    cwd = tmp_path
    spec = two_point_spectrum(1.0, 2.0, 0.5, 50, 50)
    (cwd / "spec.txt").write_text("\n".join([f"# N={spec.N}"] + [repr(float(v)) for v in spec.eigenvalues])
                                  + "\n")
    proc = run_cli(["edge", "--spectrum", "spec.txt", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["xi_plus"] == pytest.approx(0.28771294387, abs=1e-9)
    # near-critical margin with an explicit workflow threshold: domain rejection
    proc2 = run_cli(["edge", "--spectrum", "spec.txt", "--margin-threshold", "0.9", "--out", "out2"], cwd)
    assert proc2.returncode == 2, proc2.stderr


def test_usage_error_exit_code(tmp_path):
    cwd = tmp_path
    # an import failure also exits with 1, so check that argparse reported it
    for args in (["edge"], ["nonsense-command"]):
        proc = run_cli(args, cwd)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage: edgekit"), proc.stderr
        assert "error:" in proc.stderr, proc.stderr


def test_cli_import_does_not_load_scipy(tmp_path):
    # every command pays for the CLI's imports; scipy loads only where a command uses it
    cwd = tmp_path
    code = "import sys, edgekit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=_child_env(cwd))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_green_commands_do_not_load_scipy(tmp_path):
    # scipy's OpenBLAS would add ~20 MB to every green process: compare (factor and
    # Laguerre halves) and all four flow checks run on numpy alone.  At 20 replicates a
    # check may read FAIL, so flow-verify may exit 4, but it still writes four reports
    cwd = tmp_path
    (cwd / "checks.json").write_text(json.dumps([
        {"check": "sum_rules", "spectrum": "twopoint:a=1,b=2,w=0.5,M=30,N=30", "t": 0.5},
        {"check": "optical", "spectrum": "twopoint:a=1,b=2,w=0.5,M=30,N=30", "reps": 20},
        {"check": "cancellation", "spectrum": "twopoint:a=1,b=2,w=0.5,M=30,N=30", "reps": 20},
        {"check": "decoupling", "spectrum": "identity:M=30,N=30", "reps": 20}]))
    runs = [["compare", "--spectrum", "identity:M=30,N=40", "--reps", "10"],
            ["compare", "--spectrum", "twopoint:a=1,b=2,w=0.5,M=40,N=30", "--reps", "10"],
            ["flow-verify", "--manifest", "checks.json"]]
    code = ("import sys; from edgekit import cli; "
            f"codes = [cli.main(argv + ['--threads', '2', '--out', f'out{{i}}']) "
            f"for i, argv in enumerate({runs!r})]; "
            "print(codes, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=_child_env(cwd))
    assert proc.returncode == 0, proc.stderr
    codes, scipy_loaded = proc.stdout.strip().splitlines()[-1].rsplit(" ", 1)
    assert codes in ("[0, 0, 0]", "[0, 0, 4]") and scipy_loaded == "False", proc.stdout
    assert len(json.loads((cwd / "out2" / "flow_verify.json").read_text())) == 4


def test_tracy_widom_tables_do_not_load_scipy(tmp_path):
    # the Hastings-McLeod solve and the F1/F2 tabulation run on numpy alone
    cwd = tmp_path
    code = ("import sys, edgekit as ek; from edgekit import cli; "
            "code = cli.main(['tw-table', '--step', '0.05', '--out', 'tw']); "
            "table = ek.tw_table(); f1 = ek.tw_cdf(1, -1.0, ek.hastings_mcleod()); "
            "print(code, table.grid.size, 0.0 < f1 < 1.0, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=_child_env(cwd))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 1601 True False", proc.stdout


def test_simulate_ks_loads_no_scipy_solvers(tmp_path):
    # the replicates call LAPACK in numpy's own OpenBLAS, Gaussian and Rademacher alike,
    # and the Tracy-Widom reference is numpy alone: no scipy module loads at all
    cwd = tmp_path
    code = ("import sys; from edgekit import cli, ensemble; "
            "codes = [cli.main(['simulate', '--spectrum', spec, '--reps', '20', '--entries', kind, "
            "'--threads', '2', '--ks', '--out', 'out' + kind]) for spec, kind in ("
            "('identity:M=40,N=40', 'gaussian'), ('twopoint:a=1,b=2,w=0.5,M=50,N=40', 'gaussian'), "
            "('twopoint:a=1,b=2,w=0.5,M=40,N=50', 'rademacher'))]; "
            "print(codes, type(ensemble._lapack()).__name__, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=_child_env(cwd))
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    if "_ScipyLapack" in last:
        pytest.skip(f"numpy's OpenBLAS exports no LAPACKE routines here: {last}")
    assert last == "[0, 0, 0] _OpenblasLapack []", proc.stdout


def test_density_names_failed_points(tmp_path, monkeypatch, capsys):
    # one Newton step per rung leaves most points unconverged
    monkeypatch.setattr(edgekit.stieltjes, "_NEWTON_STEPS", 1)
    code = cli.main(["density", "--spectrum", "identity:M=20,N=20", "--emin", "1",
                     "--emax", "2", "--points", "11", "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "density.csv").read_text().strip().splitlines()[1:]
    failed = [e for e, rho in (row.split(",") for row in rows) if rho == "nan"]
    assert len(failed) > 5
    err = capsys.readouterr().err
    assert err == (f"{len(failed)} grid points failed to converge (NaN sentinel in CSV), "
                   f"first at E = {', '.join(failed[:5])}, ...\n")


def test_simulate_byte_identical_across_threads(tmp_path):
    cwd = tmp_path
    base = ["simulate", "--spectrum", "twopoint:a=1,b=2,w=0.5,M=120,N=120",
            "--reps", "40", "--k", "2", "--seed", "7"]
    for out, threads in (("s1", "1"), ("s2", "2"), ("s3", "1")):
        proc = run_cli(base + ["--threads", threads, "--out", out], cwd)
        assert proc.returncode == 0, proc.stderr
    b1 = (cwd / "s1" / "samples.csv").read_bytes()
    assert b1 == (cwd / "s2" / "samples.csv").read_bytes()
    assert b1 == (cwd / "s3" / "samples.csv").read_bytes()


def test_simulate_byte_identical_across_blas_threads(tmp_path):
    # at N=400 OpenBLAS splits the Gram and the eigensolve when it may use two threads
    cwd = tmp_path
    base = ["simulate", "--spectrum", "twopoint:a=1,b=2,w=0.5,M=400,N=400",
            "--reps", "20", "--k", "2", "--seed", "7"]
    outputs = []
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = f"blas{blas}_threads{threads}"
            proc = run_cli(base + ["--threads", threads, "--out", out], cwd,
                           OPENBLAS_NUM_THREADS=blas)
            assert proc.returncode == 0, proc.stderr
            outputs.append((cwd / out / "samples.csv").read_bytes())
    assert all(b == outputs[0] for b in outputs[1:])


def test_simulate_with_ks_writes_report(tmp_path):
    cwd = tmp_path
    proc = run_cli(["simulate", "--spectrum", "identity:M=150,N=150", "--reps", "60",
                    "--seed", "3", "--threads", "1", "--ks", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((cwd / "out" / "ks.json").read_text())
    assert report["n"] == 60
    assert 0.0 <= report["statistic"] <= 1.0


def test_density_csv(tmp_path):
    cwd = tmp_path
    proc = run_cli(["density", "--spectrum", "identity:M=80,N=80", "--emin", "0.5",
                    "--emax", "3.5", "--points", "50", "--eta0", "1e-4", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    lines = (cwd / "out" / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "E,rho"
    assert len(lines) == 51


def test_tw_table_command(tmp_path):
    cwd = tmp_path
    proc = run_cli(["tw-table", "--smin", "-10", "--smax", "6", "--step", "0.05", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    rows = (cwd / "out" / "tw_table.csv").read_text().strip().splitlines()
    assert rows[0] == "s,F1,F2"
    assert len(rows) == 322


def test_flow_verify_manifest(tmp_path):
    cwd = tmp_path
    manifest = [
        {"check": "sum_rules", "spectrum": "twopoint:a=1,b=2,w=0.5,M=90,N=90", "t": 0.5},
        {"check": "optical", "spectrum": "identity:M=90,N=90", "t": 0.0, "reps": 200, "seed": 5},
    ]
    (cwd / "checks.json").write_text(json.dumps(manifest))
    proc = run_cli(["flow-verify", "--manifest", "checks.json", "--threads", "1", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    report = json.loads((cwd / "out" / "flow_verify.json").read_text())
    assert {r["check"] for r in report} == {"sum_rules", "optical"}
    assert all(r["status"] != "FAIL" for r in report)
    assert "summary:" in proc.stdout


class _FailingLapack:
    """The routines of ensemble._lapack(), with `routine` failing on its call number `at`
    (0-based) of this process, as LAPACK does: its input destroyed and info != 0."""

    def __init__(self, routine, at):
        self.lapack, self.routine, self.at, self.calls = edgekit.ensemble._lapack(), routine, at, 0

    def __getattr__(self, name):
        real = getattr(self.lapack, name)
        if name != self.routine:
            return real

        def failing(A, *args):
            self.calls += 1
            if self.calls - 1 == self.at:
                A[...] = np.nan
                raise np.linalg.LinAlgError(f"{name} returned info=1")
            return real(A, *args)
        return failing


def test_worker_eigensolver_failure_exits_convergence(tmp_path, monkeypatch, capsys):
    # a dense replicate's tridiagonal reduction fails in the second block of replicates:
    # the error names the replicate, not the block
    failing = _FailingLapack("sytrd", at=70)
    monkeypatch.setattr(edgekit.ensemble, "_lapack", lambda: failing)
    (tmp_path / "checks.json").write_text(json.dumps(
        [{"check": "optical", "spectrum": "twopoint:a=1,b=2,w=0.5,M=20,N=20", "t": 0.5,
          "reps": 100, "seed": 1}]))
    code = cli.main(["flow-verify", "--manifest", str(tmp_path / "checks.json"),
                     "--threads", "1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith(
        "convergence failure: replicate 70: sytrd returned info=1")


def test_subset_eigensolver_failure_exits_convergence(tmp_path, monkeypatch, capsys):
    # with a failed LAPACK call's input destroyed, the message still describes the Gram
    failing = _FailingLapack("syevr_top", at=0)
    monkeypatch.setattr(edgekit.ensemble, "_lapack", lambda: failing)
    code = cli.main(["simulate", "--spectrum", "identity:M=20,N=20", "--reps", "5",
                     "--threads", "1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("convergence failure: replicate 0: symmetric eigensolver failed: "
                          "syevr_top returned info=1"), err
    # the message describes the Gram of replicate 0 (of its reduced Gaussian factor),
    # not what the eigensolver left of it
    F = edgekit.ensemble.gaussian_factor(edgekit.identity_spectrum(20, 20), 0, 0)
    gram = F.T @ F
    assert f"||A||_F={np.linalg.norm(gram):.3e}, trace={np.trace(gram):.3e}" in err, err


def test_decoupling_failure_names_its_base(tmp_path, monkeypatch, capsys):
    def failing_sterf(self, d, e):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(type(edgekit.ensemble._lapack()), "sterf", failing_sterf)
    (tmp_path / "checks.json").write_text(json.dumps(
        [{"check": "decoupling", "spectrum": "identity:M=20,N=20", "reps": 5, "seed": 1}]))
    code = cli.main(["flow-verify", "--manifest", str(tmp_path / "checks.json"),
                     "--threads", "1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith(
        "convergence failure: decoupling base 0: Eigenvalues")


def test_flow_verify_draws_one_sample_per_group(tmp_path, monkeypatch):
    calls = []
    mc_x3_x4 = edgekit.green._mc_x3_x4

    def counting(state, z, reps, seed, threads=1):
        calls.append((state.N, reps, seed))
        return mc_x3_x4(state, z, reps, seed, threads)

    monkeypatch.setattr(edgekit.green, "_mc_x3_x4", counting)
    spectrum = "twopoint:a=1,b=2,w=0.5,M=40,N=40"
    items = [{"check": kind, "spectrum": spectrum, "t": 0.5, "reps": 30, "seed": seed}
             for kind, seed in (("cancellation", 3), ("optical", 3), ("optical", 4))]
    (tmp_path / "checks.json").write_text(json.dumps(items))
    code = cli.main(["flow-verify", "--manifest", str(tmp_path / "checks.json"),
                     "--threads", "1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert calls == [(40, 30, 3), (40, 30, 4)]
    state = edgekit.flow_state(two_point_spectrum(1.0, 2.0, 0.5, 40, 40), 0.5)
    expected = [edgekit.cancellation_check(state, 30, 3), edgekit.optical_residual(state, 30, 3),
                edgekit.optical_residual(state, 30, 4)]
    report = json.loads((tmp_path / "out" / "flow_verify.json").read_text())
    assert report == [r.to_dict() for r in expected]


def test_detect_command_and_exit(tmp_path):
    cwd = tmp_path
    proc = run_cli(["detect", "--spectrum", "identity:M=100,N=100", "--table-N", "100",
                    "--null-reps", "1000", "--seed", "1", "--threads", "1", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((cwd / "out" / "detect.json").read_text())
    assert 0.0 < result["p_value"] <= 1.0
    assert result["n_null"] == 1000


# Where earlier versions kept a Tracy-Widom table for the default grid (-10, 6,
# step 0.01), which tw-table and simulate --ks read back verbatim: the cache
# directory came from $EDGEKIT_CACHE, or ~/.cache/edgekit when it was unset.
_OLD_TW_CACHE_FILE = "tw_table_dcf547b37aa28e6d.csv"


@pytest.mark.parametrize("args", [
    ["tw-table"],
    ["simulate", "--spectrum", "identity:M=60,N=60", "--reps", "40", "--seed", "3",
     "--threads", "1", "--ks"],
    ["detect", "--spectrum", "identity:M=100,N=100", "--null-reps", "1000", "--seed", "1",
     "--threads", "1"],
], ids=["tw-table", "simulate-ks", "detect"])
def test_output_independent_of_cache(tmp_path, args):
    # outputs come from the flags alone: hand-edited tables in a cache directory,
    # under HOME or under $EDGEKIT_CACHE, must not reach them, and no run writes
    # under HOME
    table = edgekit.tw_table()
    edited = edgekit.TWTable(grid=table.grid, F1=table.F2, F2=table.F2)
    stale_null = edgekit.calibrate_null(60, 1000, seed=0)  # a null table for another N
    env_cache = tmp_path / "dirty" / "env_cache"
    for folder in (tmp_path / "dirty" / "home" / ".cache" / "edgekit", env_cache):
        folder.mkdir(parents=True)
        edited.to_csv(folder / _OLD_TW_CACHE_FILE)
        np.savetxt(folder / "goe_R_N60_n1000_seed0.csv", stale_null, fmt="%.17g")
    (tmp_path / "clean" / "home").mkdir(parents=True)
    outputs = {}
    for side, env in (("clean", {}), ("dirty", {"EDGEKIT_CACHE": str(env_cache)})):
        cwd, home = tmp_path / side, tmp_path / side / "home"
        before = sorted(home.rglob("*"))
        proc = run_cli(args + ["--out", "out"], cwd, home, **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", proc.stderr
        assert sorted(home.rglob("*")) == before
        outputs[side] = proc.stdout, {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
    assert outputs["clean"] == outputs["dirty"]


def _run_python(lines, cwd):
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, cwd=cwd, env=_child_env(cwd))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_detect_on_identity_loads_no_scipy_and_starts_no_pool(tmp_path):
    # the null table is a tridiagonal bisection in this process, and the observed draw
    # is the engine's replicate, a reduced factor's Gram solved by numpy's OpenBLAS on
    # any population: neither loads scipy
    cwd = tmp_path
    last = _run_python([
        "import sys; from edgekit import cli, ensemble",
        "pools = []",
        "class Recording(ensemble.ProcessPoolExecutor):",
        "    def __init__(self, max_workers):",
        "        pools.append(max_workers)",
        "        super().__init__(max_workers=max_workers)",
        "ensemble.ProcessPoolExecutor = Recording",
        "args = ['detect', '--spectrum', 'identity:M=100,N=100', '--null-reps', '1000', '--seed', '4']",
        "codes = [cli.main(args + ['--threads', t, '--out', 'out' + t]) for t in ('2', '1')]",
        "identity = 'scipy' in sys.modules",
        "codes.append(cli.main(['detect', '--spectrum', 'twopoint:a=1,b=2,w=0.5,M=100,N=100',",
        "                       '--null-reps', '1000', '--threads', '2', '--out', 'dense']))",
        "print(codes, pools, identity, 'scipy' in sys.modules)"], cwd)
    assert last == "[0, 0, 0] [] False False", last
    assert (cwd / "out2" / "detect.json").read_bytes() == (cwd / "out1" / "detect.json").read_bytes()


@pytest.mark.skipif(sys.platform != "linux", reason="the BLAS pin reads /proc/self/maps")
def test_detect_dense_draw_runs_on_one_blas_thread(tmp_path):
    # the observed draw's top-3 solve runs on one numpy OpenBLAS thread, whatever the
    # caller set, and the caller's count is back afterwards
    cwd = tmp_path
    last = _run_python([
        "import ctypes; from edgekit import cli, ensemble",
        "with open('/proc/self/maps') as maps:",
        "    paths = sorted({line.split()[-1] for line in maps",
        "                    if 'openblas64' in line and '.so' in line})",
        "lib = ctypes.CDLL(paths[0]) if paths else None",
        "get = getattr(lib, 'scipy_openblas_get_num_threads64_', None)",
        "set_ = getattr(lib, 'scipy_openblas_set_num_threads64_', None)",
        "if get is None or set_ is None:",
        "    print('unfound'); raise SystemExit",
        "get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]",
        "set_(2)",
        "seen, real = [], ensemble._solve_top",
        "def reading(*args, **kwargs):",
        "    seen.append(get())",
        "    return real(*args, **kwargs)",
        "ensemble._solve_top = reading",
        "code = cli.main(['detect', '--spectrum', 'twopoint:a=1,b=2,w=0.5,M=100,N=100',",
        "                 '--null-reps', '1000', '--threads', '1', '--out', 'out'])",
        "print(code, seen, get())"], cwd)
    if last == "unfound":
        pytest.skip("numpy's OpenBLAS is not found in /proc/self/maps")
    assert last == "0 [1] 2", last


# makes ensemble._lapack() find no routine in numpy's OpenBLAS, so that it takes scipy's
_HIDE_NUMPY_LAPACK = ("ensemble._OpenblasLapack.SYMBOLS = "
                      "tuple(name + '_hidden' for name in ensemble._OpenblasLapack.SYMBOLS)")


@pytest.mark.skipif(sys.platform != "linux", reason="the BLAS pin reads /proc/self/maps")
def test_top_eigenvalues_pins_the_scipy_it_loads(tmp_path):
    # where numpy's OpenBLAS lacks the LAPACK routines (hidden here), scipy.linalg first
    # loads inside top_eigenvalues, with the BLAS variables unset: the pin still covers
    # scipy's OpenBLAS, so the solve runs on one thread
    cwd = tmp_path
    last = _run_python([
        "import ctypes, sys; import edgekit as ek; from edgekit import ensemble",
        _HIDE_NUMPY_LAPACK,
        "assert 'scipy.linalg' not in sys.modules",
        "seen, solve = [], ensemble._solve_top",
        "def reading(*args):",
        "    with open('/proc/self/maps') as maps:",
        "        paths = {line.split()[-1] for line in maps",
        "                 if 'openblas' in line and '.so' in line and 'openblas64' not in line}",
        "    getters = [getattr(ctypes.CDLL(p), 'scipy_openblas_get_num_threads', None) for p in paths]",
        "    seen.extend(get() for get in getters if get is not None)",
        "    return solve(*args)",
        "ensemble._solve_top = reading",
        "spec = ek.identity_spectrum(100, 100)",
        "ek.top_eigenvalues(ek.sample_data_matrix(ek.EnsembleConfig(spec), 0), spec, 1)",
        "print(seen)"], cwd)
    if last == "[]":
        pytest.skip("scipy's OpenBLAS is not found in /proc/self/maps")
    assert last == "[1]", last


@pytest.mark.skipif(sys.platform != "linux", reason="the BLAS pin reads /proc/self/maps")
def test_covariance_replicate_pins_the_scipy_it_loads(tmp_path):
    # a serial map_replicates over Gaussian covariance replicates, in a process where
    # numpy's OpenBLAS lacks the LAPACK routines (hidden here), so that scipy.linalg first
    # loads inside the first job: every OpenBLAS, numpy's and the one that job loads, is
    # on one thread during each solve
    cwd = tmp_path
    last = _run_python([
        "import ctypes, sys; import edgekit as ek; from edgekit import ensemble",
        _HIDE_NUMPY_LAPACK,
        "assert 'scipy.linalg' not in sys.modules",
        "seen, solve = [], ensemble._solve_top",
        "def reading(*args):",
        "    with open('/proc/self/maps') as maps:",
        "        paths = sorted({line.split()[-1] for line in maps",
        "                        if 'openblas' in line and '.so' in line})",
        "    for p in paths:",
        "        lib = ctypes.CDLL(p)",
        "        for suffix in ('64_', ''):",
        "            get = getattr(lib, 'scipy_openblas_get_num_threads' + suffix, None)",
        "            if get is not None:",
        "                get.restype = ctypes.c_int",
        "                seen.append((suffix, get()))",
        "    return solve(*args)",
        "ensemble._solve_top = reading",
        "config = ek.EnsembleConfig(ek.identity_spectrum(100, 100), replicates=2)",
        "ensemble.map_replicates(ensemble.covariance_replicate, [(config, 0), (config, 1)], 1)",
        "print(sorted(set(seen)))"], cwd)
    if "''" not in last:
        pytest.skip(f"scipy's OpenBLAS is not found in /proc/self/maps: {last}")
    assert last == "[('', 1), ('64_', 1)]", last


def test_compare_command(tmp_path):
    cwd = tmp_path
    proc = run_cli(["compare", "--spectrum", "identity:M=100,N=100", "--reps", "60",
                    "--seed", "2", "--threads", "1", "--out", "out"], cwd)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((cwd / "out" / "compare.json").read_text())
    assert abs(payload["gap"]) <= 6.0 * payload["ci"]


def test_manifest_rerun_reproduces(tmp_path):
    cwd = tmp_path
    args = ["simulate", "--spectrum", "identity:M=90,N=90", "--reps", "25", "--seed", "11",
            "--threads", "1", "--out", "orig"]
    proc = run_cli(args, cwd)
    assert proc.returncode == 0, proc.stderr
    manifest = cwd / "orig" / "manifest.json"
    rewritten = json.loads(manifest.read_text())
    rewritten["out"] = str(cwd / "redo")
    (cwd / "redo_manifest.json").write_text(json.dumps(rewritten))
    proc = run_cli(["rerun", "redo_manifest.json"], cwd)
    assert proc.returncode == 0, proc.stderr
    assert (cwd / "orig" / "samples.csv").read_bytes() == (cwd / "redo" / "samples.csv").read_bytes()


def test_negative_seed_is_domain_rejection(tmp_path):
    cwd = tmp_path
    (cwd / "checks.json").write_text(json.dumps(
        [{"check": "optical", "spectrum": "identity:M=20,N=20", "reps": 5, "seed": -1}]))
    for args in (["simulate", "--spectrum", "identity:M=20,N=20", "--reps", "5", "--seed", "-1"],
                 ["detect", "--spectrum", "identity:M=20,N=20", "--null-reps", "1000",
                  "--table-seed", "-1"],
                 ["flow-verify", "--manifest", "checks.json"]):
        proc = run_cli(args + ["--threads", "1", "--out", "out"], cwd)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("domain rejection: seed -1 outside"), proc.stderr
        assert "Traceback" not in proc.stderr


_GOOD_ITEM = {"check": "sum_rules", "spectrum": "identity:M=20,N=20"}
_OPTICAL = {"check": "optical", "spectrum": "identity:M=20,N=20"}


@pytest.mark.parametrize("argv, manifest, named", [
    (["flow-verify"], [_GOOD_ITEM, {"check": "optical", "reps": 5}], ["item 1", "'spectrum'"]),
    (["flow-verify"], [_GOOD_ITEM, {"spectrum": "identity:M=20,N=20"}], ["item 1", "'check'"]),
    (["flow-verify"], [_GOOD_ITEM, 5], ["item 1", "got 5"]),
    (["flow-verify"], [dict(_OPTICAL, reps="x")], ["item 0", "reps", "'x'"]),
    (["flow-verify"], [dict(_OPTICAL, reps=0)], ["item 0", "reps"]),
    (["flow-verify"], [dict(_OPTICAL, check="optics")], ["item 0", '"optics"']),
    (["compare", "--spectrum", "identity:M=20,N=20", "--reps", "0"], None, ["reps"]),
    (["tw-table", "--smin", "2", "--smax", "1"], None, ["s_min", "s_max"]),
    (["tw-table", "--step", "0"], None, ["step"]),
], ids=["no-spectrum", "no-check", "not-an-object", "reps-not-a-number", "reps-zero",
        "unknown-kind", "compare-reps-zero", "tw-table-empty-range", "tw-table-step-zero"])
def test_malformed_input_is_domain_rejection(tmp_path, capsys, argv, manifest, named):
    if manifest is not None:
        (tmp_path / "checks.json").write_text(json.dumps(manifest))
        argv = argv + ["--manifest", str(tmp_path / "checks.json")]
    if argv[0] != "tw-table":
        argv = argv + ["--threads", "1"]
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN, err
    assert err.startswith("domain rejection: ") and all(name in err for name in named), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spectrum, named", [
    ("twopoint:a=1,b=inf,w=0.5,M=10,N=10", ["field b=", "finite"]),
    ("spec.txt", ["spec.txt:3", "non-finite", "inf"]),
    ("uniform:lo=0.5,hi=inf,M=10,N=10", ["field hi=", "finite"]),
    ("identity:M=10.5,N=10", ["field M=", "integer"]),
    ("identity:M=10,N=10,x=3", ["unknown descriptor field 'x'"]),
    ("half.txt", ["half.txt:1", "N='10.5'", "integer"]),
], ids=["twopoint-inf", "file-inf", "uniform-inf", "fractional-M", "unknown-key",
        "file-fractional-N"])
def test_malformed_spectrum_is_domain_rejection(tmp_path, monkeypatch, capsys, spectrum, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.txt").write_text("# N=10\n1.0\ninf\n")
    (tmp_path / "half.txt").write_text("# N=10.5\n1.0\n2.0\n")
    code = cli.main(["edge", "--spectrum", spectrum, "--out", "out"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN, err
    assert err.startswith("domain rejection: ") and all(name in err for name in named), err
    assert not (tmp_path / "out").exists()


# the rejection each population scale meets first
_SCALE_REJECTION = {"1e200": "scaling factor overflows", "1e308": "scaling factor overflows",
                    "1e-120": "scaling factor underflows", "1e-200": "xi_plus underflows",
                    "1e-310": "xi_plus underflows"}


@pytest.mark.parametrize("command", [["edge"], ["simulate", "--reps", "20", "--threads", "1"]],
                         ids=["edge", "simulate"])
@pytest.mark.parametrize("scale", list(_SCALE_REJECTION))
def test_edge_overflow_is_domain_rejection(tmp_path, capsys, command, scale):
    # gamma0^-3 grows like sigma_1^3 and xi_plus like 1/sigma_1: a spectrum whose edge
    # quantities leave the double range, at either end, is rejected
    spectrum = f"twopoint:a={scale},b={scale},w=0.5,M=10,N=10"
    code = cli.main(command + ["--spectrum", spectrum, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN, err
    assert err.startswith("domain rejection: " + _SCALE_REJECTION[scale]), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", list(_SCALE_REJECTION))
def test_edge_rejection_is_first_on_stderr(tmp_path, scale):
    # no numpy overflow warning precedes the rejection (pytest captures warnings
    # apart from stderr, so only a child process shows them)
    cwd = tmp_path
    proc = run_cli(["edge", "--spectrum", f"twopoint:a={scale},b={scale},w=0.5,M=10,N=10",
                    "--out", "out"], cwd)
    assert proc.returncode == cli.EXIT_DOMAIN, proc.stderr
    assert proc.stderr.startswith("domain rejection: " + _SCALE_REJECTION[scale]), proc.stderr


def test_constant_compare_starts_no_pool(tmp_path, monkeypatch):
    # a constant population's replicates are drawn in the calling process at any
    # thread count, with the same bytes; a dense half of more than one block of
    # replicates (green._BLOCK) still goes through the pool
    from edgekit import ensemble
    pools = []

    class CountingPool(ensemble.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
    outputs = {}
    for spectrum in ("identity:M=60,N=50", "twopoint:a=1,b=2,w=0.5,M=40,N=40"):
        for threads in ("1", "2"):
            out = tmp_path / f"{spectrum[:8]}{threads}"
            assert cli.main(["compare", "--spectrum", spectrum, "--reps", "130", "--seed", "4",
                             "--threads", threads, "--out", str(out)]) == cli.EXIT_OK
            outputs[spectrum, threads] = (out / "compare.json").read_bytes()
        assert outputs[spectrum, "1"] == outputs[spectrum, "2"]
        assert pools == ([] if spectrum.startswith("identity") else [2])

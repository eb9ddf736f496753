import ast
import ctypes
import functools
import gc
import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import edgekit as ek
from edgekit import ensemble, green
from edgekit.ensemble import map_replicates, replicate_rng
from edgekit.errors import ConvergenceError, DomainRejectionError

from oracles import (charpoly_eigs_3x3, dense_covariance_spectra, dense_goe_top,
                     dense_wishart_spectra, inverse_transform_samples, null_reference_W,
                     null_w_top, reduced_factor, svd_squared)


def _config(spec, **kw):
    defaults = dict(spectrum=spec, replicates=10, k=1, seed=0)
    defaults.update(kw)
    return ek.EnsembleConfig(**defaults)


def test_entry_distributions_standardized():
    # a million draws of sqrt(N) x_ij per law: mean 0 and variance 1 within sampling
    # error (standard errors below 2e-3), and exactly so from the two-point laws' atoms
    rng = np.random.default_rng(0)
    for kind in ensemble.ENTRY_KINDS:
        x = ek.EntryDistribution(kind=kind).sample(rng, 1000, 1000) * np.sqrt(1000)
        assert abs(x.mean()) < 1e-2 and abs(x.var() - 1.0) < 1e-2, kind
        if kind == "gaussian":
            continue
        b, a = np.unique(x)  # the negative and the positive atom
        p = 0.5 if kind == "rademacher" else ensemble.SKEWED_WEIGHT
        assert np.mean(x == a) == pytest.approx(p, abs=5e-3), kind
        assert p * a + (1.0 - p) * b == pytest.approx(0.0, abs=1e-14), kind
        assert p * a * a + (1.0 - p) * b * b == pytest.approx(1.0, abs=1e-14), kind
    with pytest.raises(DomainRejectionError):
        ek.EntryDistribution(kind="cauchy")


def test_gaussian_mean_band():
    spec = ek.identity_spectrum(50, 50)
    X = ek.sample_data_matrix(_config(spec, seed=3), 0)
    assert abs(X.mean()) < 4.0 / np.sqrt(50 ** 3)


def test_rademacher_entries_exact():
    spec = ek.identity_spectrum(40, 40)
    X = ek.sample_data_matrix(_config(spec, entries=ek.EntryDistribution(kind="rademacher")), 2)
    assert np.all(np.isin(np.abs(X), 1.0 / np.sqrt(40)))


def test_stream_determinism_and_order_independence():
    spec = ek.identity_spectrum(30, 30)
    config = _config(spec, seed=42)
    a = ek.sample_data_matrix(config, 5)
    b = ek.sample_data_matrix(config, 5)
    assert np.array_equal(a, b)
    # stream for replicate 5 is the same whatever was drawn before
    _ = replicate_rng(42, 0).standard_normal(10)
    c = ek.sample_data_matrix(config, 5)
    assert np.array_equal(a, c)


def test_stream_seed_range():
    # the Philox key word is unsigned 64-bit: anything outside is a domain error
    replicate_rng(2 ** 64 - 1, 0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainRejectionError):
            replicate_rng(seed, 0)


def _fails_on_job_3(job):
    index, error = job
    if index == 3:
        raise error("no convergence")
    return index


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("error", [ConvergenceError, np.linalg.LinAlgError])
def test_map_replicates_names_failing_replicate(threads, error):
    healthy = [(i, error) for i in range(20) if i != 3]
    assert map_replicates(_fails_on_job_3, healthy, threads) == [i for i, _ in healthy]
    with pytest.raises(ConvergenceError) as info:
        map_replicates(_fails_on_job_3, [(i, error) for i in range(8)], threads)
    assert str(info.value).startswith("replicate 3: no convergence")


def _pid(job):
    return os.getpid()


def test_pool_capped_at_job_count(monkeypatch):
    # one job runs in the calling process; two jobs start two workers, not four
    assert map_replicates(_pid, [0], threads=8) == [os.getpid()]
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Recording)
    pids = map_replicates(_pid, [0, 1], threads=4)
    assert sizes == [2]
    assert os.getpid() not in pids and len(set(pids)) <= 2


def _openblas_controls(numpy_only: bool = False) -> list:
    """(get, set) of the thread count of each OpenBLAS mapped into this process, or of
    numpy's alone; empty where none can be found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_",) if numpy_only else ("64_", ""):  # numpy's symbols carry the suffix
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
    return controls


def _blas_threads(job):
    return _openblas_controls(numpy_only=True)[0][0]()


@pytest.mark.parametrize("threads", [1, 2])
def test_replicates_run_on_one_blas_thread(threads):
    # the pin holds in the calling process and in forked workers, and is undone on exit
    controls = _openblas_controls(numpy_only=True)
    if not controls:
        pytest.skip("numpy's OpenBLAS is not found in /proc/self/maps")
    get, set_ = controls[0]
    saved = get()
    set_(2)
    try:
        assert map_replicates(_blas_threads, [0, 1], threads) == [1, 1]
        assert get() == 2
    finally:
        set_(saved)


def test_top_eigenvalues_runs_on_one_blas_thread(monkeypatch):
    # outside the replicate engine too: the same bits whether the caller set every OpenBLAS
    # to 1 or 2 threads, the solve on one thread either way, and the caller's count restored
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS, so that its count can be set)

    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS is found in /proc/self/maps")
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, 400, 400)
    X = ek.sample_data_matrix(_config(spec, seed=9), 0)
    lapack = type(ensemble._lapack())
    seen, solve = [], lapack.stebz_top

    def reading(*args):
        seen.append([get() for get, _ in controls])
        return solve(*args)

    monkeypatch.setattr(lapack, "stebz_top", reading)
    saved = [get() for get, _ in controls]
    tops = []
    try:
        for count in (1, 2):
            for _, set_ in controls:
                set_(count)
            tops.append(ek.top_eigenvalues(X, spec, 3))
            assert [get() for get, _ in controls] == [count] * len(controls)
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
    assert np.array_equal(tops[0], tops[1])
    assert seen == [[1] * len(controls)] * 2


def test_blas_controls_found_once(monkeypatch):
    # a second entry reuses the controls the first one found: /proc/self/maps is not reread
    import scipy.linalg  # noqa: F401  (the one import that may bring another OpenBLAS)

    with ensemble._one_blas_thread():
        pass
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(ensemble, "open", recording_open, raising=False)
    with ensemble._one_blas_thread():
        pass
    assert "/proc/self/maps" not in opened


def _handing_out(monkeypatch, fill=None):
    """Patch ensemble.workspace to record each array it hands out."""
    real, handed = ensemble.workspace, []

    def recording(name, shape):
        arr = real(name, shape)
        if fill is not None:
            arr.fill(fill)
        handed.append(arr)
        return arr

    monkeypatch.setattr(ensemble, "workspace", recording)
    return handed


def _workspace_runs(threads):
    """Every map_replicates caller whose workers take arrays from the workspace."""
    state = ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 40, 40), 0.5)
    spec_wide, spec_tall = (ek.uniform_spectrum(0.5, 2.0, 30, 50),
                            ek.uniform_spectrum(0.5, 2.0, 50, 30))
    return [ek.run_monte_carlo(_config(spec_wide, k=3, seed=3), threads).raw,
            ek.run_monte_carlo(_config(spec_tall, k=3, seed=3), threads).raw,
            [r.to_dict() for r in ek.flow_checks(state, 12, seed=4, threads=threads)],
            ek.comparison_functional(spec_wide, -0.01, 0.01, 6, seed=5, threads=threads)]


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("threads", [1, 2])
def test_workspace_contents_are_never_read(monkeypatch, threads):
    # a replicate writes every workspace element before reading it: handing out
    # arrays full of NaN changes no output
    plain = _workspace_runs(threads)
    handed = _handing_out(monkeypatch, fill=np.nan)
    for a, b in zip(_workspace_runs(threads), plain):
        _assert_same(a, b)
    if threads == 1:  # pool workers fill their own copies, out of sight
        assert handed


def test_replicate_results_share_no_workspace_memory(monkeypatch):
    handed = _handing_out(monkeypatch)
    results = []
    real_map = ensemble.map_replicates

    def recording_map(worker, jobs, threads):
        out = real_map(worker, jobs, threads)
        results.extend(out)
        return out

    monkeypatch.setattr(ensemble, "map_replicates", recording_map)
    monkeypatch.setattr(green, "map_replicates", recording_map)
    _workspace_runs(threads=1)
    arrays = [np.asarray(r) for r in results]
    assert handed and arrays
    assert not any(np.shares_memory(a, w) for a in arrays for w in handed)


def _workspace_kept(job):
    return ensemble.workspace("X", (4, 4)) is ensemble.workspace("X", (4, 4))


def test_workspace_reused_within_a_call_and_released_after():
    handed = []

    def job_using_workspace(job):
        arr = ensemble.workspace("X", (50, 50))
        handed.append(weakref.ref(arr))
        if job == 3:
            raise ConvergenceError("no convergence")
        return all(ref() is arr for ref in handed)

    # serially, every job of a call gets the same array, and the call lets go of it
    assert map_replicates(job_using_workspace, [0, 1, 2], 1) == [True] * 3
    gc.collect()
    assert len(handed) == 3 and all(ref() is None for ref in handed)
    handed.clear()
    with pytest.raises(ConvergenceError, match="replicate 3: no convergence"):
        map_replicates(job_using_workspace, [0, 1, 2, 3], 1)
    gc.collect()
    assert len(handed) == 4 and all(ref() is None for ref in handed)
    # forked workers inherit the call's workspace; outside a call every array is fresh
    assert map_replicates(_workspace_kept, [0, 1], 2) == [True, True]
    assert not _workspace_kept(0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts of Linux")
def test_replicates_fault_in_no_memory():
    # in steady state a replicate allocates nothing of the size of X or its Gram,
    # so the kernel maps no fresh pages for it (without the workspace: ~215 per job)
    import resource

    config = _config(ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200), replicates=40, seed=6)
    jobs = [(config, r) for r in range(config.replicates)]
    map_replicates(ensemble.covariance_replicate, jobs[:2], 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    map_replicates(ensemble.covariance_replicate, jobs, 1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / len(jobs) < 25


def test_one_replicate_engine():
    # every random stream, every worker pool and the BLAS pin are built in one place
    src = Path(ek.__file__).parent
    for token in ("Philox(", "ProcessPoolExecutor("):
        counts = {path.name: path.read_text().count(token) for path in sorted(src.glob("*.py"))}
        assert {name: n for name, n in counts.items() if n} == {"ensemble.py": 1}, token
    assert _functions_containing("set_num_threads") == {"ensemble._one_blas_thread"}
    # so is every binding to a LAPACK library, and the one import of scipy's
    assert _functions_containing("ctypes.CDLL(") == {"ensemble._one_blas_thread", "ensemble._lapack"}
    assert _functions_containing("scipy.linalg import") == {"ensemble._ScipyLapack.__init__"}
    # a replicate is solved for its top k or read from its tridiagonal, never densely
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for token in ("eigvalsh(", "eigh(", "svd("):
            assert token not in text, (path.name, token)


def _lapack_outputs():
    """Tridiagonals, full spectra and top eigenvalues of two-point Gaussian replicates at
    M < N, M = N and M > N (where factor_gram adds a dsyrk), and the top eigenvalues of
    constant-population and Rademacher replicates and of 1 x 1 Grams, through
    ensemble._lapack()."""
    out = []
    rademacher = ek.EntryDistribution(kind="rademacher")
    for M, N in ((40, 50), (50, 50), (60, 50)):
        spec = ek.two_point_spectrum(1.0, 2.0, 0.5, M, N)
        out += [*ensemble.gaussian_tridiagonals(spec, 3, range(3)),
                np.array([ensemble.gaussian_spectrum(spec, 3, i) for i in range(3)]),
                ek.run_monte_carlo(_config(spec, k=3, seed=3)).raw,
                ek.run_monte_carlo(_config(ek.identity_spectrum(M, N), k=3, seed=3)).raw,
                ek.run_monte_carlo(_config(spec, entries=rademacher, k=3, seed=3)).raw]
    for spec in (ek.identity_spectrum(1, 5), ek.two_point_spectrum(1.0, 2.0, 0.5, 6, 1)):  # 1 x 1
        out.append(ek.run_monte_carlo(_config(spec, seed=3)).raw)
    return out


def test_scipy_lapack_matches_numpy_openblas(monkeypatch):
    # with numpy's LAPACK symbols hidden, the routines resolve to scipy.linalg's and give
    # the same tridiagonals (d, e) and top eigenvalues
    ensemble._lapack.cache_clear()
    native = ensemble._lapack()
    if not isinstance(native, ensemble._OpenblasLapack):
        pytest.skip("numpy's OpenBLAS exports no LAPACKE routines here")
    mine = _lapack_outputs()
    monkeypatch.setattr(ensemble._OpenblasLapack, "SYMBOLS",
                        tuple(name + "_hidden" for name in ensemble._OpenblasLapack.SYMBOLS))
    ensemble._lapack.cache_clear()
    try:
        assert isinstance(ensemble._lapack(), ensemble._ScipyLapack)
        theirs = _lapack_outputs()
    finally:
        ensemble._lapack.cache_clear()
    for a, b in zip(mine, theirs):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def _functions_containing(token: str) -> set:
    """module.qualname of the innermost function around each occurrence of token in src/."""
    found = set()
    for path in sorted(Path(ek.__file__).parent.glob("*.py")):
        text = path.read_text()
        spans = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if isinstance(child, ast.FunctionDef):
                        spans.append((child.lineno, child.end_lineno, name))
                visit(child, name)

        visit(ast.parse(text), path.stem)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if token in line:
                around = [s for s in spans if s[0] <= lineno <= s[1]]
                found.add(min(around, key=lambda s: s[1] - s[0])[2] if around else path.stem)
    return found


@pytest.mark.parametrize("token, owners", [
    ("J1 - s * J2", {"tracy_widom._tabulate"}),                          # F1 and F2
    ("N ** (-2.0 / 3.0", {"green.edge_window"}),                         # the edge window
    ("sqrt(max(", {"green._psi"}),                                       # the control parameter
    ("np.linalg.inv(", {"green.roman_green", "green.Linearization.green",  # resolvents
                        "green.verify_schur"}),
    ("chisquare(", {"ensemble.sample_goe_top",                          # beta = 1 models
                    "ensemble.laguerre_tridiagonals", "ensemble.gaussian_factor"}),
    ("np.less(q, 0.0", {"ensemble._negative_pivots"}),                   # Sturm counts
    ("[:, None], X", {"ensemble.top_eigenvalues"}),                      # B = Sigma^{1/2} X
    ("dlauum(", {"ensemble._ScipyLapack.lauum"}),                        # F^T F of the factor,
    (".lauum(", {"ensemble.factor_gram"}),                               # on either platform
    (".sytrd(", {"ensemble._gram_tridiagonal"}),                         # dense tridiagonals
    (".stebz_top(", {"ensemble._top_k"}),                                # a tridiagonal's top k
    ("dsterf(", {"ensemble._ScipyLapack.sterf"}),                        # a tridiagonal's
    (".sterf(", {"ensemble.gaussian_spectrum"}),                         # full spectrum
    ("dstebz(", {"ensemble._ScipyLapack.stebz_top"}),                    # top k, from scipy
])
def test_one_evaluator_per_quantity(token, owners):
    # each quantity is computed in one place, which every caller goes through
    assert _functions_containing(token) == owners


def test_top_eigenvalues_zero_matrix():
    spec = ek.identity_spectrum(6, 6)
    vals = ek.top_eigenvalues(np.zeros((6, 6)), spec, 3)
    assert np.allclose(vals, 0.0)


def test_top_eigenvalues_charpoly_oracle():
    rng = np.random.default_rng(9)
    spec = ek.PopulationSpectrum(np.array([1.5, 1.0, 0.5]), 3, 3)
    X = rng.standard_normal((3, 3)) / np.sqrt(3)
    mine = ek.top_eigenvalues(X, spec, 3)
    B = np.sqrt(spec.eigenvalues)[:, None] * X
    oracle = charpoly_eigs_3x3(B @ B.T)
    assert np.max(np.abs(mine - oracle)) < 1e-12


def test_top_eigenvalues_svd_oracle():
    rng = np.random.default_rng(10)
    spec = ek.identity_spectrum(12, 12)
    X = rng.standard_normal((12, 12)) / np.sqrt(12)
    mine = ek.top_eigenvalues(X, spec, 12)
    assert np.max(np.abs(mine - svd_squared(X))) < 1e-10


def test_top_eigenvalues_rectangular_sides_agree():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 9)) / 3.0
    spec = ek.PopulationSpectrum(np.linspace(2.0, 1.0, 5), 5, 9)
    small_side = ek.top_eigenvalues(X, spec, 5)
    big = (spec.eigenvalues[:, None] * X).T @ X
    oracle = np.sort(np.linalg.eigvalsh(big))[::-1][:5]
    assert np.max(np.abs(small_side - oracle)) < 1e-12


@pytest.mark.parametrize("M, N, rank", [(5, 9, 5), (9, 5, 5), (7, 7, 3), (6, 8, 0)],
                         ids=["M<N", "M>N", "rank-deficient", "zero"])
def test_top_eigenvalues_match_full_eigvalsh(M, N, rank):
    # the top-k subset solve against every eigenvalue of the Gram, for every k
    rng = np.random.default_rng(13)
    X = rng.standard_normal((M, rank)) @ rng.standard_normal((rank, N)) / np.sqrt(N)
    spec = ek.PopulationSpectrum(np.linspace(2.0, 1.0, M), M, N)
    B = np.sqrt(spec.eigenvalues)[:, None] * X
    A = B @ B.T if M <= N else B.T @ B
    full = np.linalg.eigvalsh(A)[::-1]
    tol = 1e-12 * max(1.0, np.linalg.norm(A, 2))
    for k in range(1, min(M, N) + 1):
        assert np.max(np.abs(ek.top_eigenvalues(X, spec, k) - full[:k])) <= tol, k


def test_rescale_edge():
    edge = ek.EdgeParams(xi_plus=0.3, E_plus=5.0, gamma0=0.5, margin=0.4)
    assert ek.rescale_edge(np.array([5.0]), edge, 64)[0] == 0.0
    assert ek.rescale_edge(np.array([5.25]), edge, 64)[0] == pytest.approx(2.0)
    mus = np.array([4.9, 5.0, 5.3])
    s = ek.rescale_edge(mus, edge, 64)
    back = s / (edge.gamma0 * 64 ** (2 / 3)) + edge.E_plus
    assert np.max(np.abs(back - mus)) < 1e-14


def test_rescale_shift_equivariance():
    edge = ek.EdgeParams(xi_plus=0.3, E_plus=5.0, gamma0=0.5, margin=0.4)
    mus = np.array([4.9, 5.0, 5.3])
    delta = 0.125
    lhs = ek.rescale_edge(mus + delta, edge, 27)
    rhs = ek.rescale_edge(mus, edge, 27) + edge.gamma0 * 27 ** (2 / 3) * delta
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_run_monte_carlo_shapes_and_determinism(twopoint200):
    config = _config(twopoint200, replicates=8, k=3, seed=17)
    samples = ek.run_monte_carlo(config)
    assert samples.rows.shape == (8, 3)
    assert np.all(np.diff(samples.rows, axis=1) <= 0)
    again = ek.run_monte_carlo(config, threads=2)
    assert np.array_equal(samples.rows, again.rows)
    single = ek.run_monte_carlo(_config(twopoint200, replicates=1, k=3, seed=17))
    assert single.rows.shape == (1, 3)
    assert np.array_equal(single.rows[0], samples.rows[0])


def test_goe_trace_moments_and_determinism():
    a = ek.sample_goe_top(150, 2, 6, seed=5)
    b = ek.sample_goe_top(150, 2, 6, seed=5)
    assert np.array_equal(a.rows, b.rows)
    # the first draw is the Dumitriu-Edelman tridiagonal matrix T of replicate 0:
    # diagonal N(0, 2/N), off-diagonal j = 1..N-1 distributed as chi_{N-j}/sqrt(N)
    rng = replicate_rng(5, 0)
    diag = rng.standard_normal(150) * np.sqrt(2.0 / 150)
    off = np.sqrt(rng.chisquare(np.arange(149, 0, -1)) / 150)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(np.linalg.eigvalsh(T)[-2:][::-1] - a.raw[0])) < 1e-12
    # construction sanity via moments of that draw
    assert np.mean(off ** 2 * 150 / np.arange(149, 0, -1)) == pytest.approx(1.0, rel=0.1)
    assert diag.var() == pytest.approx(2.0 / 150, rel=0.5)
    # E Tr T^2 = N + 1 with this normalization, as for the dense GOE
    assert np.trace(T @ T) / 150 == pytest.approx(1.0, rel=0.1)


def test_tridiagonal_goe_matches_dense():
    # two-sample KS of the tridiagonal sampler against dense GOE draws, for the
    # top three eigenvalues and the gap ratio R, at the 0.1% critical value
    N, reps = 100, 4000
    tri = ek.sample_goe_top(N, 3, reps, seed=31).raw
    dense = dense_goe_top(N, 3, reps, seed=32)
    gap_ratio = lambda t: (t[:, 0] - t[:, 1]) / (t[:, 1] - t[:, 2])
    stats = [ek.two_sample_ks(tri[:, i], dense[:, i]) for i in range(3)]
    stats.append(ek.two_sample_ks(gap_ratio(tri), gap_ratio(dense)))
    assert max(stats) < 1.95 * np.sqrt(2.0 / reps)


def _laguerre_rows(M, N, reps, seed):
    """(d, e) of reps Laguerre tridiagonals from streams (seed, r), laid out (N, reps)."""
    return ensemble.laguerre_tridiagonals(M, N, seed, range(reps))


@pytest.mark.parametrize("M, N", [(12, 20), (20, 20), (30, 20), (1, 20), (20, 1)],
                         ids=["M<N", "M=N", "M>N", "M=1", "N=1"])
def test_laguerre_tridiagonal_is_factor_gram(M, N):
    # stream (seed, i) gives the tridiagonal F^T F of the reduced factor F of the
    # constant population's Gaussian replicate (seed, i), with N - min(M, N) zero rows
    for i in (0, 5, 2 ** 62 + 3):
        d, e = ensemble.laguerre_tridiagonals(M, N, 9, [i])
        F = reduced_factor(np.ones(M), N, 9, i)
        n = F.shape[1]
        want = np.zeros((N, N))
        want[:n, :n] = F.T @ F
        got = np.diag(d[:, 0]) + np.diag(e[:, 0], 1) + np.diag(e[:, 0], -1)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(want), i


@pytest.mark.parametrize("M, N", [(30, 40), (40, 40), (50, 40)], ids=["M<N", "M=N", "M>N"])
@pytest.mark.parametrize("population", ["constant", "twopoint"])
def test_gaussian_spectrum_is_factor_gram_spectrum(population, M, N):
    # all N eigenvalues, ascending, of the Gram of the reduced factor built here entry
    # by entry, with the N - min(M, N) zeros first, from the Laguerre tridiagonal of a
    # constant population and from dsytrd's of any other
    a, b = (1.5, 1.5) if population == "constant" else (1.0, 2.0)
    spec = ek.two_point_spectrum(a, b, 0.5, M, N)
    for i in (0, 7, 2 ** 63 + 1003):
        F = reduced_factor(spec.eigenvalues, N, 5, i)
        want = np.concatenate([np.zeros(N - F.shape[1]), np.linalg.eigvalsh(F.T @ F)])
        got = ensemble.gaussian_spectrum(spec, 5, i)
        assert got.shape == (N,) and np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - want)) <= 1e-13 * want[-1], i


@pytest.mark.parametrize("M, N", [(30, 40), (40, 40), (50, 40)], ids=["M<N", "M=N", "M>N"])
@pytest.mark.parametrize("k", [1, 3])
def test_identity_monte_carlo_is_factor_gram_top(monkeypatch, M, N, k):
    # run_monte_carlo on Sigma = I takes each replicate's top k from its Laguerre
    # tridiagonal, with no dense matrix (no factor, Gram or X from the workspace): the
    # top k of the Gram of the reduced factor built here entry by entry from the same stream
    spec = ek.identity_spectrum(M, N)
    handed = _handing_out(monkeypatch)
    raw = ek.run_monte_carlo(_config(spec, replicates=4, k=k, seed=5)).raw
    assert handed == []
    for r in range(4):
        F = reduced_factor(spec.eigenvalues, N, 5, r)
        want = np.linalg.eigvalsh(F.T @ F)[::-1][:k]
        assert np.max(np.abs(raw[r] - want)) <= 1e-13 * want[0], r


def _goe_rows(N, reps, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((N, reps)) * np.sqrt(2.0 / N),
            np.sqrt(rng.chisquare(np.arange(N - 1, 0, -1)[:, None], size=(N - 1, reps)) / N))


def _split_row():
    # e_3 = 0 splits the matrix into a 3 x 3 and a 4 x 4 block, with an eigenvalue shared
    d = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 0.5])[:, None]
    e = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])[:, None]
    return d, e


_TRIDIAGONAL_CASES = {
    "goe": lambda: _goe_rows(60, 8, 1),
    "laguerre-M<N": lambda: _laguerre_rows(12, 20, 6, 2),  # 8 eigenvalues exactly 0
    "laguerre-M=N": lambda: _laguerre_rows(20, 20, 6, 3),
    "laguerre-M>N": lambda: _laguerre_rows(30, 20, 6, 4),
    "split": _split_row,
    "all-equal": lambda: (np.full((9, 2), 1.5), np.zeros((8, 2))),
    "N=1": lambda: (np.array([[0.5, -2.0, 0.0]]), np.zeros((0, 3))),
    "N=2": lambda: (np.array([[1.0, 0.0, 3.0], [2.0, 0.0, -1.0]]), np.array([[0.5, 1.0, 0.0]])),
    # d = 0 and e = 1: the Gershgorin interval is symmetric, so the first bisection
    # point is x = 0 exactly and the first pivot d_1 - x is an exact zero
    "zero-pivot": lambda: (np.zeros((7, 2)), np.ones((6, 2))),
    # the top 1 and top 3 of each column are rejected on the leading rows
    "rejected": lambda: _spiked_rows(),
}


def _spiked_rows():
    # N = 400, whose leading block is 118 rows: a diagonal entry of 10 at row 390 in
    # column 0 and at row 200 in column 1 puts the top eigenvalue (about 10.05) outside
    # the block, and for column 0 outside twice the block too
    d, e = _goe_rows(400, 2, 8)
    d[390, 0] = d[200, 1] = 10.0
    return d, e


def test_tridiagonal_top_doubles_the_rows_of_rejected_matrices(monkeypatch):
    # each pass bisects twice the rows of the last, and only the matrices still rejected
    sizes, bisect = [], ensemble._bisect

    def recording(d, *args):
        sizes.append(d.shape)
        return bisect(d, *args)

    monkeypatch.setattr(ensemble, "_bisect", recording)
    d, e = _spiked_rows()
    top = ensemble.tridiagonal_top(d, e, 1)
    assert sizes == [(118, 2), (236, 2), (400, 1)]
    assert np.allclose(top[:, 0], [np.linalg.eigvalsh(np.diag(dr) + np.diag(er, 1) + np.diag(er, -1))[-1]
                                   for dr, er in zip(d.T, e.T)], rtol=1e-13)


@pytest.mark.parametrize("case", list(_TRIDIAGONAL_CASES))
def test_tridiagonal_top_matches_eigvalsh(case):
    d, e = _TRIDIAGONAL_CASES[case]()
    N, R = d.shape
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        top = ensemble.tridiagonal_top(d, e, N)
    for r in range(R):
        dense = np.diag(d[:, r]) + np.diag(e[:, r], 1) + np.diag(e[:, r], -1)
        exact = np.linalg.eigvalsh(dense)[::-1]
        assert np.all(np.abs(top[r] - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact))), r
        for k in (1, min(3, N)):  # the top k alone are the first k of the full solve
            assert np.array_equal(ensemble.tridiagonal_top(d[:, r:r + 1], e[:, r:r + 1], k)[0],
                                  top[r, :k])


def _defeated_block():
    # a diagonal entry of 10 at row 300, below the leading block, in every other
    # column: those columns' top eigenvalue (about 10.05) is not the block's
    d, e = _goe_rows(400, 4, 7)
    d[300, ::2] = 10.0
    return d, e


_LEADING_BLOCK_CASES = {
    **{f"goe-{N}": functools.partial(_goe_rows, N, 4, N) for N in (50, 200, 400)},
    **{f"laguerre-{N}": functools.partial(_laguerre_rows, N, N, 4, N) for N in (50, 200, 400)},
    "defeated-400": _defeated_block,
}


@pytest.mark.parametrize("case", list(_LEADING_BLOCK_CASES))
def test_tridiagonal_top_leading_block_is_certified(case):
    # the top 3 come from the leading rows' bisection where one count over all rows
    # certifies it, and from all rows elsewhere: either way they are the full matrix's
    d, e = _LEADING_BLOCK_CASES[case]()
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        top = ensemble.tridiagonal_top(d, e, 3)
    for r in range(d.shape[1]):
        dense = np.diag(d[:, r]) + np.diag(e[:, r], 1) + np.diag(e[:, r], -1)
        exact = np.linalg.eigvalsh(dense)[::-1][:3]
        assert np.all(np.abs(top[r] - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact))), r
        assert np.array_equal(ensemble.tridiagonal_top(d[:, r:r + 1], e[:, r:r + 1], 3)[0], top[r])
    assert np.array_equal(ensemble.tridiagonal_top(d, e, d.shape[0])[:, :3], top)


def test_tridiagonal_top_rejects_and_names_the_row():
    d, e = _goe_rows(10, 3, 5)
    with pytest.raises(DomainRejectionError):
        ensemble.tridiagonal_top(d, e, 11)
    with pytest.raises(DomainRejectionError):
        ensemble.tridiagonal_top(d, e[:, :2], 1)
    d[4, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="row 1:"):
        ensemble.tridiagonal_top(d, e, 2)
    d, e = _goe_rows(200, 3, 5)
    d[150, 1] = np.nan  # below the leading block: row 1 is bisected again on all rows
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="row 1:"):
        ensemble.tridiagonal_top(d, e, 2)


def _gap_ratio(tops):
    return (tops[:, 0] - tops[:, 1]) / (tops[:, 1] - tops[:, 2])


@pytest.mark.parametrize("M, N", [(6, 10), (10, 10), (15, 10)], ids=["M<N", "M=N", "M>N"])
def test_laguerre_top3_matches_dense(M, N):
    # two-sample KS of the constant-population draw (Laguerre tridiagonal, top 3
    # by tridiagonal_top) against dense draws of X^T X, for each of the top three
    # eigenvalues and for the gap ratio R, at the 0.1% critical value
    reps = 2000
    tri = ensemble.tridiagonal_top(*_laguerre_rows(M, N, reps, 43), 3)
    dense = dense_wishart_spectra(M, N, reps, seed=44)[:, ::-1][:, :3]
    stats = [ek.two_sample_ks(tri[:, i], dense[:, i]) for i in range(3)]
    stats.append(ek.two_sample_ks(_gap_ratio(tri), _gap_ratio(dense)))
    assert max(stats) < 1.95 * np.sqrt(2.0 / reps)


@pytest.mark.parametrize("M, N", [(6, 10), (10, 10), (15, 10), (60, 60)],
                         ids=["M<N", "M=N", "M>N", "M=N-60"])
def test_laguerre_tridiagonal_matches_dense(M, N):
    # two-sample KS of compare's constant-population draws (Laguerre tridiagonals, through
    # its per-replicate functional) against dense draws of X^T X, for the top eigenvalue and
    # the per-replicate comparison functional, at the 0.1% critical value.  The small
    # sizes are the sharp ones: a chi entry off by one degree of freedom, or paired
    # with the wrong neighbour, moves the law by O(1/N)
    reps = 2000
    state = ek.flow_state(ek.identity_spectrum(M, N), 0.0)
    t = state.t_alpha[0]
    window, eta = green.edge_window(N, green.DEFAULT_EPS)
    u, w = np.polynomial.legendre.leggauss(15)
    xs, weights = 0.5 * window * u, 0.5 * window * w
    functional = green._functional_samples(state, xs, weights, eta, 41, range(reps), 1)
    d, e = _laguerre_rows(M, N, reps, 41)
    top = t * np.array([np.linalg.eigvalsh(np.diag(dr) + np.diag(er, 1) + np.diag(er, -1))[-1]
                        for dr, er in zip(d.T, e.T)])
    lam = t * dense_wishart_spectra(M, N, reps, seed=42)
    z = xs + state.L_plus_t + 1j * eta
    dense_functional = np.array([(1.0 / (lam - zk)).sum(axis=1).imag for zk in z]).T @ weights
    stats = [ek.two_sample_ks(top, lam[:, -1]), ek.two_sample_ks(functional, dense_functional)]
    assert max(stats) < 1.95 * np.sqrt(2.0 / reps)


# (population, N) for the reduced-factor law test: wide, square and tall shapes,
# tall runs (longer than N), runs that straddle row N, 1, 2 and 3 atoms, all distinct
_FACTOR_SHAPES = {
    "1-atom-M<N": ([1.5] * 6, 10),
    "1-atom-M>N": ([1.5] * 12, 7),
    "2-atoms-M<N": ([3.0] * 3 + [1.0] * 4, 11),
    "2-atoms-M=N": ([2.0] * 4 + [1.0] * 5, 9),
    "2-atoms-M>N-tall-run": ([2.0] * 9 + [0.5] * 4, 6),
    "3-atoms-M<N": ([4.0] * 2 + [2.0] * 3 + [1.0] * 2, 10),
    "3-atoms-M>N": ([3.0] * 2 + [2.0] * 6 + [1.0] * 3, 5),
    "distinct-M=N": (np.linspace(2.0, 0.5, 8), 8),
    "distinct-M>N": (np.linspace(2.0, 0.5, 10), 6),
}


@pytest.mark.parametrize("shape", list(_FACTOR_SHAPES))
def test_gaussian_replicates_match_dense_law(shape):
    # two-sample KS of covariance_replicate's Gaussian draws (the reduced factor) against
    # dense draws of Sigma^{1/2} X, for each of the top three eigenvalues and the smallest
    # nonzero one, at the 0.1% critical value.  The small sizes are the sharp ones: a chi
    # entry off by one degree of freedom, or a run boundary misplaced, moves the law by O(1/N)
    sig, N = _FACTOR_SHAPES[shape]
    spec, reps = ek.PopulationSpectrum(np.asarray(sig, dtype=float), len(sig), N), 2000
    n = min(spec.M, N)
    config = _config(spec, replicates=reps, k=n, seed=51)
    mine = np.array(map_replicates(ensemble.covariance_replicate,
                                   [(config, r) for r in range(reps)], 1))
    dense = dense_covariance_spectra(spec.eigenvalues, spec.M, N, reps, seed=52)[:, ::-1]
    stats = [ek.two_sample_ks(mine[:, i], dense[:, i]) for i in (0, 1, 2, n - 1)]
    assert max(stats) < 1.95 * np.sqrt(2.0 / reps)


@pytest.mark.parametrize("shape", list(_FACTOR_SHAPES))
def test_factor_gram_is_exact(shape):
    # the factor is the documented draw of its stream, entry by entry, and factor_gram
    # forms F^T F in F's own memory: dlauum, then dsyrk for the rows below min(M, N)
    sig, N = _FACTOR_SHAPES[shape]
    spec = ek.PopulationSpectrum(np.asarray(sig, dtype=float), len(sig), N)
    unwritten = np.full((spec.M, min(spec.M, N)), np.nan)
    F = ensemble.gaussian_factor(spec, 8, 3, out=unwritten)
    assert np.array_equal(F, reduced_factor(spec.eigenvalues, N, 8, 3))
    want = F.T @ F
    A = ensemble.factor_gram(F.copy())
    assert A.flags.f_contiguous and A.shape == want.shape
    assert np.max(np.abs(np.triu(A) - np.triu(want))) <= 1e-13 * np.abs(want).max()
    assert np.shares_memory(ensemble.factor_gram(F), F)


def test_factor_layout_is_per_spectrum():
    # the layout is worked out once per spectrum: factors of two spectra of one shape,
    # drawn in turn, are each the documented draw of their own spectrum
    spectra = ek.two_point_spectrum(1.0, 2.0, 0.5, 9, 9), ek.uniform_spectrum(0.5, 2.0, 9, 9)
    for spec in spectra + spectra:
        F = ensemble.gaussian_factor(spec, 8, 3, out=np.full((9, 9), np.nan))
        assert np.array_equal(F, reduced_factor(spec.eigenvalues, 9, 8, 3))


def test_goe_vs_f1(tw_reference):
    samples = ek.sample_goe_top(200, 1, 500, seed=9)
    report = ek.ks_statistic(np.sort(samples.column(0)), tw_reference.grid, tw_reference.F1)
    assert report.statistic < 0.10


def test_null_reference_edge_value():
    # the null population is the renormalized identity: unit scaling factor, edge M_plus
    null = ek.flow_state(ek.identity_spectrum(100, 100), 0.0).as_population()
    edge = ek.edge_params(null)
    assert edge.E_plus == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-13)
    assert edge.E_plus == pytest.approx(2.0 ** (-4.0 / 3.0) * 4.0, abs=1e-13)
    assert edge.gamma0 == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("M, N", [(80, 40), (60, 60), (40, 80)])  # d = 1/2, 1, 2
def test_null_reference_matches_closed_form(M, N):
    w = null_reference_W(N, M, 20, seed=3, k=2)
    rows, raw = null_w_top(N, M, 2, 20, seed=3)
    assert np.max(np.abs(w.rows - rows)) <= 1e-12
    assert np.max(np.abs(w.raw - raw) / raw) <= 1e-12


def test_null_reference_matches_identity_monte_carlo(tw_reference):
    # 0.08 is the two-sample KS value at alpha ~ 0.001 for 1200 draws a side
    N, reps = 200, 1200
    w = null_reference_W(N, N, reps, seed=21)
    spec = ek.identity_spectrum(N, N)
    q = ek.run_monte_carlo(_config(spec, replicates=reps, seed=22))
    assert ek.two_sample_ks(w.column(0), q.column(0)) < 0.08
    again = null_reference_W(N, N, reps, seed=21)
    assert np.array_equal(w.rows, again.rows)


def test_ks_statistic_inverse_transform(tw_reference):
    samples = np.sort(inverse_transform_samples(tw_reference.grid, tw_reference.F1, 10_000, seed=2))
    report = ek.ks_statistic(samples, tw_reference.grid, tw_reference.F1)
    assert report.statistic < 0.02


def test_ks_statistic_degenerate_spike(tw_reference):
    samples = np.sort(np.full(100, 5.9))
    report = ek.ks_statistic(samples, tw_reference.grid, tw_reference.F1)
    assert report.statistic > 0.97


def test_ks_statistic_rejections(tw_reference):
    with pytest.raises(DomainRejectionError, match="sorted"):
        ek.ks_statistic(np.array([1.0, 0.0] * 20), tw_reference.grid, tw_reference.F1)
    with pytest.raises(DomainRejectionError, match="at least 20"):
        ek.ks_statistic(np.zeros(5), tw_reference.grid, tw_reference.F1)
    with pytest.raises(DomainRejectionError, match="empty overlap"):
        ek.ks_statistic(np.sort(np.full(30, 99.0)), tw_reference.grid, tw_reference.F1)


def test_smoothed_count_far_from_boundary():
    mu = np.array([0.0, 1.0, 2.0])
    eta = 1e-4
    smoothed, exact = ek.smoothed_count(mu, 0.5, 2.5, eta)
    assert exact == 2
    assert abs(smoothed - exact) < 0.01


def test_smoothed_count_single_midpoint():
    eta = 1e-3
    gap = 1.0
    smoothed, exact = ek.smoothed_count(np.array([0.5]), 0.0, 1.0, eta)
    assert exact == 1
    # arctan closed form: 1 - (2/pi) * eta/gap-level correction
    assert smoothed == pytest.approx(1.0, abs=2 * eta / gap + 1e-6)


def test_smoothed_count_rejections():
    with pytest.raises(DomainRejectionError):
        ek.smoothed_count(np.array([1.0]), 2.0, 1.0, 1e-3)
    with pytest.raises(DomainRejectionError):
        ek.smoothed_count(np.array([1.0]), 0.0, 1.0, -1e-3)


def test_smoothed_count_goe_bracket():
    # empirical two-sided bracket over 100 GOE draws
    N, eps = 200, 0.05
    ell = 0.5 * N ** (-2.0 / 3.0 - eps)
    eta = N ** (-2.0 / 3.0 - 9.0 * eps)
    slack = N ** (-0.05)
    E_star = 2.0 + N ** (-2.0 / 3.0 + 0.1)
    violations = 0
    for rep in range(100):
        rng = replicate_rng(31, rep)
        B = rng.standard_normal((N, N))
        mu = np.linalg.eigvalsh((B + B.T) / np.sqrt(2.0 * N))
        E = 2.0 + 0.3 * N ** (-2.0 / 3.0)
        upper, exact = ek.smoothed_count(mu, E, E_star, eta, ell=-ell)
        lower, _ = ek.smoothed_count(mu, E, E_star, eta, ell=+ell)
        if not (lower - slack <= exact <= upper + slack):
            violations += 1
    assert violations == 0


def test_local_law_probe_far_regime(identity100):
    X = ek.sample_data_matrix(_config(identity100, seed=8), 0)
    max_dev, avg_dev, psi = ek.local_law_probe(X, identity100, 2.0 + 1.0j)
    assert avg_dev < 0.1
    assert max_dev < 0.5


def test_local_law_probe_edge_bands():
    # avg deviation within 5/(N eta) in >= 95% of seeds at the edge scale
    N = 200
    spec = ek.identity_spectrum(N, N)
    eta = N ** (-2.0 / 3.0)
    z = 4.0 + 1j * eta
    config = _config(spec)
    hits = 0
    ratios = []
    for rep in range(100):
        X = ek.sample_data_matrix(ek.EnsembleConfig(spec, replicates=100, seed=77), rep)
        max_dev, avg_dev, psi = ek.local_law_probe(X, spec, z)
        hits += avg_dev <= 5.0 / (N * eta)
        ratios.append(max_dev / psi)
    assert hits >= 95
    assert np.quantile(ratios, 0.95) <= 10.0


def test_local_law_psi_scaling():
    # max entry deviation stays below 10*Psi across sizes in >= 95% of seeds
    for N in (100, 200, 400):
        spec = ek.identity_spectrum(N, N)
        eta = N ** (-2.0 / 3.0)
        z = 4.0 + 1j * eta
        bad = 0
        for rep in range(20):
            X = ek.sample_data_matrix(ek.EnsembleConfig(spec, replicates=20, seed=78), rep)
            max_dev, _, psi = ek.local_law_probe(X, spec, z)
            bad += max_dev > 10.0 * psi
        assert bad <= 1


def test_concentration_of_top_eigenvalue(twopoint400):
    # gamma0-normalized concentration: gamma0 |mu1 - E_plus| > N^{-2/3+eps} is
    # rare.  At N=400 the eps=0.2 window sits right at the TW tail (measured
    # 5.4%, limit value 4.4%), so the desk-scale assertion uses that measured
    # level; the slightly wider eps=0.25 window is deeply concentrated.
    N = 400
    config = _config(twopoint400, replicates=500, seed=33)
    edge = ek.edge_params(twopoint400)
    samples = ek.run_monte_carlo(config, edge=edge)
    dev = np.abs(samples.raw[:, 0] - edge.E_plus) * edge.gamma0
    assert np.mean(dev > N ** (-2.0 / 3.0 + 0.2)) < 0.06
    assert np.mean(dev > N ** (-2.0 / 3.0 + 0.25)) < 0.015


def test_rotation_reduction_two_sample(twopoint200):
    # Gaussian data: eigenvalues of (UX)^* D (UX) match the diagonal-D law, both from
    # dense X (run_monte_carlo's reduced factor has its own law test against dense X).
    # At 1200 draws a side the bound 0.08 is the two-sample KS value at alpha ~ 0.001,
    # 1.95 sqrt(2 / 1200) = 0.0796
    N, reps = 200, 1200
    rng = np.random.default_rng(123)
    U, _ = np.linalg.qr(rng.standard_normal((N, N)))
    config, other = (_config(twopoint200, replicates=reps, seed=s) for s in (44, 45))
    rotated, plain = np.empty(reps), np.empty(reps)
    for rep in range(reps):
        X = ek.sample_data_matrix(config, rep)
        rotated[rep] = ek.top_eigenvalues(U @ X, twopoint200, 1)[0]
        plain[rep] = ek.top_eigenvalues(ek.sample_data_matrix(other, rep), twopoint200, 1)[0]
    assert ek.two_sample_ks(rotated, plain) < 0.08


def test_config_validation(twopoint200):
    with pytest.raises(DomainRejectionError):
        _config(twopoint200, k=300)
    with pytest.raises(DomainRejectionError):
        _config(twopoint200, replicates=0)


def test_edge_samples_csv(tmp_path, twopoint200):
    samples = ek.run_monte_carlo(_config(twopoint200, replicates=3, k=2, seed=1))
    path = tmp_path / "samples.csv"
    samples.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "replicate,s1,s2"
    assert len(lines) == 4
    parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.array_equal(parsed, samples.rows)


def test_local_law_probe_rejects_lower_half(identity100):
    X = ek.sample_data_matrix(_config(identity100, seed=8), 0)
    with pytest.raises(DomainRejectionError):
        ek.local_law_probe(X, identity100, 2.0 - 0.5j)

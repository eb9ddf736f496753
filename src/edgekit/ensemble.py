"""Sample covariance ensembles, the replicate engine and edge-statistics Monte Carlo.

It draws and eigensolves; resolvents of Q, the local-law probe's too, live in `green`.
Every replicate's matrix is built here.  A Gaussian replicate is the reduced
triangular factor F of `gaussian_factor`, read in one of two ways:
`covariance_replicate` solves its Gram (by `factor_gram`) for the top k, for
`simulate` and `detect`; `gaussian_tridiagonals` draws the Gram F^T F in
tridiagonal form (a constant population's directly, any other's by dsytrd of
`factor_gram`), whose pivots give the flow checks' and `compare`'s traces, and
whose full spectrum by dsterf (`gaussian_spectrum`) is a decoupling base's.
Other entry laws draw X, and `top_eigenvalues` solves the Gram of Sigma^{1/2} X.
LAPACK (dsytrd, dsterf, dlauum, dsyevr) and dsyrk come from numpy's own OpenBLAS
through ctypes, found on first use, so no replicate loads scipy; where that
library lacks them, from scipy.linalg (`_lapack`).

Every Monte Carlo estimate is a `map_replicates` over jobs, each drawing from
its own counter-based Philox stream (Salmon et al., SC 2011), built only by
`replicate_rng(seed, index)`.  The stream keys (seed, index) are:

    replicate r of a run or of a GOE / null table    (seed, r)
    compare, null-reference draw r                   (seed, NULL_STREAM + r)
    detect, the observed draw                        (seed, OBSERVED_STREAM)
    decoupling, base b < reps // 10 (10 to 200)      (seed, BASE_STREAM + b)
    decoupling, the 50 resampled rows of base b      (seed, b << 32), in turn

So outputs do not depend on --threads.  Nor do they depend on the BLAS thread
count: on Linux the replicate engine pins every loaded OpenBLAS to one thread,
and so does every LAPACK caller, scipy's OpenBLAS too where the routines load it.
Within one map_replicates call each process reuses its dense arrays (the data
matrix or the factor, its weighted copy, the Gram) from one replicate to the
next, through `workspace`, and releases them when the call returns; every
in-place step computes what its out-of-place form did, so outputs do not change.
A Gaussian replicate draws no data matrix: X is
orthogonally invariant, so the factor of `gaussian_factor` has the singular
values of Sigma^{1/2} X in law from far fewer variates (Rademacher and
skewed-two-point entries lack that invariance and keep the dense X).
A constant population is one run, so its factor is bidiagonal and F^T F
tridiagonal: `laguerre_tridiagonals` draws that tridiagonal for many streams at
once, from the factor's variates, with no dense matrix.
`tridiagonal_top` takes the top k of a batch of tridiagonals, such as the GOE
null table's, by vectorized Sturm bisection of each matrix's leading ~16 N^{1/3}
rows, where the top eigenvalues live, certified by one count over all N rows;
a matrix the count rejects is bisected again on twice the rows, and so on up to
all N, so every result is the full matrix's bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .defaults import ENTRY_KINDS
from .errors import ConvergenceError, DomainRejectionError
from .population import EdgeParams, PopulationSpectrum, edge_params

# the stream indices of the table above
NULL_STREAM = 2 ** 62
OBSERVED_STREAM = 2 ** 63 + 2
BASE_STREAM = 2 ** 63 + 1000


# skewed-two-point: the weight of the positive atom sqrt((1 - p) / p); the other
# atom, -sqrt(p / (1 - p)), makes the law mean 0, variance 1
SKEWED_WEIGHT = 0.8


@dataclass(frozen=True)
class EntryDistribution:
    """Law of sqrt(N) x_ij: mean 0, variance 1, subexponential tail."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise DomainRejectionError(f"unknown entry distribution {self.kind!r}")

    def sample(self, rng: np.random.Generator, M: int, N: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """M x N matrix of independent entries with variance 1/N, drawn into out when given."""
        if out is None:
            out = np.empty((M, N))
        if self.kind == "gaussian":
            rng.standard_normal(size=(M, N), out=out)
        elif self.kind == "rademacher":
            np.multiply(rng.integers(0, 2, size=(M, N)), 2.0, out=out)
            out -= 1.0
        else:
            p = SKEWED_WEIGHT
            atoms = np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p))
            np.copyto(out, np.where(rng.random((M, N)) < p, *atoms))
        out /= np.sqrt(N)
        return out



@dataclass(frozen=True)
class EnsembleConfig:
    spectrum: PopulationSpectrum  # carries the dimensions M and N
    entries: EntryDistribution = EntryDistribution()
    replicates: int = 100
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.k <= min(self.spectrum.M, self.spectrum.N)):
            raise DomainRejectionError(f"k={self.k} must lie in [1, min(M, N)]")
        if self.replicates < 1:
            raise DomainRejectionError("replicates must be positive")


@dataclass(frozen=True)
class EdgeSamples:
    """Rescaled top-k eigenvalues per replicate: s_i = gamma0 N^{2/3} (mu_i - E_plus)."""

    rows: np.ndarray            # (replicates, k), descending within each row
    raw: np.ndarray             # the eigenvalues mu_i before rescaling, same shape

    def column(self, i: int = 0) -> np.ndarray:
        return self.rows[:, i]

    def to_csv(self, path) -> None:
        k = self.rows.shape[1]
        lines = ["replicate," + ",".join(f"s{i + 1}" for i in range(k))]
        for r, row in enumerate(self.rows):
            lines.append(",".join([str(r)] + [repr(float(v)) for v in row]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class KsReport:
    statistic: float
    n: int
    reference: str

    def to_json(self) -> str:
        return json.dumps({"statistic": self.statistic, "n": self.n, "reference": self.reference})


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The counter-based stream with key (seed, index); see the module docstring for the layout."""
    if not 0 <= seed < 2 ** 64:
        raise DomainRejectionError(f"seed {seed} outside [0, 2^64)")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _attributed(worker, indexed_job):
    index, job = indexed_job
    try:
        return worker(job)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        name = getattr(worker, "job_name", "replicate")
        if name is None:  # a job of several replicates names the one that failed
            raise
        raise ConvergenceError(f"{name} {index}: {exc}") from exc


def _openblas_paths() -> list:
    """The OpenBLAS libraries mapped into this process, from /proc/self/maps; none
    where that file does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            return list(dict.fromkeys(line.split()[-1] for line in maps
                                      if "openblas" in line and ".so" in line))
    except OSError:
        return []


# whether scipy.linalg was loaded -> the (get, set) thread controls of every OpenBLAS
# loaded then; forked workers inherit the libraries and so the entries
_blas_controls: dict = {}


@contextlib.contextmanager
def _one_blas_thread():
    """Run every OpenBLAS loaded in this process on one thread, restoring the old counts on exit.

    The libraries are read from /proc/self/maps: numpy's (64-bit integers) and,
    once scipy.linalg is imported, scipy's.  The map is read once per process,
    and once more after scipy.linalg first loads, the one import that brings a
    second OpenBLAS.  Where that file does not exist, nothing changes.
    """
    scipy_loaded = "scipy.linalg" in sys.modules
    controls = _blas_controls.get(scipy_loaded)
    if controls is None:
        controls = []
        for path in _openblas_paths():
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):  # numpy's symbols carry the suffix, scipy's do not
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    controls.append((get, set_))
        _blas_controls[scipy_loaded] = controls  # stored whole: another thread sees all or none
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info={info}")


_COLUMN_MAJOR, _UPPER, _NO_TRANSPOSE = 102, 121, 111  # LAPACKE and CBLAS enumerations


def _order(A: np.ndarray) -> int:
    """n for a square n x n A, which LAPACK reads through a pointer with no bounds."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A.shape[0]


class _OpenblasLapack:
    """LAPACK's dsytrd, dsterf, dlauum and dsyevr (through LAPACKE) and BLAS's dsyrk (through
    CBLAS) of numpy's OpenBLAS, whose integers are 64-bit, called by ctypes.  Each
    routine takes Fortran-ordered matrices and works in place."""

    SYMBOLS = ("scipy_LAPACKE_dsytrd64_", "scipy_LAPACKE_dsterf64_", "scipy_LAPACKE_dlauum64_",
               "scipy_LAPACKE_dsyevr64_", "scipy_cblas_dsyrk64_")

    def __init__(self, lib):
        matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
        vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
        index = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
        i64, char, enum, real = ctypes.c_int64, ctypes.c_char, ctypes.c_int, ctypes.c_double
        signatures = (
            [enum, char, i64, matrix, i64, vector, vector, vector],
            [i64, vector, vector],
            [enum, char, i64, matrix, i64],
            [enum, char, char, char, i64, matrix, i64, real, real, i64, i64, real,
             ctypes.POINTER(i64), vector, vector, i64, index],
            [enum, enum, enum, i64, i64, real, matrix, i64, real, matrix, i64])
        routines = [getattr(lib, name) for name in self.SYMBOLS]
        self._sytrd, self._sterf, self._lauum, self._syevr, self._syrk = routines
        for fn, argtypes in zip(routines, signatures):
            fn.argtypes, fn.restype = argtypes, i64
        self._syrk.restype = None

    def sytrd(self, A):
        """(d, e) of the tridiagonal Q^T A Q that dsytrd reduces A to, read from A's
        upper triangle."""
        n = _order(A)
        d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        _check_info("dsytrd", self._sytrd(_COLUMN_MAJOR, b"U", n, A, n, d, e, tau))
        return d, e

    def sterf(self, d, e):
        """The eigenvalues, ascending, of the symmetric tridiagonal with diagonal d and
        off-diagonal e, in place of d; e is overwritten."""
        if e.shape != (d.size - 1,):
            raise ValueError(f"dsterf of a diagonal {d.shape} with off-diagonal {e.shape}")
        _check_info("dsterf", self._sterf(d.size, d, e))
        return d

    def lauum(self, A):
        """U U^T in place of A's upper triangle U."""
        n = _order(A)
        _check_info("dlauum", self._lauum(_COLUMN_MAJOR, b"U", n, A, n))

    def syrk(self, C, B):
        """C + B B^T in place of C's upper triangle."""
        n, k = B.shape
        if _order(C) != n:
            raise ValueError(f"dsyrk of a {B.shape} matrix into {C.shape}")
        self._syrk(_COLUMN_MAJOR, _UPPER, _NO_TRANSPOSE, n, k, 1.0, B, n, 1.0, C, n)

    def syevr_top(self, A, k, lower):
        """The k largest eigenvalues of A, ascending, read from its lower or upper triangle."""
        n = _order(A)
        w, found = np.empty(n), ctypes.c_int64()
        info = self._syevr(_COLUMN_MAJOR, b"N", b"I", b"L" if lower else b"U", n, A, n, 0.0, 1.0,
                           n - k + 1, n, 0.0, found, w, np.empty(1), 1, np.empty(2 * n, np.int64))
        _check_info("dsyevr", info)
        return w[:k]


class _ScipyLapack:
    """The routines of `_OpenblasLapack`, with the same arguments, from scipy.linalg."""

    def __init__(self):
        from scipy.linalg import blas, lapack
        self._blas, self._lapack = blas, lapack

    def sytrd(self, A):
        lwork = int(self._lapack.dsytrd_lwork(A.shape[0])[0])
        _, d, e, _, info = self._lapack.dsytrd(A, lwork=max(lwork, 1), overwrite_a=1)
        _check_info("dsytrd", info)
        return d, e

    def sterf(self, d, e):
        vals, info = self._lapack.dsterf(d, e, overwrite_d=1, overwrite_e=1)
        _check_info("dsterf", info)
        return vals

    def lauum(self, A):
        _check_info("dlauum", self._lapack.dlauum(A, overwrite_c=1)[1])

    def syrk(self, C, B):
        self._blas.dsyrk(1.0, B, beta=1.0, c=C, overwrite_c=1)

    def syevr_top(self, A, k, lower):
        n = A.shape[0]
        lwork, liwork, _ = self._lapack.dsyevr_lwork(n, lower=lower)
        w, _, _, _, info = self._lapack.dsyevr(A, compute_v=0, range="I", lower=lower,
                                               il=n - k + 1, iu=n, lwork=int(lwork),
                                               liwork=liwork, overwrite_a=1)
        _check_info("dsyevr", info)
        return w[:k]


@functools.cache
def _lapack():
    """The LAPACK routines of every replicate: numpy's OpenBLAS, where it exports
    them, or else scipy.linalg.  Resolved on first use, never at import, and
    inherited by forked workers."""
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        if all(hasattr(lib, name) for name in _OpenblasLapack.SYMBOLS):
            return _OpenblasLapack(lib)
    return _ScipyLapack()


@contextlib.contextmanager
def _lapack_on_one_blas_thread():
    """`_one_blas_thread`, entered once `_lapack` is resolved, so that it also pins
    the OpenBLAS that scipy.linalg brings where the routines come from there."""
    _lapack()
    with _one_blas_thread():
        yield


# .arrays: name -> array while this thread runs map_replicates; per thread, so two
# threads that each run one never share an array
_held = threading.local()


def workspace(name: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of this shape for a replicate's scratch work.

    While map_replicates runs, each process keeps one array per name and hands
    the same one out again, so a replicate allocates nothing of its size once
    the first has run; elsewhere the array is a fresh np.empty.  A caller
    writes every element before reading any, and never returns the array or a
    view of it.
    """
    arrays = getattr(_held, "arrays", None)
    if arrays is None:
        return np.empty(shape)
    arr = arrays.get(name)
    if arr is None or arr.shape != shape:
        arr = arrays[name] = np.empty(shape)
    return arr


def map_replicates(worker, jobs: list, threads: int) -> list:
    """[worker(job) for job in jobs], in order, on min(threads, len(jobs)) processes.

    worker must be a module-level function.  A ConvergenceError or LinAlgError
    in worker(jobs[i]) is raised as ConvergenceError("replicate i: ...") on
    either path, or with worker.job_name in place of "replicate" when a job
    is not one replicate; a worker whose job_name is None runs several
    replicates a job, and its own error, which names the replicate, is raised
    as it is.  Every job runs with BLAS on one thread, so its cost
    and its rounding do not depend on OPENBLAS_NUM_THREADS; forked workers
    inherit that setting.  Jobs reuse the arrays `workspace` hands out, each
    process its own, until the call returns or raises; then they are released.
    """
    run = functools.partial(_attributed, worker)
    workers = min(threads, len(jobs))
    previous = getattr(_held, "arrays", None)
    _held.arrays = {}  # set before the pool forks: each worker fills its own copy
    try:
        with _one_blas_thread():
            if workers <= 1:
                return [run(job) for job in enumerate(jobs)]
            # imported before the fork, so the workers share its pages, and those
            # of the OpenSSL it loads through `secrets`, instead of each loading them
            import numpy.random  # noqa: F401
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunksize = max(1, len(jobs) // (8 * workers))
                return list(pool.map(run, enumerate(jobs), chunksize=chunksize))
    finally:
        _held.arrays = previous


def sample_data_matrix(config: EnsembleConfig, replicate_index: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    rng = replicate_rng(config.seed, replicate_index)
    return config.entries.sample(rng, config.spectrum.M, config.spectrum.N, out=out)


def top_eigenvalues(X: np.ndarray, spectrum: PopulationSpectrum, k: int) -> np.ndarray:
    """Top k eigenvalues of X^* Sigma X (Sigma diagonal = spectrum eigenvalues).

    Works with whichever of the M x M / N x N Grams is smaller; both share the
    nonzero spectrum, and solves for its top k alone (LAPACK dsyevr, the MRRR
    algorithm of Dhillon & Parlett 2004).  X is left unchanged.  The Gram and
    the solve run with every OpenBLAS on one thread, whatever the caller set.
    """
    M, N = X.shape
    sig = spectrum.eigenvalues
    if sig.size != M:
        raise DomainRejectionError(f"spectrum has {sig.size} eigenvalues but X has {M} rows")
    if k > min(M, N):
        raise DomainRejectionError(f"k={k} exceeds min(M, N)={min(M, N)}")
    B = np.multiply(np.sqrt(sig)[:, None], X, out=workspace("scaled", (M, N)))
    narrow = B.T if M <= N else B  # B B^T for M <= N, else B^T B
    n = min(M, N)
    with _lapack_on_one_blas_thread():
        # numpy forms the Gram by BLAS syrk, so it is exactly symmetric; LAPACK reads one
        # triangle of a Fortran-ordered matrix, so A.T is that matrix and is solved in place
        A = np.matmul(narrow.T, narrow, out=workspace("gram", (n, n)))
        return _solve_top(A.T, k, True, lambda: narrow.T @ narrow)


def _solve_top(A: np.ndarray, k: int, lower: bool, full) -> np.ndarray:
    """Top k eigenvalues, descending, of the symmetric Fortran-ordered A, read from its
    lower or upper triangle and solved in place by dsyevr (the MRRR
    algorithm of Dhillon & Parlett 2004).  Should LAPACK fail, full() forms the
    whole matrix afresh, since the solve may have overwritten A, for the message.
    """
    try:
        vals = _lapack().syevr_top(A, k, lower)
    except np.linalg.LinAlgError as exc:
        A = full()
        raise ConvergenceError(
            f"symmetric eigensolver failed: {exc}; ||A||_F={np.linalg.norm(A):.3e}, "
            f"trace={np.trace(A):.3e}") from exc
    return vals[::-1].copy()


def gaussian_factor(spec: PopulationSpectrum, seed: int, index: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """A reduced factor F, M x min(M, N), drawn from stream (seed, index), whose Gram
    F^T F has in law the nonzero spectrum of X^* Sigma X for Gaussian X, with
    Sigma and the dimensions those of spec.

    Sort sigma descending (the row order leaves the law alone) and let row r
    (0-based) lie in the run [c, e) of equal sigma.  Row r of F is sqrt(sigma_r / N)
    times: N(0, 1) at columns j < min(c, N), chi_{N-r} at (r, r) for r < N,
    chi_{e-r} at (r, r-1) for c < r <= N, and 0 elsewhere.  Householder
    reflections of the rows within a run commute with Sigma and leave the
    singular values of Sigma^{1/2} X alone; reflections of the columns not yet
    reduced do too.  Alternating the two reduces Sigma^{1/2} X to this form,
    with independent entries, as in the Laguerre model of Dumitriu & Edelman
    (2002): one run gives its bidiagonal, all-distinct sigma Bartlett's triangle.
    A population of two equal runs at M = N takes M^2 / 4 normals and
    2 M - 2 chi-square draws in place of M N normals.

    The draw order: the normals row by row, left to right, then the chi-square
    variates of the diagonal, rows ascending, then those below it, rows
    ascending.  The top min(M, N) rows form a lower triangle.  Without out, F
    goes into the workspace array "factor".  Where each variate goes, and its
    row's scale, is worked out once per spectrum in a process (`_factor_layout`);
    a replicate scales only the variates it draws and places them.
    """
    positions, scale, dof = _factor_layout(spec.M, spec.N, spec.eigenvalues.tobytes())
    F = workspace("factor", (spec.M, min(spec.M, spec.N))) if out is None else out
    rng = replicate_rng(seed, index)
    variates = workspace("variates", positions.shape)
    normals = positions.size - dof.size
    rng.standard_normal(out=variates[:normals])
    variates[normals:] = np.sqrt(rng.chisquare(dof))
    variates *= scale
    F.fill(0.0)
    F.reshape(-1)[positions] = variates
    return F


@functools.lru_cache(maxsize=8)
def _factor_layout(M: int, N: int, eigenvalues: bytes) -> tuple:
    """Where `gaussian_factor` puts the variates of one spectrum's factor, shared
    by all its replicates: (the flat index in F of each variate, in draw order;
    sqrt(sigma_r / N) of its row r; the chi-square degrees of freedom, in order).
    The arrays are read-only.
    """
    n = min(M, N)
    s = np.sort(np.frombuffer(eigenvalues))[::-1]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    lengths = np.diff(np.r_[starts, M])
    c = np.repeat(starts, lengths)
    e = c + np.repeat(lengths, lengths)
    heads = np.minimum(c, n)  # how many normals each row holds
    below = np.arange(1, min(M, N + 1))
    below = below[c[below] < below]  # the rows with a variate at (r, r - 1)
    positions = np.r_[np.flatnonzero(np.arange(n) < heads[:, None]),  # row by row
                      np.arange(n) * (n + 1), below * (n + 1) - 1]
    layout = positions, np.sqrt(s / N)[positions // n], np.r_[N - np.arange(n), e[below] - below]
    for arr in layout:
        arr.flags.writeable = False
    return layout


def factor_gram(F: np.ndarray) -> np.ndarray:
    """F^T F for a factor F of `gaussian_factor`, formed in F's own memory.

    The result is a Fortran-ordered n x n view of F's top n = min(M, N) rows,
    whose upper triangle holds F^T F (the lower one is not written).  That
    view's upper triangle is U = L^T, for L the lower triangle of those rows,
    so LAPACK's dlauum makes U U^T = L^T L in place, at a third of the flops of
    a syrk of the same size; for M > N, dsyrk then adds the Gram of the
    remaining rows.
    """
    M, n = F.shape
    A = F[:n].T
    _lapack().lauum(A)
    if M > n:
        _lapack().syrk(A, F[n:].T)
    return A


def rescale_edge(mus: np.ndarray, edge: EdgeParams, N: int) -> np.ndarray:
    return edge.gamma0 * N ** (2.0 / 3.0) * (np.asarray(mus, dtype=float) - edge.E_plus)


def covariance_replicate(args):
    """Top config.k eigenvalues of replicate rep of config, for args = (config, rep).

    Gaussian entries draw the factor of `gaussian_factor`; other entry laws draw
    the data matrix X.  Either way the solve runs with every OpenBLAS on one
    thread.
    """
    config, rep = args
    spec = config.spectrum
    if config.entries.kind != "gaussian":
        X = sample_data_matrix(config, rep, out=workspace("X", (spec.M, spec.N)))
        return top_eigenvalues(X, spec, config.k)

    def full():  # this replicate's Gram, from its factor drawn afresh
        F = gaussian_factor(spec, config.seed, rep, out=np.empty((spec.M, min(spec.M, spec.N))))
        return F.T @ F

    with _lapack_on_one_blas_thread():
        return _solve_top(factor_gram(gaussian_factor(spec, config.seed, rep)), config.k, False, full)


def run_monte_carlo(config: EnsembleConfig, threads: int = 1,
                    edge: EdgeParams | None = None) -> EdgeSamples:
    """Rescaled top-k edge samples over independent replicates.

    Failures propagate with the replicate index attached.  Results are a pure
    function of (config, seed) regardless of threads.
    """
    if edge is None:
        edge = edge_params(config.spectrum, require_subcritical=True)
    jobs = [(config, r) for r in range(config.replicates)]
    raw = np.array(map_replicates(covariance_replicate, jobs, threads))
    return EdgeSamples(rows=rescale_edge(raw, edge, config.spectrum.N), raw=raw)


def laguerre_tridiagonals(M: int, N: int, seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """(d, e), shapes (N, R) and (N - 1, R): column r holds the diagonal and the
    off-diagonal of an N x N symmetric tridiagonal matrix with the spectrum of
    X^* X, for X an M x N matrix of independent N(0, 1/N) entries: the
    Gaussian replicate (seed, indices[r]) of the constant population, which
    `gaussian_tridiagonals` draws here.

    The matrix is F^T F for that replicate's factor F of `gaussian_factor`,
    lower bidiagonal for a population of one run: its chi-square variates are
    drawn in the factor's order, and no dense F is formed.  For M < N the last
    N - M rows are zero: the zero eigenvalues of X^* X.
    """
    n = min(M, N)
    dof = np.r_[N - np.arange(n), M - np.arange(1, min(M, N + 1))]
    d, e = np.zeros((N, len(indices))), np.zeros((N - 1, len(indices)))
    for r, index in enumerate(indices):
        chi2 = replicate_rng(seed, index).chisquare(dof)
        a2, b2 = chi2[:n], chi2[n:]  # squares of F's diagonal and of its sub-diagonal
        d[:n, r] = a2
        d[:b2.size, r] += b2
        e[:n - 1, r] = np.sqrt(a2[1:] * b2[:n - 1])
    d /= N
    e /= N
    return d, e


def gaussian_tridiagonals(spec: PopulationSpectrum, seed: int,
                          indices) -> tuple[np.ndarray, np.ndarray]:
    """(d, e), laid out as `laguerre_tridiagonals` returns them: column r holds an
    N x N symmetric tridiagonal matrix with the spectrum of X^* Sigma X for the
    Gaussian replicate (seed, indices[r]) of spec, its last N - min(M, N) rows zero.

    A constant population c I takes the Laguerre tridiagonal of its factor's
    chi-square variates, times c.  Any other draws the factor of `gaussian_factor`,
    forms its Gram by `factor_gram`, and reduces that to tridiagonal form by
    LAPACK's dsytrd (Householder reflections, which keep the spectrum), with
    every OpenBLAS on one thread.  A failed reduction raises ConvergenceError
    naming the replicate's index.
    """
    sigma = spec.eigenvalues
    if np.all(sigma == sigma[0]):
        d, e = laguerre_tridiagonals(spec.M, spec.N, seed, indices)
        return sigma[0] * d, sigma[0] * e
    n = min(spec.M, spec.N)
    d, e = np.zeros((spec.N, len(indices))), np.zeros((spec.N - 1, len(indices)))
    with _lapack_on_one_blas_thread():
        for r, index in enumerate(indices):
            try:
                A = factor_gram(gaussian_factor(spec, seed, index))
                d[:n, r], e[:n - 1, r] = _lapack().sytrd(A)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"replicate {index}: {exc}") from exc
    return d, e


def gaussian_spectrum(spec: PopulationSpectrum, seed: int, index: int) -> np.ndarray:
    """All N eigenvalues, ascending, of X^* Sigma X for the Gaussian replicate
    (seed, index) of spec, its N - min(M, N) zeros among them: LAPACK's dsterf
    (the eigenvalue-only tridiagonal QR of Parlett, The Symmetric Eigenvalue
    Problem, 1980) of that replicate's `gaussian_tridiagonals` matrix, with
    every OpenBLAS on one thread.
    """
    d, e = gaussian_tridiagonals(spec, seed, [index])
    with _lapack_on_one_blas_thread():
        return _lapack().sterf(d[:, 0], e[:, 0])


_BISECTIONS = 64  # halvings to converge from the widened Gershgorin interval: at most ~56
# tridiagonal_top bisects the leading ceil(_LEADING_ROWS N^{1/3}) rows first: the smallest
# whole value with which GOE batches of 2000 send no matrix to a second pass at
# N <= 400 and under 1 in 400 at N = 800 (15 sends 0.2-1.7% at N = 200-800)
_LEADING_ROWS = 16


def _negative_pivots(d: np.ndarray, e: np.ndarray, x: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    """Sturm counts, (k, R): how many LDL^T pivots of T - x[j, r] are negative, for T
    the tridiagonal in column r of d (its diagonal) and e (its off-diagonal)."""
    zero = np.zeros(d.shape[1])
    q, ratio = np.full(x.shape, np.inf), np.empty(x.shape)  # with e_0 = 0, q_1 = d_1 - x
    negative, count = np.empty(x.shape, dtype=bool), np.zeros(x.shape, dtype=np.int32)
    zero_pivot = np.broadcast_to(-pivmin, x.shape)
    for d_i, e_prev in zip(d, [zero, *e]):
        np.divide(e_prev * e_prev, q, out=ratio)
        np.subtract(d_i, x, out=q)
        q -= ratio
        if not q.all():
            np.copyto(q, zero_pivot, where=q == 0.0)
        count += np.less(q, 0.0, out=negative)
    return count


def _bisect(d, e, a, b, target, floor, pivmin) -> np.ndarray:
    """Halve each bracket [a, b] (k x R, updated in place) about the eigenvalue with
    target[j] eigenvalues below it, until it settles; the mask of lanes still
    unsettled after _BISECTIONS halvings."""
    eps = np.finfo(float).eps
    for _ in range(_BISECTIONS + 1):
        unsettled = ~(b - a <= np.maximum(2.0 * eps * np.maximum(np.abs(a), np.abs(b)), floor))
        if not unsettled.any():
            break
        x = 0.5 * (a + b)
        lower = _negative_pivots(d, e, x, pivmin) <= target  # the target lies at or above x
        np.copyto(a, x, where=lower & unsettled)
        np.copyto(b, x, where=~lower & unsettled)
    return unsettled


def tridiagonal_top(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Top k eigenvalues, descending, of R symmetric tridiagonal matrices: row r of
    the (R, k) result belongs to the matrix in column r of d (N x R, its diagonal)
    and of e ((N - 1) x R, its off-diagonal).  Made for batches, such as the GOE
    null table: each sweep costs a few ufunc calls per row of d whatever R is,
    so a single matrix is far cheaper to solve densely.

    Sturm bisection (Kahan 1966): the number of eigenvalues below x is the number
    of negative LDL^T pivots of T - x,

        q_1 = d_1 - x,    q_i = d_i - x - e_{i-1}^2 / q_{i-1},

    with a zero pivot replaced by -pivmin, as LAPACK's dlaneg does, so the count
    stays monotone in x (Demmel, Dhillon & Ren 1995).  Each of the k targets of
    each row starts from its Gershgorin interval, widened as in dstebz, and is
    halved until b - a <= 2 eps max(|a|, |b|), or eps ||T|| where the eigenvalue
    is near 0; it is then the midpoint.  Every step of the recurrence is a few
    ufunc calls on all k x R lanes, and no float array of the size of d is made.

    Only the leading n = min(N, max(k, ceil(c N^{1/3}))) rows of each matrix, with
    c = _LEADING_ROWS, are bisected, against the targets n - 1 - j; one count
    over all N rows then certifies the results.  The top eigenvectors of the
    Dumitriu-Edelman models decay like the Airy function, so their top
    eigenvalues depend essentially on the first ~10 N^{1/3} rows (Edelman &
    Persson 2005, arXiv math-ph/0501068); Cauchy interlacing (Parlett, The
    Symmetric Eigenvalue Problem, 1980) turns that into a bound with no
    approximation in it.  In counts: the first n pivots of T - x are the block's
    and the other N - n add at most N - n negatives, so every lower end a of the
    block's bisection has at most N - 1 - j eigenvalues of T below it, as in the
    full bisection.  A lane is certified when its upper end b has more than
    N - 1 - j below it, counted over all N rows: the count is monotone, so every
    halving then went the way the full bisection's does, and the result is the
    full bisection's bit for bit.  A matrix with a lane not certified is
    bisected again from its Gershgorin interval on twice as many rows, 2n, 4n,
    ..., up to all N, where every lane is the full bisection's; each pass takes
    only the matrices still uncertified.  So whatever n is, every result equals
    that of bisecting all N rows, and the top k are the first k of a k = N
    solve; n sets only the cost.  A matrix that does not
    settle in _BISECTIONS halvings (a NaN entry) raises ConvergenceError
    naming its row of the result.
    """
    N, R = d.shape
    if e.shape != (N - 1, R):
        raise DomainRejectionError(f"off-diagonal shape {e.shape}, expected {(N - 1, R)}")
    if not 1 <= k <= N:
        raise DomainRejectionError(f"k={k} must lie in [1, {N}]")
    eps = np.finfo(float).eps
    zero = np.zeros(R)
    lo, hi, e2max = d[0].copy(), d[0].copy(), zero.copy()
    for d_i, e_left, e_right in zip(d, [zero, *e], [*e, zero]):
        radius = np.abs(e_left) + np.abs(e_right)
        np.minimum(lo, d_i - radius, out=lo)
        np.maximum(hi, d_i + radius, out=hi)
        np.maximum(e2max, e_right * e_right, out=e2max)
    norm = np.maximum(np.abs(lo), np.abs(hi))
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2max)
    floor = np.maximum(eps * norm, pivmin)
    slack = 2.0 * eps * N * norm + 2.0 * pivmin
    lo, hi = lo - slack, hi + slack
    a, b, failed = np.empty((k, R)), np.empty((k, R)), np.empty((k, R), dtype=bool)
    rank = np.arange(1, k + 1)[:, None]  # of n rows, the j-th largest has n - rank[j] below it
    n = min(N, max(k, int(np.ceil(_LEADING_ROWS * N ** (1.0 / 3.0)))))
    rows = slice(None)  # the matrices not yet certified: all, then those rejected
    while True:
        d_rows, e_rows = d[:, rows], e[:, rows]
        a_rows, b_rows = np.repeat(lo[None, rows], k, axis=0), np.repeat(hi[None, rows], k, axis=0)
        failed[:, rows] = _bisect(d_rows[:n], e_rows[:n - 1], a_rows, b_rows, n - rank,
                                  floor[rows], pivmin[rows])
        a[:, rows], b[:, rows] = a_rows, b_rows
        if n == N:
            break
        uncertified = (failed[:, rows] | (_negative_pivots(d_rows, e_rows, b_rows, pivmin[rows])
                                          <= N - rank)).any(axis=0)
        if not uncertified.any():
            break
        rows, n = np.arange(R)[rows][uncertified], min(N, 2 * n)
    if failed.any():
        row = int(np.flatnonzero(failed.any(axis=0))[0])
        raise ConvergenceError(f"row {row}: Sturm bisection unsettled after {_BISECTIONS} halvings, "
                               f"bracket [{a[:, row].min():.3e}, {b[:, row].max():.3e}]")
    return -np.sort(-0.5 * (a + b).T, axis=1)


def sample_goe_top(N: int, k: int, replicates: int, seed: int) -> EdgeSamples:
    """GOE top-k rescaled by N^{2/3} (mu - 2); off-diagonal variance 1/N, diagonal 2/N.

    Replicate r is one GOE draw in the tridiagonal form of Dumitriu & Edelman
    (2002), drawn from stream (seed, r): Householder tridiagonalization of
    (B + B^T)/sqrt(2N) leaves a matrix with the same eigenvalues, N(0, 2/N) on
    the diagonal and chi_{N-j}/sqrt(N) at off-diagonal position j = 1..N-1, all
    independent (the normals are drawn first).  Every replicate's top k then
    come from one `tridiagonal_top` call in the calling process.
    """
    d, e = np.empty((N, replicates)), np.empty((N - 1, replicates))
    dof = np.arange(N - 1, 0, -1)
    for r in range(replicates):
        rng = replicate_rng(seed, r)
        d[:, r] = rng.standard_normal(N) * np.sqrt(2.0 / N)
        e[:, r] = np.sqrt(rng.chisquare(dof) / N)
    raw = tridiagonal_top(d, e, k)
    return EdgeSamples(rows=N ** (2.0 / 3.0) * (raw - 2.0), raw=raw)


def ks_statistic(samples: np.ndarray, table_grid: np.ndarray, cdf_column: np.ndarray,
                 reference: str = "tw") -> KsReport:
    """Exact one-sample Kolmogorov-Smirnov distance against a tabulated CDF."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 20:
        raise DomainRejectionError(f"need at least 20 samples, got {samples.size}")
    if np.any(np.diff(samples) < 0):
        raise DomainRejectionError("samples must be sorted ascending")
    if samples[-1] < table_grid[0] or samples[0] > table_grid[-1]:
        raise DomainRejectionError("samples have empty overlap with the reference grid")
    F = np.interp(samples, table_grid, cdf_column, left=0.0, right=1.0)
    n = samples.size
    i = np.arange(1, n + 1)
    stat = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    return KsReport(statistic=stat, n=n, reference=reference)


def two_sample_ks(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample KS distance (exact sup over the pooled sample)."""
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    Fx = np.searchsorted(x, pooled, side="right") / x.size
    Fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(Fx - Fy)))


def smoothed_count(eigenvalues: np.ndarray, E: float, E_star: float, eta: float,
                   ell: float = 0.0):
    """Poisson-kernel smoothed count on [E + ell, E_star] and the exact count on (E, E_star].

    smoothed = (1/pi) sum_a [arctan((E_star - mu_a)/eta) - arctan((E + ell - mu_a)/eta)],
    the closed form of Tr chi_{[E+ell, E_star]} * theta_eta.  ell shifts only the
    smoothed endpoint (bracketing checks evaluate it at E +/- ell).
    """
    if not E < E_star:
        raise DomainRejectionError("need E < E_star")
    if eta <= 0:
        raise DomainRejectionError("eta must be positive")
    mu = np.asarray(eigenvalues, dtype=float)
    smoothed = float(np.sum(np.arctan((E_star - mu) / eta) - np.arctan((E + ell - mu) / eta)) / np.pi)
    exact = int(np.sum((mu > E) & (mu <= E_star)))
    return smoothed, exact


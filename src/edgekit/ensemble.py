"""Sample covariance ensembles, the replicate engine and edge-statistics Monte Carlo.

It draws and eigensolves; resolvents of Q, the local-law probe's too, live in `green`.

Every Monte Carlo estimate is a `map_replicates` over jobs, each drawing from
its own counter-based Philox stream (Salmon et al., SC 2011), built only by
`replicate_rng(seed, index)`.  The stream keys (seed, index) are:

    replicate r of a run or of a GOE / null table    (seed, r)
    compare, null-reference draw r                   (seed, 2^62 + r)
    bootstrap of a flow check or of compare          (seed, 2^63 + 1)
    decoupling, frozen base b                        (seed, 2^63 + 1000 + b)
    decoupling, resampled row r of base b            (seed, (b << 32) + r)

So outputs do not depend on --threads.  Nor do they depend on the BLAS thread
count: on Linux the replicate engine pins every loaded OpenBLAS to one thread.
Within one map_replicates call each process reuses its dense arrays (the data
matrix, its weighted copy, the Gram) from one replicate to the next, through
`workspace`, and releases them when the call returns; every in-place step
computes what its out-of-place form did, so outputs do not change.
A constant population needs no data matrix at all: `laguerre_tridiagonal`
draws the spectrum of X^* X in tridiagonal form (`compare` uses it).
`detect`'s one draw and replicate 0 of its null table share the stream
(seed, 0) when --seed equals --table-seed; this touches one table entry.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainRejectionError
from .flow import flow_state
from .population import EdgeParams, PopulationSpectrum, edge_params, identity_spectrum

ENTRY_KINDS = ("gaussian", "rademacher", "skewed-two-point")


@dataclass(frozen=True)
class EntryDistribution:
    """Law of sqrt(N) x_ij: mean 0, variance 1, subexponential tail."""

    kind: str = "gaussian"
    p: float = 0.8                 # skewed-two-point only: weight of the positive atom

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise DomainRejectionError(f"unknown entry distribution {self.kind!r}")
        mean, var = self.closed_form_moments()
        if abs(mean) > 1e-14 or abs(var - 1.0) > 1e-14:
            raise DomainRejectionError(f"entry law must be standardized, got mean={mean}, var={var}")

    def closed_form_moments(self):
        if self.kind in ("gaussian", "rademacher"):
            return 0.0, 1.0
        if not (0.0 < self.p < 1.0):
            raise DomainRejectionError("skewed-two-point weight must lie in (0, 1)")
        a = np.sqrt((1.0 - self.p) / self.p)
        b = -np.sqrt(self.p / (1.0 - self.p))
        return self.p * a + (1.0 - self.p) * b, self.p * a * a + (1.0 - self.p) * b * b

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
            a = np.sqrt((1.0 - self.p) / self.p)
            b = -np.sqrt(self.p / (1.0 - self.p))
            np.copyto(out, np.where(rng.random((M, N)) < self.p, a, b))
        out /= np.sqrt(N)
        return out


GAUSSIAN = EntryDistribution()  # draws every Gaussian data matrix in edgekit, green's too


@dataclass(frozen=True)
class EnsembleConfig:
    spectrum: PopulationSpectrum  # carries the dimensions M and N
    entries: EntryDistribution = GAUSSIAN
    replicates: int = 100
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.k <= min(self.spectrum.M, self.spectrum.N)):
            raise DomainRejectionError(f"k={self.k} must lie in [1, min(M, N)]")
        if self.replicates < 1:
            raise DomainRejectionError("replicates must be positive")

    def to_json(self) -> str:
        return json.dumps({
            "N": self.spectrum.N, "M": self.spectrum.M,
            "spectrum_eigenvalues": [repr(float(v)) for v in self.spectrum.eigenvalues],
            "entries": {"kind": self.entries.kind, "p": self.entries.p},
            "replicates": self.replicates, "k": self.k, "seed": self.seed,
        })

    @staticmethod
    def from_json(text: str) -> "EnsembleConfig":
        data = json.loads(text)
        spectrum = PopulationSpectrum(
            np.array([float(v) for v in data["spectrum_eigenvalues"]]), data["M"], data["N"])
        entries = EntryDistribution(kind=data["entries"]["kind"], p=data["entries"]["p"])
        return EnsembleConfig(spectrum=spectrum, entries=entries,
                              replicates=data["replicates"], k=data["k"], seed=data["seed"])


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
        raise ConvergenceError(f"{getattr(worker, 'job_name', 'replicate')} {index}: {exc}") from exc


@contextlib.contextmanager
def _one_blas_thread():
    """Run every OpenBLAS loaded in this process on one thread, restoring the old counts on exit.

    The libraries are read from /proc/self/maps: numpy's (64-bit integers) and,
    once scipy.linalg is imported, scipy's.  Where that file does not exist,
    nothing changes.
    """
    controls = []
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split()[-1] for line in maps
                                  if "openblas" in line and ".so" in line)
    except OSError:
        paths = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):  # numpy's symbols carry the suffix, scipy's do not
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((set_, get()))
    for set_, _ in controls:
        set_(1)
    try:
        yield
    finally:
        for set_, count in controls:
            set_(count)


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
    is not one replicate.  Every job runs with BLAS on one thread, so its cost
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
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunksize = max(1, len(jobs) // (8 * workers))
                return list(pool.map(run, enumerate(jobs), chunksize=chunksize))
    finally:
        _held.arrays = previous


def sample_data_matrix(config: EnsembleConfig, replicate_index: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    rng = replicate_rng(config.seed, replicate_index)
    return config.entries.sample(rng, config.spectrum.M, config.spectrum.N, out=out)


def _gram(X: np.ndarray, sig: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The smaller symmetrization of X^* Sigma X, written into out.

    M <= N: B B^T with B = Sigma^{1/2} X, which BLAS forms by syrk, so it is
    exactly symmetric.  M > N: (Sigma X)^T X by gemm.
    """
    M, N = X.shape
    if M <= N:
        B = np.multiply(np.sqrt(sig)[:, None], X, out=workspace("scaled", (M, N)))
        return np.matmul(B, B.T, out=out)
    B = np.multiply(sig[:, None], X, out=workspace("scaled", (M, N)))
    return np.matmul(B.T, X, out=out)


def top_eigenvalues(X: np.ndarray, spectrum: PopulationSpectrum, k: int,
                    validate: bool = False) -> np.ndarray:
    """Top k eigenvalues of X^* Sigma X (Sigma diagonal = spectrum eigenvalues).

    Works with whichever of the M x M / N x N symmetrizations is smaller; both
    share the nonzero spectrum, and solves for its top k alone (LAPACK dsyevr,
    the MRRR algorithm of Dhillon & Parlett 2004).  With validate=True all
    eigenpairs are computed and the residuals ||A v - lambda v|| of the top k
    checked against 1e-8 ||A||.  X is left unchanged.
    """
    M, N = X.shape
    sig = spectrum.eigenvalues
    if sig.size != M:
        raise DomainRejectionError(f"spectrum has {sig.size} eigenvalues but X has {M} rows")
    if k > min(M, N):
        raise DomainRejectionError(f"k={k} exceeds min(M, N)={min(M, N)}")
    n = min(M, N)
    A = _gram(X, sig, workspace("gram", (n, n)))
    try:
        if validate:
            vals, vecs = np.linalg.eigh(A)
            norm = np.linalg.norm(A, 2)
            for j in range(1, k + 1):
                resid = np.linalg.norm(A @ vecs[:, -j] - vals[-j] * vecs[:, -j])
                if resid > 1e-8 * max(norm, 1e-300):
                    raise ConvergenceError(
                        f"eigenpair residual {resid:.3e} exceeds 1e-8*||A||={1e-8 * norm:.3e} "
                        f"(cond diag: ||A||={norm:.3e}, trace={np.trace(A):.3e})")
        else:
            from scipy.linalg import eigh

            # LAPACK reads the lower triangle of a Fortran-ordered matrix.  The syrk
            # Gram is exactly symmetric, so A.T is that matrix and is solved in place;
            # gemm's can differ across the diagonal in the last bit, so it is copied.
            if M <= N:
                F = A.T
            else:
                F = workspace("gram_fortran", (n, n)).T
                F[...] = A
            vals = eigh(F, subset_by_index=[n - k, n - 1], driver="evr", eigvals_only=True,
                        overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        A = _gram(X, sig, np.empty((n, n)))  # the eigensolve may have overwritten it
        raise ConvergenceError(
            f"symmetric eigensolver failed: {exc}; ||A||_F={np.linalg.norm(A):.3e}, "
            f"trace={np.trace(A):.3e}") from exc
    return vals[-k:][::-1].copy()


def rescale_edge(mus: np.ndarray, edge: EdgeParams, N: int) -> np.ndarray:
    return edge.gamma0 * N ** (2.0 / 3.0) * (np.asarray(mus, dtype=float) - edge.E_plus)


def covariance_replicate(args):
    """Top config.k eigenvalues of replicate rep of config, for args = (config, rep)."""
    config, rep = args
    X = sample_data_matrix(config, rep, out=workspace("X", (config.spectrum.M, config.spectrum.N)))
    return top_eigenvalues(X, config.spectrum, config.k)


def run_monte_carlo(config: EnsembleConfig, threads: int = 1,
                    edge: EdgeParams | None = None) -> EdgeSamples:
    """Rescaled top-k edge samples over independent replicates.

    Failures propagate with the replicate index attached.  Results are a pure
    function of (config, seed) regardless of threads.
    """
    # imported before the pool starts: forked workers inherit it, and the BLAS pin
    # in map_replicates finds scipy's OpenBLAS already loaded
    import scipy.linalg  # noqa: F401

    if edge is None:
        edge = edge_params(config.spectrum, require_subcritical=True)
    jobs = [(config, r) for r in range(config.replicates)]
    raw = np.array(map_replicates(covariance_replicate, jobs, threads))
    return EdgeSamples(rows=rescale_edge(raw, edge, config.spectrum.N), raw=raw)


def _goe_worker(args):
    """Top k of one GOE draw, from its Dumitriu-Edelman (2002) tridiagonal form.

    Householder tridiagonalization of (B + B^T)/sqrt(2N) leaves a matrix with
    the same eigenvalues, N(0, 2/N) on the diagonal and chi_{N-j}/sqrt(N) at
    off-diagonal position j = 1..N-1, all independent.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    N, k, seed, rep = args
    rng = replicate_rng(seed, rep)
    diag = rng.standard_normal(N) * np.sqrt(2.0 / N)
    off = np.sqrt(rng.chisquare(np.arange(N - 1, 0, -1)) / N)
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(N - k, N - 1))
    return vals[::-1]


def laguerre_tridiagonal(rng: np.random.Generator, M: int, N: int):
    """(d, e), the diagonal and off-diagonal of an N x N symmetric tridiagonal matrix
    with the spectrum of X^* X, for X an M x N matrix of independent N(0, 1/N) entries.

    The beta = 1 Laguerre model of Dumitriu & Edelman (2002), `_goe_worker`'s
    twin: Golub-Kahan bidiagonalization of the wide one of sqrt(N) X and its
    transpose, n = min(M, N) rows by m = max(M, N), leaves a lower bidiagonal B
    with independent entries, chi_{m-j+1} on the diagonal and chi_{n-j} below
    it (j = 1..n), and B B^T / N has the nonzero spectrum of X^* X.  For M < N
    the last N - M rows are zero: the zero eigenvalues of X^* X.  Costs
    2 min(M, N) - 1 chi-square draws and no dense matrix.
    """
    n, m = min(M, N), max(M, N)
    diag2 = rng.chisquare(np.arange(m, m - n, -1))  # B_jj^2
    sub2 = rng.chisquare(np.arange(n - 1, 0, -1))  # B_{j+1,j}^2
    d, e = np.zeros(N), np.zeros(N - 1)
    d[:n] = diag2
    d[1:n] += sub2
    e[:n - 1] = np.sqrt(diag2[:-1] * sub2)
    return d / N, e / N


def sample_goe_top(N: int, k: int, replicates: int, seed: int, threads: int = 1) -> EdgeSamples:
    """GOE top-k rescaled by N^{2/3} (mu - 2); off-diagonal variance 1/N, diagonal 2/N."""
    import scipy.linalg  # noqa: F401  (imported once here; forked workers inherit it)

    jobs = [(N, k, seed, r) for r in range(replicates)]
    raw = np.array(map_replicates(_goe_worker, jobs, threads))
    return EdgeSamples(rows=N ** (2.0 / 3.0) * (raw - 2.0), raw=raw)


def null_reference_W(N: int, M: int, replicates: int, seed: int, k: int = 1,
                     threads: int = 1) -> EdgeSamples:
    """Rescaled null-case samples N^{2/3} (mu - M_plus) of W = X^* T X.

    T is the renormalized identity population, the flow's weights t_alpha at
    Sigma = I: its scaling factor is 1 and its edge is M_plus, so the general
    ensemble's rescaling gamma0 N^{2/3} (mu - E_plus) is the null one.
    """
    null = flow_state(identity_spectrum(M, N), 0.0).as_population()
    return run_monte_carlo(EnsembleConfig(null, replicates=replicates, k=k, seed=seed), threads)


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


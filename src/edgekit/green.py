"""Linearized Green functions and Monte Carlo verification of the proof machinery.

The (N+M) x (N+M) linearization of X^* T X couples the resolvent of X^* T X
(Roman block) with that of X X^* (Greek block):

    H = [ -z I_N   X^*   ]          G = H^{-1},
        [  X      -T^{-1} ]

    G|_Roman = (X^* T X - z)^{-1},      z^{-1} G|_Greek = (X X^* - z T^{-1})^{-1}.

Near the renormalized edge z = L_plus + y + i eta the per-index observables

    X22 = (1/N) sum_s G_is G_si                 X32 = (m + tau) X22
    X33 = (1/N^2) sum_{r,s} G_ir G_rs G_si      X42 = (m + tau)^2 X22
    X43 = (m + tau) X33                         X44 = (1/N^3) sum (G^4)_ii-chain
    X44' = X22 * (1/N^2) Tr G^2

obey an optical theorem E[X3] - 1/N = (A_4 - tau^{-4}) E[X4] + O(Psi^5) for
X3 = 2(X32 + X33), X4 = 3(X42 + 2 X43 + 4 X44 + X44'), and the flow-weighted
combination N(B_3 X3 - B_4 X4) collapses below its naive size.  The checks
here estimate both statements with closed-form standard errors and report
PASS / FAIL / INCONCLUSIVE.  Both read the same index-averaged (X3, X4)
replicates, so `flow_checks` returns the two reports from one sample.

The flow checks and the comparison functional read a replicate through traces
of its resolvent alone: each draws the replicate as a tridiagonal J with the
spectrum of Q (`ensemble.gaussian_tridiagonals`: a constant population's
Laguerre tridiagonal, any other's dense Gram of the reduced factor reduced by
dsytrd) and reads Tr (J - z)^{-k} off the pivots of J - z, with no eigensolve.
Their dense draws run through `map_replicates` in blocks of _BLOCK replicates,
and each block returns only its per-replicate scalars.

The decoupling check resamples one row of X inside a frozen base: a rank-one
change of X^* T X.  Its resampled rows are read in the base's eigenbasis, so
each base is one job that takes the base's eigenvalues from the same
tridiagonal by dsterf (`ensemble.gaussian_spectrum`), and every resampled row
follows from the one-row resolvent identity (the identity the decoupling
expansion is built from) by O(N) spectral sums.

Every replicate's matrix comes from `ensemble`: in place of X, the reduced
factor of `gaussian_factor` (X is orthogonally invariant).  Only `roman_green`
forms its own product, since the linearization may hand it a complex X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_EPS
from .ensemble import (BASE_STREAM, NULL_STREAM, gaussian_spectrum, gaussian_tridiagonals,
                       map_replicates, replicate_rng)
from .errors import ConvergenceError, DomainRejectionError
from .flow import FlowState, flow_state
from .population import PopulationSpectrum, identity_spectrum
from .stieltjes import solve_mfc

_ROWS_PER_BASE = 50  # resampled rows of each frozen decoupling base (see decoupling_residual)
_QUAD_NODES = 15  # Gauss-Legendre nodes of the comparison functional's energy integral
_BLOCK = 64  # replicates per job of the flow checks' and the comparison's dense draws


# ---------------------------------------------------------------------------
# linearization and exact identities


@dataclass(frozen=True)
class Linearization:
    H: np.ndarray
    N: int
    M: int
    z: complex
    t_alpha: np.ndarray

    def green(self) -> np.ndarray:
        return np.linalg.inv(self.H)


def build_linearization(X: np.ndarray, t_alpha: np.ndarray, z: complex) -> Linearization:
    """Assemble the block matrix; exact zeros outside the four blocks."""
    M, N = X.shape
    t_alpha = np.asarray(t_alpha, dtype=float)
    if t_alpha.shape != (M,):
        raise DomainRejectionError(f"need {M} diagonal weights, got shape {t_alpha.shape}")
    if np.any(t_alpha <= 0):
        raise DomainRejectionError("all t_alpha must be positive")
    z = complex(z)
    dtype = complex if z.imag != 0.0 else float
    H = np.zeros((N + M, N + M), dtype=dtype)
    H[:N, :N] = -z * np.eye(N) if dtype is complex else -z.real * np.eye(N)
    H[:N, N:] = X.T
    H[N:, :N] = X
    H[N:, N:] = -np.diag(1.0 / t_alpha)
    return Linearization(H=H, N=N, M=M, z=z, t_alpha=t_alpha)


def roman_green(X: np.ndarray, t_alpha: np.ndarray, z: complex) -> np.ndarray:
    """(X^* T X - z)^{-1}, the Roman block of the linearization's inverse."""
    M, N = X.shape
    Q = (t_alpha[:, None] * X).T @ X
    try:
        return np.linalg.inv(Q - z * np.eye(N))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"resolvent inversion failed at z={z}: {exc}") from exc


def verify_schur(lin: Linearization):
    """Max-norm residuals of the two Schur-complement resolvent identities.

    Checks G|_Roman against (X^* T X - z)^{-1} and z^{-1} G|_Greek against
    (X X^* - z T^{-1})^{-1}, each by independent dense inversion.  Im z > 0
    guarantees invertibility; real z is accepted whenever the inversions
    succeed.
    """
    if complex(lin.z) == 0.0:
        raise DomainRejectionError("Schur verification needs z != 0")
    N = lin.N
    X = lin.H[N:, :N]
    G = lin.green()
    good = roman_green(X, lin.t_alpha, lin.z)
    r_good = float(np.max(np.abs(G[:N, :N] - good)))
    bad = np.linalg.inv(X @ X.T - lin.z * np.diag(1.0 / lin.t_alpha))
    r_bad = float(np.max(np.abs(G[N:, N:] / lin.z - bad)))
    return r_good, r_bad


def ward_check(lin: Linearization) -> float:
    """Ward identity on the Roman-block resolvent: sum_b |G_ab|^2 = Im G_aa / eta."""
    eta = complex(lin.z).imag
    if eta <= 0:
        raise DomainRejectionError("Ward identity needs Im z > 0")
    N = lin.N
    X = lin.H[N:, :N]
    G = roman_green(X, lin.t_alpha, lin.z)
    lhs = np.sum(np.abs(G) ** 2, axis=1)
    rhs = G.diagonal().imag / eta
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# observables


def _x3_x4(mt: complex, X22: complex, X33: complex, X44: complex, X44p: complex):
    """X3 = 2(X32 + X33) and X4 = 3(X42 + 2 X43 + 4 X44 + X44'), with mt = m + tau."""
    X3 = 2.0 * (mt * X22 + X33)
    X4 = 3.0 * (mt ** 2 * X22 + 2.0 * mt * X33 + 4.0 * X44 + X44p)
    return X3, X4


@dataclass(frozen=True)
class GreenObservables:
    m: complex
    tau: float
    X22: complex
    X33: complex
    X44: complex
    X44p: complex

    @property
    def X32(self) -> complex:
        return (self.m + self.tau) * self.X22

    @property
    def X42(self) -> complex:
        return (self.m + self.tau) ** 2 * self.X22

    @property
    def X43(self) -> complex:
        return (self.m + self.tau) * self.X33


def _psi(m_fc: complex, N: int, eta: float) -> float:
    """The control parameter Psi = sqrt(Im m_fc / (N eta)) + 1/(N eta)."""
    return float(np.sqrt(max(m_fc.imag, 0.0) / (N * eta)) + 1.0 / (N * eta))


def control_parameter(state: FlowState, z: complex) -> float:
    """Psi(z) for the time-t spectrum."""
    return _psi(solve_mfc(state.as_population(), z).m, state.N, complex(z).imag)


def local_law_probe(X: np.ndarray, spectrum: PopulationSpectrum, z: complex):
    """Entrywise and averaged Green-function deviations from m_fc, plus the control parameter Psi.

    G_Q = (X^* Sigma X - z)^{-1}; returns (max_ij |G_ij - delta_ij m_fc|,
    |m_Q - m_fc|, Psi(z)).
    """
    z = complex(z)
    if z.imag <= 0:
        raise DomainRejectionError("probe needs Im z > 0")
    N = X.shape[1]
    G = roman_green(X, spectrum.eigenvalues, z)
    m_fc = solve_mfc(spectrum, z).m
    max_entry_dev = float(np.max(np.abs(G - np.eye(N) * m_fc)))
    avg_dev = float(abs(np.trace(G) / N - m_fc))
    return max_entry_dev, avg_dev, _psi(m_fc, N, z.imag)


def observables(lin: Linearization, state: FlowState, i: int) -> GreenObservables:
    """All seven edge observables at Roman index i, via nested matrix products.

    The chains never materialize the N^3 sums: row i of the Roman resolvent is
    propagated through matrix-vector products.
    """
    N = lin.N
    if not (0 <= i < N):
        raise DomainRejectionError(f"Roman index {i} outside [0, {N})")
    G = roman_green(lin.H[N:, :N], lin.t_alpha, lin.z)
    m = complex(np.trace(G) / N)
    row = G[i, :]
    X22 = complex(row @ row / N)
    grow = G @ row
    X33 = complex(row @ grow / N ** 2)
    X44 = complex(grow @ grow / N ** 3)
    X44p = complex(X22 * np.sum(G * G.T) / N ** 2)
    return GreenObservables(m=m, tau=state.tau_t, X22=X22, X33=X33, X44=X44, X44p=X44p)


def edge_window(N: int, eps: float) -> tuple[float, float]:
    """(N^{-2/3+eps}, N^{-2/3-eps}): the half-width of the edge window and its eta."""
    return N ** (-2.0 / 3.0 + eps), N ** (-2.0 / 3.0 - eps)


def edge_window_z(state: FlowState, eps: float = DEFAULT_EPS, y: float = 0.0) -> complex:
    """z = L_plus + y + i eta at the edge window's eta; |y| must stay within its half-width."""
    half_width, eta = edge_window(state.N, eps)
    if abs(y) > half_width * (1.0 + 1e-12):
        raise DomainRejectionError("offset y outside the edge window")
    return complex(state.L_plus_t + y, eta)


# ---------------------------------------------------------------------------
# Monte Carlo machinery (index-averaged estimators from traces of the resolvent)


def _avg_observables(tr1, tr2, tr3, tr4, N: int):
    """Index-averaged (m, X22, X33, X44, X44') from the traces Tr G^k, k = 1..4:
    averaging over i turns the per-index chains into traces of powers of G."""
    X22 = tr2 / N ** 2
    return tr1 / N, X22, tr3 / N ** 3, tr4 / N ** 4, X22 ** 2


def _blocks(indices) -> list:
    """indices cut into consecutive runs of _BLOCK, the replicates of one job."""
    return [indices[i:i + _BLOCK] for i in range(0, len(indices), _BLOCK)]


def _x3_x4_block(args):
    """(X3, X4) of each replicate of the block, shape (len(indices), 2)."""
    state, z, seed, indices = args
    d, e = gaussian_tridiagonals(state.as_population(), seed, indices)
    traces = _tridiagonal_trace(d, e, np.array([z]), 4)[:, 0].T
    m, X22, X33, X44, X44p = _avg_observables(*traces, state.N)
    return np.stack(_x3_x4(m + state.tau_t, X22, X33, X44, X44p), axis=1)


_x3_x4_block.job_name = None  # the block's own error names the replicate that failed


def _mc_x3_x4(state: FlowState, z: complex, reps: int, seed: int, threads: int = 1):
    jobs = [(state, z, seed, block) for block in _blocks(range(reps))]
    arr = np.concatenate(map_replicates(_x3_x4_block, jobs, threads))
    return arr[:, 0], arr[:, 1]


def _standard_error(x: np.ndarray) -> float:
    """The standard error (ddof 1) of the mean of the independent draws x along its
    noisiest direction: sqrt(l / n) for l the larger eigenvalue of the covariance
    [[a, b], [b, c]] of (Re x, Im x), so std(x) / sqrt(n) for real x.  inf for one draw."""
    n = x.shape[0]
    if n < 2:
        return float("inf")
    (a, b), (_, c) = np.cov(x.real, x.imag)
    return float(np.sqrt(((a + c) / 2.0 + np.hypot((a - c) / 2.0, b)) / n))


@dataclass(frozen=True)
class CheckReport:
    """residual is the modulus of an estimated mean, ci its 1-sigma standard error
    (`_standard_error`), not an interval: PASS if residual and 3 ci are within the
    threshold, FAIL if residual exceeds both, else INCONCLUSIVE.  For a Gaussian mean
    of true value 0, residual > 3 ci has probability at most e^{-4.5} ~ 1.1%."""

    check: str
    N: int
    t: float
    leading: float
    residual: float
    ci: float
    status: str  # PASS / FAIL / INCONCLUSIVE

    def to_dict(self) -> dict:
        return {"check": self.check, "N": self.N, "t": self.t, "leading": self.leading,
                "residual": self.residual, "ci": self.ci, "status": self.status}


def _status(residual: float, ci: float, threshold: float) -> str:
    if 3.0 * ci > threshold:
        return "INCONCLUSIVE" if residual <= 3.0 * ci else "FAIL"
    return "PASS" if residual <= max(threshold, 3.0 * ci) else "FAIL"


def flow_checks(state: FlowState, reps: int, seed: int, eps: float = DEFAULT_EPS,
                threads: int = 1) -> tuple[CheckReport, CheckReport]:
    """The optical and cancellation reports at the edge window, from one sample.

    Both read the same index-averaged (X3, X4) replicates, so they are drawn
    once, each as a tridiagonal whose pivots give Tr G^k for k = 1..4.

    optical: E[X3] - 1/N = (A_4 - tau^{-4}) E[X4].  leading is the
    power-counting size of X3 (mean absolute value over draws); the theorem
    suppresses the residual far below it.

    cancellation: the flow-weighted combination N * Im(B_3 X3 - B_4 X4) against
    its naive size M * Psi^3 * (|B_3| + |B_4|), the power-counting magnitude
    with no cancellation.  Identity populations have B_3 = B_4 = 0
    identically, and their check reads the combination itself, with ci 0.
    """
    z = edge_window_z(state, eps)
    X3, X4 = _mc_x3_x4(state, z, reps, seed, threads)
    coef = state.A[4] - state.tau_t ** -4
    B3, B4 = state.weighted_coefficient(3), state.weighted_coefficient(4)
    resid = float(abs(X3.mean() - 1.0 / state.N - coef * X4.mean()))
    leading = float(np.mean(np.abs(X3)))
    ci = _standard_error(X3 - coef * X4)
    optical = CheckReport("optical", state.N, state.t, leading, resid, ci,
                          _status(resid, ci, leading / 10.0))
    actual = float(state.N * abs(B3 * X3.mean().imag - B4 * X4.mean().imag))
    if max(abs(B3), abs(B4)) < 1e-13:
        # an identity population: B_3 = B_4 = 0 up to solver noise, and so is the combination
        return optical, CheckReport("cancellation", state.N, state.t, 0.0, actual, 0.0,
                                    "PASS" if actual <= 1e-10 else "FAIL")
    naive = float(state.M * control_parameter(state, z) ** 3 * (abs(B3) + abs(B4)))
    ci = _standard_error(state.N * (B3 * X3.imag - B4 * X4.imag))
    return optical, CheckReport("cancellation", state.N, state.t, naive, actual, ci,
                                _status(actual, ci, naive / 10.0))


def optical_residual(state: FlowState, reps: int, seed: int, eps: float = DEFAULT_EPS,
                     threads: int = 1) -> CheckReport:
    """The optical report of `flow_checks` with these arguments."""
    return flow_checks(state, reps, seed, eps, threads)[0]


def cancellation_check(state: FlowState, reps: int, seed: int, eps: float = DEFAULT_EPS,
                       threads: int = 1) -> CheckReport:
    """The cancellation report of `flow_checks` with these arguments."""
    return flow_checks(state, reps, seed, eps, threads)[1]


def _decoupling_base(args):
    """(lhs, rhs, c^2 X22) for each resampled row of one frozen base, shape (per_base, 3).

    With row alpha zeroed the base gives Q0 = V diag(lam) V^T, and each
    replicate is the rank-one update Q = Q0 + t_alpha x x^T.  With v = V^T x,
    g_j = 1/(lam_j - z), s_p = sum_j v_j^2 g_j^p and D = 1 + t_alpha s_1 =
    det(Q - z)/det(Q0 - z), Sherman-Morrison gives u = G x = G0 x / D, so
    u.u = s_2/D^2, and Tr G^k = sum_j g_j^k - (log D)^(k)/(k-1)! with
    D^(n) = t_alpha n! s_{n+1}.

    Only (lam, v) is read.  lam is the spectrum of the Gaussian replicate of the
    other M - 1 rows, by `gaussian_spectrum` (N zeros when M = 1).  The fresh
    row x ~ N(0, I/N) is independent of the base and rotation invariant, so v
    has the law of x itself, independent of lam: each row, drawn in turn from the
    stream (seed, base << 32), serves as v, and neither X nor V is formed.
    """
    state, z, seed, base, per_base, alpha = args
    N = state.N
    rest = np.sort(np.delete(state.t_alpha, alpha))[::-1]
    lam = (gaussian_spectrum(PopulationSpectrum(rest, state.M - 1, N), seed, BASE_STREAM + base)
           if state.M > 1 else np.zeros(N))
    rows = replicate_rng(seed, base << 32)
    v = np.array([rows.standard_normal(N) for _ in range(per_base)]) / np.sqrt(N)
    g_pow = (1.0 / (lam - z))[:, None] ** np.arange(1, 6)  # (N, 5): g_j^p for p = 1..5
    s = (v ** 2 @ g_pow).T                                  # (5, per_base): s_1 .. s_5
    ta = state.t_alpha[alpha]
    D = 1.0 + ta * s[0]
    # r_n = D^(n) / D; the derivatives of log D by Faa di Bruno
    r1, r2, r3, r4 = ta * s[1] / D, 2.0 * ta * s[2] / D, 6.0 * ta * s[3] / D, 24.0 * ta * s[4] / D
    log_d1 = r1
    log_d2 = r2 - r1 ** 2
    log_d3 = r3 - 3.0 * r1 * r2 + 2.0 * r1 ** 3
    log_d4 = r4 - 4.0 * r1 * r3 - 3.0 * r2 ** 2 + 12.0 * r1 ** 2 * r2 - 6.0 * r1 ** 4
    trace = g_pow.sum(axis=0)
    m, X22, X33, X44, X44p = _avg_observables(trace[0] - log_d1, trace[1] - log_d2,
                                              trace[2] - log_d3 / 2.0, trace[3] - log_d4 / 6.0, N)
    X3, X4 = _x3_x4(m + state.tau_t, X22, X33, X44, X44p)
    c = 1.0 / (1.0 / ta - state.tau_t)
    # index-averaged (1/N) sum_i G_{i alpha} G_{alpha i} = (t_a^2/N) u.u
    lhs = ta ** 2 * (s[1] / D ** 2) / N
    rhs = c ** 2 * X22 - c ** 3 * X3 + c ** 4 * X4
    return np.stack([lhs, rhs, c ** 2 * X22], axis=1)


_decoupling_base.job_name = "decoupling base"  # how map_replicates names a failed job


def decoupling_residual(state: FlowState, reps: int, seed: int, eps: float = DEFAULT_EPS,
                        threads: int = 1) -> CheckReport:
    """Partial-expectation test of the decoupling expansion at one Greek index.

    E_alpha is estimated by resampling row alpha of X while freezing every
    other entry; the frozen part is itself averaged over several base
    configurations, since the expansion bounds the error in probability over
    the whole ensemble and a single frozen base can sit in an atypical
    (edge-resonant) corner at desk scale.  Both sides are averaged over the
    Roman index.  leading is the magnitude of the order-Psi^2 term.  Each frozen
    base is one job (`_decoupling_base`), and a failure names its base.

    reps sets the number of bases, the cost; each reads _ROWS_PER_BASE rows.  Measured
    (one BLAS thread), a base costs 1.0-1.3 ms on identity N=200, 2.7-3.3 ms on two-point
    N=200 and 11-12 ms at N=400, a row 5-20 us, and the within-base variance of lhs - rhs
    is 16-24, 70-220 and 140-410 times the between-base one: Cochran's two-stage optimum
    sqrt(c_base/c_row * S_w^2/S_b^2) (Sampling Techniques, 1977, ch. 10) is 42-74 rows
    on identity, more on two-point.

    alpha is the most stable Greek branch (largest gap t_alpha^{-1} - tau),
    where the expansion parameter is smallest.
    """
    alpha = int(np.argmin(state.t_alpha))
    bases = int(np.clip(reps // 10, 10, 200))
    z = edge_window_z(state, eps)
    jobs = [(state, z, seed, b, _ROWS_PER_BASE, alpha) for b in range(bases)]
    arr = np.array(map_replicates(_decoupling_base, jobs, threads))
    diff_by_base = (arr[:, :, 0] - arr[:, :, 1]).mean(axis=1)
    resid = float(abs(diff_by_base.mean()))
    # power-counting magnitude of the order-Psi^2 term (no phase cancellation)
    leading = float(np.mean(np.abs(arr[:, :, 2])))
    # rows of one base share its frozen part, so the independent draws are the base means
    ci = _standard_error(diff_by_base)
    psi = control_parameter(state, z)
    slack = min(psi ** 3 * state.N ** 0.2, 0.1)
    return CheckReport("decoupling", state.N, state.t, leading, resid, ci,
                       _status(resid, ci, leading * slack))


def _tridiagonal_trace(d: np.ndarray, e: np.ndarray, z: np.ndarray, powers: int) -> np.ndarray:
    """Tr (J - z)^{-k} for k = 1..powers, shape (columns, len(z), powers), for the
    symmetric tridiagonal J = (d[:, r], e[:, r]) of each column r, laid out as
    `ensemble.gaussian_tridiagonals` returns them, and each z with Im z > 0.

    The LDL^T pivots of J - z, p_1 = d_1 - z and p_i = d_i - z - e_{i-1}^2 / p_{i-1},
    multiply to det(J - z), so with L(w) = sum_i log p_i(z + w),
    Tr (J - z - w)^{-1} = -L'(w) and Tr (J - z)^{-k} = -[w^{k-1}] L'(w).  Each pivot
    is carried as its Taylor series in w to order `powers` (Parlett, The Symmetric
    Eigenvalue Problem, 1980, on the pivots): with c the series of p_{i-1} and r
    that of 1/p_{i-1}, r_0 = 1/c_0 and r_m = -r_0 sum_{j=1..m} c_j r_{m-j}; then
    p_i has c_0 = d_i - z - e^2 r_0, c_1 = -1 - e^2 r_1 and c_m = -e^2 r_m, and
    [w^m] p_i'/p_i = sum_{j=0..m} (j + 1) c_{j+1} r_{m-j}.  Every Im p_i <= -Im z,
    so no pivot is smaller than Im z and the recurrence needs no pivoting.
    """
    z = np.asarray(z)[None, :]
    minus_e2 = -e[:, :, None] ** 2
    c = [d[0][:, None] - z, np.full((d.shape[1], z.size), -1.0 + 0.0j)]
    c += [np.zeros_like(c[1])] * (powers - 1)
    total = [0.0] * powers
    for i in range(d.shape[0]):
        if i:
            c = [d[i][:, None] - z + minus_e2[i - 1] * r[0], minus_e2[i - 1] * r[1] - 1.0,
                 *(minus_e2[i - 1] * r_m for r_m in r[2:])]
        r = [1.0 / c[0]]
        minus_r0 = -r[0]
        for m in range(1, powers + 1):
            acc = c[1] * r[m - 1]
            for j in range(2, m + 1):
                acc += c[j] * r[m - j]
            r.append(minus_r0 * acc)
        dc = [c[1], *((j + 1) * c[j + 1] for j in range(1, powers))]  # the series of p_i'
        for m in range(powers):
            acc = dc[0] * r[m]
            for j in range(1, m + 1):
                acc += dc[j] * r[m - j]
            total[m] = total[m] + acc
    return -np.stack(total, axis=-1)


def _functional_block(args):
    """N int Im m of each replicate (seed, index) for index in indices."""
    state, xs, weights, eta, seed, indices = args
    d, e = gaussian_tridiagonals(state.as_population(), seed, indices)
    return _tridiagonal_trace(d, e, xs + state.L_plus_t + 1j * eta, 1)[:, :, 0].imag @ weights


_functional_block.job_name = None  # the block's own error names the replicate that failed


def _functional_samples(state: FlowState, xs, weights, eta: float, seed: int, indices,
                        threads: int) -> np.ndarray:
    """N int Im m of the replicate drawn from stream (seed, index), for each index."""
    if np.all(state.t_alpha == state.t_alpha[0]):
        # a constant population's replicate is tens of microseconds of chi-square
        # draws, less than a pool spends forking and pickling it: draw them all here
        return _functional_block((state, xs, weights, eta, seed, indices))
    jobs = [(state, xs, weights, eta, seed, block) for block in _blocks(indices)]
    return np.concatenate(map_replicates(_functional_block, jobs, threads))


def comparison_functional(spec: PopulationSpectrum, E1: float, E2: float, reps: int, seed: int,
                          eps: float = DEFAULT_EPS, threads: int = 1):
    """Monte Carlo means of N int_{E1}^{E2} Im m(x + edge + i eta) dx for the
    renormalized covariance X^* T X and for the null reference, the same
    functional of the renormalized identity population, with their gap and its
    standard error (the smooth-function comparison at F = identity); the two
    halves draw from disjoint streams, so their errors add in quadrature.

    A constant population (the null reference always; both halves on identity)
    is drawn as the tridiagonal J of Q from its factor's chi-square variates
    alone, and Tr (J - z)^{-1} at every quadrature node comes from the pivot
    recurrence of J - z, for all replicates at once, in the calling process.
    Other populations reduce the Gram of each replicate's factor to its
    tridiagonal by dsytrd and take the same recurrence, in blocks of replicates
    through `map_replicates`.
    """
    if E1 > E2:
        raise DomainRejectionError("need E1 <= E2")
    if reps < 1:
        raise DomainRejectionError(f"reps must be positive, got {reps}")
    tilde_state = flow_state(spec, 0.0)
    window, eta = edge_window(spec.N, eps)
    if max(abs(E1), abs(E2)) > window * (1.0 + 1e-12):
        raise DomainRejectionError(f"|E1|, |E2| must stay within N^(-2/3+eps) = {window:.3e}")
    if E1 == E2:
        return 0.0, 0.0, 0.0, 0.0
    u, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    xs = 0.5 * (u + 1.0) * (E2 - E1) + E1
    weights = 0.5 * (E2 - E1) * w
    null_state = flow_state(identity_spectrum(spec.M, spec.N), 0.0)
    tilde = _functional_samples(tilde_state, xs, weights, eta, seed, range(reps), threads)
    null = _functional_samples(null_state, xs, weights, eta, seed,
                               range(NULL_STREAM, NULL_STREAM + reps), threads)
    gap = float(tilde.mean() - null.mean())
    ci = float(np.hypot(_standard_error(tilde), _standard_error(null)))
    return float(tilde.mean()), float(null.mean()), gap, ci

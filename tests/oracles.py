"""Independent oracle routes used to pin expected values.

Each oracle deliberately avoids the code path it checks: root bracketing via
scipy's brentq, m(z) of one- and two-atom populations as polynomial roots,
eigenvalues via characteristic polynomials or SVD, F1 via a determinant
representation, the Painleve function via plain backward marching (valid
right of s ~ -4), GOE edge eigenvalues via dense symmetric matrices,
explicit index loops for the Green observables, dense X^* T X draws for the
flow checks' (X3, X4) replicates, a dense eigensolve with eigenvectors per
replicate for the decoupling check's rank-one updates, dense X^T X draws for
the Laguerre tridiagonal model, dense Sigma^{1/2} X draws for the reduced
Gaussian factor, and that factor rebuilt entry by entry from its draw order.  `null_reference_W` is not an oracle but
a reference sampler built on edgekit's own Monte Carlo; tests compare it with
the closed-form null ensemble and with other samplers.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import airy


def brentq_xi(eigs: np.ndarray, d: float) -> float:
    f = lambda x: np.mean((eigs * x / (1.0 - eigs * x)) ** 2) - d
    hi = 1.0 / eigs.max()
    return brentq(f, 1e-300, hi * (1.0 - 1e-14), xtol=1e-16, rtol=8.9e-16, maxiter=500)


def edge_quantities(eigs: np.ndarray, d: float):
    """Plug-in evaluation of (xi_plus, E_plus, gamma0) from the brentq root."""
    xi = brentq_xi(eigs, d)
    E = (1.0 / xi) * (1.0 + np.mean(eigs * xi / (1.0 - eigs * xi)) / d)
    g = (np.mean((eigs / (1.0 - eigs * xi)) ** 3) / d + xi ** -3) ** (-1.0 / 3.0)
    return xi, E, g


def mp_quadratic_roots(d: float, z: complex) -> complex:
    """Upper-half-plane root of z m^2 + (z + 1 - 1/d) m + 1 = 0 via np.roots."""
    roots = np.roots([z, z + 1.0 - 1.0 / d, 1.0])
    return roots[np.argmax(roots.imag)]


def two_point_cubic_root(a: float, b: float, w: float, d: float, z: complex) -> complex:
    """Upper-half-plane m(z) for weight w on b and 1 - w on a, as a root of a cubic.

    Multiplying m (-z + d^{-1} [(1 - w) a / (a m + 1) + w b / (b m + 1)]) = 1
    through by (a m + 1)(b m + 1) leaves a cubic in m; of its three roots
    (np.roots) the one with the largest Im m is the Herglotz solution.
    """
    A, B = np.array([a, 1.0]), np.array([b, 1.0])
    AB = np.polymul(A, B)
    cubic = np.polyadd(np.polyadd(-z * np.polymul([1.0, 0.0], AB),
                                  np.polymul([1.0, 0.0], ((1.0 - w) * a * B + w * b * A) / d)),
                       -AB)
    roots = np.roots(cubic)
    return roots[np.argmax(roots.imag)]


def charpoly_eigs_3x3(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix from its characteristic polynomial."""
    c2 = -np.trace(A)
    c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
    c0 = -np.linalg.det(A)
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(roots.real)[::-1]


def svd_squared(X: np.ndarray) -> np.ndarray:
    """Squared singular values, descending (independent bidiagonalization route)."""
    return np.linalg.svd(X, compute_uv=False) ** 2


def f1_gap_determinant(s: float, n_nodes: int = 80, upper: float = 14.0) -> float:
    """F1(s) as the Fredholm determinant of the kernel Ai((x+y)/2)/2 on (s, inf)."""
    u, w = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (u + 1.0) * (upper - s) + s
    ww = 0.5 * (upper - s) * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    V = 0.5 * airy(0.5 * (X + Y))[0]
    A = np.sqrt(ww)[:, None] * V * np.sqrt(ww)[None, :]
    return float(np.linalg.det(np.eye(n_nodes) - A))


def painleve_ivp(s_eval: np.ndarray, s_max: float = 6.0):
    """Plain backward RK45 marching from Airy data; trustworthy for s >= -4."""
    ai, aip = airy(s_max)[0], airy(s_max)[1]
    sol = solve_ivp(lambda s, y: [y[1], s * y[0] + 2.0 * y[0] ** 3],
                    [s_max, float(np.min(s_eval))], [ai, aip],
                    method="RK45", rtol=1e-11, atol=1e-14, dense_output=True)
    return sol.sol(s_eval)[0]


def dense_goe_top(N: int, k: int, replicates: int, seed: int) -> np.ndarray:
    """Top k eigenvalues, descending, of dense GOE draws (B + B^T)/sqrt(2N)."""
    rng = np.random.default_rng(seed)
    rows = np.empty((replicates, k))
    for r in range(replicates):
        B = rng.standard_normal((N, N))
        rows[r] = np.linalg.eigvalsh((B + B.T) / np.sqrt(2.0 * N))[-k:][::-1]
    return rows


def dense_wishart_spectra(M: int, N: int, replicates: int, seed: int) -> np.ndarray:
    """Eigenvalues, ascending, of X^T X for dense draws of X (M x N, entries N(0, 1/N)),
    one row of N per replicate."""
    rng = np.random.default_rng(seed)
    rows = np.empty((replicates, N))
    for r in range(replicates):
        X = rng.standard_normal((M, N)) / np.sqrt(N)
        rows[r] = np.linalg.eigvalsh(X.T @ X)
    return rows


def null_w_top(N: int, M: int, k: int, replicates: int, seed: int):
    """Closed-form null ensemble: (rows, raw) of W = sqrt(d) (1+sqrt(d))^{-4/3} X^* X.

    raw holds the top k eigenvalues (squared singular values times the scale)
    and rows = N^{2/3} (raw - M_plus) with M_plus = (1+sqrt(d))^2 / d times the
    scale.  X^* X is drawn as F^T F for the reduced factor F of `reduced_factor`
    from the replicate streams (seed, r), so rows pair up with edgekit's null
    reference draw for draw.
    """
    d = N / M
    scale = np.sqrt(d) * (1.0 + np.sqrt(d)) ** (-4.0 / 3.0)
    raw = np.empty((replicates, k))
    for r in range(replicates):
        raw[r] = scale * svd_squared(reduced_factor(np.ones(M), N, seed, r))[:k]
    return N ** (2.0 / 3.0) * (raw - scale * (1.0 + np.sqrt(d)) ** 2 / d), raw


def reduced_factor(sig: np.ndarray, N: int, seed: int, index: int) -> np.ndarray:
    """The reduced factor of a Gaussian replicate, M x min(M, N), entry by entry from
    stream (seed, index) in its documented draw order.

    With sigma sorted descending and row r in the run [c, e) of equal values, row
    r is sqrt(sigma_r / N) times: normals at columns j < min(c, N), chi_{N-r} at
    (r, r) for r < N, chi_{e-r} at (r, r-1) for c < r <= N, zeros elsewhere.  The
    stream gives the normals row by row, then the diagonal's chi-square variates,
    then those below the diagonal.
    """
    from edgekit.ensemble import replicate_rng

    s = np.sort(np.asarray(sig, dtype=float))[::-1]
    M = s.size
    start = [min(i for i in range(M) if s[i] == s[r]) for r in range(M)]
    end = [max(i for i in range(M) if s[i] == s[r]) + 1 for r in range(M)]
    below = [r for r in range(1, min(M - 1, N) + 1) if start[r] < r]
    rng = replicate_rng(seed, index)
    normals = iter(rng.standard_normal(sum(min(c, N) for c in start)))
    diagonal = iter(np.sqrt(rng.chisquare([N - r for r in range(min(M, N))])))
    subdiagonal = iter(np.sqrt(rng.chisquare([end[r] - r for r in below])))
    F = np.zeros((M, min(M, N)))
    for r in range(M):
        for j in range(min(start[r], N)):
            F[r, j] = next(normals)
    for r in range(min(M, N)):
        F[r, r] = next(diagonal)
    for r in below:
        F[r, r - 1] = next(subdiagonal)
    return F * np.sqrt(s / N)[:, None]


def dense_covariance_spectra(sig: np.ndarray, M: int, N: int, replicates: int,
                             seed: int) -> np.ndarray:
    """Nonzero eigenvalues, ascending, of X^* Sigma X for dense Gaussian draws of X
    (M x N, entries N(0, 1/N)), Sigma = diag(sig): one row of min(M, N) per replicate."""
    rng = np.random.default_rng(seed)
    rows = np.empty((replicates, min(M, N)))
    root = np.sqrt(np.asarray(sig, dtype=float))[:, None]
    for r in range(replicates):
        B = root * rng.standard_normal((M, N)) / np.sqrt(N)
        rows[r] = np.linalg.eigvalsh(B @ B.T if M <= N else B.T @ B)
    return rows


def null_reference_W(N: int, M: int, replicates: int, seed: int, k: int = 1,
                     threads: int = 1):
    """Rescaled null-case samples N^{2/3} (mu - M_plus) of W = X^* T X, by edgekit.

    T is the renormalized identity population, the flow's weights t_alpha at
    Sigma = I: its scaling factor is 1 and its edge is M_plus, so the general
    ensemble's rescaling gamma0 N^{2/3} (mu - E_plus) is the null one.
    """
    import edgekit as ek

    null = ek.flow_state(ek.identity_spectrum(M, N), 0.0).as_population()
    return ek.run_monte_carlo(ek.EnsembleConfig(null, replicates=replicates, k=k, seed=seed),
                              threads)


def loop_observables(G: np.ndarray, i: int, m: complex, tau: float):
    """Explicit-loop X observables (O(N^3)/O(N^4) sums; N <= 8 only)."""
    N = G.shape[0]
    X22 = sum(G[i, s] * G[s, i] for s in range(N)) / N
    X33 = sum(G[i, r] * G[r, s] * G[s, i] for r in range(N) for s in range(N)) / N ** 2
    X44 = sum(G[i, r] * G[r, s] * G[s, t] * G[t, i]
              for r in range(N) for s in range(N) for t in range(N)) / N ** 3
    X44p = sum(G[i, s] * G[s, i] * G[r, t] * G[t, r]
               for r in range(N) for s in range(N) for t in range(N)) / N ** 3
    return {
        "X22": X22,
        "X32": (m + tau) * X22,
        "X33": X33,
        "X42": (m + tau) ** 2 * X22,
        "X43": (m + tau) * X33,
        "X44": X44,
        "X44p": X44p,
    }


def _x3_x4_of_spectrum(lam: np.ndarray, z: complex, tau: float):
    """Index-averaged (X3, X4, X22) of a replicate with eigenvalues lam (all N of them)."""
    N = lam.size
    w = 1.0 / (lam - z)
    mt = w.mean() + tau
    X22, X33, X44 = (w ** 2).sum() / N ** 2, (w ** 3).sum() / N ** 3, (w ** 4).sum() / N ** 4
    X3 = 2.0 * (mt * X22 + X33)
    X4 = 3.0 * (mt ** 2 * X22 + 2.0 * mt * X33 + 4.0 * X44 + X22 ** 2)
    return X3, X4, X22


def dense_x3_x4(state, z: complex, seed: int, rep: int):
    """(X3, X4) of one flow-check replicate from a dense Gaussian X (M x N, entries
    N(0, 1/N)) drawn from stream (seed, rep), through every eigenvalue of X^* T X."""
    from edgekit.ensemble import replicate_rng

    X = replicate_rng(seed, rep).standard_normal((state.M, state.N)) / np.sqrt(state.N)
    X3, X4, _ = _x3_x4_of_spectrum(np.linalg.eigvalsh((state.t_alpha[:, None] * X).T @ X), z,
                                   state.tau_t)
    return X3, X4


def decoupling_triple(Q: np.ndarray, x: np.ndarray, ta: float, tau: float, z: complex):
    """(lhs, rhs, c^2 X22) of one decoupling replicate Q (N x N) whose resampled row x
    enters with weight ta: a dense eigensolve of Q with eigenvectors, u = G x built
    from them."""
    lam, V = np.linalg.eigh(Q)
    X3, X4, X22 = _x3_x4_of_spectrum(lam, z, tau)
    c = 1.0 / (1.0 / ta - tau)
    u = V @ ((V.T @ x) / (lam - z))
    return ta ** 2 * (u @ u) / lam.size, c ** 2 * X22 - c ** 3 * X3 + c ** 4 * X4, c ** 2 * X22


def dense_decoupling_replicate(state, z: complex, seed: int, base: int, rep: int, alpha: int):
    """`decoupling_triple` of one replicate drawn as a dense X: the frozen base from
    (seed, 2^63 + 1000 + base), row alpha from (seed, (base << 32) + rep)."""
    from edgekit.ensemble import replicate_rng

    M, N = state.M, state.N
    X = replicate_rng(seed, 2 ** 63 + 1000 + base).standard_normal((M, N)) / np.sqrt(N)
    X[alpha, :] = replicate_rng(seed, (base << 32) + rep).standard_normal(N) / np.sqrt(N)
    return decoupling_triple((state.t_alpha[:, None] * X).T @ X, X[alpha, :],
                             state.t_alpha[alpha], state.tau_t, z)


def inverse_transform_samples(grid: np.ndarray, cdf: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw from a tabulated CDF by inverting it on uniforms."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return np.interp(u, cdf, grid)

"""Tracy-Widom cumulative distributions F1 and F2.

The Hastings-McLeod solution q of Painleve II (q'' = s q + 2 q^3, q ~ Ai(s) as
s -> +inf) yields

    F2(s) = exp( - int_s^inf (x - s) q(x)^2 dx ),
    F1(s) = exp( - (1/2) int_s^inf q(x) dx ) * sqrt(F2(s)).

q is a separatrix: marching it backwards from Airy data in double precision
departs near s ~ -8 no matter how the right boundary data are refined.  The
solver therefore treats it as a boundary-value problem on the whole interval:
4th-order collocation anchored on the left asymptote
q(s) = sqrt(-s/2)(1 + 1/(8 s^3) - 73/(128 s^6)) and on Ai at the right end.

The solution is stored at step 0.005; `tw_cdf` and `tw_table` read F1 and F2
off it through one evaluator, `_tabulate`, at any point of its span.

The independent cross-check is the Airy-kernel Fredholm determinant
F2(s) = det(I - K_Ai) on L^2(s, inf), discretized by Gauss-Legendre Nystrom.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainRejectionError

_ASYMPTOTE_PAD = 4.0  # collocation extends this far left of s_min for the asymptotic anchor
_TAIL_UPPER = 18.0    # Airy tail integrals are truncated here (Ai(18)^2 ~ 1e-45)
_PAINLEVE_STEP = 0.005  # node spacing of the Hastings-McLeod solution

# scipy is imported inside the functions that need it, never at module level:
# the CLI imports this module for every command, and most never touch scipy.


@dataclass(frozen=True)
class PainleveSolution:
    grid: np.ndarray    # ascending s values
    q: np.ndarray
    qprime: np.ndarray

    def __call__(self, s):
        return np.interp(s, self.grid, self.q)


@dataclass(frozen=True)
class TWTable:
    grid: np.ndarray
    F1: np.ndarray
    F2: np.ndarray

    def cdf(self, beta: int) -> np.ndarray:
        if beta == 1:
            return self.F1
        if beta == 2:
            return self.F2
        raise DomainRejectionError(f"beta must be 1 or 2, got {beta}")

    def to_csv(self, path) -> None:
        lines = ["s,F1,F2"]
        lines += [f"{repr(float(s))},{repr(float(a))},{repr(float(b))}"
                  for s, a, b in zip(self.grid, self.F1, self.F2)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path) -> "TWTable":
        rows = Path(path).read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        return TWTable(grid=data[:, 0], F1=data[:, 1], F2=data[:, 2])


def _left_asymptote(s):
    return np.sqrt(-s / 2.0) * (1.0 + 1.0 / (8.0 * s ** 3) - 73.0 / (128.0 * s ** 6))


def _collocation_sweep(s_left: float, s_max: float):
    """4th-order collocation on [s_left, s_max] anchored on the left asymptote
    and on Ai at s_max, started from sqrt(-s/2) on the left and Ai on the right."""
    from scipy.integrate import solve_bvp
    from scipy.special import airy

    q_left, q_right = _left_asymptote(s_left), airy(s_max)[0]

    def rhs(s, y):
        return np.vstack([y[1], s * y[0] + 2.0 * y[0] ** 3])

    def bc(ya, yb):
        return np.array([ya[0] - q_left, yb[0] - q_right])

    mesh = np.linspace(s_left, s_max, 1600)
    guess = np.zeros((2, mesh.size))
    guess[0] = np.where(mesh < -0.5, np.sqrt(np.maximum(-mesh, 1.0) / 2.0), airy(np.maximum(mesh, 0.0))[0])
    result = solve_bvp(rhs, bc, mesh, guess, tol=1e-11, max_nodes=400_000)
    if result.status != 0:
        raise ConvergenceError(f"collocation sweep failed ({result.message})")
    return result.sol


def hastings_mcleod(s_min: float = -10.0, s_max: float = 6.0) -> PainleveSolution:
    """Hastings-McLeod solution on [s_min, s_max] sampled with step 0.005."""
    if s_max < 6.0:
        raise DomainRejectionError("s_max must be >= 6 so the Airy boundary data are in the decaying regime")
    if s_min > -10.0:
        raise DomainRejectionError("s_min must be <= -10 so both tails are resolved")
    from scipy.special import airy

    grid = np.arange(0, int(round((s_max - s_min) / _PAINLEVE_STEP)) + 1) * _PAINLEVE_STEP + s_min
    grid[-1] = s_max
    q, qp = _collocation_sweep(s_min - _ASYMPTOTE_PAD, s_max)(grid)
    if np.any(q <= 0.0):
        raise ConvergenceError("Hastings-McLeod solve produced non-positive values")
    ratio = q[-1] / airy(s_max)[0]
    if abs(ratio - 1.0) > 1e-4:
        raise ConvergenceError(f"right boundary mismatch: q/Ai = {ratio:.8f} at s = {s_max}")
    return PainleveSolution(grid=grid, q=q, qprime=qp)


def _tabulate(s: np.ndarray, sol: PainleveSolution) -> TWTable:
    """F1 and F2 at the ascending points s, which must lie on the solution's grid span.

    The suffix integrals J0 = int_s^inf q, J1 = int_s^inf x q^2 and
    J2 = int_s^inf q^2 are cumulative Simpson sums on the Painleve grid, plus
    the same integrals of Ai beyond the grid's right end (they agree there to
    ~1e-9 by the boundary condition).  Between nodes they are cubic Hermite
    interpolants with the known slopes -q, -x q^2 and -q^2.  Then
    int_s^inf (x - s) q^2 = J1(s) - s J2(s).
    """
    from scipy.integrate import cumulative_simpson, simpson
    from scipy.interpolate import CubicHermiteSpline
    from scipy.special import airy

    g, q = sol.grid, sol.q
    if s[0] < g[0] - 1e-12 or s[-1] > g[-1] + 1e-12:
        raise DomainRejectionError(f"s in [{s[0]}, {s[-1]}] outside the stored grid [{g[0]}, {g[-1]}]; "
                                   "extrapolation refused")
    xt = np.linspace(g[-1], _TAIL_UPPER, 600)
    ai = airy(xt)[0]
    f, tail = np.stack([q, g * q ** 2, q ** 2]), np.stack([ai, xt * ai ** 2, ai ** 2])
    J = (simpson(f, x=g)[:, None] - cumulative_simpson(f, x=g, initial=0.0)
         + simpson(tail, x=xt)[:, None])
    J0, J1, J2 = CubicHermiteSpline(g, J, -f, axis=1)(s)
    F2 = np.exp(-(J1 - s * J2))
    F1 = np.exp(-0.5 * J0) * np.sqrt(F2)
    return TWTable(grid=s, F1=np.clip(F1, 0.0, 1.0), F2=np.clip(F2, 0.0, 1.0))


def tw_cdf(beta: int, s: float, sol: PainleveSolution) -> float:
    """F_beta at one point, by the evaluator behind `tw_table`."""
    return float(_tabulate(np.array([float(s)]), sol).cdf(beta)[0])


def tw_table(s_min: float = -10.0, s_max: float = 6.0, step: float = 0.01,
             sol: PainleveSolution | None = None) -> TWTable:
    """Tabulate F1 and F2 on a uniform grid with the given step."""
    if not 0.0 < step < np.inf:
        raise DomainRejectionError(f"step must be positive and finite, got {step}")
    if not -np.inf < s_min < s_max < np.inf:
        raise DomainRejectionError(f"need finite s_min < s_max, got s_min={s_min}, s_max={s_max}")
    if sol is None:
        sol = hastings_mcleod(min(s_min, -10.0), max(s_max, 6.0))
    n = int(round((s_max - s_min) / step))
    grid = s_min + np.arange(0, n + 1) * step
    grid[-1] = s_max
    return _tabulate(grid, sol)


def airy_kernel_f2(s: float, n_nodes: int = 60, upper: float = 12.0) -> float:
    """Independent F2 oracle: Nystrom discretization of det(I - K_Ai) on L^2(s, inf)."""
    from scipy.special import airy

    u, w = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (u + 1.0) * (upper - s) + s
    ww = 0.5 * (upper - s) * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    ax, apx = airy(x)[0], airy(x)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (ax[:, None] * apx[None, :] - apx[:, None] * ax[None, :]) / (X - Y)
    diag = np.arange(n_nodes)
    K[diag, diag] = apx ** 2 - x * ax ** 2
    A = np.sqrt(ww)[:, None] * K * np.sqrt(ww)[None, :]
    return float(np.linalg.det(np.eye(n_nodes) - A))


def cache_dir() -> Path:
    root = os.environ.get("EDGEKIT_CACHE")
    path = Path(root) if root else Path.home() / ".cache" / "edgekit"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_tw_table(s_min: float = -10.0, s_max: float = 6.0, step: float = 0.01) -> TWTable:
    """Disk-cached table, keyed by the grid specification hash."""
    key = hashlib.sha256(f"tw:{s_min!r}:{s_max!r}:{step!r}".encode()).hexdigest()[:16]
    path = cache_dir() / f"tw_table_{key}.csv"
    if path.exists():
        return TWTable.from_csv(path)
    table = tw_table(s_min, s_max, step)
    table.to_csv(path)
    return table

"""Tracy-Widom cumulative distributions F1 and F2.

The Hastings-McLeod solution q of Painleve II (q'' = s q + 2 q^3, q ~ Ai(s) as
s -> +inf) yields

    F2(s) = exp( - int_s^inf (x - s) q(x)^2 dx ),
    F1(s) = exp( - (1/2) int_s^inf q(x) dx ) * sqrt(F2(s)).

q is a separatrix: marching it backwards from Airy data in double precision
departs near s ~ -8 no matter how the right boundary data are refined.  The
solver therefore treats it as a boundary-value problem on the whole interval
[s_min - 4, max(s_max, 18)]: the 4th-order Numerov discretization at step
0.005, anchored on the left asymptote q(s) = sqrt(-s/2)(1 + 1/(8 s^3) -
73/(128 s^6)) and on Ai's large-x asymptotic series at the right end, solved
by Newton's method, one tridiagonal sweep per step.  The table path uses numpy
alone.

The solution is stored on [s_min, s_max]; `tw_cdf` and `tw_table` read F1 and
F2 off it through one evaluator, `_tabulate`, at any point of that span.

The independent cross-check is the Airy-kernel Fredholm determinant
F2(s) = det(I - K_Ai) on L^2(s, inf), discretized by Gauss-Legendre Nystrom.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainRejectionError

_ASYMPTOTE_PAD = 4.0    # the solve extends this far left of s_min for the asymptotic anchor
_TAIL_UPPER = 18.0      # and at least this far right (Ai(18)^2 ~ 1e-46), where the tail integrals stop
_PAINLEVE_STEP = 0.005  # node spacing of the Hastings-McLeod solution
_NEWTON_TOL = 1e-13     # Newton stops once max |dq| <= _NEWTON_TOL * max q
_NEWTON_STEPS = 30

# scipy is imported only by `airy_kernel_f2`, the independent oracle: the CLI
# imports this module for every command, and no command needs scipy for a table.


@dataclass(frozen=True)
class PainleveSolution:
    grid: np.ndarray    # ascending s values from s_min to s_max, step ~0.005
    q: np.ndarray
    tail: np.ndarray    # int_{s_max}^inf of q, x q^2 and q^2, from the solve beyond s_max

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


def _airy_ai(x: float) -> float:
    """Ai(x) for x >= 6 from its large-x asymptotic series, summed up to its
    smallest term: relative error below exp(-2 zeta), zeta = (2/3) x^(3/2)."""
    zeta = 2.0 / 3.0 * x ** 1.5
    term = total = 1.0
    k = 0
    while True:
        k += 1
        nxt = -term * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1) * zeta)
        if abs(nxt) >= abs(term) or abs(nxt) <= 1e-17 * abs(total):
            break
        term = nxt
        total += term
    return math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x ** 0.25) * total


def _thomas(lower: list, diag: list, upper: list, rhs: list) -> list:
    """Solve the tridiagonal system with sub-diagonal lower, diagonal diag and
    super-diagonal upper (lower[i] sits in row i + 1, upper[i] in row i) without
    pivoting; numpy has no banded solver, and a plain loop over floats is cheaper
    than importing one."""
    n = len(diag)
    c, d = [0.0] * n, [0.0] * n
    c[0], d[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        a = lower[i - 1]
        pivot = diag[i] - a * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / pivot
        d[i] = (rhs[i] - a * d[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def _numerov_newton(s: np.ndarray, q_left: float, q_right: float) -> np.ndarray:
    """q'' = s q + 2 q^3 on the uniform grid s with q fixed at both ends, by
    Newton's method on the Numerov equations

        q[i-1] - 2 q[i] + q[i+1] = h^2/12 (f[i-1] + 10 f[i] + f[i+1]),  f = s q + 2 q^3.

    Their Jacobian is tridiagonal and, where s + 6 q^2 > 0 (everywhere along
    the Hastings-McLeod solution and the start below), diagonally dominant.
    """
    c = (s[1] - s[0]) ** 2 / 12.0
    q = np.sqrt(np.maximum(-s, 1.0) / 2.0) * np.exp(-2.0 / 3.0 * np.maximum(s, 0.0) ** 1.5)
    q[0], q[-1] = q_left, q_right
    for _ in range(_NEWTON_STEPS):
        f, fq = s * q + 2.0 * q ** 3, s + 6.0 * q * q
        residual = q[:-2] - 2.0 * q[1:-1] + q[2:] - c * (f[:-2] + 10.0 * f[1:-1] + f[2:])
        off = 1.0 - c * fq  # d residual[i] / d q[i +- 1]
        dq = np.array(_thomas(off[1:-2].tolist(), (-2.0 - 10.0 * c * fq[1:-1]).tolist(),
                              off[2:-1].tolist(), (-residual).tolist()))
        q[1:-1] += dq
        change = float(np.max(np.abs(dq)))
        if change <= _NEWTON_TOL * float(np.max(q)):
            return q
    raise ConvergenceError(f"Hastings-McLeod Newton iteration did not converge in {_NEWTON_STEPS} "
                           f"steps (last max |dq| = {change:.3e})")


def hastings_mcleod(s_min: float = -10.0, s_max: float = 6.0) -> PainleveSolution:
    """Hastings-McLeod solution on [s_min, s_max], sampled at the step nearest
    0.005 that divides s_max - s_min."""
    if s_max < 6.0:
        raise DomainRejectionError("s_max must be >= 6 so the Airy boundary data are in the decaying regime")
    if s_min > -10.0:
        raise DomainRejectionError("s_min must be <= -10 so both tails are resolved")
    n = int(round((s_max - s_min) / _PAINLEVE_STEP))
    h = (s_max - s_min) / n
    pad = math.ceil(_ASYMPTOTE_PAD / h - 1e-9)
    # at least the four nodes from s_max on that the tail quadrature needs
    right = max(n + 3, math.ceil((_TAIL_UPPER - s_min) / h - 1e-9))
    s = np.arange(-pad, right + 1) * h + s_min
    q = _numerov_newton(s, float(_left_asymptote(s[0])), _airy_ai(float(s[-1])))
    grid, qs = s[pad:pad + n + 1].copy(), q[pad:pad + n + 1]
    grid[-1] = s_max
    if np.any(qs <= 0.0):
        raise ConvergenceError("Hastings-McLeod solve produced non-positive values")
    ratio = qs[-1] / _airy_ai(s_max)
    if abs(ratio - 1.0) > 1e-4:
        raise ConvergenceError(f"right boundary mismatch: q/Ai = {ratio:.8f} at s = {s_max}")
    tail = _suffix_integrals(s[pad + n:], q[pad + n:])[1][:, 0]
    return PainleveSolution(grid=grid, q=qs, tail=tail)


def _suffix_integrals(x: np.ndarray, q: np.ndarray):
    """f = (q, x q^2, q^2) at the uniform nodes x and J, their integrals from
    each node to the last: each interval's integral is that of the cubic through
    the four nearest nodes (4th order), summed from the right."""
    f = np.stack([q, x * q ** 2, q ** 2])
    w = np.empty((3, x.size - 1))
    w[:, 1:-1] = 13.0 * (f[:, 1:-2] + f[:, 2:-1]) - f[:, :-3] - f[:, 3:]
    w[:, 0] = 9.0 * f[:, 0] + 19.0 * f[:, 1] - 5.0 * f[:, 2] + f[:, 3]
    w[:, -1] = f[:, -4] - 5.0 * f[:, -3] + 19.0 * f[:, -2] + 9.0 * f[:, -1]
    w *= (x[-1] - x[0]) / (x.size - 1) / 24.0
    J = np.zeros_like(f)
    J[:, :-1] = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return f, J


def _tabulate(s: np.ndarray, sol: PainleveSolution) -> TWTable:
    """F1 and F2 at the ascending points s, which must lie on the solution's grid span.

    The suffix integrals J0 = int_s^inf q, J1 = int_s^inf x q^2 and
    J2 = int_s^inf q^2 are `_suffix_integrals` on the Painleve grid plus the
    solution's tail beyond it.  Between nodes they are cubic Hermite
    interpolants with the known slopes -q, -x q^2 and -q^2.  Then
    int_s^inf (x - s) q^2 = J1(s) - s J2(s).
    """
    g = sol.grid
    if s[0] < g[0] - 1e-12 or s[-1] > g[-1] + 1e-12:
        raise DomainRejectionError(f"s in [{s[0]}, {s[-1]}] outside the stored grid [{g[0]}, {g[-1]}]; "
                                   "extrapolation refused")
    f, J = _suffix_integrals(g, sol.q)
    J += sol.tail[:, None]
    k = np.clip(np.searchsorted(g, s, side="right") - 1, 0, g.size - 2)
    dx = g[k + 1] - g[k]
    t = (s - g[k]) / dx
    J0, J1, J2 = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * J[:, k] + t * t * (3.0 - 2.0 * t) * J[:, k + 1]
                  - dx * t * (1.0 - t) * ((1.0 - t) * f[:, k] - t * f[:, k + 1]))
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


def airy_kernel_f2(s: float) -> float:
    """Independent F2 oracle: Nystrom discretization of det(I - K_Ai) on L^2(s, inf)."""
    from scipy.special import airy

    n_nodes, upper = 60, 12.0  # Gauss-Legendre nodes on (s, upper)
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

"""Self-consistent Stieltjes transform of the deformed Marchenko-Pastur law.

m(z) is the unique upper-half-plane solution of

    m = 1 / ( -z + d^{-1} (1/M) sum_j sigma_j / (sigma_j m + 1) ),

and the density is recovered as rho(E) = pi^{-1} Im m(E + i eta0) for small
eta0.  The solver works with u = 1/m, for which the equation has the explicit
inverse form of Silverstein & Choi (1995),

    f(u) = -u + (u/d) (1/M) sum_j sigma_j / (sigma_j + u) - z = 0,

and follows the root by Newton continuation in z (as in Dobriban's SPECTRODE):
down a geometric ladder in Im z from above the spectrum's scale, where
m = -1/z is close to the root, to each point's target Im z.  The rungs on the
way are solved only loosely, since each merely seeds the next; the last one
is solved to the requested tolerance on the relative residual
|m - RHS(m)| / |m|.  Steps are kept in Im u <= 0, i.e. Im m >= 0; f has
exactly one root there when Im z > 0, so the Herglotz branch is the only one
Newton can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainRejectionError
from .population import EdgeParams, PopulationSpectrum

DEFAULT_TOL = 1e-12
_NEWTON_STEPS = 100  # per eta rung
_HALVINGS = 40       # step halvings per Newton step
_RUNG_TOL = 1e-3     # residual at which an intermediate eta rung hands over
_EPS = np.finfo(float).eps
_PROBE_WINDOW = (1e-4, 1e-2)  # edge_exponent_probe: the span of E_plus - E,
_PROBE_POINTS = 24            # its geometric grid size,
_PROBE_ETA0 = 1e-8            # and the eta0 of its density


@dataclass(frozen=True)
class StieltjesValue:
    m: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class DensityCurve:
    E: np.ndarray
    rho: np.ndarray  # non-negative; NaN marks per-point solver failure
    eta0: float

    def mass(self) -> float:
        ok = ~np.isnan(self.rho)
        return float(np.trapezoid(self.rho[ok], self.E[ok]))

    def to_csv(self, path) -> None:
        lines = ["E,rho"] + [f"{repr(float(e))},{repr(float(r))}" for e, r in zip(self.E, self.rho)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _evaluator(spec: PopulationSpectrum):
    """evaluate(u, z) -> (f, f') for f(u) = -u + (u/d) sum_j w_j sigma_j / (sigma_j + u) - z."""
    sigma = spec._values[:, None]
    w_sigma = spec._weights * spec._values
    w_sigma2 = w_sigma * spec._values

    def evaluate(u, z):
        # one M x n reciprocal array per evaluation, squared in place for f'
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / (sigma + u[None, :])
            s1 = w_sigma @ inv
            inv *= inv
            s2 = w_sigma2 @ inv
            return u * (s1 / spec.d - 1.0) - z, s2 / spec.d - 1.0

    return evaluate


def _residual(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """|m - RHS(m)| / |m| = |f| / |u + f| for m = 1/u, RHS(m) = 1/(u + f); inf where not finite.

    Relative, so that it means the same at every population scale: scaling
    Sigma by c scales u and f by c and leaves it unchanged.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        res = np.abs(f) / np.abs(u + f)
    return np.where(np.isfinite(res), res, np.inf)


def _newton(evaluate, z: np.ndarray, u: np.ndarray, f: np.ndarray, fp: np.ndarray,
            tol, max_steps: int):
    """Newton's method on f(u) = 0 from u with its f(u; z) and f'(u) already known.

    u = 1/m, so f(u) = 0 is the self-consistent equation; unlike the equation in
    m it stays regular at the d > 1 pole m ~ -(1 - 1/d)/z near E = 0, where
    u -> 0.  A step is halved while it would leave the closed lower half-plane
    (Im u <= 0, i.e. Im m >= 0) or grow the relative residual |m - RHS(m)| / |m|,
    which is also the convergence test against tol (a scalar or one value per
    point), until it falls below the rounding unit of u.  Only unconverged
    points are evaluated, for at most max_steps steps.
    Returns (u, f, f', residual, Newton steps per point).
    """
    u, f, fp = u.copy(), f.copy(), fp.copy()
    res = _residual(u, f)
    tol = np.broadcast_to(tol, z.shape)
    steps = np.zeros(z.shape, dtype=int)
    active = np.flatnonzero(res > tol)
    for _ in range(max_steps):
        if active.size == 0:
            break
        ua, za, ra = u[active], z[active], res[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f[active] / fp[active]
        trial = ua - step
        ft, fpt, rt = np.empty_like(ua), np.empty_like(ua), np.empty_like(ra)
        take = np.zeros(active.size, dtype=bool)
        todo = np.arange(active.size)
        for _ in range(_HALVINGS):
            ft[todo], fpt[todo] = evaluate(trial[todo], za[todo])
            rt[todo] = _residual(trial[todo], ft[todo])
            passed = (trial[todo].imag <= 0.0) & (rt[todo] <= ra[todo])
            take[todo[passed]] = True
            todo = todo[~passed]
            step[todo] /= 2.0
            trial[todo] = ua[todo] - step[todo]
            # a step below the rounding unit of both parts of u moves u by
            # rounding only and cannot lower the residual any further
            todo = todo[(np.abs(step[todo].real) > _EPS * np.abs(ua[todo].real))
                        | (np.abs(step[todo].imag) > _EPS * np.abs(ua[todo].imag))]
            if todo.size == 0:
                break
        moved = active[take]
        u[moved], f[moved], fp[moved], res[moved] = trial[take], ft[take], fpt[take], rt[take]
        steps[active] += 1
        # a point no halving could improve has stalled; it keeps its residual
        active = moved[rt[take] > tol[moved]]
    return u, f, fp, res, steps


def _iterate(spec: PopulationSpectrum, z: np.ndarray, tol: float):
    """Solve the batch by Newton continuation in u = 1/m down an eta ladder.

    Newton needs a start near the Herglotz root, and m = -1/z is one once |z|
    exceeds the spectrum.  So each point starts at eta = sigma_1 (1 + d^{-1/2})^2,
    a bound on E_plus that scales with Sigma (so the ladder, and the Newton steps
    on it, are the same at every scale), and is solved at eta / 4 per rung down to
    its own target eta, every rung seeding the next; only the points whose eta
    moved are solved on a rung.  A rung that only seeds the next stops at
    residual _RUNG_TOL, and only a point's final rung goes on to tol.
    f(u; z) is affine in z: lowering eta by delta adds i delta to f and leaves
    f' unchanged, so f and f' are carried from rung to rung, not evaluated
    again.  Newton stops at the first residual <= tol, where the error in m
    can still be ~ residual / sqrt(eta) near a square-root edge; one more
    guarded step on every converged point takes it to roundoff.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    evaluate = _evaluator(spec)
    eta_target = z.imag
    rung = np.maximum(eta_target, spec.sigma1 * (1.0 + spec.d ** -0.5) ** 2)
    u = -(z.real + 1j * rung)
    f, fp = evaluate(u, z.real + 1j * rung)
    res = np.full(z.shape, np.inf)
    steps = np.zeros(z.shape, dtype=int)
    moved = np.arange(z.size)
    while moved.size:
        zz = z.real[moved] + 1j * rung[moved]
        rung_tol = np.where(rung[moved] == eta_target[moved], tol, _RUNG_TOL)
        u[moved], f[moved], fp[moved], res[moved], n = _newton(
            evaluate, zz, u[moved], f[moved], fp[moved], rung_tol, _NEWTON_STEPS)
        steps[moved] += n
        lower = np.maximum(eta_target, rung / 4.0)
        moved = np.flatnonzero(lower < rung)
        f[moved] += 1j * (rung[moved] - lower[moved])
        rung = lower
    done = np.flatnonzero(res <= tol)
    u[done], _, _, res[done], n = _newton(evaluate, z[done], u[done], f[done], fp[done], 0.0, 1)
    steps[done] += n
    return (1.0 / u).reshape(shape), res.reshape(shape), steps.reshape(shape)


def solve_mfc(spec: PopulationSpectrum, z: complex, tol: float = DEFAULT_TOL) -> StieltjesValue:
    """Solve the self-consistent equation at one spectral parameter.

    For Im z < 0 the anti-Herglotz branch is returned via conjugation symmetry
    m(conj z) = conj m(z).
    """
    if tol <= 0:
        raise DomainRejectionError("tolerance must be positive")
    z = complex(z)
    if z.imag == 0:
        raise DomainRejectionError("spectral parameter needs a nonzero imaginary part")
    conjugate = z.imag < 0
    zz = np.array([z.conjugate() if conjugate else z])
    m, res, steps = _iterate(spec, zz, tol)
    if res[0] > tol:
        raise ConvergenceError(
            f"Newton continuation in 1/m did not reach tol={tol:.1e} at z={z}: "
            f"residual {res[0]:.3e} after {int(steps[0])} Newton steps"
        )
    out = complex(m[0].conjugate() if conjugate else m[0])
    if not conjugate and out.imag < 0:
        raise ConvergenceError(f"Herglotz violation at z={z}: Im m = {out.imag:.3e}")
    return StieltjesValue(m=out, residual=float(res[0]), iterations=int(steps[0]))


def solve_mfc_grid(spec: PopulationSpectrum, z: np.ndarray, tol: float = DEFAULT_TOL):
    """Batch solve; returns (m, residual, Newton steps) arrays. Non-converged points keep residual > tol."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise DomainRejectionError("grid solve requires Im z > 0 everywhere")
    return _iterate(spec, z, tol)


def mp_reference(d: float, z: complex) -> complex:
    """Closed-form Marchenko-Pastur transform: root of z m^2 + (z + 1 - 1/d) m + 1 = 0 with Im m >= 0."""
    z = complex(z)
    a, b, c = z, z + 1.0 - 1.0 / d, 1.0
    disc = np.sqrt(complex(b * b - 4.0 * a * c))
    r1 = (-b + disc) / (2.0 * a)
    r2 = (-b - disc) / (2.0 * a)
    return r1 if r1.imag >= r2.imag else r2


def density(spec: PopulationSpectrum, grid, eta0: float = 1e-6,
            tol: float = DEFAULT_TOL) -> DensityCurve:
    """Reconstruct rho(E) = pi^{-1} Im m(E + i eta0) on a grid, clipped at 0.

    Per-point solver failures are marked NaN in the output and do not abort
    the rest of the grid.
    """
    if not (1e-8 <= eta0 <= 1e-2):
        raise DomainRejectionError(f"eta0 must lie in [1e-8, 1e-2], got {eta0}")
    grid = np.asarray(grid, dtype=float)
    z = grid + 1j * eta0
    m, res, _ = _iterate(spec, z, tol)
    rho = np.maximum(m.imag / np.pi, 0.0)
    rho[res > tol] = np.nan
    return DensityCurve(E=grid, rho=rho, eta0=eta0)


def edge_exponent_probe(spec: PopulationSpectrum, edge: EdgeParams):
    """Least-squares fit of log rho against log(E_plus - E) just inside the edge.

    Returns (exponent, amplitude) with rho(E) ~ amplitude * (E_plus - E)^exponent;
    a square-root edge gives exponent near 1/2.  The window shrinks once if the
    density is non-positive somewhere in it.
    """
    if edge.margin <= 0:
        raise DomainRejectionError("edge exponent probe needs a subcritical spectrum")
    lo, hi = _PROBE_WINDOW
    for attempt in range(2):
        kappa = np.geomspace(lo, hi, _PROBE_POINTS)
        curve = density(spec, edge.E_plus - kappa, eta0=_PROBE_ETA0)
        rho = curve.rho
        if np.all(rho > 0) and not np.any(np.isnan(rho)):
            slope, logc = np.polyfit(np.log(kappa), np.log(rho), 1)
            return float(slope), float(np.exp(logc))
        lo, hi = lo * 10.0, hi  # shrink from the edge side, where eta smearing dominates
    raise ConvergenceError("edge window contains non-positive density values after shrinking")


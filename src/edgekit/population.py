"""Population spectra and the deterministic edge quantities xi_plus, E_plus, gamma0.

The empirical population law is rho-hat = (1/M) sum_j delta_{sigma_j}.  Its
deformed Marchenko-Pastur companion has a rightmost support edge determined by
the critical point xi_plus, the largest root in (0, 1/sigma_1) of

    (1/M) sum_j (sigma_j x / (1 - sigma_j x))^2 = d,      d = N/M,

from which the edge location and the cube-root scaling factor follow:

    E_plus   = (1/x) (1 + d^{-1} (1/M) sum_j sigma_j x / (1 - sigma_j x)),
    gamma0   = ( d^{-1} (1/M) sum_j (sigma_j / (1 - sigma_j x))^3 + x^{-3} )^{-1/3}.

Everything here is pure and deterministic; concurrency-safe without locks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defaults import SUBCRITICAL_MARGIN_DEFAULT
from .errors import ConvergenceError, DomainRejectionError

DEFAULT_TOL = 1e-12
_BISECT_TARGET = 1e-3
_NEWTON_CAP = 200


@dataclass(frozen=True)
class PopulationSpectrum:
    """Eigenvalues of the population covariance, sorted descending, plus the aspect ratio."""

    eigenvalues: np.ndarray  # shape (M,), strictly positive, non-increasing
    M: int
    N: int

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        if self.M <= 0 or self.N <= 0:
            raise DomainRejectionError(f"matrix dimensions must be positive, got M={self.M}, N={self.N}")
        if eig.ndim != 1 or eig.size != self.M:
            raise DomainRejectionError(f"expected {self.M} eigenvalues, got array of shape {eig.shape}")
        bad = np.nonzero(~np.isfinite(eig))[0]
        if bad.size:
            raise DomainRejectionError(f"non-finite eigenvalue at index {bad[0]}: {eig[bad[0]]}")
        bad = np.nonzero(~(eig > 0.0))[0]
        if bad.size:
            raise DomainRejectionError(f"non-positive eigenvalue at index {bad[0]}: {eig[bad[0]]}")
        if np.any(np.diff(eig) > 0):
            raise DomainRejectionError("eigenvalues must be sorted non-increasing")
        # distinct-value compression: moment sums over rho-hat become O(#distinct)
        vals, counts = np.unique(eig, return_counts=True)
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_weights", counts / self.M)

    @property
    def d(self) -> float:
        return self.N / self.M

    @property
    def sigma1(self) -> float:
        return float(self.eigenvalues[0])

    def moment(self, f) -> float:
        """Integral of f against rho-hat, i.e. (1/M) sum_j f(sigma_j)."""
        return float(np.sum(self._weights * f(self._values)))

    def scaled(self, c: float) -> "PopulationSpectrum":
        """Spectrum of c*Sigma for c > 0."""
        if c <= 0:
            raise DomainRejectionError("scale factor must be positive")
        return PopulationSpectrum(self.eigenvalues * c, self.M, self.N)


@dataclass(frozen=True)
class EdgeParams:
    """Edge quantities of the deformed MP law attached to one spectrum."""

    xi_plus: float
    E_plus: float
    gamma0: float
    margin: float  # 1 - sigma_1 * xi_plus

    def as_dict(self) -> dict:
        return {
            "xi_plus": self.xi_plus,
            "E_plus": self.E_plus,
            "gamma0": self.gamma0,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class SubcriticalityReport:
    margin: float
    threshold: float
    subcritical: bool


def identity_spectrum(M: int, N: int) -> PopulationSpectrum:
    return PopulationSpectrum(np.ones(M), M, N)


def two_point_spectrum(a: float, b: float, w: float, M: int, N: int) -> PopulationSpectrum:
    """Spectrum with weight w on b and 1-w on a (b-copies rounded to the nearest integer)."""
    if not (0.0 <= w <= 1.0):
        raise DomainRejectionError(f"two-point weight must lie in [0, 1], got {w}")
    kb = int(round(w * M))
    eig = np.concatenate([np.full(kb, b), np.full(M - kb, a)])
    return PopulationSpectrum(np.sort(eig)[::-1], M, N)


def uniform_spectrum(lo: float, hi: float, M: int, N: int) -> PopulationSpectrum:
    """M eigenvalues equally spaced on [lo, hi] (deterministic grid)."""
    if lo > hi:
        raise DomainRejectionError(f"uniform descriptor needs lo <= hi, got lo={lo}, hi={hi}")
    eig = np.linspace(lo, hi, M) if M > 1 else np.array([(lo + hi) / 2.0])
    return PopulationSpectrum(eig[::-1].copy(), M, N)


_DESCRIPTOR_RE = re.compile(r"^(identity|twopoint|uniform):(.*)$")
# each kind's constructor and its fields, in the order it takes them
_DESCRIPTOR_KINDS = {"identity": (identity_spectrum, ("M", "N")),
                     "twopoint": (two_point_spectrum, ("a", "b", "w", "M", "N")),
                     "uniform": (uniform_spectrum, ("lo", "hi", "M", "N"))}


def _descriptor_value(key: str, val: str, text: str):
    """The dimensions M and N are integers; every other field is a finite number."""
    integral = key in ("M", "N")
    try:
        value = int(val) if integral else float(val)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        expected = "an integer" if integral else "a finite number"
        raise DomainRejectionError(f"descriptor field {key}={val!r} in {text!r} must be {expected}")
    return value


def parse_descriptor(text: str) -> PopulationSpectrum:
    """Parse a synthetic-spectrum descriptor such as 'identity:M=100,N=100'."""
    m = _DESCRIPTOR_RE.match(text.strip())
    if m is None:
        raise DomainRejectionError(f"unrecognized spectrum descriptor: {text!r}")
    kind, body = m.groups()
    build, fields = _DESCRIPTOR_KINDS[kind]
    kv = {}
    for piece in body.split(","):
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if not _:
            raise DomainRejectionError(f"malformed descriptor field {piece!r} in {text!r}")
        key = key.strip()
        if key not in fields:
            raise DomainRejectionError(
                f"unknown descriptor field {key!r} in {text!r}; {kind} takes {', '.join(fields)}")
        kv[key] = _descriptor_value(key, val.strip(), text)
    missing = [key for key in fields if key not in kv]
    if missing:
        raise DomainRejectionError(f"descriptor {text!r} is missing field {missing[0]!r}")
    return build(*(kv[key] for key in fields))


def load_spectrum(source) -> PopulationSpectrum:
    """Load a spectrum from a descriptor string or a text file.

    File format: '#'-prefixed header line '# N=<int>', then one positive
    eigenvalue per line; M is the number of eigenvalue lines.
    """
    if isinstance(source, str) and _DESCRIPTOR_RE.match(source.strip()):
        return parse_descriptor(source)
    path = Path(source)
    eigs = []
    N = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            hm = re.search(r"N\s*=\s*([^\s,;]+)", line)
            if hm:
                try:
                    N = int(hm.group(1))
                except ValueError:
                    raise DomainRejectionError(
                        f"{path}:{lineno}: header N={hm.group(1)!r} must be an integer") from None
            continue
        try:
            value = float(line)
        except ValueError:
            raise DomainRejectionError(f"{path}:{lineno}: not a number: {line!r}") from None
        if value <= 0:
            raise DomainRejectionError(f"{path}:{lineno}: non-positive eigenvalue {value}")
        if not np.isfinite(value):
            raise DomainRejectionError(f"{path}:{lineno}: non-finite eigenvalue {value}")
        eigs.append(value)
    if N is None:
        raise DomainRejectionError(f"{path}: missing '# N=<int>' header")
    if not eigs:
        raise DomainRejectionError(f"{path}: no eigenvalues found")
    eig = np.sort(np.asarray(eigs))[::-1]
    return PopulationSpectrum(eig, len(eig), N)


def _f_and_deriv(spec: PopulationSpectrum, x: float):
    f = spec.moment(lambda s: (s * x / (1.0 - s * x)) ** 2) - spec.d
    # s * s overflows only for sigma_1 > 1e154, where gamma0^-3 ~ sigma_1^3 overflows
    # too and scaling_factor rejects the spectrum; an infinite f' only zeroes a step
    with np.errstate(over="ignore"):
        fp = spec.moment(lambda s: 2.0 * s * s * x / (1.0 - s * x) ** 3)
    return f, fp


def solve_xi_plus(spec: PopulationSpectrum, tol: float = DEFAULT_TOL) -> float:
    """Unique root of (1/M) sum (s x/(1-s x))^2 = d on (0, 1/sigma_1).

    The defining function increases strictly from 0 to +inf there, so a
    bracketing bisection is globally convergent; Newton finishes quadratically.
    Roots beyond 1/sigma_1 (other branches) are never searched.
    """
    if tol <= 0:
        raise DomainRejectionError("tolerance must be positive")
    hi = 1.0 / spec.sigma1
    if not np.isfinite(hi):
        raise DomainRejectionError(
            f"xi_plus underflows: 1/sigma_1 exceeds the double range at sigma_1={spec.sigma1:.3e}")
    lo, up = 0.0, hi
    # bisection on the sign of f; f(0+) = -d < 0, f -> +inf at 1/sigma_1
    while up - lo > _BISECT_TARGET * hi:
        mid = 0.5 * (lo + up)
        f, _ = _f_and_deriv(spec, mid)
        if f < 0.0:
            lo = mid
        else:
            up = mid
    x = 0.5 * (lo + up)
    for _ in range(_NEWTON_CAP):
        f, fp = _f_and_deriv(spec, x)
        if abs(f) <= tol:
            return x
        if fp == 0.0:  # positive in exact arithmetic: sigma^2 x has underflowed
            raise DomainRejectionError(
                f"xi_plus underflows: f'(x) is 0 at x={x:.3e} (sigma_1={spec.sigma1:.3e})")
        step = f / fp
        x_new = x - step
        if not (lo < x_new < up):  # keep the iterate inside the bracket
            x_new = 0.5 * (lo + up)
        if f < 0.0:
            lo = x
        else:
            up = x
        x = x_new
    f, _ = _f_and_deriv(spec, x)
    if abs(f) <= tol:
        return x
    raise ConvergenceError(
        f"xi_plus solver stalled: |f|={abs(f):.3e} > tol={tol:.1e} in bracket ({lo:.17g}, {up:.17g})"
    )


def edge_location(spec: PopulationSpectrum, xi_plus: float) -> float:
    """Rightmost support edge E_plus of the deformed MP law."""
    s_int = spec.moment(lambda s: s * xi_plus / (1.0 - s * xi_plus))
    return (1.0 / xi_plus) * (1.0 + s_int / spec.d)


def scaling_factor(spec: PopulationSpectrum, xi_plus: float) -> float:
    """Cube-root scaling factor gamma0 normalizing the edge fluctuations."""
    try:
        with np.errstate(over="ignore"):  # a non-finite cube is rejected below
            cube = spec.moment(lambda s: (s / (1.0 - s * xi_plus)) ** 3) / spec.d + xi_plus ** -3
    except OverflowError:
        cube = np.inf
    if not 0.0 < cube < np.inf:
        how = "underflows: gamma0^-3 falls below" if cube == 0.0 else "overflows: gamma0^-3 exceeds"
        raise DomainRejectionError(
            f"scaling factor {how} the double range at "
            f"xi_plus={xi_plus:.3e} (sigma_1={spec.sigma1:.3e})")
    return cube ** (-1.0 / 3.0)


def check_subcritical(spec: PopulationSpectrum, xi_plus: float,
                      threshold: float = SUBCRITICAL_MARGIN_DEFAULT) -> SubcriticalityReport:
    """Margin 1 - sigma_1 xi_plus; edge-statistics workflows require it positive."""
    margin = 1.0 - spec.sigma1 * xi_plus
    return SubcriticalityReport(margin=margin, threshold=threshold, subcritical=margin > threshold)


def edge_params(spec: PopulationSpectrum, tol: float = DEFAULT_TOL,
                margin_threshold: float = SUBCRITICAL_MARGIN_DEFAULT,
                require_subcritical: bool = False) -> EdgeParams:
    """Solve for xi_plus and assemble all edge quantities for one spectrum."""
    xi = solve_xi_plus(spec, tol)
    report = check_subcritical(spec, xi, margin_threshold)
    if require_subcritical and not report.subcritical:
        raise DomainRejectionError(
            f"spectrum is not subcritical: sigma_1*xi_plus={spec.sigma1 * xi:.6f} "
            f"(margin {report.margin:.3e} <= threshold {margin_threshold:.1e})"
        )
    return EdgeParams(
        xi_plus=xi,
        E_plus=edge_location(spec, xi),
        gamma0=scaling_factor(spec, xi),
        margin=report.margin,
    )

"""Interpolation flow from a general population towards the null case.

The population eigenvalues evolve by 1/sigma_a(t) = e^{-t}/sigma_a(0) + (1 - e^{-t}),
with co-moving critical point xi_plus(t), scaling factor gamma(t), tau = xi/gamma
and renormalized weights t_a = gamma sigma_a.  Two deterministic sum rules pin
tau and gamma:

    (1/N) sum_a (t_a^{-1} - tau)^{-2} = tau^{-2},
    (1/N) sum_a (t_a^{-1} - tau)^{-3} + tau^{-3} = 1,

equivalently A_2 = tau^{-2} and A_3 + tau^{-3} = 1 for the coefficient sums
A_k = (1/N) sum_a (t_a^{-1} - tau)^{-k}.  Differentiating them in t yields

    gamma' + gamma = tau^{-4} A_3 + tau^{-3} A_4

and the two coefficient identities checked below.  The renormalized edge
L_plus = gamma E_plus = 1/tau + (1/N) sum_a (t_a^{-1} - tau)^{-1} moves with
speed zdot = (1/N) sum_a (d_t t_a / t_a^2)(t_a^{-1} - tau)^{-2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainRejectionError
from .population import PopulationSpectrum, edge_params

_XI_TOL = 1e-14


@dataclass(frozen=True)
class FlowState:
    t: float
    N: int
    M: int
    t_alpha: np.ndarray      # gamma(t) * sigma_alpha(t)
    xi_plus_t: float
    gamma_t: float
    tau_t: float
    L_plus_t: float
    gamma_dot_t: float
    A: dict = field(repr=False)  # {k: A_k} for k = 2..4

    def sum_rule_residuals(self):
        r1 = abs(self.A[2] - self.tau_t ** -2)
        r2 = abs(self.A[3] + self.tau_t ** -3 - 1.0)
        return r1, r2

    def weights(self) -> np.ndarray:
        """d_t t_alpha / t_alpha^2 = (gamma'/gamma + 1)/t_alpha - 1/gamma."""
        return (self.gamma_dot_t / self.gamma_t + 1.0) / self.t_alpha - 1.0 / self.gamma_t

    def weighted_coefficient(self, k: int) -> float:
        """B_k = (1/N) sum_a (d_t t_a / t_a^2)(t_a^{-1} - tau)^{-k}."""
        return float(np.sum(self.weights() * (1.0 / self.t_alpha - self.tau_t) ** (-k)) / self.N)

    def as_population(self) -> PopulationSpectrum:
        """The renormalized weights t_alpha as a population spectrum.

        By the sum rules it has unit scaling factor and edge L_plus, so its
        density approaches (1/pi) sqrt(L_plus - E) at the edge.
        """
        return PopulationSpectrum(np.sort(self.t_alpha)[::-1], self.M, self.N)


def evolve_sigma(sigma0: np.ndarray, t: float) -> np.ndarray:
    if t < 0:
        raise DomainRejectionError("flow time must be non-negative")
    return 1.0 / (np.exp(-t) / sigma0 + (1.0 - np.exp(-t)))


def flow_state(spec: PopulationSpectrum, t: float) -> FlowState:
    """All deterministic flow quantities of the evolved spectrum at time t."""
    sig_t = evolve_sigma(spec.eigenvalues, t)
    spec_t = PopulationSpectrum(np.sort(sig_t)[::-1], spec.M, spec.N)
    ep = edge_params(spec_t, tol=_XI_TOL, require_subcritical=True)
    xi, gamma = ep.xi_plus, ep.gamma0
    tau = xi / gamma
    t_alpha = gamma * sig_t
    inv_gap = 1.0 / (1.0 / t_alpha - tau)
    N = spec.N
    A = {k: float(np.sum(inv_gap ** k)) / N for k in range(2, 5)}
    L_plus = 1.0 / tau + float(np.sum(inv_gap)) / N
    gamma_dot = tau ** -4 * A[3] + tau ** -3 * A[4] - gamma
    return FlowState(t=t, N=spec.N, M=spec.M, t_alpha=t_alpha,
                     xi_plus_t=xi, gamma_t=gamma, tau_t=tau, L_plus_t=L_plus,
                     gamma_dot_t=gamma_dot, A=A)


def coefficient_identities_check(state: FlowState):
    """Residuals of the two closed-form coefficient identities.

    With gamma' + gamma = tau^{-4} A_3 + tau^{-3} A_4:
        (g' + g) tau^{-2} + (g' tau + g tau - 1) A_3 = tau^{-2} A_4 - A_3^2,
        (g' + g) A_3      + (g' tau + g tau - 1) A_4 = (tau^{-2} A_4 - A_3^2)(A_4 - tau^{-4}).
    """
    g, gd, tau = state.gamma_t, state.gamma_dot_t, state.tau_t
    A3, A4 = state.A[3], state.A[4]
    lhs1 = (gd + g) * tau ** -2 + (gd * tau + g * tau - 1.0) * A3
    lhs2 = (gd + g) * A3 + (gd * tau + g * tau - 1.0) * A4
    core = tau ** -2 * A4 - A3 ** 2
    return abs(lhs1 - core), abs(lhs2 - core * (A4 - tau ** -4))


def zdot_check(spec: PopulationSpectrum, t: float, dt: float = 1e-4) -> float:
    """|central difference of L_plus - formula zdot|, with zdot = B_2; second-order small in dt."""
    if not (1e-6 <= dt <= 1e-3):
        raise DomainRejectionError("dt must lie in [1e-6, 1e-3]")
    if t - dt < 0:
        raise DomainRejectionError("central difference needs t >= dt")
    state = flow_state(spec, t)
    lp = flow_state(spec, t + dt).L_plus_t
    lm = flow_state(spec, t - dt).L_plus_t
    return abs((lp - lm) / (2.0 * dt) - state.weighted_coefficient(2))


import numpy as np
import pytest

import edgekit as ek
from edgekit.errors import DomainRejectionError

SQRT_D = 1.0  # two-point fixtures run at d = 1


def test_t0_matches_population(twopoint200):
    state = ek.flow_state(twopoint200, 0.0)
    params = ek.edge_params(twopoint200)
    assert abs(state.xi_plus_t - params.xi_plus) < 1e-12
    assert abs(state.gamma_t - params.gamma0) < 1e-12
    assert abs(state.L_plus_t - params.gamma0 * params.E_plus) < 1e-12


def test_infinite_time_limit(twopoint200):
    state = ek.flow_state(twopoint200, 30.0)
    d = twopoint200.d
    rd = np.sqrt(d)
    assert state.xi_plus_t == pytest.approx(rd / (1 + rd), abs=1e-10)
    assert state.gamma_t == pytest.approx(rd * (1 + rd) ** (-4.0 / 3.0), abs=1e-10)


def test_identity_flow_is_stationary(identity100):
    for t in (0.0, 0.5, 3.0):
        state = ek.flow_state(identity100, t)
        assert np.allclose(ek.flow.evolve_sigma(identity100.eigenvalues, t), 1.0)
        assert abs(state.gamma_dot_t) < 1e-12
        assert np.max(np.abs(state.weights())) < 1e-12


def test_sum_rules_on_log_grid(twopoint200, identity100, identity_d2):
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 49)])
    for spec in (twopoint200, identity100, identity_d2):
        for t in grid:
            state = ek.flow_state(spec, float(t))
            r1, r2 = state.sum_rule_residuals()
            assert r1 <= 1e-10 and r2 <= 1e-10
            # A2 and A3 relations restate the sum rules
            assert abs(state.A[2] - state.tau_t ** -2) <= 1e-10
            assert abs(state.A[3] + state.tau_t ** -3 - 1.0) <= 1e-10


def test_coefficient_identities(twopoint200):
    for t in (0.0, 0.5, 1.0, 2.0, 5.0):
        state = ek.flow_state(twopoint200, t)
        r1, r2 = ek.coefficient_identities_check(state)
        assert r1 <= 1e-9 and r2 <= 1e-9


def test_coefficient_identities_identity_closed_form(identity100):
    for t in (0.0, 1.0, 10.0):
        state = ek.flow_state(identity100, t)
        r1, r2 = ek.coefficient_identities_check(state)
        assert r1 <= 1e-12 and r2 <= 1e-12


def test_coefficient_identities_sensitive_to_gamma_dot(twopoint200):
    from dataclasses import replace
    state = ek.flow_state(twopoint200, 0.5)
    r1, _ = ek.coefficient_identities_check(state)
    bumped = replace(state, gamma_dot_t=state.gamma_dot_t + 1e-3)
    r1b, _ = ek.coefficient_identities_check(bumped)
    expected = 1e-3 * abs(state.tau_t ** -2 + state.tau_t * state.A[3])
    assert r1b == pytest.approx(expected, rel=1e-6)
    assert r1b > 1e3 * max(r1, 1e-15)


def test_gamma_dot_finite_difference(twopoint200):
    # gamma' + gamma = tau^{-4} A_3 + tau^{-3} A_4 against a central difference of gamma
    dt = 1e-4
    for t in (0.2, 0.7, 2.0):
        gp, gm = (ek.flow_state(twopoint200, t + s).gamma_t for s in (dt, -dt))
        assert abs((gp - gm) / (2.0 * dt) - ek.flow_state(twopoint200, t).gamma_dot_t) < 1e-7


def test_zdot_identity_spectrum(identity100):
    assert ek.zdot_check(identity100, 0.5) < 1e-10
    state = ek.flow_state(identity100, 0.5)
    assert abs(state.weighted_coefficient(2)) < 1e-12


def test_zdot_twopoint(twopoint200):
    assert ek.zdot_check(twopoint200, 0.5, dt=1e-4) < 1e-6


def test_zdot_second_order_convergence(twopoint200):
    r1 = ek.zdot_check(twopoint200, 0.5, dt=8e-4)
    r2 = ek.zdot_check(twopoint200, 0.5, dt=4e-4)
    assert r2 < r1 / 2.5  # about 4x with dt halving


def test_zdot_dt_domain(twopoint200):
    with pytest.raises(DomainRejectionError):
        ek.zdot_check(twopoint200, 0.5, dt=1e-2)


def test_renormalized_population_has_unit_scale(twopoint200):
    state = ek.flow_state(twopoint200, 0.8)
    pop = state.as_population()
    params = ek.edge_params(pop)
    assert params.gamma0 == pytest.approx(1.0, abs=1e-10)
    assert params.xi_plus == pytest.approx(state.tau_t, abs=1e-10)
    assert params.E_plus == pytest.approx(state.L_plus_t, abs=1e-9)


def test_negative_time_rejected(twopoint200):
    with pytest.raises(DomainRejectionError):
        ek.flow_state(twopoint200, -0.1)

import tracemalloc

import numpy as np
import pytest

import edgekit as ek
from edgekit import ensemble, stieltjes
from edgekit.errors import ConvergenceError, DomainRejectionError

from oracles import mp_quadratic_roots, two_point_cubic_root


def test_edge_value_identity(identity100):
    # -m(E_plus) -> xi_plus as eta -> 0
    sol = ek.solve_mfc(identity100, 4.0 + 1e-6j)
    assert sol.m == pytest.approx(-0.5, abs=1e-3)
    assert sol.m.imag >= 0


def test_large_eta_asymptotics(twopoint200):
    z = 1e6j
    sol = ek.solve_mfc(twopoint200, z)
    assert abs(sol.m - (-1.0 / z)) <= 1e-5 * abs(1.0 / z)


def test_quadratic_oracle_identity(identity100):
    z = 2.0 + 0.1j
    sol = ek.solve_mfc(identity100, z)
    # root of z m^2 + z m + 1 = 0 with Im m >= 0
    root = mp_quadratic_roots(1.0, z)
    assert abs(sol.m - root) < 1e-10
    assert abs(z * sol.m ** 2 + z * sol.m + 1.0) < 1e-10


def test_mp_reference_self_consistency():
    for d in (1.0, 2.0, 0.5):
        for z in (2.0 + 0.1j, 4.0 + 1e-9j, -1.0 + 0.3j, 1e6j):
            m = ek.mp_reference(d, z)
            resid = abs(m - 1.0 / (-z + 1.0 / (d * (m + 1.0))))
            assert resid < 1e-12
            assert m.imag >= -1e-13
    assert ek.mp_reference(1.0, 4.0 + 1e-12j) == pytest.approx(-0.5, abs=1e-5)
    z = 1e6j
    assert abs(ek.mp_reference(1.0, z) - (-1.0 / z)) < 1e-5 * abs(1.0 / z)


def test_solver_matches_mp_reference_on_grid(identity100):
    grid = np.linspace(-1.0, 5.0, 100) + 1e-2j
    m, res, _ = ek.stieltjes.solve_mfc_grid(identity100, grid, tol=1e-13)
    ref = np.array([ek.mp_reference(1.0, z) for z in grid])
    assert np.max(np.abs(m - ref)) < 1e-10
    assert np.all(m.imag >= 0)
    assert np.all(res <= 1e-13)


@pytest.mark.parametrize("eta0", [1e-6, 1e-8])
@pytest.mark.parametrize("M, N, E", [
    # d = 2: m has a pole m ~ -(1 - 1/d)/z at E = 0 from the atom of the spectrum there
    (200, 400, np.union1d(np.linspace(-0.5, 3.5, 161),
                          [0.0, -1e-3, -1e-4, -1e-6, 1e-6, 1e-5, 3e-4, 1e-3])),
    # d = 1/2: no atom, m stays bounded at E = 0
    (100, 50, np.linspace(-0.5, 7.0, 301)),
    # d = 2, within 1e-3 of the square-root edge E+ = (1 + sqrt 2)^2 / 2, where
    # the error in m is ~ residual / sqrt(eta) until Newton takes one more step
    (200, 400, (1.0 + np.sqrt(2.0)) ** 2 / 2.0 - np.geomspace(1e-9, 1e-3, 400)),
])
def test_pole_and_small_d_vs_quadratic_oracle(M, N, E, eta0):
    spec = ek.identity_spectrum(M, N)
    z = E + 1j * eta0
    m, res, _ = ek.stieltjes.solve_mfc_grid(spec, z)
    ref = np.array([mp_quadratic_roots(spec.d, zz) for zz in z])
    assert np.all(res <= 1e-12)
    assert np.all(m.imag >= 0)
    assert np.max(np.abs(m - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10


@pytest.mark.parametrize("eta0", [1e-6, 1e-8])
@pytest.mark.parametrize("descriptor", [
    # atoms up to b = 8 put the spectrum far above eta = 1, where m = -1/z is
    # no start for Newton; a = 1, b = 2 is the control
    "twopoint:a=0.5,b=8,w=0.7,M=400,N=200",
    "twopoint:a=0.5,b=8,w=0.7,M=200,N=200",
    "twopoint:a=1,b=4,w=0.5,M=300,N=200",
    "twopoint:a=1,b=2,w=0.5,M=200,N=200",
])
def test_two_point_vs_cubic_oracle(descriptor, eta0):
    spec = ek.parse_descriptor(descriptor)
    a, b = spec.eigenvalues[-1], spec.eigenvalues[0]
    w = np.mean(spec.eigenvalues == b)
    z = np.linspace(-1.0, 40.0, 411) + 1j * eta0
    m, res, _ = ek.stieltjes.solve_mfc_grid(spec, z)
    ref = np.array([two_point_cubic_root(a, b, w, spec.d, zz) for zz in z])
    assert np.all(res <= ek.stieltjes.DEFAULT_TOL)
    assert np.max(np.abs(m - ref) / np.abs(ref)) <= 1e-10


@pytest.mark.parametrize("c", [1e3, 1e6])
@pytest.mark.parametrize("M, N", [(200, 400), (400, 200)])
def test_population_scale_vs_quadratic_oracle(M, N, c):
    # m of c Sigma at z is m(z / c) / c; the residual is relative to |m|, so a
    # small |m| at a large scale is solved as tightly as |m| ~ 1 at scale 1
    spec = ek.identity_spectrum(M, N).scaled(c)
    z = c * np.linspace(-1.0, 40.0, 411) + 1e-6j
    m, res, _ = ek.stieltjes.solve_mfc_grid(spec, z)
    ref = np.array([mp_quadratic_roots(spec.d, zz / c) / c for zz in z])
    assert np.all(res <= ek.stieltjes.DEFAULT_TOL)
    assert np.max(np.abs(m - ref) / np.abs(ref)) <= 1e-10


def test_newton_steps_scale_covariant():
    # the ladder starts at a bound on the edge that scales with Sigma, so Sigma and
    # z scaled together take the same Newton steps, small scales as well as large
    def total_steps(c):
        spec = ek.identity_spectrum(200, 400).scaled(c)
        z = c * (np.linspace(-1.0, 40.0, 411) + 1e-6j)
        _, res, steps = ek.stieltjes.solve_mfc_grid(spec, z)
        assert np.all(res <= ek.stieltjes.DEFAULT_TOL)
        return int(steps.sum())

    unit = total_steps(1.0)
    for c in (1e-6, 1e-3, 1e3):
        assert abs(total_steps(c) - unit) <= 0.01 * unit, c


def test_newton_step_budget():
    # loose intermediate eta rungs keep Newton continuation to a few steps
    # per rung; a fixed-point sweep would need thousands at this eta
    spec = ek.uniform_spectrum(0.5, 2.0, 200, 200)
    z = np.linspace(0.0, 8.0, 500) + 1e-8j
    _, res, steps = ek.stieltjes.solve_mfc_grid(spec, z)
    assert np.all(res <= ek.stieltjes.DEFAULT_TOL)
    assert steps.max() <= 45
    assert steps.mean() <= 20


def test_convergence_error_names_the_point(identity100, monkeypatch):
    # one Newton step per rung is too few at the edge
    monkeypatch.setattr(ek.stieltjes, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match=r"Newton continuation .* at z=\(4\+1e-08j\): "
                                               r"residual .* after \d+ Newton steps"):
        ek.solve_mfc(identity100, 4.0 + 1e-8j)


def test_conjugation_branch(twopoint200):
    z = 3.0 + 0.05j
    up = ek.solve_mfc(twopoint200, z)
    down = ek.solve_mfc(twopoint200, z.conjugate())
    assert abs(down.m - up.m.conjugate()) < 1e-10
    assert down.m.imag <= 0


def test_density_mass_identity(identity100):
    # d=1 has a hard edge at 0: the grid must resolve the E^{-1/2} spike for
    # the trapezoid mass to land within 2%
    grid = np.linspace(0.0, 4.5, 30000)
    curve = ek.density(identity100, grid, eta0=1e-6)
    assert np.all(curve.rho >= 0)
    assert not np.any(np.isnan(curve.rho))
    assert curve.mass() == pytest.approx(1.0, abs=0.02)


def test_density_outside_support(identity100):
    eta0 = 1e-6
    curve = ek.density(identity100, np.linspace(4.6, 6.0, 10), eta0=eta0)
    assert np.all(curve.rho < 10.0 * eta0)


def test_density_mass_twopoint(twopoint200):
    ep = ek.edge_params(twopoint200)
    grid = np.linspace(0.0, ep.E_plus + 0.25, 30000)
    curve = ek.density(twopoint200, grid, eta0=1e-6)
    assert np.all(curve.rho >= 0)
    assert curve.mass() == pytest.approx(1.0, abs=0.02)


def test_density_eta0_domain(identity100):
    with pytest.raises(DomainRejectionError):
        ek.density(identity100, [1.0], eta0=0.5)


def test_edge_exponent_identity(identity100):
    exponent, _ = ek.edge_exponent_probe(identity100, ek.edge_params(identity100))
    assert 0.47 <= exponent <= 0.53


def test_edge_exponent_twopoint(twopoint200):
    exponent, _ = ek.edge_exponent_probe(twopoint200, ek.edge_params(twopoint200))
    assert 0.45 <= exponent <= 0.55


def test_rescaled_flow_amplitude(twopoint200):
    # the renormalized time-t spectrum has edge density (1/pi) sqrt(L_plus - E)
    for t in (0.0, 0.8):
        state = ek.flow_state(twopoint200, t)
        pop = state.as_population()
        edge = ek.EdgeParams(xi_plus=state.tau_t, E_plus=state.L_plus_t, gamma0=1.0,
                             margin=1.0 - state.t_alpha.max() * state.tau_t)
        exponent, amplitude = ek.edge_exponent_probe(pop, edge)
        assert 0.45 <= exponent <= 0.55
        assert amplitude == pytest.approx(1.0 / np.pi, rel=0.05)


def test_herglotz_everywhere(twopoint200):
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 9, 50) + 1j * 10.0 ** rng.uniform(-6, 0, 50)
    m, res, _ = ek.stieltjes.solve_mfc_grid(twopoint200, z, tol=1e-12)
    assert np.all(res <= 1e-12)
    assert np.all(m.imag >= 0)
    # self-consistency independent of the iteration path
    vals = twopoint200._values[:, None]
    wts = twopoint200._weights[:, None]
    rhs = 1.0 / (-z + np.sum(wts * vals / (vals * m[None, :] + 1.0), axis=0) / twopoint200.d)
    assert np.max(np.abs(m - rhs) / np.maximum(1.0, np.abs(m))) <= 1e-12


def _one_product(spec, u, z):
    """The evaluator without column blocks: one M x n reciprocal array."""
    w_sigma = spec._weights * spec._values
    inv = 1.0 / (spec._values[:, None] + u[None, :])
    s1 = w_sigma @ inv
    inv *= inv
    s2 = (w_sigma * spec._values) @ inv
    return u * (s1 / spec.d - 1.0) - z, s2 / spec.d - 1.0


@pytest.mark.parametrize("M, n", [(1000, 500), (1000, 113), (3000, 1001), (57, 1234), (1, 20000)])
def test_blocked_evaluator_matches_one_product(M, n):
    # the column blocks change no bit, with BLAS on one thread on both sides; at M=1000
    # a block is 16 columns, so n=113 ends in a remainder the last block must take
    spec = ek.uniform_spectrum(0.5, 2.0, M, M)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n) - 1j * rng.random(n)
    z = rng.standard_normal(n) + 1j * rng.random(n)
    with ensemble._one_blas_thread():
        got = stieltjes._evaluator(spec)(u, z)
        want = _one_product(spec, u, z)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_density_memory_does_not_grow_with_the_grid():
    # 4000 points on 1000 distinct sigma: one M x n reciprocal array would take 64 MB,
    # the evaluator's column blocks a fraction of one
    spec = ek.uniform_spectrum(0.5, 2.0, 1000, 1000)
    tracemalloc.start()
    try:
        curve = ek.density(spec, np.linspace(0.0, 8.0, 4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(curve.rho).any()
    assert peak <= 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

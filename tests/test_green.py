from pathlib import Path

import numpy as np
import pytest

import edgekit as ek
from edgekit import ensemble, green
from edgekit.ensemble import laguerre_tridiagonals, replicate_rng
from edgekit.errors import DomainRejectionError
from edgekit.green import edge_window_z, roman_green

from oracles import (decoupling_triple, dense_decoupling_replicate, dense_x3_x4,
                     loop_observables, null_reference_W, reduced_factor)


def _random_lin(rng, N, M, z):
    X = rng.standard_normal((M, N)) / np.sqrt(N)
    t_alpha = rng.uniform(0.3, 1.2, M)
    return ek.build_linearization(X, t_alpha, z)


def test_block_structure_zero_matrix():
    lin = ek.build_linearization(np.zeros((2, 2)), np.array([0.5, 0.8]), 1.5 + 0.5j)
    H = lin.H
    assert np.allclose(H[:2, :2], -(1.5 + 0.5j) * np.eye(2))
    assert np.allclose(H[2:, 2:], -np.diag([2.0, 1.25]))
    assert np.count_nonzero(H[:2, 2:]) == 0 and np.count_nonzero(H[2:, :2]) == 0


def test_nonzero_count_dense():
    rng = np.random.default_rng(0)
    N, M = 4, 3
    lin = _random_lin(rng, N, M, 2.0 + 1.0j)
    assert np.count_nonzero(lin.H) == 2 * N * M + N + M


def test_symmetric_for_real_z():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 4))
    lin = ek.build_linearization(X, np.array([0.5, 0.6, 0.7]), 2.0)
    assert np.array_equal(lin.H, lin.H.T)


def test_positivity_rejection():
    with pytest.raises(DomainRejectionError):
        ek.build_linearization(np.zeros((2, 2)), np.array([0.5, -0.1]), 1.0j)


def test_schur_residuals_random_corpus():
    rng = np.random.default_rng(7)
    for trial in range(100):
        N = int(rng.integers(2, 9))
        M = int(rng.integers(2, 9))
        z = complex(rng.uniform(-2, 4), 10.0 ** rng.uniform(-3, 0.5))
        lin = _random_lin(rng, N, M, z)
        r_good, r_bad = ek.verify_schur(lin)
        assert r_good <= 1e-10 and r_bad <= 1e-10


def test_schur_zero_matrix_roundoff():
    lin = ek.build_linearization(np.zeros((3, 3)), np.array([0.5, 0.6, 0.7]), 1.0 + 1.0j)
    r_good, r_bad = ek.verify_schur(lin)
    assert r_good < 1e-14 and r_bad < 1e-14


def test_schur_rectangular():
    rng = np.random.default_rng(8)
    lin = _random_lin(rng, 5, 3, 2.0 + 0.5j)
    r_good, r_bad = ek.verify_schur(lin)
    assert r_good <= 1e-10 and r_bad <= 1e-10


def test_ward_random_corpus():
    rng = np.random.default_rng(9)
    for trial in range(100):
        N = int(rng.integers(2, 9))
        M = int(rng.integers(2, 9))
        z = complex(rng.uniform(-2, 4), 10.0 ** rng.uniform(-3, 0.5))
        assert ek.ward_check(_random_lin(rng, N, M, z)) <= 1e-10


def test_ward_diagonal_closed_form():
    z = 1.4 + 1.0j
    lin = ek.build_linearization(np.zeros((3, 3)), np.full(3, 0.7), z)
    # X = 0: G = -1/z on the Roman block, both Ward sides equal 1/|z|^2
    G = roman_green(np.zeros((3, 3)), np.full(3, 0.7), z)
    assert np.allclose(G, -np.eye(3) / z)
    assert abs(np.sum(np.abs(G[0]) ** 2) - 1.0 / abs(z) ** 2) < 1e-15
    assert ek.ward_check(lin) < 1e-14


def test_ward_eta_scaling():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((4, 4)) / 2.0
    ta = rng.uniform(0.4, 1.0, 4)
    for eta in (0.5, 1.0, 2.0):
        lin = ek.build_linearization(X, ta, 2.0 + 1j * eta)
        assert ek.ward_check(lin) <= 1e-10


def test_observables_brute_force_equivalence(twopoint200):
    state = ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 8, 8), 0.3)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((8, 8)) / np.sqrt(8)
    z = edge_window_z(state)
    lin = ek.build_linearization(X, state.t_alpha, z)
    G = roman_green(X, state.t_alpha, z)
    m = np.trace(G) / 8
    for i in (0, 3, 7):
        obs = ek.observables(lin, state, i)
        loops = loop_observables(G, i, m, state.tau_t)
        for name in ("X22", "X32", "X33", "X42", "X43", "X44", "X44p"):
            assert abs(getattr(obs, name) - loops[name]) < 1e-12, name


def test_observables_zero_matrix():
    state = ek.flow_state(ek.identity_spectrum(4, 4), 0.0)
    z = edge_window_z(state)
    lin = ek.build_linearization(np.zeros((4, 4)), state.t_alpha, z)
    obs = ek.observables(lin, state, 0)
    # G is diagonal: every chain through off-diagonal entries collapses
    g = -1.0 / z
    assert abs(obs.X22 - g * g / 4) < 1e-15
    assert abs(obs.X33 - g ** 3 / 16) < 1e-15
    assert abs(obs.X44p - (g * g / 4) * (4 * g * g / 16)) < 1e-15


def test_observable_ratios_definitional(twopoint200):
    state = ek.flow_state(twopoint200, 0.5)
    rng = np.random.default_rng(13)
    X = rng.standard_normal((200, 200)) / np.sqrt(200)
    lin = ek.build_linearization(X, state.t_alpha, edge_window_z(state))
    obs = ek.observables(lin, state, 5)
    assert obs.X32 / (obs.m + state.tau_t) == pytest.approx(obs.X22, rel=1e-12)
    assert obs.X42 == pytest.approx((obs.m + state.tau_t) ** 2 * obs.X22, rel=1e-12)
    assert obs.X43 == pytest.approx((obs.m + state.tau_t) * obs.X33, rel=1e-12)


def test_optical_identity_and_twopoint():
    # identity at the CLI's budget: at 600 replicates its status varies with the seed
    spec = ek.identity_spectrum(200, 200)
    report = ek.optical_residual(ek.flow_state(spec, 0.0), reps=2000, seed=41)
    assert report.status == "PASS"
    assert report.residual <= report.leading / 10.0
    # two-point: at 600 replicates 3 ci exceeds the threshold leading/10, so the
    # check cannot resolve the identity there; the CLI's 2000 can
    tp = ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200), 0.5)
    report_tp = ek.optical_residual(tp, reps=600, seed=43)
    assert report_tp.status == "INCONCLUSIVE"
    assert 3.0 * report_tp.ci > report_tp.leading / 10.0
    assert ek.optical_residual(tp, reps=2000, seed=43).status == "PASS"


def test_optical_coefficient_is_deterministic():
    # A4 - tau^{-4} comes from the flow state, vanishing exactly at d=1 identity
    state = ek.flow_state(ek.identity_spectrum(100, 100), 0.0)
    assert abs(state.A[4] - state.tau_t ** -4) < 1e-12


def test_cancellation_twopoint_and_identity():
    tp = ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200), 0.5)
    report = ek.cancellation_check(tp, reps=600, seed=47)
    assert report.status == "PASS"
    assert report.residual <= report.leading / 10.0
    ident = ek.flow_state(ek.identity_spectrum(100, 100), 0.5)
    report_id = ek.cancellation_check(ident, reps=40, seed=48)
    assert report_id.leading == 0.0 and report_id.residual <= 1e-10
    assert report_id.status == "PASS"


def test_decoupling_identity():
    state = ek.flow_state(ek.identity_spectrum(200, 200), 0.0)
    report = ek.decoupling_residual(state, reps=2000, seed=51)
    assert report.status == "PASS"
    assert report.residual <= report.leading / 10.0


def test_decoupling_negative_control(monkeypatch):
    # the check has power: at green_mc's budget (identity N=200, 2000 replicates,
    # seed 7) it passes, and scaling the order-Psi^2 term c^2 X22 of every row's
    # rhs by 1.5 makes it fail
    state = ek.flow_state(ek.identity_spectrum(200, 200), 0.0)
    assert ek.decoupling_residual(state, reps=2000, seed=7).status == "PASS"
    base = green._decoupling_base

    def perturbed(args):
        triples = base(args)
        triples[:, 1] += 0.5 * triples[:, 2]
        return triples

    monkeypatch.setattr(green, "_decoupling_base", perturbed)
    assert ek.decoupling_residual(state, reps=2000, seed=7).status == "FAIL"


def test_decoupling_far_regime_scale_collapse():
    # far above the edge all Green entries deflate, so the order-Psi^2 lead
    # term collapses; the expansion itself is an edge-window statement and
    # carries no accuracy guarantee out there
    state = ek.flow_state(ek.identity_spectrum(200, 200), 0.0)
    edge = ek.decoupling_residual(state, reps=200, seed=51)
    far = ek.decoupling_residual(state, reps=200, seed=51, eps=-2.0 / 3.0)  # eta = N^0 = 1
    assert far.leading < edge.leading / 3.0


# (spectrum, t, seed, base, eta), with eta None for the edge window's; in the first
# case the base matrix has an eigenvalue within eta of Re z, where Tr G^4 of the
# rank-one update cancels most of the base's sum_j g_j^4; in the last the base is
# empty (M = 1)
_RANK_ONE_CASES = [
    (ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200), 0.5, 17, 54, None),
    (ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200), 0.5, 17, 2, None),
    (ek.two_point_spectrum(1.0, 2.0, 0.5, 150, 200), 0.5, 17, 0, None),
    (ek.identity_spectrum(200, 200), 0.0, 51, 0, None),
    (ek.identity_spectrum(200, 200), 0.0, 51, 0, 1.0),
    (ek.identity_spectrum(1, 20), 0.0, 51, 0, None),
]


def test_decoupling_rank_one_matches_dense():
    # each resampled row against a dense eigensolve of diag(lam) + t_alpha v v^T, with
    # lam the base's spectrum rebuilt from its reduced factor, entry by entry, and v
    # the next row of the base's stream
    per_base = 4
    for case, (spec, t, seed, base, eta) in enumerate(_RANK_ONE_CASES):
        state = ek.flow_state(spec, t)
        N, alpha = state.N, int(np.argmin(state.t_alpha))
        z = edge_window_z(state)
        if eta is not None:
            z = complex(z.real, eta)
        triples = green._decoupling_base((state, z, seed, base, per_base, alpha))
        rows = replicate_rng(seed, base << 32)
        lam = np.zeros(N)
        if state.M > 1:
            F = reduced_factor(np.delete(state.t_alpha, alpha), N, seed, 2 ** 63 + 1000 + base)
            lam[N - F.shape[1]:] = np.linalg.eigvalsh(F.T @ F)
        ta = state.t_alpha[alpha]
        dense = []
        for _ in range(per_base):
            v = rows.standard_normal(N) / np.sqrt(N)
            dense.append(decoupling_triple(np.diag(lam) + ta * np.outer(v, v), v, ta,
                                           state.tau_t, z))
        assert triples.shape == (per_base, 3)
        assert np.max(np.abs(triples - np.array(dense)) / np.abs(dense)) <= 1e-10, case
        if case == 0:
            assert np.min(np.abs(lam - z.real)) < z.imag


# flow states of the law tests: wide, square and tall two-point populations (the
# factor's Gram misses N - M zero eigenvalues for M < N) and a one-atom population.
# The small sizes are the sharp ones: a decoupling base with one row too many, or
# one too few, moves the law by O(1/N)
_LAW_STATES = {
    "twopoint-M=N": (ek.two_point_spectrum(1.0, 2.0, 0.5, 10, 10), 0.5),
    "twopoint-M<N": (ek.two_point_spectrum(1.0, 2.0, 0.5, 6, 10), 0.5),
    "twopoint-M>N": (ek.two_point_spectrum(1.0, 2.0, 0.5, 14, 10), 0.5),
    "identity": (ek.identity_spectrum(10, 10), 0.0),
}


@pytest.mark.parametrize("name", list(_LAW_STATES))
def test_x3_x4_replicates_match_dense_law(name):
    # two-sample KS of the flow checks' Re X3 and Re X4, drawn from the reduced factor,
    # against dense draws of X, at the 0.1% critical value
    state, reps = ek.flow_state(*_LAW_STATES[name]), 2000
    z = edge_window_z(state)
    X3, X4 = green._mc_x3_x4(state, z, reps, seed=71)
    dense = np.array([dense_x3_x4(state, z, 72, r) for r in range(reps)])
    bound = 1.95 * np.sqrt(2.0 / reps)
    assert ek.two_sample_ks(X3.real, dense[:, 0].real) < bound
    assert ek.two_sample_ks(X4.real, dense[:, 1].real) < bound


@pytest.mark.parametrize("name", ["twopoint-M=N", "twopoint-M<N", "identity"])
def test_decoupling_bases_match_dense_law(name):
    # two-sample KS of the per-base mean of lhs - rhs, the quantity the check averages,
    # with the base's eigenvalues from the reduced factor and v drawn directly, against
    # dense draws of the base and its eigenvectors, at the 0.1% critical value
    state, bases, per_base = ek.flow_state(*_LAW_STATES[name]), 2000, 2
    alpha, z = int(np.argmin(state.t_alpha)), edge_window_z(state)
    mine = np.array([green._decoupling_base((state, z, 73, b, per_base, alpha))
                     for b in range(bases)])
    dense = np.array([[dense_decoupling_replicate(state, z, 74, b, r, alpha)
                       for r in range(per_base)] for b in range(bases)])
    mine, dense = [(a[:, :, 0] - a[:, :, 1]).mean(axis=1) for a in (mine, dense)]
    bound = 1.95 * np.sqrt(2.0 / bases)
    assert ek.two_sample_ks(mine.real, dense.real) < bound
    assert ek.two_sample_ks(mine.imag, dense.imag) < bound


def test_green_draws_no_dense_gaussian_matrix(monkeypatch):
    # every Gaussian replicate in green is a reduced factor, reduced to its tridiagonal
    # or solved for its eigenvalues, or one resampled row: no eigenvectors, no M x N
    # normal draw, no workspace array
    text = Path(green.__file__).read_text()
    assert "eigh(" not in text and "workspace(" not in text and ".sample(" not in text
    sizes = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None, out=None):
            sizes.append(np.size(out) if out is not None else int(np.prod(size)))
            return self.rng.standard_normal(size, out=out)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(ensemble, "replicate_rng", lambda *key: Recording(replicate_rng(*key)))
    monkeypatch.setattr(green, "replicate_rng", lambda *key: Recording(replicate_rng(*key)))
    state = _twopoint_state(40)
    ek.flow_checks(state, reps=4, seed=1)
    ek.decoupling_residual(state, reps=20, seed=1)
    _compare_window(40, 4, 1, 1)
    assert sizes and max(sizes) < 40 * 40


@pytest.mark.parametrize("state, reps", [
    (ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 60, 60), 0.5), 40),
    (ek.flow_state(ek.identity_spectrum(60, 60), 0.5), 80),  # stationary: no bootstrap
], ids=["twopoint", "identity"])
def test_flow_checks_equal_separate_checks(state, reps):
    optical, cancellation = ek.flow_checks(state, reps=reps, seed=5)
    assert optical == ek.optical_residual(state, reps=reps, seed=5)
    assert cancellation == ek.cancellation_check(state, reps=reps, seed=5)


def _twopoint_state(n):
    return ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, n, n), 0.5)


def _compare_window(n, reps, seed, threads):
    w = 0.4 * n ** (-2.0 / 3.0 + 0.05)
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, n, n)
    return ek.comparison_functional(spec, -w, w, reps=reps, seed=seed, threads=threads)


_THREAD_CASES = {
    "optical_residual": lambda th: ek.optical_residual(_twopoint_state(60), reps=40, seed=5, threads=th),
    "cancellation_check": lambda th: ek.cancellation_check(_twopoint_state(60), reps=40, seed=5,
                                                           threads=th),
    "decoupling_residual": lambda th: ek.decoupling_residual(
        ek.flow_state(ek.identity_spectrum(80, 80), 0.0), reps=60, seed=5, threads=th),
    "comparison_functional": lambda th: _compare_window(60, 30, 5, th),
    "null_reference_W": lambda th: null_reference_W(60, 40, 30, seed=5, k=2, threads=th).raw.tolist(),
}


@pytest.mark.parametrize("name", list(_THREAD_CASES))
def test_threads_deterministic(name):
    # every replicate owns its stream, so the worker count cannot change a bit
    assert _THREAD_CASES[name](1) == _THREAD_CASES[name](2)


# Recorded at commit 5e6f55a, before green drew through ensemble's replicate
# engine; a change to any stream key moves these by O(ci).  The comparison was
# re-recorded when its null-reference draws moved from (seed + 1, r), the
# replicate family of the next seed, to their own family (seed, 2^62 + r), and
# again when those null draws (a constant population) moved to the Laguerre
# tridiagonal model: new draws with the same law.  All were re-recorded when
# green's Gaussian replicates moved from a dense X to the reduced factor, and
# decoupling bases to the (M - 1)-row factor with ten rows a base: new draws of
# the same law again.  The null-reference mean, a constant population, is unchanged.
# Every ci was re-recorded when the bootstrap gave way to the closed-form standard
# error, and the decoupling report when each base came to read 50 rows from one
# stream; no other value moved.
_PINNED_REPORTS = {
    "optical": (0.000767014642152631, 0.038249510381815885, 0.003302106392473953),
    "cancellation": (0.0026342751165514605, 0.5052076249421034, 0.010339241072154974),
    "decoupling": (0.001880921890121409, 0.010182068047919402, 0.0009177927416519232),
}
_PINNED_COMPARISON = (0.7405808935868902, 0.7424211815389078, -0.0018402879520176274,
                      0.04648770826265204)


def test_stream_layout_pinned():
    state = _twopoint_state(80)
    checks = {"optical": ek.optical_residual, "cancellation": ek.cancellation_check,
              "decoupling": ek.decoupling_residual}
    for name, check in checks.items():
        report = check(state, reps=120, seed=11)
        assert (report.residual, report.leading, report.ci) == pytest.approx(
            _PINNED_REPORTS[name], rel=1e-9), name
    assert _compare_window(80, 120, 13, 1) == pytest.approx(_PINNED_COMPARISON, rel=1e-9)


def test_decoupling_opens_two_streams_per_base(monkeypatch):
    # a frozen base's spectrum and its resampled rows: one stream each
    keys = []

    def recording_rng(seed, index):
        keys.append((seed, index))
        return replicate_rng(seed, index)

    monkeypatch.setattr(ensemble, "replicate_rng", recording_rng)
    monkeypatch.setattr(green, "replicate_rng", recording_rng)
    for state in (_twopoint_state(40), ek.flow_state(ek.identity_spectrum(40, 40), 0.0)):
        keys.clear()
        ek.decoupling_residual(state, reps=120, seed=3)
        bases = range(12)
        assert sorted(keys) == sorted([(3, ensemble.BASE_STREAM + b) for b in bases]
                                      + [(3, b << 32) for b in bases])


def test_optical_error_calibrated():
    # over 300 seeds of a small identity check, the spread of the estimate matches its
    # error bar: for an unbiased complex Gaussian mean, rms(residual) / worst-direction
    # ci lies in [1, sqrt(2)]; the band leaves room for the spread over 300 seeds
    state = ek.flow_state(ek.identity_spectrum(20, 20), 0.0)
    reports = [ek.flow_checks(state, reps=100, seed=seed)[0] for seed in range(1000, 1300)]
    rms = np.sqrt(np.mean([r.residual ** 2 for r in reports]))
    assert 0.9 <= rms / np.median([r.ci for r in reports]) <= 1.6


def test_comparison_functional_identity_null():
    spec = ek.identity_spectrum(150, 150)
    window = 150 ** (-2.0 / 3.0 + 0.05)
    mean_q, mean_w, gap, ci = ek.comparison_functional(
        spec, -0.4 * window, 0.4 * window, reps=250, seed=61)
    # same ensemble in law: gap compatible with zero at 3 sigma
    assert abs(gap) <= 3.0 * ci
    assert mean_q > 0 and mean_w > 0


def test_compare_seeds_share_no_draw(monkeypatch):
    # the null half once drew from (seed + 1, r), the Q-tilde half of the next seed
    keys = {}

    def recording_rng(seed, index):
        keys[run].add((seed, index))
        return replicate_rng(seed, index)

    # the Laguerre draws happen in ensemble; green opens no stream of its own here
    monkeypatch.setattr(ensemble, "replicate_rng", recording_rng)
    monkeypatch.setattr(green, "replicate_rng", recording_rng)
    spec = ek.identity_spectrum(60, 60)
    w = 0.4 * 60 ** (-2.0 / 3.0 + 0.05)
    results = {}
    for run in (9, 10):
        keys[run] = set()
        results[run] = ek.comparison_functional(spec, -w, w, reps=40, seed=run)
    assert len(keys[9]) == len(keys[10]) == 80  # 2 x 40 draws
    assert not keys[9] & keys[10]
    assert results[9][1] != results[10][0]  # mean_W at seed 9, mean_Q at seed 10


@pytest.mark.parametrize("M, N", [(150, 200), (200, 200), (250, 200)],
                         ids=["M<N", "M=N", "M>N"])
def test_tridiagonal_trace_matches_dense_eigenvalues(M, N):
    # the Taylor pivot recurrence against sum_j (lambda_j - z)^{-k} over a dense eigensolve
    # of the same tridiagonal matrices, around the edge: the Laguerre tridiagonals of an
    # identity population and the dsytrd ones of a two-point population's factors (for
    # M < N, N - M of their rows are zero).  Powers 1..4 down to about the edge window's
    # eta (0.022 at N = 200); below it only power 1, since an eigenvalue's rounding moves
    # the k-th power's sum by about eta^{-k-1} in both computations
    two_point = ek.two_point_spectrum(1.0, 2.0, 0.5, M, N)
    for d, e in (laguerre_tridiagonals(M, N, 7, range(4)),
                 ensemble.gaussian_tridiagonals(two_point, 7, range(4))):
        lam = np.array([np.linalg.eigvalsh(np.diag(dr) + np.diag(er, 1) + np.diag(er, -1))
                        for dr, er in zip(d.T, e.T)])
        edge = lam.max(axis=1).mean()
        # (eta, the bound for power 1, then for powers 2..4 where they are checked)
        for eta, bounds in ((1.0, (1e-12, 1e-10)), (0.02, (1e-12, 1e-10)), (1e-3, (1e-9,)),
                            (1e-6, (1e-9,))):
            z = edge + np.linspace(-0.1, 0.1, 9) + 1j * eta
            powers = 4 if len(bounds) == 2 else 1
            got = green._tridiagonal_trace(d, e, z, powers)
            assert got.shape == (4, 9, powers)
            for k in range(1, powers + 1):
                want = (1.0 / (lam[:, :, None] - z) ** k).sum(axis=1)
                err = np.max(np.abs(got[:, :, k - 1] - want) / np.abs(want))
                assert err <= bounds[min(k, 2) - 1], (eta, k)


def test_comparison_functional_degenerate():
    spec = ek.identity_spectrum(100, 100)
    assert ek.comparison_functional(spec, 0.01, 0.01, reps=10, seed=1) == (0.0, 0.0, 0.0, 0.0)


def test_comparison_functional_window_enforced():
    spec = ek.identity_spectrum(100, 100)
    with pytest.raises(DomainRejectionError):
        ek.comparison_functional(spec, -0.5, 0.5, reps=10, seed=1)


def test_one_draw_has_no_error_bar():
    # one replicate carries no estimate of its own spread: ci is infinite, and the
    # verdict cannot be resolved
    optical = ek.optical_residual(_twopoint_state(40), reps=1, seed=3)
    assert optical.ci == float("inf") and optical.status == "INCONCLUSIVE"


def test_report_json_schema():
    state = ek.flow_state(ek.identity_spectrum(60, 60), 0.0)
    report = ek.optical_residual(state, reps=50, seed=3)
    payload = report.to_dict()
    assert set(payload) == {"check", "N", "t", "leading", "residual", "ci", "status"}

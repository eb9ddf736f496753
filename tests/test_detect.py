import numpy as np
import pytest

import edgekit as ek
from edgekit import detect as detect_mod
from edgekit.detect import detect
from edgekit import ensemble
from edgekit.ensemble import replicate_rng
from edgekit.errors import DomainRejectionError

from oracles import null_reference_W, reduced_factor

# median of the N=400 GOE gap-ratio table at 5000 replicates, seed 0, from the
# tridiagonal sampler; over seeds 0-11 these medians have mean 1.3134 and SD
# 0.0185, and the dense sampler's seed-0 median (1.310372784635) lies 0.16 SD
# from that mean
R_TABLE_MEDIAN_N400 = 1.31679476856872


def test_r_statistic_arithmetic():
    assert ek.r_statistic(3.0, 2.0, 1.0) == 1.0
    assert ek.r_statistic(5.0, 2.0, 1.0) == 3.0


def test_r_statistic_degenerate_gap():
    with pytest.raises(DomainRejectionError, match="degenerate"):
        ek.r_statistic(3.0, 1.0, 1.0)
    with pytest.raises(DomainRejectionError, match="ordered"):
        ek.r_statistic(1.0, 2.0, 3.0)


def test_r_statistic_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mus = np.sort(rng.standard_normal(3))[::-1]
        if mus[1] - mus[2] < 1e-12:
            continue
        r0 = ek.r_statistic(*mus)
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        r1 = ek.r_statistic(*(a * mus + b))
        assert r1 == pytest.approx(r0, rel=1e-12)


def test_calibrate_null_shape_and_cache():
    table = ek.calibrate_null(60, 1000, seed=4)
    assert table.size == 1000
    assert np.all(np.isfinite(table)) and np.all(table > 0)
    assert np.all(np.diff(table) >= 0)
    again = ek.calibrate_null(60, 1000, seed=4)
    assert np.array_equal(table, again)


def test_calibrate_null_requires_resolution():
    with pytest.raises(DomainRejectionError):
        ek.calibrate_null(60, 500, seed=1)


def test_table_median_regression():
    table = ek.calibrate_null(400, 5000, seed=0)
    assert np.median(table) == pytest.approx(R_TABLE_MEDIAN_N400, abs=1e-9)


@pytest.mark.parametrize("M, N", [(20, 30), (30, 30), (40, 30)], ids=["M<N", "M=N", "M>N"])
def test_observed_top3_constant_population_wiring(M, N):
    # c I is drawn like every population: the reduced factor of stream (seed, 2^63 + 2), built
    # here entry by entry; for one run of equal sigma it is the Laguerre bidiagonal, and its
    # law is checked in test_gaussian_replicates_match_dense_law
    spec = ek.load_spectrum(f"twopoint:a=2.5,b=2.5,w=0.5,M={M},N={N}")
    F = reduced_factor(spec.eigenvalues, N, 7, 2 ** 63 + 2)
    exact = np.linalg.eigvalsh(F.T @ F)[::-1][:3]
    mus = detect_mod.observed_top3(spec, 7)
    assert np.max(np.abs(mus - exact)) <= 1e-13 * exact[0]


def test_observed_top3_dense_population_unchanged():
    # any other population is the Gaussian replicate (seed, 2^63 + 2) of the engine: the
    # top of F^T F for the reduced factor F, built here entry by entry from its stream.
    # The engine draws X itself only for entry laws without orthogonal invariance
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, 40, 30)
    F = reduced_factor(spec.eigenvalues, 30, 7, 2 ** 63 + 2)
    exact = np.linalg.eigvalsh(F.T @ F)[::-1][:3]
    assert np.max(np.abs(detect_mod.observed_top3(spec, 7) - exact)) <= 1e-13 * exact[0]
    for kind in ("rademacher", "skewed-two-point"):
        config = ek.EnsembleConfig(spec, entries=ek.EntryDistribution(kind=kind), k=3, seed=7)
        dense = ek.top_eigenvalues(ek.sample_data_matrix(config, 0), spec, 3)
        assert np.array_equal(ensemble.covariance_replicate((config, 0)), dense)
    with pytest.raises(DomainRejectionError):
        detect_mod.observed_top3(ek.identity_spectrum(2, 30), 7)


@pytest.mark.parametrize("M, N", [(60, 80), (80, 80), (100, 80)], ids=["M<N", "M=N", "M>N"])
def test_observed_top3_is_the_engine_replicate(M, N):
    # the observed top 3 are the engine's replicate (seed, 2^63 + 2), which forms the
    # factor's Gram and solves it by dsyevr, bit for bit
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, M, N)
    config = ek.EnsembleConfig(spec, k=3, seed=3)
    engine = ensemble.covariance_replicate((config, 2 ** 63 + 2))
    assert np.array_equal(detect_mod.observed_top3(spec, 3), engine)


def test_observed_draw_shares_no_stream_with_the_table(monkeypatch):
    # the observed draw once read (seed, 0), replicate 0 of the null table at --table-seed seed
    keys = []

    def recording_rng(seed, index):
        keys.append((seed, index))
        return replicate_rng(seed, index)

    monkeypatch.setattr(ensemble, "replicate_rng", recording_rng)
    table = detect_mod.calibrate_null(60, 1000, seed=5)  # --table-seed 5
    assert set(keys) == {(5, r) for r in range(1000)}
    for spectrum in ("identity:M=60,N=60", "twopoint:a=1,b=2,w=0.5,M=60,N=60"):
        keys.clear()
        mus = detect_mod.observed_top3(ek.load_spectrum(spectrum), 5)  # --seed 5
        assert keys == [(5, 2 ** 63 + 2)], spectrum
        assert detect(*mus, table).n_null == 1000


def test_p_value_tails_and_median():
    table = np.sort(np.linspace(0.1, 10.0, 999))
    assert ek.p_value(0.01, table) == pytest.approx(1.0, abs=1e-3)
    assert ek.p_value(99.0, table) == pytest.approx(1.0 / 1000.0)
    assert ek.p_value(float(np.median(table)), table) == pytest.approx(0.5, abs=1.5 / 999)


def test_null_p_values_uniform(tw_reference):
    # smaller-N rendition of the acceptance check
    N, trials = 150, 300
    table = ek.calibrate_null(N, 2000, seed=11)
    spec = ek.identity_spectrum(N, N)
    pvals = np.empty(trials)
    for trial in range(trials):
        config = ek.EnsembleConfig(spec, replicates=trials, k=3, seed=13)
        mus = ek.top_eigenvalues(ek.sample_data_matrix(config, trial), spec, 3)
        pvals[trial] = detect(mus[0], mus[1], mus[2], table).p_value
    x = np.sort(pvals)
    i = np.arange(1, trials + 1)
    ks = max(np.max(i / trials - x), np.max(x - (i - 1) / trials))
    assert ks < 0.10


def test_spike_power_smoke():
    N = 150
    table = ek.calibrate_null(N, 2000, seed=11)
    spiked = ek.PopulationSpectrum(np.r_[4.0, np.ones(N - 1)], N, N)
    pvals = []
    for trial in range(60):
        config = ek.EnsembleConfig(spiked, replicates=60, k=3, seed=17)
        mus = ek.top_eigenvalues(ek.sample_data_matrix(config, trial), spiked, 3)
        pvals.append(detect(mus[0], mus[1], mus[2], table).p_value)
    assert np.median(pvals) < 0.05


def test_covariance_null_table_diagnostic():
    # the covariance-null gap-ratio table agrees with the GOE table in law
    goe = ek.calibrate_null(150, 2000, seed=11)
    tops = null_reference_W(150, 150, 2000, seed=12, k=3).raw
    cov = np.sort((tops[:, 0] - tops[:, 1]) / (tops[:, 1] - tops[:, 2]))
    xy = np.sort(np.concatenate([goe, cov]))
    Fg = np.searchsorted(goe, xy, side="right") / goe.size
    Fc = np.searchsorted(cov, xy, side="right") / cov.size
    assert np.max(np.abs(Fg - Fc)) < 0.08

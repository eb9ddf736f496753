import numpy as np
import pytest

import edgekit as ek
from edgekit.errors import DomainRejectionError

from oracles import brentq_xi, edge_quantities

SQRT2 = np.sqrt(2.0)

# two-point(1,2,1/2), d=1: pinned by the brentq bisection oracle before the build
TP_XI = 0.2877129438687697
TP_E = 6.53295209641218
TP_GAMMA0 = 0.218672703808301


def test_identity_descriptor(identity100):
    spec = ek.load_spectrum("identity:M=100,N=100")
    assert spec.M == spec.N == 100
    assert np.all(spec.eigenvalues == 1.0)
    assert spec.d == 1.0


def test_file_parse_and_sort(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# N=8\n1\n2\n1\n2\n")
    spec = ek.load_spectrum(path)
    assert list(spec.eigenvalues) == [2.0, 2.0, 1.0, 1.0]
    assert spec.d == 2.0


def test_twopoint_descriptor_expansion():
    spec = ek.parse_descriptor("twopoint:a=1,b=2,w=0.5,M=4,N=4")
    assert list(spec.eigenvalues) == [2.0, 2.0, 1.0, 1.0]
    assert spec.d == 1.0


def test_rejections(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# N=4\n1.0\n-2.0\n")
    with pytest.raises(DomainRejectionError, match="non-positive eigenvalue"):
        ek.load_spectrum(bad)
    with pytest.raises(DomainRejectionError):
        ek.PopulationSpectrum(np.ones(3), 3, 0)
    with pytest.raises(DomainRejectionError):
        ek.PopulationSpectrum(np.ones(3), 0, 3)
    with pytest.raises(DomainRejectionError):
        ek.load_spectrum("identity:M=100")  # missing N


def test_xi_plus_identity(identity100, identity_d2):
    assert ek.solve_xi_plus(identity100) == pytest.approx(0.5, abs=1e-12)
    # closed form sqrt(d)/(1+sqrt(d)), cross-checked by the bisection oracle
    closed = SQRT2 / (1.0 + SQRT2)
    xi = ek.solve_xi_plus(identity_d2)
    assert xi == pytest.approx(closed, abs=1e-12)
    assert xi == pytest.approx(brentq_xi(identity_d2.eigenvalues, 2.0), abs=1e-12)


def test_xi_plus_twopoint(twopoint200):
    xi = ek.solve_xi_plus(twopoint200)
    assert xi == pytest.approx(TP_XI, abs=1e-10)
    assert xi == pytest.approx(brentq_xi(twopoint200.eigenvalues, 1.0), abs=1e-12)


def test_residual_and_interval_contract(twopoint200):
    tol = 1e-12
    xi = ek.solve_xi_plus(twopoint200, tol)
    f = twopoint200.moment(lambda s: (s * xi / (1 - s * xi)) ** 2) - twopoint200.d
    assert abs(f) <= tol
    assert 0.0 < xi < 1.0 / twopoint200.sigma1


def test_edge_location(identity100, identity_d2, twopoint200):
    assert ek.edge_location(identity100, 0.5) == pytest.approx(4.0, abs=1e-12)
    xi2 = ek.solve_xi_plus(identity_d2)
    assert ek.edge_location(identity_d2, xi2) == pytest.approx((1 + SQRT2) ** 2 / 2, abs=1e-12)
    xi_tp = ek.solve_xi_plus(twopoint200)
    assert ek.edge_location(twopoint200, xi_tp) == pytest.approx(TP_E, abs=1e-10)


def test_scaling_factor(identity100, identity_d2, twopoint200):
    xi = ek.solve_xi_plus(identity100)
    assert ek.scaling_factor(identity100, xi) == pytest.approx(2.0 ** (-4.0 / 3.0), abs=1e-12)
    xi2 = ek.solve_xi_plus(identity_d2)
    assert ek.scaling_factor(identity_d2, xi2) == pytest.approx(SQRT2 * (1 + SQRT2) ** (-4.0 / 3.0), abs=1e-12)
    xi_tp = ek.solve_xi_plus(twopoint200)
    assert ek.scaling_factor(twopoint200, xi_tp) == pytest.approx(TP_GAMMA0, abs=1e-10)


def test_subcriticality(identity100, twopoint200):
    report = ek.check_subcritical(identity100, 0.5)
    assert report.margin == pytest.approx(0.5, abs=1e-12)
    assert report.subcritical
    xi_tp = ek.solve_xi_plus(twopoint200)
    assert ek.check_subcritical(twopoint200, xi_tp).margin > 0
    # mismatched critical point drives the margin non-positive: rejection path
    spiked = ek.PopulationSpectrum(np.r_[4.0, np.ones(99)], 100, 100)
    report = ek.check_subcritical(spiked, 0.5)
    assert report.margin < 0 and not report.subcritical
    with pytest.raises(DomainRejectionError, match="not subcritical"):
        ek.edge_params(spiked, margin_threshold=0.2, require_subcritical=True)


def test_scale_covariance():
    # c*Sigma maps xi -> xi/c, E -> c E, gamma0 -> gamma0/c
    rng = np.random.default_rng(11)
    for trial in range(5):
        eigs = np.sort(rng.uniform(0.5, 1.5, 60))[::-1]
        spec = ek.PopulationSpectrum(eigs, 60, 90)
        base = ek.edge_params(spec)
        c = rng.uniform(0.2, 5.0)
        scaled = ek.edge_params(spec.scaled(c))
        assert scaled.xi_plus == pytest.approx(base.xi_plus / c, rel=1e-10)
        assert scaled.E_plus == pytest.approx(base.E_plus * c, rel=1e-10)
        assert scaled.gamma0 == pytest.approx(base.gamma0 / c, rel=1e-10)


def test_determinism(twopoint200):
    a = ek.edge_params(twopoint200)
    b = ek.edge_params(twopoint200)
    assert (a.xi_plus, a.E_plus, a.gamma0) == (b.xi_plus, b.E_plus, b.gamma0)


def test_twopoint_matches_plugin_oracle(twopoint200):
    xi_o, e_o, g_o = edge_quantities(twopoint200.eigenvalues, 1.0)
    params = ek.edge_params(twopoint200)
    assert params.xi_plus == pytest.approx(xi_o, abs=1e-12)
    assert params.E_plus == pytest.approx(e_o, abs=1e-11)
    assert params.gamma0 == pytest.approx(g_o, abs=1e-12)


def test_uniform_descriptor_and_file_roundtrip(tmp_path):
    spec = ek.parse_descriptor("uniform:lo=0.5,hi=1.5,M=11,N=22")
    assert spec.eigenvalues[0] == 1.5 and spec.eigenvalues[-1] == 0.5
    path = tmp_path / "roundtrip.txt"
    path.write_text("\n".join([f"# N={spec.N}"] + [repr(float(v)) for v in spec.eigenvalues]) + "\n")
    back = ek.load_spectrum(path)
    assert np.array_equal(back.eigenvalues, spec.eigenvalues)
    assert back.N == spec.N

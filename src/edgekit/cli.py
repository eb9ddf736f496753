"""Command-line front end.

Every command is a pure function of (flags, input files, seed): identical
invocations write byte-identical outputs, independent of --threads.  Each run
echoes a manifest.json next to its outputs; `edgekit rerun manifest.json`
reproduces the run.

Exit codes: 0 ok, 1 usage, 2 domain rejection, 3 convergence failure,
4 verification FAIL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import detect as detect_mod
from . import green
from .ensemble import ENTRY_KINDS, EnsembleConfig, EntryDistribution, ks_statistic, run_monte_carlo
from .errors import ConvergenceError, DomainRejectionError
from .flow import coefficient_identities_check, flow_state, zdot_check
from .population import SUBCRITICAL_MARGIN_DEFAULT, edge_params, load_spectrum
from .stieltjes import density
from .tracy_widom import cached_tw_table

EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_CONVERGENCE, EXIT_VERIFY = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_manifest(out: Path, command: str, params: dict, seed) -> None:
    manifest = {"command": command, "parameters": params, "seed": seed, "out": str(out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest_params(args, skip=("func", "command", "out", "threads")) -> dict:
    # threads is omitted: results are independent of it, and manifests must be
    # byte-identical across --threads values
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


def cmd_edge(args) -> int:
    spec = load_spectrum(args.spectrum)
    params = edge_params(spec, tol=args.tol)
    payload = dict(params.as_dict(), M=spec.M, N=spec.N, d=spec.d,
                   subcritical=params.margin > args.margin_threshold)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    out = _outdir(args)
    (out / "edge.json").write_text(text + "\n")
    _write_manifest(out, "edge", _manifest_params(args), None)
    if not payload["subcritical"]:
        sys.stderr.write("spectrum is supercritical: edge statistics out of scope\n")
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_density(args) -> int:
    spec = load_spectrum(args.spectrum)
    grid = np.linspace(args.emin, args.emax, args.points)
    curve = density(spec, grid, eta0=args.eta0)
    out = _outdir(args)
    curve.to_csv(out / "density.csv")
    failed = curve.E[np.isnan(curve.rho)]
    if failed.size:
        shown = ", ".join(repr(float(e)) for e in failed[:5])
        sys.stderr.write(f"{failed.size} grid points failed to converge (NaN sentinel in CSV), "
                         f"first at E = {shown}{', ...' if failed.size > 5 else ''}\n")
    _write_manifest(out, "density", _manifest_params(args), None)
    print(f"density: {args.points} points, mass={curve.mass():.6f}, failures={failed.size}")
    return EXIT_OK


def cmd_tw_table(args) -> int:
    table = cached_tw_table(args.smin, args.smax, args.step)
    out = _outdir(args)
    table.to_csv(out / "tw_table.csv")
    _write_manifest(out, "tw-table", _manifest_params(args), None)
    print(f"tw-table: {table.grid.size} rows on [{args.smin}, {args.smax}]")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_spectrum(args.spectrum)
    config = EnsembleConfig(spec, entries=EntryDistribution(kind=args.entries),
                            replicates=args.reps, k=args.k, seed=args.seed)
    samples = run_monte_carlo(config, threads=args.threads)
    out = _outdir(args)
    samples.to_csv(out / "samples.csv")
    _write_manifest(out, "simulate", _manifest_params(args), args.seed)
    print(f"simulate: {args.reps} replicates, k={args.k}, N={spec.N}")
    if args.ks:
        table = cached_tw_table()
        report = ks_statistic(np.sort(samples.column(0)), table.grid, table.F1, reference="tw_table_F1")
        (out / "ks.json").write_text(report.to_json() + "\n")
        print(f"ks: statistic={report.statistic:.4f} (n={report.n})")
    return EXIT_OK


_SHARED_SAMPLE_KINDS = ("optical", "cancellation")  # the order of green.flow_checks' reports
_CHECK_KINDS = _SHARED_SAMPLE_KINDS + ("decoupling", "sum_rules")


def _check_key(index: int, item) -> tuple:
    """(spectrum, t, reps, seed, eta_exp) of manifest item `index`, with the defaults
    filled in; a malformed item is rejected by its index."""
    where = f"check manifest item {index}"
    if not (isinstance(item, dict) and item.get("check") in _CHECK_KINDS
            and isinstance(item.get("spectrum"), str)):
        raise DomainRejectionError(f"{where} needs a 'check' among {', '.join(_CHECK_KINDS)} "
                                   f"and a 'spectrum' string, got {json.dumps(item)}")
    try:
        key = (item["spectrum"], float(item.get("t", 0.0)), int(item.get("reps", 2000)),
               int(item.get("seed", 0)), float(item.get("eta_exp", green.DEFAULT_EPS)))
    except (TypeError, ValueError) as exc:
        raise DomainRejectionError(f"{where}: t, reps, seed and eta_exp must be numbers ({exc})") from None
    if key[2] < 1:
        raise DomainRejectionError(f"{where}: reps must be positive, got {key[2]}")
    return key


def _run_one_check(kind: str, key: tuple, threads: int) -> green.CheckReport:
    spectrum, t, reps, seed, eps = key
    spec = load_spectrum(spectrum)
    state = flow_state(spec, t)
    if kind == "decoupling":
        return green.decoupling_residual(state, reps, seed, eps=eps, threads=threads)
    # sum_rules; the shared-sample kinds go through green.flow_checks
    r1, r2 = state.sum_rule_residuals()
    c1, c2 = coefficient_identities_check(state)
    zres = zdot_check(spec, max(t, 1e-3))
    resid = max(r1, r2, c1, c2)
    status = "PASS" if resid <= 1e-9 and zres <= 1e-6 else "FAIL"
    return green.CheckReport("sum_rules", spec.N, t, 1.0, resid, 0.0, status)


def cmd_flow_verify(args) -> int:
    items = json.loads(Path(args.manifest).read_text())
    if not isinstance(items, list):
        raise DomainRejectionError("check manifest must be a JSON list")
    keys = [_check_key(index, item) for index, item in enumerate(items)]
    # optical and cancellation items with one key read one sample: the first
    # such item runs green.flow_checks for its group, the others take its reports
    groups = {}
    reports = []
    for item, key in zip(items, keys):
        kind = item["check"]
        if kind not in _SHARED_SAMPLE_KINDS:
            reports.append(_run_one_check(kind, key, args.threads))
            continue
        if key not in groups:
            spectrum, t, reps, seed, eps = key
            groups[key] = green.flow_checks(flow_state(load_spectrum(spectrum), t), reps, seed,
                                            eps=eps, threads=args.threads)
        reports.append(groups[key][_SHARED_SAMPLE_KINDS.index(kind)])
    out = _outdir(args)
    payload = [r.to_dict() for r in reports]
    (out / "flow_verify.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "flow-verify", _manifest_params(args), None)
    n_fail = 0
    for r in reports:
        print(f"{r.status:12s} {r.check:12s} N={r.N} t={r.t} residual={r.residual:.4g} "
              f"leading={r.leading:.4g} ci={r.ci:.2g}")
        n_fail += r.status == "FAIL"
    print(f"summary: {len(reports)} checks, {n_fail} FAIL")
    return EXIT_VERIFY if n_fail else EXIT_OK


def cmd_detect(args) -> int:
    spec = load_spectrum(args.spectrum)
    table_N = args.table_N if args.table_N is not None else spec.N
    table = detect_mod.calibrate_null(table_N, args.null_reps, args.table_seed)
    table_id = f"goe_R_N{table_N}_n{args.null_reps}_seed{args.table_seed}"
    mus = detect_mod.observed_top3(spec, args.seed)
    result = detect_mod.detect(mus[0], mus[1], mus[2], table, table_id=table_id)
    out = _outdir(args)
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    (out / "detect.json").write_text(text + "\n")
    _write_manifest(out, "detect", _manifest_params(args), args.seed)
    print(text)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = load_spectrum(args.spectrum)
    window = green.edge_window(spec.N, args.eta_exp)[0]
    e1 = args.E1 if args.E1 is not None else -0.5 * window
    e2 = args.E2 if args.E2 is not None else 0.5 * window
    mean_q, mean_w, gap, ci = green.comparison_functional(
        spec, e1, e2, args.reps, args.seed, eps=args.eta_exp, threads=args.threads)
    out = _outdir(args)
    payload = {"mean_Q": mean_q, "mean_W": mean_w, "gap": gap, "ci": ci, "E1": e1, "E2": e2}
    (out / "compare.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "compare", _manifest_params(args), args.seed)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest_path).read_text())
    params = dict(manifest["parameters"])
    # simulate and compare once took --N; the spectrum now fixes it
    legacy_n = params.pop("N", None)
    if legacy_n is not None and legacy_n != load_spectrum(params["spectrum"]).N:
        raise DomainRejectionError(
            f"manifest parameter N={legacy_n} differs from the N of spectrum {params['spectrum']!r}")
    argv = [manifest["command"]]
    for key, value in sorted(params.items()):
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    argv += ["--out", manifest["out"]]
    return main(argv)


def _add_common(p, seed=True):
    p.add_argument("--out", default="edgekit_out", help="output directory")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="edgekit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edge", help="deterministic edge quantities of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--margin-threshold", type=float, default=SUBCRITICAL_MARGIN_DEFAULT,
                   help="subcriticality margin required by edge workflows")
    p.add_argument("--out", default="edgekit_out")
    p.set_defaults(func=cmd_edge)

    p = sub.add_parser("density", help="deformed MP density on a grid")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--eta0", type=float, default=1e-6)
    p.add_argument("--out", default="edgekit_out")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("tw-table", help="tabulate Tracy-Widom F1/F2")
    p.add_argument("--smin", type=float, default=-10.0)
    p.add_argument("--smax", type=float, default=6.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default="edgekit_out")
    p.set_defaults(func=cmd_tw_table)

    p = sub.add_parser("simulate", help="Monte Carlo rescaled edge samples")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--entries", default="gaussian", choices=ENTRY_KINDS)
    p.add_argument("--ks", action="store_true", help="emit a KS report against the Tracy-Widom F1 table")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flow-verify", help="run a JSON manifest of flow/Green checks")
    p.add_argument("--manifest", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_flow_verify)

    p = sub.add_parser("detect", help="gap-ratio signal detection on one draw")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--table-N", type=int, default=None,
                   help="N of the GOE null table, built on each run; defaults to the spectrum's N")
    p.add_argument("--null-reps", type=int, default=2000)
    p.add_argument("--table-seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("compare", help="Green-function comparison functional Q-tilde vs null")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--E1", type=float, default=None)
    p.add_argument("--E2", type=float, default=None)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--eta-exp", type=float, default=green.DEFAULT_EPS)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rerun", help="reproduce a run from its manifest")
    p.add_argument("manifest_path")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainRejectionError as exc:
        sys.stderr.write(f"domain rejection: {exc}\n")
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE
    except FileNotFoundError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

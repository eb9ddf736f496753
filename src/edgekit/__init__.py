"""edgekit: edge statistics of general-population sample covariance matrices.

The namespace is lazy (PEP 562): `import edgekit` loads no submodule and no
numpy.  A public name, or a submodule such as `edgekit.stieltjes`, is imported
on first use from the module that `_PUBLIC` lists it under.
"""

import importlib

# module -> the public names it exports; every module is a public name too
_PUBLIC = {
    "errors": ("ConvergenceError", "DomainRejectionError"),
    "defaults": (),
    "population": ("EdgeParams", "PopulationSpectrum", "check_subcritical", "edge_location",
                   "edge_params", "identity_spectrum", "load_spectrum", "parse_descriptor",
                   "scaling_factor", "solve_xi_plus", "two_point_spectrum", "uniform_spectrum"),
    "stieltjes": ("DensityCurve", "StieltjesValue", "density", "edge_exponent_probe",
                  "mp_reference", "solve_mfc"),
    "tracy_widom": ("PainleveSolution", "TWTable", "airy_kernel_f2", "hastings_mcleod",
                    "tw_cdf", "tw_table"),
    "ensemble": ("EdgeSamples", "EnsembleConfig", "EntryDistribution", "KsReport",
                 "ks_statistic", "rescale_edge", "run_monte_carlo", "sample_data_matrix",
                 "sample_goe_top", "smoothed_count", "top_eigenvalues", "two_sample_ks"),
    "flow": ("FlowState", "coefficient_identities_check", "flow_state", "zdot_check"),
    "green": ("CheckReport", "GreenObservables", "Linearization", "build_linearization",
              "cancellation_check", "comparison_functional", "decoupling_residual",
              "flow_checks", "local_law_probe", "observables", "optical_residual",
              "verify_schur", "ward_check"),
    "detect": ("DetectionResult", "calibrate_null", "p_value", "r_statistic"),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

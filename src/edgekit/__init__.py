"""edgekit: edge statistics of general-population sample covariance matrices."""

from .errors import ConvergenceError, DomainRejectionError
from .population import (EdgeParams, PopulationSpectrum, check_subcritical, edge_location,
                         edge_params, identity_spectrum, load_spectrum, parse_descriptor,
                         scaling_factor, solve_xi_plus, two_point_spectrum, uniform_spectrum)
from .stieltjes import DensityCurve, StieltjesValue, density, edge_exponent_probe, mp_reference, solve_mfc
from .tracy_widom import PainleveSolution, TWTable, airy_kernel_f2, hastings_mcleod, tw_cdf, tw_table
from .ensemble import (EdgeSamples, EnsembleConfig, EntryDistribution, KsReport, ks_statistic,
                       rescale_edge, run_monte_carlo, sample_data_matrix, sample_goe_top,
                       smoothed_count, top_eigenvalues, two_sample_ks)
from .flow import FlowState, coefficient_identities_check, flow_state, zdot_check
from .green import (CheckReport, GreenObservables, Linearization, build_linearization,
                    cancellation_check, comparison_functional, decoupling_residual,
                    flow_checks, local_law_probe, observables, optical_residual, verify_schur,
                    ward_check)
from .detect import DetectionResult, calibrate_null, p_value, r_statistic

__version__ = "0.1.0"

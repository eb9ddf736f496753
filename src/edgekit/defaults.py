"""Defaults that the CLI's parser and the library share.

This module imports nothing, so `cli` can build its parser without loading
numpy or any numerical module; the library modules import these names from here.
"""

ENTRY_KINDS = ("gaussian", "rademacher", "skewed-two-point")  # laws of sqrt(N) x_ij
SUBCRITICAL_MARGIN_DEFAULT = 1e-6  # 1 - sigma_1 xi_plus above which a spectrum is subcritical
DEFAULT_EPS = 0.05  # the exponent eps of green's edge window N^{-2/3 +- eps}

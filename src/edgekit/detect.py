"""Signal detection via the pivotal eigenvalue-gap ratio R = (mu1-mu2)/(mu2-mu3).

R is invariant under affine rescaling of the eigenvalues, so the unknown edge
location and scaling factor drop out under the null hypothesis; its null law
is approximated by GOE top-3 simulation at the requested N.  Pivotality is
only asymptotic, so a table belongs to one N.  Tables are rebuilt on every
call, never read from disk, so the output depends only on the flags: a few
thousand tridiagonal GOE draws go through one vectorized Sturm bisection
(`ensemble.tridiagonal_top`), which halves on the leading ~16 N^{1/3} rows of
each draw and certifies the result with one count over all N rows, so the
table is that of the full matrices, bit for bit.  The observed draw is a
replicate of the Monte Carlo engine (`ensemble.covariance_replicate`, k = 3)
on a stream that no table reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainRejectionError
from .ensemble import (OBSERVED_STREAM, EnsembleConfig, covariance_replicate, map_replicates,
                       sample_goe_top)
from .population import PopulationSpectrum

_GAP_EPS = 1e-14


@dataclass(frozen=True)
class DetectionResult:
    R: float
    p_value: float
    null_table_id: str
    n_null: int

    def to_dict(self) -> dict:
        return {"R": self.R, "p_value": self.p_value,
                "null_table_id": self.null_table_id, "n_null": self.n_null}


def r_statistic(mu1: float, mu2: float, mu3: float) -> float:
    if not (mu1 >= mu2 >= mu3):
        raise DomainRejectionError(f"eigenvalues must be ordered, got {mu1}, {mu2}, {mu3}")
    gap = mu2 - mu3
    if gap <= _GAP_EPS:
        raise DomainRejectionError(f"degenerate lower gap mu2 - mu3 = {gap:.3e}")
    return (mu1 - mu2) / gap


def calibrate_null(N: int, replicates: int, seed: int) -> np.ndarray:
    """Sorted null table of R from GOE top-3 simulation."""
    if replicates < 1000:
        raise DomainRejectionError("need >= 1000 replicates for 1e-3 p-value resolution")
    tops = sample_goe_top(N, 3, replicates, seed).raw
    return np.sort((tops[:, 0] - tops[:, 1]) / (tops[:, 1] - tops[:, 2]))


def _observed_draw(config: EnsembleConfig) -> np.ndarray:
    return covariance_replicate((config, OBSERVED_STREAM))


_observed_draw.job_name = "observed draw"  # how map_replicates names a failed job


def observed_top3(spec: PopulationSpectrum, seed: int) -> np.ndarray:
    """Top 3 eigenvalues of X^* Sigma X for the Gaussian draw from stream
    (seed, OBSERVED_STREAM), which no null table reads.

    The draw is `ensemble.covariance_replicate` at k = 3, the replicate a
    simulation reads: the Gram of a reduced factor, solved for its top 3 alone,
    with no scipy loaded.  It runs as one job of `map_replicates`, under the
    BLAS pin.
    """
    config = EnsembleConfig(spec, replicates=1, k=3, seed=seed)  # rejects min(M, N) < 3
    return map_replicates(_observed_draw, [config], 1)[0]


def p_value(R: float, table: np.ndarray) -> float:
    """Conservative add-one empirical right-tail probability."""
    table = np.asarray(table, dtype=float)
    if table.size == 0:
        raise DomainRejectionError("empty null table")
    n = table.size
    return (float(np.sum(table >= R)) + 1.0) / (n + 1.0)


def detect(mu1: float, mu2: float, mu3: float, table: np.ndarray,
           table_id: str = "goe") -> DetectionResult:
    R = r_statistic(mu1, mu2, mu3)
    return DetectionResult(R=R, p_value=p_value(R, table),
                           null_table_id=table_id, n_null=int(np.asarray(table).size))

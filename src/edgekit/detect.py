"""Signal detection via the pivotal eigenvalue-gap ratio R = (mu1-mu2)/(mu2-mu3).

R is invariant under affine rescaling of the eigenvalues, so the unknown edge
location and scaling factor drop out under the null hypothesis; its null law
is approximated by GOE top-3 simulation at the requested N.  Pivotality is
only asymptotic, so a table belongs to one N.  Tables are rebuilt on every
call, never read from disk: a few thousand tridiagonal GOE draws take seconds,
and the output then depends only on the flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainRejectionError
from .ensemble import sample_goe_top

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


def calibrate_null(N: int, replicates: int, seed: int, threads: int = 1) -> np.ndarray:
    """Sorted null table of R from GOE top-3 simulation."""
    if replicates < 1000:
        raise DomainRejectionError("need >= 1000 replicates for 1e-3 p-value resolution")
    tops = sample_goe_top(N, 3, replicates, seed, threads=threads).raw
    return np.sort((tops[:, 0] - tops[:, 1]) / (tops[:, 1] - tops[:, 2]))


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

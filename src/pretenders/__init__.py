"""Primary pretenders: for every integer base b there is a least composite
q with b^q = b (mod q), it never exceeds 561, and only 132 values occur.
This package derives that 132-entry decision list with exact densities,
finds the first base reaching each entry, computes the 122-digit period
of the classification, and regression-checks the bundled golden tables.
"""

from .cascade import build_cascade, derive_k_m, family_check
from .census import (
    CensusReport,
    classify_range,
    density_by_residue_count,
    verify_skipped,
)
from .period import (
    minimality_witnesses,
    periodicity_check,
    verify_lcm,
)
from .pretender import primary_pretender_oracle
from .tables import run_regressions

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "build_cascade",
    "classify_range",
    "density_by_residue_count",
    "derive_k_m",
    "family_check",
    "minimality_witnesses",
    "periodicity_check",
    "primary_pretender_oracle",
    "run_regressions",
    "verify_lcm",
    "verify_skipped",
]

"""Primary pretenders: for every integer base b there is a least composite
q with b^q = b (mod q), it never exceeds 561, and only 132 values occur.
This package derives that 132-entry decision list with exact densities,
finds the first base reaching each entry, computes the 122-digit period
of the classification, and regression-checks the bundled golden tables.
"""

# `classify` needs only the cascade (with arith and events); the other
# modules load on the first read of a public name, which binds the whole
# API at once.  The cascade is loaded eagerly, and the API bound as one,
# because the benchmark's tracer (benchmarks/tracing.py) wraps only the
# modules already imported when it is installed.
from . import cascade  # noqa: F401

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


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cascade import build_cascade, derive_k_m, family_check
    from .census import (
        CensusReport,
        classify_range,
        density_by_residue_count,
        verify_skipped,
    )
    from .period import minimality_witnesses, periodicity_check, verify_lcm
    from .pretender import primary_pretender_oracle
    from .tables import run_regressions
    api = locals()
    globals().update({key: api[key] for key in __all__})
    return api[name]

"""The benchmark's own answers, shared with no code of ``pretenders``.

The primary pretender of a base b is the least composite q <= 561 with
b**q = b (mod q).  Whether q pretends to b depends only on b mod q, so
each composite gets a table of the residues that pass, filled in by the
congruence itself; ``least_pretender`` walks the composites in order and
reads the tables.  Primality is plain trial division.

The golden assets are read straight from the CSV files on disk, so a
change to the package's loaders cannot change what the benchmark expects.
"""

import csv
from fractions import Fraction
from pathlib import Path

UNIVERSAL = 561


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def pretends(q: int, b: int) -> bool:
    """True when b**q = b (mod q), the self-power congruence."""
    r = b % q
    return pow(r, q, q) == r


COMPOSITES = tuple(q for q in range(4, UNIVERSAL + 1) if not is_prime(q))
PRIMES_TO_277 = tuple(p for p in range(2, 278) if is_prime(p))
PRIMES_TO_23 = tuple(p for p in PRIMES_TO_277 if p <= 23)


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


# Product of the primes up to 277 (the largest prime factor of a composite
# below 562) times the product of the primes up to 23 (the largest one
# whose square is below 562).
PERIOD = _product(PRIMES_TO_277) * _product(PRIMES_TO_23)

_TABLES = tuple((q, bytes(pretends(q, r) for r in range(q)))
                for q in COMPOSITES)


def least_pretender(b: int) -> int:
    """Least composite q with b**q = b (mod q)."""
    for q, passes in _TABLES:
        if passes[b % q]:
            return q
    raise AssertionError("561 pretends to every base")


def check_stated_facts() -> None:
    """Facts stated in PAPER.md; raises AssertionError if the reference
    disagrees with any of them."""
    if least_pretender(2) != 341:
        raise AssertionError("reference: 2 should map to 341")
    if least_pretender(10009487) != 453:
        raise AssertionError("reference: 10009487 should map to 453")
    if not pretends(161038, 2):
        raise AssertionError("reference: 161038 should pretend to base 2")
    if not all(pretends(UNIVERSAL, b) for b in range(UNIVERSAL)):
        raise AssertionError("reference: 561 should pretend to every base")
    if len(COMPOSITES) != 458:
        raise AssertionError("reference: expected 458 composites up to 561")
    if len(str(PERIOD)) != 122:
        raise AssertionError("reference: the period should have 122 digits")


def truncated(x: Fraction, places: int = 2) -> Fraction:
    """x cut (not rounded) to ``places`` decimals, for x >= 0."""
    scale = 10 ** places
    return Fraction(x.numerator * scale // x.denominator, scale)


class Golden:
    """The bundled golden assets, parsed from the raw files."""

    def __init__(self, data_dir: Path):
        with open(data_dir / "t3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.qs = tuple(int(r["q"]) for r in rows)
        self.k = {int(r["q"]): int(r["k"]) for r in rows}
        self.m = {int(r["q"]): int(r["m"]) for r in rows}
        self.first_base = {int(r["q"]): int(r["first_base"]) for r in rows}
        self.rarity = {int(r["q"]): Fraction(r["rarity"]) for r in rows}
        self.index = {q: i for i, q in enumerate(self.qs)}
        with open(data_dir / "t2.csv", newline="") as fh:
            self.t2 = {(int(r["class"]), int(r["row"])): int(r["value"])
                       for r in csv.DictReader(fh)}
        self.period = int((data_dir / "period.txt").read_text().strip())

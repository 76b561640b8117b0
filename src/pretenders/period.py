"""The period of the primary-pretender function and its minimality.

classify(b) reads b only through b mod the moduli of its joint tables.
Each modulus is a product of whole per-prime periods, the lcm of the
entries' moduli at a prime, since a cell names the first entry at its
primes whose event holds the cell mod that entry's modulus.  So classify
repeats with period lcm(all entry moduli).  That lcm is the product of
all primes up to the largest prime factor of any composite in range
(277, the 59th prime) times the product of all primes up to the largest
repeated prime factor (23, the 9th prime) -- a 122-digit number.
Minimality is witnessed prime by prime: for each p dividing the period
N, a pair of bases congruent mod N/p that classify differently, so no
proper divisor of N is a period.  The witnesses are assembled from the
per-prime tables by CRT over the per-prime periods, whose product is N.
"""

from collections import namedtuple
from math import lcm, prod

from .arith import crt, sieve_and_factor
from .cascade import Cascade

__all__ = [
    "LcmCheck",
    "MinimalityReport",
    "PeriodicityReport",
    "Witness",
    "minimality_witnesses",
    "period_constant",
    "periodicity_check",
]

SAMPLE_DIGITS = 150   # random periodicity samples are wider than the period


def period_constant() -> int:
    """The claimed period: the product of the primes up to the largest
    prime factor of any composite <= 561, times the product of the primes
    up to the largest repeated one.  Both bounds are read off the sieve's
    tracked powers, not hardcoded: the largest tracked prime, and the
    largest whose tracked power exceeds it.  Nothing here reads the
    cascade, so comparing this with the entry moduli (``verify_lcm``) is
    an independent check."""
    sieve = sieve_and_factor()
    powers = sieve.tracked_powers
    largest = max(powers)
    largest_repeated = max(p for p, m in powers.items() if m > p)
    return (prod(p for p in sieve.primes if p <= largest)
            * prod(p for p in sieve.primes if p <= largest_repeated))


LcmCheck = namedtuple("LcmCheck", "equal entry_lcm period_value")


def verify_lcm(cascade: Cascade) -> LcmCheck:
    """The lcm of the 132 entry moduli must equal the period constant."""
    entry_lcm = lcm(*(e.root_modulus for e in cascade.entries))
    value = period_constant()
    return LcmCheck(entry_lcm == value, entry_lcm, value)


class PeriodicityReport(namedtuple("PeriodicityReport",
                                   "period checked failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def periodicity_check(cascade: Cascade, samples: int = 1000,
                      seed: int = 20260822) -> PeriodicityReport:
    """classify(b) == classify(b + N) over small bases plus random bases
    of ``SAMPLE_DIGITS`` digits; a check of no base is refused."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    import random   # its only use: a process that does not sample skips it
    n = period_constant()
    rng = random.Random(seed)
    bases = list(range(min(samples // 2, 200)))
    while len(bases) < samples:
        bases.append(rng.randrange(10 ** (SAMPLE_DIGITS - 1),
                                   10 ** SAMPLE_DIGITS))
    failures = tuple(b for b in bases
                     if cascade.classify(b) != cascade.classify(b + n))
    return PeriodicityReport(n, len(bases), failures)


# shifted: base + N/prime; value: classify(base); shifted_value:
# classify(shifted), which must differ
Witness = namedtuple("Witness", "prime base shifted value shifted_value")


class MinimalityReport(namedtuple("MinimalityReport", "witnesses failed")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failed


def minimality_witnesses(cascade: Cascade) -> MinimalityReport:
    """For each prime p | N, build b with b = b + N/p (mod N/p) but
    classify(b) != classify(b + N/p).

    Construction: N/p is a multiple of every other prime's period, so the
    shift by N/p moves only the cell of p.  Take the first cell r of p's
    table whose index differs from that of the cell the shift moves it
    to, and assemble b by CRT over the per-prime periods from the
    per-prime tables: r at p, and at every other prime a cell holding
    that table's largest index, which exceeds the index of any entry
    that serves a base.  classify(b) and classify(b + N/p) are then the
    q of the two cells at p, and the pair is checked by classify.  The
    periods multiply to the lcm of the entry moduli, so the primes walked
    are those of N exactly when ``verify_lcm`` holds.
    """
    n = period_constant()
    tables = cascade.prime_tables
    periods = [t.period for t in tables.values()]
    whole = prod(periods)
    anchors = {p: t.cells.index(t.top) for p, t in tables.items()}
    anchored = crt(list(anchors.values()), periods)
    witnesses: dict[int, Witness] = {}
    failed: list[int] = []
    for p, (period, cells, _) in tables.items():
        shift = n // p
        chosen = next((r for r, v in enumerate(cells)
                       if v != cells[(r + shift) % period]), None)
        if chosen is None:
            failed.append(p)
            continue
        # the anchored base moved to the chosen cell at p alone
        rest = whole // period
        b = (anchored + (chosen - anchors[p]) * rest * pow(rest, -1, period)
             ) % whole
        v, sv = cascade.classify(b), cascade.classify(b + shift)
        if sv == v:
            failed.append(p)
            continue
        witnesses[p] = Witness(p, b, b + shift, v, sv)
    return MinimalityReport(witnesses, tuple(failed))

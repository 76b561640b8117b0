"""Integer and exact-rational groundwork for the pretender computations.

Arbitrary-precision naturals are Python ints.  Exact rationals are
``fractions.Fraction``: always reduced, denominator positive, so
densities and rarities never touch floats.  The sieve is a
smallest-prime-factor table, which gives primality, full factorizations
into maximal prime powers, and the composite list in one pass; the
tracked powers are read off the composites' factorizations once.  A
maximal prime power p**e of n is the pair (p, p**e): every reader wants
the modulus, none the exponent.
"""

from functools import lru_cache
from math import isqrt

__all__ = [
    "Sieve",
    "UNIVERSAL_PRETENDER",
    "crt",
    "render_decimal",
    "sieve_and_factor",
]

# Smallest composite that pretends to every base (verified in the tests
# by enumerating all residues); it bounds the one sieve of the package.
UNIVERSAL_PRETENDER = 561


class Sieve:
    """Primality, factorizations and composites for every n up to 561.

    ``tracked_powers`` maps each prime, ascending, to its tracked power:
    the largest p**e that is a maximal prime-power factor of some
    composite up to 561.  Read it only; it is shared.
    """

    def __init__(self):
        self.limit = limit = UNIVERSAL_PRETENDER
        # smallest prime factor of n at index n; 0 for n < 2
        spf = list(range(limit + 1))
        spf[0] = spf[1] = 0
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == p:
                for n in range(p * p, limit + 1, p):
                    if spf[n] == n:
                        spf[n] = p
        self._spf = spf
        self.primes = [n for n in range(2, limit + 1) if spf[n] == n]
        self.composites = [n for n in range(4, limit + 1) if spf[n] != n]
        self._factorizations: dict[int, tuple[tuple[int, int], ...]] = {}
        # p first divides the composite 2p (2 first divides 4), so the
        # primes enter in ascending order
        powers = self.tracked_powers = {}
        for n in self.composites:
            for p, m in self.factorization(n):
                powers[p] = max(powers.get(p, 1), m)

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError(f"{n} outside sieve range [0, {self.limit}]")
        return n >= 2 and self._spf[n] == n

    def factorization(self, n: int) -> tuple[tuple[int, int], ...]:
        """Maximal prime powers of n as (p, p**e) pairs, in increasing
        prime order; each n is factored once and the tuple kept."""
        if not 2 <= n <= self.limit:
            raise ValueError(f"{n} outside sieve range [2, {self.limit}]")
        factors = self._factorizations.get(n)
        if factors is None:
            out = []
            rest = n
            while rest > 1:
                p = m = self._spf[rest]
                rest //= p
                while rest % p == 0:
                    rest //= p
                    m *= p
                out.append((p, m))
            factors = self._factorizations[n] = tuple(out)
        return factors


@lru_cache(maxsize=None)
def sieve_and_factor() -> Sieve:
    """The one sieve, to ``UNIVERSAL_PRETENDER``, built on first use."""
    return Sieve()


def render_decimal(x: "Fraction") -> str:
    """Render an exact rational to two decimals, half-to-even, then trim
    trailing zeros (and a bare trailing point).

    render_decimal(Fraction(45, 2))    -> '22.5'
    render_decimal(Fraction(1925, 8))  -> '240.62'   (exact tie, 2 is even)
    render_decimal(Fraction(2))        -> '2'
    """
    num, den = abs(x.numerator), x.denominator
    scaled, rem = divmod(num * 100, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2 == 1):
        scaled += 1
    text = f"{scaled // 100}.{scaled % 100:02}".rstrip("0").rstrip(".")
    # no sign on a value that rounds to zero
    return "-" + text if x < 0 and scaled else text


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; 0 <= x < prod."""
    if len(residues) != len(moduli):
        raise ValueError("residue/modulus length mismatch")
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        # garner step: adjust x by a multiple of m to hit r mod mi
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m

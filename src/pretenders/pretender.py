"""Fermat-type congruences at composite moduli.

A composite q is a *prime pretender* to base b when b**q = b (mod q) --
the self-power congruence every prime satisfies.  The *primary pretender*
of b is the least such composite.  It never exceeds 561 = 3*11*17, the
smallest Carmichael number, which pretends to every base; so the
brute-force search below always terminates inside the composite list.

The classical *Fermat pseudoprime* condition b**(q-1) = 1 (mod q) is the
unit form of the same congruence; it is strictly stronger at bases
sharing a factor with q and impossible altogether for base 2 at even q.

Both tests first prove q composite: by the sieve up to 561, then by
strong tests to the first 13 prime bases, which are exact below PSI_13.
From PSI_13 on they refuse with a ValueError rather than trust an
unproven primality test.
"""

from .arith import UNIVERSAL_PRETENDER, sieve_and_factor

__all__ = [
    "UNIVERSAL_PRETENDER",
    "NotCompositeError",
    "is_prime_pretender",
    "is_fermat_pseudoprime",
    "primary_pretender_oracle",
]


class NotCompositeError(ValueError):
    """Raised when a pretender query is made for a modulus that is not
    a composite number - such calls are caller bugs, not falsehoods."""


# Strong probable-prime bases: the first 13 primes.  Below PSI_13 every
# composite fails at least one of them (Sorenson and Webster 2017).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _require_composite(q: int) -> None:
    if q < 4:
        raise NotCompositeError(f"modulus {q} is below the least composite 4")
    if q <= UNIVERSAL_PRETENDER:
        if sieve_and_factor().is_prime(q):
            raise NotCompositeError(f"modulus {q} is prime")
        return
    if q >= PSI_13:
        raise ValueError(f"modulus {q} is not below {PSI_13}, the bound "
                         "of the proven 13-base strong test")
    if _is_prime(q):
        raise NotCompositeError(f"modulus {q} is prime")


def _is_prime(n: int) -> bool:
    """Primality of 41 < n < PSI_13, exact in that range."""
    if n % 2 == 0:
        return False
    return all(_strong_probable_prime(n, a) for a in _SPRP_BASES)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round to base a for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_pretender(q: int, b: int) -> bool:
    """True iff composite q satisfies b**q = b (mod q)."""
    _require_composite(q)
    r = b % q
    return pow(r, q, q) == r


def is_fermat_pseudoprime(q: int, b: int) -> bool:
    """True iff composite q satisfies b**(q-1) = 1 (mod q)."""
    _require_composite(q)
    return pow(b % q, q - 1, q) == 1


def primary_pretender_oracle(b: int) -> int:
    """Least composite q with b**q = b (mod q), by direct search.

    Ground truth for the fast classifier; always returns a value
    <= UNIVERSAL_PRETENDER.
    """
    for q in sieve_and_factor().composites:
        r = b % q
        if pow(r, q, q) == r:
            return q
    raise AssertionError("unreachable: 561 pretends to every base")


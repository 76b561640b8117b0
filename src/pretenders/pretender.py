"""Fermat-type congruences at composite moduli.

A composite q is a *prime pretender* to base b when b**q = b (mod q) --
the self-power congruence every prime satisfies.  The *primary pretender*
of b is the least such composite.  It never exceeds 561 = 3*11*17, the
smallest Carmichael number, which pretends to every base; so the
brute-force search below always terminates inside the composite list.

The classical *Fermat pseudoprime* condition b**(q-1) = 1 (mod q) is the
unit form of the same congruence; it is strictly stronger at bases
sharing a factor with q and impossible altogether for base 2 at even q.
"""

from math import isqrt

from .arith import Sieve, sieve_and_factor

__all__ = [
    "UNIVERSAL_PRETENDER",
    "NotCompositeError",
    "is_prime_pretender",
    "is_fermat_pseudoprime",
    "primary_pretender_oracle",
]

# Smallest composite that pretends to every base (verified in the tests
# by enumerating all residues); hard upper bound for the oracle search.
UNIVERSAL_PRETENDER = 561


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
        if _sieve().is_prime(q):
            raise NotCompositeError(f"modulus {q} is prime")
        return
    if _is_prime(q):
        raise NotCompositeError(f"modulus {q} is prime")


def _is_prime(n: int) -> bool:
    """Primality of n > 41: strong tests to the first 13 prime bases,
    exact below PSI_13; from there on BPSW, a strong base-2 test plus a
    strong Lucas test with Selfridge's parameters (Baillie and Wagstaff
    1980), with no known counterexample."""
    if n % 2 == 0:
        return False
    if n < PSI_13:
        return all(_strong_probable_prime(n, a) for a in _SPRP_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n with Selfridge's method A: D is the
    first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1, Q = (1 - D) / 4.
    Checks U_d = 0 or V_(d 2^r) = 0 (mod n) for some r < s, n + 1 = d 2^s."""
    if isqrt(n) ** 2 == n:
        return False   # no D with (D / n) = -1 exists for a square
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False   # |D| shares a factor with n, proper as n > |D|
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k mod n for k running through the bits of (n + 1) / 2^s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v          # twice U_(k+1) and V_(k+1), P = 1
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _sieve() -> Sieve:
    return sieve_and_factor(UNIVERSAL_PRETENDER)


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
    for q in _sieve().composites:
        r = b % q
        if pow(r, q, q) == r:
            return q
    raise AssertionError("unreachable: 561 pretends to every base")


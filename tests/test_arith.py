import random

import pytest

from pretenders.arith import crt, render_decimal, sieve_and_factor


def test_prime_power_basics():
    # a maximal prime power p**e is the pair (p, p**e)
    s = sieve_and_factor()
    assert s.factorization(81) == ((3, 81),)
    assert s.factorization(7) == ((7, 7),)
    assert s.factorization(90) == ((2, 2), (3, 9), (5, 5))


def test_sieve_primes_and_composites():
    # the one sieve runs to the universal pretender, 561
    s = sieve_and_factor()
    assert s.primes[:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert s.composites[:8] == [4, 6, 8, 9, 10, 12, 14, 15]
    assert s.is_prime(47) and not s.is_prime(49)
    assert not s.is_prime(1) and not s.is_prime(0)
    assert len(s.primes) == 102 and s.primes[-1] == 557
    assert len(s.composites) == 458 and s.composites[-1] == 561
    assert sorted(s.primes + s.composites) == list(range(2, 562))
    for n in (-1, 562):
        with pytest.raises(ValueError, match="outside sieve range"):
            s.is_prime(n)


def test_sieve_factorization_reassembles():
    s = sieve_and_factor()
    for n in range(2, 562):
        facs = s.factorization(n)
        prod = 1
        for p, m in facs:
            prod *= m
            assert s.is_prime(p)
            # m is a positive power of p, and the largest dividing n
            e = 1
            while p ** e < m:
                e += 1
            assert p ** e == m and n % (m * p) != 0
        assert prod == n
        # primes strictly increasing
        assert [p for p, _ in facs] == sorted({p for p, _ in facs})
    # each n is factored once: a second call hands back the same tuple
    for n in (2, 512, 561):
        assert s.factorization(n) is s.factorization(n)
    for n in (0, 1, 562):
        with pytest.raises(ValueError, match="outside sieve range"):
            s.factorization(n)


def test_sieve_tracked_powers():
    # per prime, ascending, the largest maximal prime power of a composite
    powers = sieve_and_factor().tracked_powers
    assert list(powers.items())[:10] == [
        (2, 512), (3, 243), (5, 125), (7, 343), (11, 121), (13, 169),
        (17, 289), (19, 361), (23, 529), (29, 29)]
    assert list(powers) == sorted(powers)
    assert len(powers) == 59 and sum(powers.values()) == 10_010


class TestRenderDecimal:
    def test_exact_values_trim_trailing_zeros(self):
        assert render_decimal(2, 1) == "2"
        assert render_decimal(45, 2) == "22.5"
        assert render_decimal(155920, 1) == "155920"
        # the terms need not be reduced
        assert render_decimal(90, 4) == "22.5"

    def test_negative_and_below_the_last_place(self):
        assert render_decimal(-45, 2) == "-22.5"
        assert render_decimal(1, 1000) == "0"
        assert render_decimal(-1, 1000) == "0"
        assert render_decimal(0, 1) == "0"

    def test_half_to_even_ties(self):
        assert render_decimal(3465, 16) == "216.56"   # .5625
        assert render_decimal(1925, 8) == "240.62"    # .625 ties to even
        assert render_decimal(3850, 16) == "240.62"   # the same tie, unreduced
        assert render_decimal(1835, 1000) == "1.84"
        assert render_decimal(1825, 1000) == "1.82"

    def test_rounding_against_float_reference(self):
        # away from ties the fast float path must agree
        rng = random.Random(303)
        for _ in range(400):
            num = rng.randrange(1, 10**7)
            den = rng.randrange(1, 10**4)
            mine = render_decimal(num, den)
            if (num * 100) % den == 0:
                continue  # skip representable boundary cases, covered above
            want = round(num / den, 2)
            assert abs(float(mine) - want) < 5e-3


def test_crt_reconstruction():
    rng = random.Random(404)
    moduli_sets = [(4, 9, 25), (8, 3, 5, 7), (81, 2), (11, 13, 17)]
    for moduli in moduli_sets:
        prod = 1
        for m in moduli:
            prod *= m
        for _ in range(50):
            x = rng.randrange(prod)
            back = crt([x % m for m in moduli], list(moduli))
            assert back == x


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt([1, 2], [4, 6])

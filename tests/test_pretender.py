import random

import pytest

from pretenders.pretender import (
    PSI_13,
    UNIVERSAL_PRETENDER,
    NotCompositeError,
    is_fermat_pseudoprime,
    is_prime_pretender,
    primary_pretender_oracle,
)


def test_composite_guard():
    for bad in (0, 1, 2, 3, 7, 13, 561 + 2):   # 563 is prime
        with pytest.raises(NotCompositeError):
            is_prime_pretender(bad, 2)
    # an odd composite above 561 goes through the 13-base strong test;
    # 1001 = 7 * 11 * 13, and 2^1001 = 123 (mod 1001)
    assert is_prime_pretender(1001, 2) is False


@pytest.mark.parametrize("q, expected", [
    (1000000007 * 1000000009, False),
    (318665857834031151167461, True),   # psi_12, caught by base 41
    (PSI_13 - 1, False),                # the largest modulus still proven
    # a prime with n - 1 = 119 * 2**23: the squaring loop runs 22 times
    (998244353, NotCompositeError),
    # a strong pseudoprime to bases 2, 3 and 5 with s = 4, caught by 7
    (25326001, True),
    # a Carmichael number 43 * 127 * 211 = 3 (mod 4): b**(n-1) = 1 for all
    # 13 bases, and only b**((n-1)/2) != +-1 shows that it is composite
    (1152271, True),
    # psi_13 is a strong pseudoprime to all 13 bases, and 2**89 - 1 is a
    # Mersenne prime: no proven test is kept from psi_13 on, so both are
    # refused, and the refusal does not claim that q is not composite
    (PSI_13, ValueError),
    (2**89 - 1, ValueError),
])
def test_composite_guard_on_large_moduli(q, expected):
    if expected is NotCompositeError:
        with pytest.raises(NotCompositeError):
            is_prime_pretender(q, 2)
    elif expected is ValueError:
        for test in (is_prime_pretender, is_fermat_pseudoprime):
            with pytest.raises(ValueError, match=str(PSI_13)) as info:
                test(q, 2)
            assert not isinstance(info.value, NotCompositeError)
    else:
        assert is_prime_pretender(q, 2) is expected


def test_self_power_congruence_spots():
    assert is_prime_pretender(4, 0)
    assert is_prime_pretender(4, 1)
    assert not is_prime_pretender(4, 2)
    assert is_prime_pretender(341, 2)
    assert not is_prime_pretender(341, 3)
    # the known even example: 161038 = 2 * 73 * 1103
    assert is_prime_pretender(161038, 2)


def test_universal_pretender_accepts_every_base():
    assert all(is_prime_pretender(UNIVERSAL_PRETENDER, b) for b in range(561))


def test_fermat_form_spots():
    assert is_fermat_pseudoprime(341, 2)
    assert not is_fermat_pseudoprime(341, 3)
    # an even modulus can never see b^(q-1) = 1 for even b: the left side
    # is even while 1 is odd mod an even q
    assert not is_fermat_pseudoprime(161038, 2)


def test_fermat_form_implies_self_power_form():
    rng = random.Random(11)
    composites = [n for n in range(4, 562)
                  if any(n % d == 0 for d in range(2, n))]
    for _ in range(600):
        q = rng.choice(composites)
        b = rng.randrange(0, 2 * q)
        if is_fermat_pseudoprime(q, b):
            assert is_prime_pretender(q, b)


def test_oracle_small_bases():
    assert primary_pretender_oracle(0) == 4
    assert primary_pretender_oracle(1) == 4
    assert primary_pretender_oracle(2) == 341
    assert primary_pretender_oracle(3) == 6
    assert primary_pretender_oracle(4) == 4
    assert primary_pretender_oracle(10103) == 561


def test_oracle_result_is_least_and_valid():
    rng = random.Random(12)
    for _ in range(60):
        b = rng.randrange(0, 10**8)
        q = primary_pretender_oracle(b)
        assert 4 <= q <= UNIVERSAL_PRETENDER
        assert is_prime_pretender(q, b)
        for smaller in range(4, q):
            if any(smaller % d == 0 for d in range(2, smaller)):
                assert pow(b, smaller, smaller) != b % smaller


def test_oracle_never_exceeds_universal_pretender():
    rng = random.Random(13)
    for _ in range(40):
        b = rng.randrange(0, 10**30)
        assert primary_pretender_oracle(b) <= UNIVERSAL_PRETENDER

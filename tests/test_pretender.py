import random
import signal
from contextlib import contextmanager

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
    # large composite accepted without a full sieve
    assert is_prime_pretender(161038, 2) in (True, False)


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("q, expected", [
    (1000000007 * 1000000009, False),
    # psi_13 is a strong pseudoprime to all 13 bases: only the Lucas
    # step of BPSW shows that it is composite
    (PSI_13, True),
    (318665857834031151167461, True),   # psi_12, caught by base 41
    (2**89 - 1, NotCompositeError),     # a Mersenne prime above psi_13
    # a prime whose Selfridge D is -15 and with n + 1 = 4 d, d odd: the
    # search for D and the Lucas ladder over the bits of d both run
    (10**30 + 211, NotCompositeError),
])
def test_composite_guard_on_large_moduli(q, expected):
    with time_limit(5):
        if expected is NotCompositeError:
            with pytest.raises(NotCompositeError):
                is_prime_pretender(q, 2)
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

import math
import random

from hypothesis import given, settings, strategies as st

from pretenders.cascade import Cascade
from pretenders.period import (
    minimality_witnesses,
    period_constant,
    periodicity_check,
    verify_lcm,
)
from pretenders.arith import sieve_and_factor
from pretenders.pretender import primary_pretender_oracle
from pretenders.tables import load_golden_period

PRIMES = sieve_and_factor().primes


def test_period_constant_value():
    n = period_constant()
    assert type(n) is int
    # the primes up to 277 times the primes up to 23
    assert PRIMES[58] == 277 and PRIMES[8] == 23
    assert n == math.prod(PRIMES[:59]) * math.prod(PRIMES[:9])
    digits = str(n)
    assert len(digits) == 122
    assert digits.startswith("195685843334")
    assert digits.endswith("2360439300")


def test_period_matches_golden_digit_string():
    assert str(period_constant()) == load_golden_period()


def test_period_factorization():
    n = period_constant()
    exps = {}
    for p in PRIMES:
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    assert n == 1
    assert len(exps) == 59
    assert all(exps[p] == 2 for p in exps if p <= 23)
    assert all(exps[p] == 1 for p in exps if 29 <= p <= 277)
    assert max(exps) == 277


def test_lcm_of_entry_moduli_is_the_period(cascade):
    check = verify_lcm(cascade)
    assert check.equal
    assert check.entry_lcm == check.period_value
    # and each modulus individually divides it
    for e in cascade.entries:
        assert check.period_value % e.root_modulus == 0


def test_periodicity_sampled(cascade):
    rep = periodicity_check(cascade, samples=300)
    assert rep.ok
    assert rep.checked == 300
    assert rep.failures == ()


def test_periodicity_alternate_seed(cascade):
    assert periodicity_check(cascade, samples=100, seed=7).ok


def test_periodicity_by_hand(cascade):
    n = period_constant()
    rng = random.Random(41)
    for _ in range(25):
        b = rng.randrange(0, 10**150)
        assert cascade.classify(b) == cascade.classify(b + n)


def test_minimality_witness_per_prime_divisor(cascade):
    rep = minimality_witnesses(cascade)
    assert rep.ok
    assert not rep.failed
    assert len(rep.witnesses) == 59
    n = period_constant()
    for p, w in rep.witnesses.items():
        assert w.prime == p and n % p == 0
        assert w.shifted - w.base == n // p
        # re-verify both classifications from scratch
        assert cascade.classify(w.base) == w.value
        assert cascade.classify(w.shifted) == w.shifted_value
        assert w.value != w.shifted_value


def test_no_proper_divisor_through_witnesses(cascade):
    # every maximal proper divisor N/p fails to be a period, so no proper
    # divisor of N is one
    rep = minimality_witnesses(cascade)
    n = period_constant()
    primes = sorted(rep.witnesses)
    assert math.prod(primes) * math.prod(PRIMES[:9]) == n


BASES = st.integers(min_value=-10**300, max_value=10**300)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(BASES)
def test_classify_is_periodic_property(cascade, b):
    assert cascade.classify(b) == cascade.classify(b % period_constant())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(BASES)
def test_classify_matches_oracle_property(cascade, b):
    assert cascade.classify(b) == primary_pretender_oracle(b)


def test_a_classify_of_period_one_has_no_witness(cascade):
    # a classify that gives every base one value has period 1, so no
    # prime may get a witness: the tables still differ across each shift,
    # and only the equal shifted value rules the witness out
    value = minimality_witnesses(cascade).witnesses[2].value
    flat = Cascade(cascade.entries, cascade.skipped)
    flat.classify = lambda b: value
    rep = minimality_witnesses(flat)
    assert not rep.ok and not rep.witnesses
    assert rep.failed == tuple(cascade.prime_tables)

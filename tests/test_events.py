import math
import random
from fractions import Fraction

import pytest

from pretenders.arith import sieve_and_factor
from pretenders.events import (
    FormViolation,
    PreemptionLedger,
    PrimePowerEvent,
    _generator,
    composite_event,
    prime_power_event,
)

SIEVE = sieve_and_factor()
COMPONENTS = [(q, p, m) for q in SIEVE.composites
              for p, m in SIEVE.factorization(q)]


def test_event_enumeration_spots():
    assert prime_power_event(10, 5, 5).residues == {0, 1}
    assert prime_power_event(6, 3, 3).residues == {0, 1}
    assert prime_power_event(4, 2, 4).residues == {0, 1}
    # 9 at 3^2: units of order dividing gcd(8, 6) = 2
    assert prime_power_event(9, 3, 9).residues == {0, 1, 8}
    # at 2, q - 1 is odd: only 0 and 1, whatever the power
    assert prime_power_event(512, 2, 512).residues == {0, 1}


def test_closed_form_matches_enumeration_on_every_component():
    assert len(COMPONENTS) == 1041
    constraining = {}
    for q, p, m in COMPONENTS:
        enumerated = {r for r in range(m) if pow(r, q, m) == r}
        ev = prime_power_event(q, p, m)
        assert ev == (q, p, m, enumerated), (q, p, m)
        if len(enumerated) < m:
            constraining.setdefault(q, []).append(ev)
    # a composite's event holds exactly its components that are not full
    assert sum(map(len, constraining.values())) == 801
    for q in SIEVE.composites:
        assert composite_event(q) == tuple(constraining.get(q, ())), q


def test_generator_has_full_order_at_every_odd_prime_power():
    powers = {(p, m) for _, p, m in COMPONENTS if p != 2}
    assert len(powers) == 71
    for p, m in powers:
        g = _generator(p, m)
        order, x = 1, g % m
        while x != 1:
            order, x = order + 1, x * g % m
        assert order == m - m // p, (p, m)


def test_event_always_contains_zero_and_one():
    for q in (4, 6, 9, 10, 15, 21, 25, 341, 561):
        for p, m in SIEVE.factorization(q):
            ev = prime_power_event(q, p, m)
            assert {0, 1} <= ev.residues


def test_event_cardinality_for_single_primes():
    # at p^1 the event is {0} plus the units of order dividing q-1
    rng = random.Random(21)
    for _ in range(200):
        q = rng.choice(SIEVE.composites)
        for p, m in SIEVE.factorization(q):
            if m != p:
                continue
            ev = prime_power_event(q, p, m)
            assert len(ev.residues) == 1 + math.gcd(q - 1, p - 1)


def test_event_trivial_means_full():
    ev = prime_power_event(6, 2, 2)   # r^6 = r mod 2 always
    assert ev.residues == {0, 1}
    # a full component constrains nothing, so 6's event is its part at 3
    assert composite_event(6) == (prime_power_event(6, 3, 3),)
    assert composite_event(10) == (prime_power_event(10, 5, 5),)
    # the universal pretender is full at every component
    assert composite_event(561) == ()


def test_event_requires_exact_prime_power_of_q():
    with pytest.raises(ValueError):
        prime_power_event(12, 2, 2)   # 4 divides 12
    with pytest.raises(ValueError):
        prime_power_event(12, 2, 8)   # 8 does not divide 12
    with pytest.raises(ValueError):
        prime_power_event(30, 2, 6)   # 6 is not a power of 2
    prime_power_event(12, 2, 4)       # exact: fine


def test_composite_event_components():
    # 10 divides 340, so 341 = 11 * 31 passes at 11 for every base; at 31
    # the event is 0 and the units of order gcd(340, 30) = 10
    evs = composite_event(341)
    assert evs == (prime_power_event(341, 31, 31),)
    assert len(evs[0].residues) == 11
    assert len(prime_power_event(341, 11, 11).residues) == 11   # full


def test_ledger_tracked_exponents():
    powers = SIEVE.tracked_powers
    assert powers[2] == 2 ** 9
    assert powers[3] == 3 ** 5
    assert powers[5] == 5 ** 3
    assert powers[7] == 7 ** 3
    for p in (11, 13, 17, 19, 23):
        assert powers[p] == p ** 2
    singles = [p for p, m in powers.items() if m == p]
    assert min(singles) == 29 and max(singles) == 277
    assert len(powers) == 59
    # the ledger keeps one free mask per tracked power, every cell free
    ledger = PreemptionLedger()
    assert ledger.moduli == powers
    assert {p: mask.count(1) for p, mask in ledger.masks.items()} == powers


def test_ledger_residual_before_any_ingest():
    # nothing is claimed yet, so no composite finds a prime without a
    # free cell
    ledger = PreemptionLedger()
    for q in (4, 6, 8, 9, 12, 561):
        assert ledger.residual(composite_event(q)) == ()
    # 4 takes the lifts of 0, 1 mod 4: 256 of the 2^9 cells
    events = composite_event(4)
    assert ledger.ingest(events) == (events[0], Fraction(1, 2))
    assert ledger.masks[2].count(1) == 256


def test_ledger_ingest_then_preempt():
    ledger = PreemptionLedger()
    events = composite_event(4)
    assert ledger.ingest(events)[0] == events[0]   # the event it claimed
    # 4 claims every lift of 0, 1 mod 4 to mod 2^9, and nothing elsewhere
    assert ledger.masks[2] == bytes(r % 4 > 1 for r in range(512))
    assert all(set(mask) == {1}
               for p, mask in ledger.masks.items() if p != 2)
    # 6 constrains only 3, since every residue mod 2 passes: it takes 162
    # of the 3^5 cells at 3, on the half of the bases 4 left
    events6 = composite_event(6)
    assert ledger.residual(events6) == ()
    assert ledger.ingest(events6) == (events6[0], Fraction(1, 3))
    # 9 takes the 27 cells = 8 mod 9 of the 81 that 6 left at 3
    assert ledger.ingest(composite_event(9))[1] == Fraction(1, 18)
    # 8's residual is empty: its event mod 8 is {0,1}, both preempted by 4
    assert ledger.residual(composite_event(8)) == (2,)


def test_ledger_residual_after_a_prime_is_exhausted():
    # never reached by the cascade (test_blocked_never_fills_a_prime), but
    # the share stays exact
    ledger = PreemptionLedger()
    shares = [ledger.ingest([PrimePowerEvent(q, 3, 3, frozenset(cells))])[1]
              for q, cells in ((6, {0, 1}), (15, {2}))]
    assert shares == [Fraction(2, 3), Fraction(1, 3)]
    assert not any(ledger.masks[3])
    for q in (12, 10):   # constrained at 3, and not
        assert ledger.residual(composite_event(q)) == (3,)
    # and nothing is left for the universal pretender
    assert ledger.ingest(composite_event(561)) == (None, 0)


def test_ledger_rejects_two_nontrivial_components():
    ledger = PreemptionLedger()
    fake = [PrimePowerEvent(35, 5, 5, frozenset({0, 1})),
            PrimePowerEvent(35, 7, 7, frozenset({0, 1}))]
    with pytest.raises(FormViolation):
        ledger.ingest(fake)


def test_ledger_ingest_of_all_trivial_is_noop():
    ledger = PreemptionLedger()
    # the universal pretender claims no cell and takes every base
    assert ledger.ingest(composite_event(561)) == (None, 1)
    assert all(set(mask) == {1} for mask in ledger.masks.values())


def test_blocked_never_fills_a_prime():
    # replay the real walk: at no point may a prime lose all residues
    ledger = PreemptionLedger()
    for q in SIEVE.composites:
        events = composite_event(q)
        if ledger.residual(events):
            continue
        if len(events) <= 1:
            ledger.ingest(events)
        for p, mask in ledger.masks.items():
            assert any(mask), f"prime {p} exhausted after q={q}"


@pytest.mark.parametrize("q", [0, 1, 2, 7])
def test_composite_event_rejects_a_non_composite(q):
    with pytest.raises(ValueError, match="not composite"):
        composite_event(q)

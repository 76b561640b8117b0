"""Residue analysis of the self-power congruence, one prime power at a time.

For composite q and a maximal prime power m = p**e of q, the congruence
b**q = b (mod q) holds iff it holds modulo every such component, and the
component condition depends only on b mod m.  The *event* of the pair
(q, m) is the set of residues r mod m with r**q = r (mod m).  It has one
closed form for every prime: 0 plus the units of order dividing the
*degree* d = gcd(q-1, phi(m)), so it is a function of (p, m, d).  At
p = 2, q-1 is odd, so d = 1 and the event is {0, 1}; at odd p the unit
group is cyclic, and the units form its subgroup of order d.  A
component whose event is every residue places no constraint on b, so a
composite's event lists only the components that constrain: 341 = 11 * 31
is constrained at 31 alone, since 10 divides 340, and 561 nowhere.  The
census recounts and a test enumerate the events by pow() instead,
sharing no code with the closed form.

The ``PreemptionLedger`` serves the cascade build only: ``build_cascade``
walks the composites with one and lets it go when it returns.  It keeps,
per prime, a mask over the residues mod the prime's tracked power (the
sieve's ``tracked_powers``) that marks the cells no winner of the
least-pretender contest has claimed yet.  ``residual`` answers at which
primes a composite constrains its event has no free cell left: at none
exactly when it wins.  ``ingest`` claims a winner's cells and answers its
exact share of the bases, as the whole number of bases it takes in each
run of ``whole`` consecutive ones, ``whole`` the product of the tracked
powers.  Each winner constrains one prime and leaves it a free cell (else
``FormViolation``), so the unclaimed bases stay a product of per-prime
free cells, and the count is read off a running product of the free-cell
counts.  The walk is one class with those two methods, not a function,
because the benchmark's tracer
(benchmarks/tracing.py) times them by name and its tests count 458
``residual`` calls a build.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, prod

from .arith import sieve_and_factor

__all__ = [
    "FormViolation",
    "PrimePowerEvent",
    "PreemptionLedger",
    "composite_event",
    "prime_power_event",
]


class FormViolation(RuntimeError):
    """A winner constrained several primes or took the last free cell of
    one, breaking the product bookkeeping.  Never expected to fire; kept
    as a checked assumption."""


# modulus: p**e, maximal in q; degree: d = gcd(q-1, phi(modulus)), the
# number of units among the residues
PrimePowerEvent = namedtuple("PrimePowerEvent",
                             "q p modulus degree residues")


@lru_cache(maxsize=None)
def _generator(p: int) -> int:
    """The least primitive root g mod the odd prime p.  It generates the
    units mod every tracked power of p too, since g**(p-1) != 1
    (mod p**2) at every tracked prime; a test checks each pair."""
    factors = sieve_and_factor().factorization(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // f, p) != 1 for f, _ in factors))


@lru_cache(maxsize=None)
def _roots(p: int, m: int, d: int) -> frozenset[int]:
    """0 and the units of order dividing d mod m = p**e, d | phi(m).  When
    d > 1, p is odd and the unit group cyclic, so the units are the
    powers of g**(phi/d)."""
    roots = [0, 1]
    if d > 1:
        h = pow(_generator(p), (m - m // p) // d, m)
        for _ in range(d - 1):
            roots.append(roots[-1] * h % m)
    # built from a list in increasing order, as enumeration would fill it
    return frozenset(sorted(roots))


def prime_power_event(q: int, p: int, m: int) -> PrimePowerEvent:
    """{r mod m : r**q = r (mod m)} for m = p**e maximal in q.

    A nonzero multiple r of p has r**q = 0 (mod m), since q >= m > e, so
    besides 0 only units are roots: those with r**(q-1) = 1, which form
    the subgroup of order d = gcd(q-1, phi(m)).  At p = 2, q-1 is odd and
    phi a power of 2, so d = 1.
    """
    if (p, m) not in sieve_and_factor().factorization(q):
        raise ValueError(f"({p}, {m}) is not a maximal prime power of {q}")
    return _event(q, p, m)


def _event(q: int, p: int, m: int) -> PrimePowerEvent:
    """``prime_power_event`` for a pair already read off q's factorization."""
    d = gcd(q - 1, m - m // p)
    return PrimePowerEvent(q, p, m, d, _roots(p, m, d))


def composite_event(q: int) -> tuple[PrimePowerEvent, ...]:
    """The events of q's components that constrain a base: those that are
    not every residue, in ascending prime order.  Empty for a composite
    that pretends to every base."""
    sieve = sieve_and_factor()
    if sieve.is_prime(q) or q < 4:
        raise ValueError(f"{q} is not composite")
    events = (_event(q, p, m) for p, m in sieve.factorization(q))
    return tuple(ev for ev in events if ev.degree + 1 < ev.modulus)


class PreemptionLedger:
    """Per-prime free-cell masks for the cascade build.

    ``masks[p][r]`` is 1 while no ingested winner's event contains r mod
    ``moduli[p]``, the tracked power of p, and 0 once one does.
    """

    def __init__(self):
        self.moduli = sieve_and_factor().tracked_powers
        self.masks = {p: bytearray(b"\x01") * m
                      for p, m in self.moduli.items()}
        # the bases no winner has claimed in each run of ``whole``: the
        # product of the free-cell counts
        self.whole = self._free = prod(self.moduli.values())

    def residual(self, events: tuple[PrimePowerEvent, ...]
                 ) -> tuple[int, ...]:
        """The primes that the event set of a composite, ``events``,
        constrains and at which it has no free cell left.  Empty exactly
        when the composite still matches an unclaimed base, and so wins,
        since ``ingest`` leaves every prime some free cell."""
        empty: tuple[int, ...] = ()
        for ev in events:
            mask, m = self.masks[ev.p], ev.modulus
            for r in ev.residues:
                if 1 in mask[r::m]:
                    break
            else:
                empty += (ev.p,)
        return empty

    def ingest(self, events: tuple[PrimePowerEvent, ...]) -> int:
        """Claim a winner's free event cells and return how many bases the
        winner takes in each run of ``whole`` consecutive ones.  The
        universal pretender constrains no prime and takes every base
        still free.  A winner that constrains several primes, or that
        claims the last free cell of its prime, would break the product
        structure: FormViolation is raised."""
        if len(events) > 1:
            primes = [ev.p for ev in events]
            raise FormViolation(
                f"winner {events[0].q} constrains several primes {primes}")
        if not events:
            return self._free
        ev = events[0]
        p, m = ev.p, ev.modulus
        mask = self.masks[p]
        old = mask.count(1)
        zeros = bytes(len(mask) // m)   # m divides the tracked power
        for r in ev.residues:
            mask[r::m] = zeros
        left = mask.count(1)
        if not left:
            raise FormViolation(f"winner {ev.q} leaves no free cell at {p}")
        # every free cell at p stands for as many free bases: the winner
        # takes those of the old - left cells it claims
        per_cell = self._free // old
        self._free = per_cell * left
        return per_cell * (old - left)

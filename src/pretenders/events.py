"""Residue analysis of the self-power congruence, one prime power at a time.

For composite q and a maximal prime power m = p**e of q, the congruence
b**q = b (mod q) holds iff it holds modulo every such component, and the
component condition depends only on b mod m.  The *event* of the pair
(q, m) is the set of residues r mod m with r**q = r (mod m).  It has one
closed form for every prime: 0 plus the units of order dividing
d = gcd(q-1, phi(m)).  At p = 2, q-1 is odd, so d = 1 and the event is
{0, 1}; at odd p the unit group is cyclic, and the units form its
subgroup of order d.  A component whose event is every residue places no
constraint on b, so a composite's event lists only the components that
constrain: 341 = 11 * 31 is constrained at 31 alone, since 10 divides
340, and 561 nowhere.  The census recounts and a test enumerate the
events by pow() instead, sharing no code with the closed form.

The ``PreemptionLedger`` serves the cascade build only: ``build_cascade``
walks the composites with one and lets it go when it returns.  It keeps,
per prime, a mask over the residues mod the prime's tracked power (the
sieve's ``tracked_powers``) that marks the cells no winner of the
least-pretender contest has claimed yet.  Of each composite the walk asks
only whether its event still holds a free cell at every prime it
constrains (``residual``).  Each winner constrains a single prime, so the
unclaimed bases stay a product of per-prime free cells, and ``ingest``
reads the winner's exact share off running products of the free-cell
counts.  The walk is one class with those two methods, not a function,
because the benchmark's tracer (benchmarks/tracing.py) times them by
name and its tests count 458 ``residual`` calls a build.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple

from .arith import sieve_and_factor

__all__ = [
    "FormViolation",
    "PrimePowerEvent",
    "PreemptionLedger",
    "composite_event",
    "prime_power_event",
]


class FormViolation(RuntimeError):
    """A winner constrained more than one prime, breaking the product
    bookkeeping.  Never expected to fire; kept as a checked assumption."""


class PrimePowerEvent(NamedTuple):
    q: int
    p: int
    modulus: int   # p**e, maximal in q
    residues: frozenset[int]


@lru_cache(maxsize=None)
def _generator(p: int, m: int) -> int:
    """A generator of the unit group mod m = p**e, p odd: the least
    primitive root g mod p, or g + p when g**(p-1) = 1 (mod p**2) and
    m > p."""
    factors = sieve_and_factor().factorization(p - 1)
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // f, p) != 1 for f, _ in factors))
    if m > p and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def prime_power_event(q: int, p: int, m: int) -> PrimePowerEvent:
    """{r mod m : r**q = r (mod m)} for m = p**e maximal in q.

    A nonzero multiple r of p has r**q = 0 (mod m), since q >= m > e, so
    besides 0 only units are roots: those with r**(q-1) = 1, which form
    the subgroup of order d = gcd(q-1, phi(m)).  At p = 2, q-1 is odd and
    phi a power of 2, so d = 1.  When d > 1, p is odd and the unit group
    cyclic, so the subgroup is generated by g**(phi/d).
    """
    if (p, m) not in sieve_and_factor().factorization(q):
        raise ValueError(f"({p}, {m}) is not a maximal prime power of {q}")
    phi = m - m // p
    d = gcd(q - 1, phi)
    roots = [0, 1]
    if d > 1:
        h = pow(_generator(p, m), phi // d, m)
        for _ in range(d - 1):
            roots.append(roots[-1] * h % m)
    # built from a list in increasing order, as enumeration would fill it
    return PrimePowerEvent(q, p, m, frozenset(sorted(roots)))


def composite_event(q: int) -> tuple[PrimePowerEvent, ...]:
    """The events of q's components that constrain a base: those that are
    not every residue, in ascending prime order.  Empty for a composite
    that pretends to every base."""
    sieve = sieve_and_factor()
    if sieve.is_prime(q) or q < 4:
        raise ValueError(f"{q} is not composite")
    events = (prime_power_event(q, p, m) for p, m in sieve.factorization(q))
    return tuple(ev for ev in events if len(ev.residues) < ev.modulus)


class PreemptionLedger:
    """Per-prime free-cell masks for the cascade build.

    ``masks[p][r]`` is 1 while no ingested winner's event contains r mod
    ``moduli[p]``, the tracked power of p, and 0 once one does.
    """

    def __init__(self):
        self.moduli = sieve_and_factor().tracked_powers
        self.masks = {p: bytearray(b"\x01") * m
                      for p, m in self.moduli.items()}
        # free cells per prime, and their running product over the
        # product of the moduli: the share of bases no winner has claimed
        self._free = dict(self.moduli)
        self._num = self._den = prod(self.moduli.values())

    def residual(self, events: tuple[PrimePowerEvent, ...]
                 ) -> tuple[int, ...]:
        """The primes at which the event set of a composite, ``events``,
        has no unclaimed cell left: those it constrains, then any other
        an earlier winner exhausted.  Empty exactly when the composite
        still matches an unclaimed base, and so wins."""
        empty: tuple[int, ...] = ()
        for ev in events:
            mask, m = self.masks[ev.p], ev.modulus
            for r in ev.residues:
                if 1 in mask[r::m]:
                    break
            else:
                empty += (ev.p,)
        if not self._num:   # an earlier winner exhausted some prime
            empty += tuple(p for p, n in self._free.items()
                           if not n and p not in empty)
        return empty

    def ingest(self, events: tuple[PrimePowerEvent, ...]
               ) -> tuple[PrimePowerEvent | None, Fraction]:
        """Claim a winner's unclaimed event cells.  Return the event
        claimed, or None for the universal pretender, which constrains no
        prime, with the exact share of bases the winner takes.  The winner
        must constrain at most one prime; otherwise the product structure
        would be lost and FormViolation is raised."""
        if len(events) > 1:
            primes = [ev.p for ev in events]
            raise FormViolation(
                f"winner {events[0].q} constrains several primes {primes}")
        if not events:
            # universal pretender: it takes every base still unclaimed
            return None, Fraction(self._num, self._den)
        ev = events[0]
        p, m = ev.p, ev.modulus
        mask = self.masks[p]
        zeros = bytes(len(mask) // m)   # m divides the tracked power
        for r in ev.residues:
            mask[r::m] = zeros
        old, left = self._free[p], mask.count(1)
        self._free[p] = left
        # the old - left cells claimed at p replace its old free cells
        share = Fraction(self._num * (old - left), self._den * old)
        self._num = self._num // old * left
        return ev, share

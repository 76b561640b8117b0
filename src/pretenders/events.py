"""Residue analysis of the self-power congruence, one prime power at a time.

For composite q and a maximal prime power p**e || q, the congruence
b**q = b (mod q) holds iff it holds modulo every such component, and the
component condition depends only on b mod p**e.  The *event* of the pair
(q, p**e) is the set of residues r mod p**e with r**q = r (mod p**e).
It has a closed form: {0, 1} for p = 2, and for odd p, 0 plus the
subgroup of order gcd(q-1, phi(p**e)) of the cyclic unit group.  It is
the full residue system exactly when the component places no constraint
on b.  The census recounts and a test enumerate the events by pow()
instead, sharing no code with the closed form.

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

from .arith import PrimePower, sieve_and_factor

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
    pp: PrimePower
    residues: frozenset[int]

    @property
    def modulus(self) -> int:
        return self.pp.modulus

    @property
    def trivial(self) -> bool:
        """True when every residue satisfies the component congruence."""
        return len(self.residues) == self.modulus


@lru_cache(maxsize=None)
def _generator(pp: PrimePower) -> int:
    """A generator of the unit group mod p**e, p odd: the least primitive
    root g mod p, or g + p when g**(p-1) = 1 (mod p**2) and e > 1."""
    p = pp.p
    factors = sieve_and_factor().factorization(p - 1)
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // f.p, p) != 1 for f in factors))
    if pp.e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def prime_power_event(q: int, pp: PrimePower) -> PrimePowerEvent:
    """{r mod p**e : r**q = r (mod p**e)} for p**e maximal in q.

    A nonzero multiple r of p has r**q = 0 (mod p**e), since q >= p**e > e,
    so besides 0 only units are roots: those with r**(q-1) = 1.  For p = 2
    q - 1 is odd and the units mod 2**e form a 2-group, so only 1 is.  For
    odd p the unit group is cyclic of order phi, and the roots are the
    subgroup of order d = gcd(q-1, phi), generated by g**(phi/d).
    """
    m = pp.modulus
    if q % m != 0 or q % (m * pp.p) == 0:
        raise ValueError(f"{pp} is not a maximal prime power of {q}")
    if pp.p == 2:
        return PrimePowerEvent(q, pp, frozenset((0, 1)))
    phi = m - m // pp.p
    d = gcd(q - 1, phi)
    h = pow(_generator(pp), phi // d, m)
    roots = [0, 1]
    for _ in range(d - 1):
        roots.append(roots[-1] * h % m)
    # built from a list in increasing order, as enumeration would fill it
    return PrimePowerEvent(q, pp, frozenset(sorted(roots)))


def composite_event(q: int) -> tuple[PrimePowerEvent, ...]:
    """Per-component events of q, one per maximal prime power."""
    sieve = sieve_and_factor()
    if sieve.is_prime(q) or q < 4:
        raise ValueError(f"{q} is not composite")
    return tuple(prime_power_event(q, pp) for pp in sieve.factorization(q))


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
            if not ev.trivial:
                mask, m = self.masks[ev.pp.p], ev.modulus
                for r in ev.residues:
                    if 1 in mask[r::m]:
                        break
                else:
                    empty += (ev.pp.p,)
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
        nontrivial = [ev for ev in events if not ev.trivial]
        if len(nontrivial) > 1:
            primes = [ev.pp.p for ev in nontrivial]
            raise FormViolation(
                f"winner {events[0].q} constrains several primes {primes}")
        if not nontrivial:
            # universal pretender: it takes every base still unclaimed
            return None, Fraction(self._num, self._den)
        ev = nontrivial[0]
        p, m = ev.pp.p, ev.modulus
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

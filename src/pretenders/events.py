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
least-pretender contest has claimed yet.  Each winner constrains a
single prime, so the unclaimed bases stay a product of per-prime free
cells and every residual density is an exact ratio of cell counts.
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
    "Residual",
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


class Residual(NamedTuple):
    """Unclaimed slice of a composite's event set at some ledger state.

    ``free`` holds, for every prime the slice constrains, the number of
    cells (residues mod the tracked power) inside the event and still
    unclaimed.  The density is the product of free[p] / p**E_p; it is zero
    exactly when some count is zero.
    """

    free: dict[int, int]
    density: Fraction

    @property
    def empty_primes(self) -> tuple[int, ...]:
        return tuple(p for p, n in self.free.items() if not n)


class PreemptionLedger:
    """Per-prime free-cell masks for the cascade build.

    ``masks[p][r]`` is 1 while no ingested winner's event contains r mod
    ``moduli[p]``, the tracked power of p, and 0 once one does.
    """

    def __init__(self):
        self.moduli = sieve_and_factor().tracked_powers
        self.masks = {p: bytearray(b"\x01") * m
                      for p, m in self.moduli.items()}
        self._free: dict[int, int] = {}   # free cells per claimed prime
        # product of _free[p] / moduli[p] over the claimed primes
        self._num = self._den = 1

    def residual(self, events: tuple[PrimePowerEvent, ...]) -> Residual:
        """Event set of a composite, ``events``, minus everything already
        claimed, as per-prime free-cell counts with their exact joint
        density."""
        free: dict[int, int] = {}
        num, den = self._num, self._den
        for ev in events:
            if not ev.trivial:
                p, m = ev.pp.p, ev.modulus
                mask = self.masks[p]
                n = free[p] = sum(mask[r::m].count(1) for r in ev.residues)
                # n replaces the claimed prime's factor, or joins the product
                num *= n
                den *= self._free.get(p, self.moduli[p])
        # the constrained primes first, then the other claimed primes; the
        # second **free puts back the constrained counts over the claimed
        free = {**free, **self._free, **free}
        # num is 0 whenever den is: a claimed prime's zero is in both
        return Residual(free, Fraction(num, den) if num else Fraction(0))

    def ingest(self, events: tuple[PrimePowerEvent, ...]
               ) -> PrimePowerEvent | None:
        """Claim a winner's unclaimed event cells and return the event
        claimed, or None for the universal pretender, which constrains no
        prime.  The winner must constrain at most one prime; otherwise the
        product structure would be lost and FormViolation is raised."""
        nontrivial = [ev for ev in events if not ev.trivial]
        if len(nontrivial) > 1:
            primes = [ev.pp.p for ev in nontrivial]
            raise FormViolation(
                f"winner {events[0].q} constrains several primes {primes}")
        if not nontrivial:
            return None   # universal pretender: nothing left to claim after it
        ev = nontrivial[0]
        mask, m = self.masks[ev.pp.p], ev.modulus
        zeros = bytes(len(mask) // m)   # m divides the tracked power
        for r in ev.residues:
            mask[r::m] = zeros
        self._free[ev.pp.p] = mask.count(1)
        self._num = prod(self._free.values())
        self._den = prod(self.moduli[p] for p in self._free)
        return ev

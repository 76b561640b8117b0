"""Residue analysis of the self-power congruence, one prime power at a time.

For composite q and a maximal prime power p**e || q, the congruence
b**q = b (mod q) holds iff it holds modulo every such component, and the
component condition depends only on b mod p**e.  The *event* of the pair
(q, p**e) is the set of residues r mod p**e with r**q = r (mod p**e),
found here by plain enumeration of all p**e candidates.  It always
contains 0 and 1; for e = 1 it is {0} plus the gcd(q-1, p-1) roots of
unity, and it is the full residue system exactly when the component
places no constraint on b.

The ``PreemptionLedger`` keeps, per prime, a table naming the first
winner of the least-pretender contest that claimed each residue.  Each
winner constrains a single prime, so the unclaimed bases stay a product
of per-prime free cells and every residual density is an exact ratio of
cell counts.  The tracked powers are the maximal prime powers occurring
in any composite up to the sieve limit, derived from the sieve.
"""

from fractions import Fraction
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


def prime_power_event(q: int, pp: PrimePower) -> PrimePowerEvent:
    """Enumerate {r mod p**e : r**q = r (mod p**e)} for p**e maximal in q."""
    m = pp.modulus
    if q % m != 0 or q % (m * pp.p) == 0:
        raise ValueError(f"{pp} is not a maximal prime power of {q}")
    residues = frozenset(r for r in range(m) if pow(r, q, m) == r)
    return PrimePowerEvent(q, pp, residues)


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
    """Per-prime first-claim tables for the cascade build.

    ``claims[p][r]`` is the q of the first ingested winner whose event
    contains r mod ``moduli[p]``, or ``unclaimed`` (the sieve limit, 561:
    the universal pretender) while no winner has claimed r.  Winners are
    ingested in increasing order, so at the insertion of q the free cells
    of p are exactly those holding a value >= q.
    """

    def __init__(self):
        sieve = sieve_and_factor()
        moduli: dict[int, int] = {}
        for n in sieve.composites:
            for pp in sieve.factorization(n):
                moduli[pp.p] = max(moduli.get(pp.p, 1), pp.modulus)
        self.moduli = dict(sorted(moduli.items()))
        self.unclaimed = sieve.limit
        self.claims = {p: [self.unclaimed] * m for p, m in self.moduli.items()}
        self._free: dict[int, int] = {}   # unclaimed cells per claimed prime

    def residual(self, q: int,
                 events: tuple[PrimePowerEvent, ...]) -> Residual:
        """Event set of q, ``events``, minus everything already claimed, as
        per-prime free-cell counts with their exact joint density."""
        free: dict[int, int] = {}
        for ev in events:
            if not ev.trivial:
                table = self.claims[ev.pp.p]
                free[ev.pp.p] = sum(table[r::ev.modulus].count(self.unclaimed)
                                    for r in ev.residues)
        for p, n in self._free.items():
            free.setdefault(p, n)
        num = den = 1
        for p, n in free.items():
            num *= n
            den *= self.moduli[p]
        return Residual(free, Fraction(num, den))

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
        table = self.claims[ev.pp.p]
        for r in ev.residues:
            for i in range(r, len(table), ev.modulus):
                if table[i] == self.unclaimed:
                    table[i] = ev.q
        self._free[ev.pp.p] = table.count(self.unclaimed)
        return ev

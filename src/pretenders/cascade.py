"""The decision list for the least-composite self-power match.

Walk the composites 4, 6, 8, 9, ... 561 in increasing order, keeping a
ledger of which bases are already spoken for.  A composite whose event
set is entirely preempted never wins anything and is skipped (8 and 12
are the first casualties).  A composite with a positive-density residual
becomes an *entry*: it is the primary pretender of exactly the bases in
its residual, and its event is added to the ledger.

Two facts make the bookkeeping exact.  First, every winner below the
universal pretender constrains a single prime (checked at build time via
FormViolation), so the unclaimed bases always form a product of per-prime
residue sets and each entry's base share is an exact rational.  Second,
the final composite 561 pretends to every base, so the leftover density
is absorbed and the shares sum to exactly 1.

Each entry also carries a closed-form description: its event modulo the
constrained prime power m is contained in the k-th roots of 0 or 1
(mod m) with k = gcd(q-1, phi(m)), and inside the cascade the two sets
select the same new bases (the surplus roots of 0 are always preempted).
``derive_k_m`` verifies that description; ``classify``
never uses it, walking the exact event sets instead.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import UNIVERSAL_PRETENDER, render_decimal, sieve_and_factor
from .events import PreemptionLedger, composite_event

__all__ = [
    "Cascade",
    "Characterization",
    "FamilyReport",
    "RootDescription",
    "RootDescriptionError",
    "SkippedComposite",
    "build_cascade",
    "class_profile",
    "derive_k_m",
    "family_check",
]


class Characterization(NamedTuple):
    """One decision-list entry.  Its insertion-time state lives in the
    ledger's claim tables: the cells of ``prime`` still free when q was
    reached hold a value >= q, and the cells q claimed hold q itself."""

    q: int
    root_degree: int           # k in "k-th roots of 0 or 1 (mod m)"
    root_modulus: int          # m: the constrained prime power, 1 if none
    prime: int | None          # constrained prime, None for the universal entry
    event: frozenset[int]      # residues mod root_modulus satisfying the event
    density: Fraction          # exact share of bases claimed by this entry

    @property
    def rarity(self) -> Fraction:
        return 1 / self.density

    @property
    def rarity_display(self) -> str:
        return render_decimal(self.rarity)


class SkippedComposite(NamedTuple):
    """A composite whose residual was empty: it never wins a base."""

    q: int
    empty_primes: tuple[int, ...]


class Cascade:
    """Immutable decision list; safe to share across threads."""

    def __init__(self, entries: tuple[Characterization, ...],
                 ledger: PreemptionLedger,
                 skipped: tuple[SkippedComposite, ...]):
        self.entries = entries
        self.ledger = ledger
        self.skipped = skipped
        self._by_q = {e.q: e for e in entries}
        self._walk = [(e.q, e.root_modulus, e.event) for e in entries]

    def __len__(self) -> int:
        return len(self.entries)

    def qs(self) -> list[int]:
        return [e.q for e in self.entries]

    def entry_for(self, q: int) -> Characterization:
        try:
            return self._by_q[q]
        except KeyError:
            raise KeyError(f"{q} is not a decision-list entry") from None

    def classify(self, b: int) -> int:
        """Primary pretender of b: first entry whose event contains b.

        Works for arbitrarily large b; only b mod each entry modulus is
        consulted, so the result is periodic in b.
        """
        for q, m, event in self._walk:
            if b % m in event:
                return q
        raise AssertionError("unreachable: the universal entry matches")


def class_profile(cascade: Cascade, modulus: int, residue: int,
                  max_distinct: int | None = None) -> list[int]:
    """Distinct classify values attained on {b : b = residue (mod modulus)},
    in decision-list order; stops after ``max_distinct`` values.

    classify(b) is the least claim on b's cell across the per-prime claim
    tables, and the class pins each table to the cells congruent to the
    residue mod gcd(modulus, tracked power), one cell per table chosen
    freely.  A claim on a pinned cell is therefore attained exactly when
    every other table has a pinned cell claimed no earlier: when it does
    not exceed the least per-table maximum.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    ledger = cascade.ledger
    cells: dict[int, list[int]] = {}
    for p, table in ledger.claims.items():
        pin = gcd(modulus, ledger.moduli[p])
        cells[p] = table[residue % pin::pin]
    # an unclaimed cell is a table's largest possible value; finding one
    # is much cheaper than max() over the long unpinned tables
    bound = min(ledger.unclaimed if ledger.unclaimed in c else max(c)
                for c in cells.values())
    values: list[int] = []
    for e in cascade.entries:
        if e.q > bound or len(values) == max_distinct:
            break
        if e.prime is None or e.q in cells[e.prime]:
            values.append(e.q)
    return values


def build_cascade() -> Cascade:
    """Derive the full decision list by the ascending-composite walk."""
    ledger = PreemptionLedger()
    entries: list[Characterization] = []
    skipped: list[SkippedComposite] = []
    for q in sieve_and_factor().composites:
        events = composite_event(q)
        res = ledger.residual(events)
        if res.density == 0:
            skipped.append(SkippedComposite(q, res.empty_primes))
            continue
        ev = ledger.ingest(events)   # raises FormViolation on several primes
        if ev is not None:
            p = ev.pp.p
            phi = (p - 1) * ev.modulus // p
            entry = Characterization(
                q=q,
                root_degree=gcd(q - 1, phi),
                root_modulus=ev.modulus,
                prime=p,
                event=ev.residues,
                density=res.density,
            )
        else:
            # universal pretender: every base matches, absorbing the rest
            entry = Characterization(
                q=q, root_degree=1, root_modulus=1, prime=None,
                event=frozenset({0}), density=res.density,
            )
        entries.append(entry)
    return Cascade(tuple(entries), ledger, tuple(skipped))


class RootDescriptionError(RuntimeError):
    """An entry's k-th-roots description failed verification."""


class RootDescription(NamedTuple):
    q: int
    degree: int
    modulus: int
    formula_set: frozenset[int]   # k-th roots of 0 or 1 mod m
    surplus: frozenset[int]       # formula_set minus the exact event


def derive_k_m(cascade: Cascade, q: int) -> RootDescription:
    """Verify an entry's (degree, modulus) description:

    (a) the exact event, in closed form, has k + 1 residues;
    (b) the event is contained in the k-th roots of 0 or 1 (mod m);
    (c) inside the cascade the description selects exactly the entry's
        new bases, i.e. every surplus root was already preempted.
    """
    entry = cascade.entry_for(q)
    if entry.prime is None:
        return RootDescription(q, 1, 1, frozenset({0}), frozenset())
    p, m, degree = entry.prime, entry.root_modulus, entry.root_degree
    if len(entry.event) != degree + 1:
        raise RootDescriptionError(
            f"entry {q}: {len(entry.event)} event residues, not k + 1")
    formula = frozenset(r for r in range(m) if pow(r, degree, m) in (0, 1))
    if not entry.event <= formula:
        raise RootDescriptionError(
            f"entry {q}: event escapes the k-th-roots description")
    claims = cascade.ledger.claims[p]
    free_before = [r for r, v in enumerate(claims) if v >= q]
    new_residues = [r for r in free_before if claims[r] == q]
    if [r for r in free_before if r % m in formula] != new_residues:
        raise RootDescriptionError(
            f"entry {q}: surplus roots of 0 were not all preempted")
    return RootDescription(q, degree, m, formula, formula - entry.event)


class FamilyReport(NamedTuple):
    matches: bool
    missing: tuple[int, ...]   # in the closed-form family, not in the cascade
    extra: tuple[int, ...]     # in the cascade, not in the family
    group_sizes: dict[str, int]


def family_check(cascade: Cascade) -> FamilyReport:
    """Compare the derived entry set against its closed-form description:
    products of a small factor with primes in fixed ranges, a few squares,
    and the universal pretender."""
    primes = sieve_and_factor().primes
    groups = {
        "2p for p <= 277": {2 * p for p in primes if p <= 277},
        "3p for 3 <= p <= 181": {3 * p for p in primes if 3 <= p <= 181},
        "5p for p = 1 (mod 4), 5 <= p <= 109":
            {5 * p for p in primes if p % 4 == 1 and 5 <= p <= 109},
        "7p for p = 1 (mod 3), 7 <= p <= 79":
            {7 * p for p in primes if p % 3 == 1 and 7 <= p <= 79},
        "11p for p in {11, 31, 41}": {11 * p for p in (11, 31, 41)},
        "13p for p in {13, 37}": {13 * p for p in (13, 37)},
        "squares of 17, 19, 23": {17 ** 2, 19 ** 2, 23 ** 2},
        "universal": {UNIVERSAL_PRETENDER},
    }
    family: set[int] = set()
    for members in groups.values():
        assert not family & members, "family groups must be disjoint"
        family |= members
    derived = set(cascade.qs())
    return FamilyReport(
        matches=family == derived,
        missing=tuple(sorted(family - derived)),
        extra=tuple(sorted(derived - family)),
        group_sizes={name: len(members) for name, members in groups.items()},
    )

"""The decision list for the least-composite self-power match.

Walk the composites 4, 6, 8, 9, ... 561 in increasing order, keeping a
ledger of which bases are already spoken for.  The ledger's ``residual``
answers at which primes a composite constrains its event has no free
cell left; a composite with such a prime never wins anything and is
skipped (8 and 12 are the first casualties).  Any other composite is an
*entry*: the primary pretender of exactly the unclaimed bases of its
event, which the ledger's ``ingest`` claims, answering the exact share.
The ledger lives only as long as the walk: a ``Cascade`` is its entries
and skips, and every question asked of it afterwards is answered from
the entries.

Two facts make the bookkeeping exact.  First, every winner below the
universal pretender constrains a single prime (checked at build time via
FormViolation), so the unclaimed bases always form a product of per-prime
residue sets, and each entry's base share is a ratio of products of cell
counts, one ``Fraction`` per entry.  Second,
the final composite 561 pretends to every base, so the leftover density
is absorbed and the shares sum to exactly 1.

Each entry also carries a closed-form description: its event modulo the
constrained prime power m is contained in the k-th roots of 0 or 1
(mod m) with k = gcd(q-1, phi(m)), and inside the cascade the two sets
select the same new bases (the surplus roots of 0 are always preempted).
The event is a function of (p, m, k), so an entry is read off it alone.
``derive_k_m`` verifies that description against the per-prime tables.

``classify`` does not read the description.  Each prime enters the
period only through its own period, the lcm of its entries' moduli
(p**2 for p <= 23, p above), so ascending primes are grouped
while the product M of their periods stays within ``JOINT_PERIOD_CAP``,
and each group gets one joint table: per cell mod M, the least index of
an entry at those primes whose event holds the cell.  b's primary
pretender is the least index across the tables (the universal entry's
when none is smaller), and the walk stops at the first table past which
no later table holds a smaller index.  The 59 tracked primes fall into
36 tables of about 365,000 cells.

``prime_tables`` holds the same facts one prime at a time: per cell mod
the prime's own period, the least index of an entry at that prime whose
event holds the cell (8,874 cells in all).  ``class_profile``, the
minimality witnesses and ``derive_k_m`` read these; the first-base
search reads both kinds, the joint ones through ``joint_tables``.  Both
kinds are laid from the entries alone, on first use, so a cascade that
is only printed or recounted lays neither.
"""

from collections import namedtuple
from collections.abc import Sequence
from math import gcd, lcm

from .arith import UNIVERSAL_PRETENDER, render_decimal, sieve_and_factor
from .events import PreemptionLedger, composite_event

__all__ = [
    "Cascade",
    "Characterization",
    "FamilyReport",
    "PrimeTable",
    "RootDescription",
    "RootDescriptionError",
    "SkippedComposite",
    "build_cascade",
    "class_profile",
    "derive_k_m",
    "family_check",
    "lay_entry_indices",
]

# the largest joint period: 4 * 9 * 25 * 49, the periods of 2, 3, 5 and 7
JOINT_PERIOD_CAP = 44_100


class Characterization(namedtuple(
        "Characterization", "q root_degree root_modulus prime event density")):
    """One decision-list entry.  Its ``event``, the residues mod m =
    ``root_modulus`` (the constrained prime power of ``prime``; 1, with
    prime None, for the universal entry) that satisfy it, lies in the k-th
    roots of 0 or 1 (mod m) for k = ``root_degree``; ``density`` is the
    exact share of bases it claims.  Its insertion-time state can be read
    off the table of ``prime`` in ``Cascade.prime_tables``: the cells still
    free when q was reached hold q's index or a later one, and the cells
    q claimed hold q's index itself."""

    __slots__ = ()

    @property
    def rarity(self) -> "Fraction":
        return 1 / self.density

    @property
    def rarity_display(self) -> str:
        return render_decimal(self.rarity)


SkippedComposite = namedtuple("SkippedComposite", "q empty_primes")
SkippedComposite.__doc__ = """A composite whose residual was empty: its
event has no free cell left at its ``empty_primes``, so it never wins a
base."""

PrimeTable = namedtuple("PrimeTable", "period cells top")
PrimeTable.__doc__ = """One tracked prime's entry indices over the
prime's own ``period``, the lcm of the moduli of its entries: per cell,
the least index of an entry there, as ``cells`` bytes; ``top`` is
max(cells)."""


class Cascade:
    """Immutable decision list; safe to share across threads.  Its
    entries end with the universal one (root modulus 1), the floor of
    every table, and number at most 256, so an index fits in a byte; any
    other shape, no entries included, raises ``ValueError``."""

    def __init__(self, entries: tuple[Characterization, ...],
                 skipped: tuple[SkippedComposite, ...]):
        if len(entries) > 256:
            raise ValueError(f"{len(entries)} entries: an entry index must "
                             "fit in one byte (at most 256 entries)")
        if not entries or entries[-1].root_modulus != 1:
            raise ValueError("a cascade must end with the universal entry")
        self.entries = entries
        self.skipped = skipped
        self._by_q = {e.q: e for e in entries}
        # Both kinds of table are laid on first use.  Every attribute is
        # set here and only reassigned later: one added afterwards, as a
        # cached_property adds its value, makes CPython 3.11 read the
        # instance's attributes through a plain dict, and classify lost
        # 10-20% per call that way.
        self._tables = tuple(e.q for e in entries), _Unlaid(self)
        self._prime_tables: dict[int, PrimeTable] | None = None
        # the indices of the entries at each prime, ascending primes, each
        # with the prime's own period: the lcm of those entries' moduli
        by_prime: dict[int, list[int]] = {}
        for j, e in enumerate(entries):
            if e.prime is not None:
                by_prime.setdefault(e.prime, []).append(j)
        self._by_prime = {
            p: (lcm(*(entries[j].root_modulus for j in js)), js)
            for p, js in sorted(by_prime.items())}

    @property
    def prime_tables(self) -> dict[int, PrimeTable]:
        """Per tracked prime, ascending: per cell mod its period, the
        least index of an entry at the prime whose event holds the cell,
        or the universal entry's where none does."""
        if self._prime_tables is None:
            tables = {}
            for p, (period, js) in self._by_prime.items():
                cells = bytes(lay_entry_indices(self, js, 0, period))
                tables[p] = PrimeTable(period, cells, max(cells))
            self._prime_tables = tables
        return self._prime_tables

    @property
    def joint_tables(self) -> tuple[tuple[int, bytes, int], ...]:
        """The tables ``classify`` walks, in ascending prime order and
        laid on first use: per table its modulus M, the entry index on
        each cell mod M and the least index in any later table."""
        walk = self._tables[1]
        return walk if isinstance(walk, tuple) else self._lay_joint()

    def _lay_joint(self) -> tuple:
        """Lay the joint tables in ascending prime order, as (M, entry
        index on each cell mod M, least index in any later table), and
        keep them in ``_tables`` beside the q of each entry; table 0
        starts at modulus 1, so every cascade has at least one."""
        # ascending primes share a table while M, the product of their
        # periods, stays within the cap
        moduli = [1]
        js: list[list[int]] = [[]]
        for period, group in self._by_prime.values():
            if moduli[-1] * period <= JOINT_PERIOD_CAP:
                moduli[-1] *= period
                js[-1] += group
            else:
                moduli.append(period)
                js.append(list(group))
        # No index exceeds the universal entry's, so the last table always
        # ends the walk.
        walk = []
        later = len(self.entries) - 1
        for m, group in zip(reversed(moduli), reversed(js)):
            group.sort()
            cells = bytes(lay_entry_indices(self, group, 0, m))
            walk.append((m, cells, later))
            # a byte search each, much cheaper than min() over the cells
            later = min(later, next((j for j in group if j in cells), later))
        walk = tuple(reversed(walk))
        self._tables = self._tables[0], walk
        return walk

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
        """Primary pretender of b: the first entry whose event contains b.

        Each joint table holds, per cell mod its modulus M (a product of
        whole per-prime periods), the least index of an entry at those
        primes whose event holds the cell.  Tables are read in ascending
        prime order, stopping once no later table holds a smaller index,
        so the answer is the exact minimum.  Only b mod each M is read:
        any int b works, negative or of any size, and the result is
        periodic in b.
        """
        qs, tables = self._tables
        best = len(qs) - 1
        for m, cells, later in tables:
            j = cells[b % m]
            if j < best:
                best = j
            if best <= later:
                break
        return qs[best]


class _Unlaid:
    """Stands in for a cascade's joint tables until the first classify
    walks them: that walk lays them in its place, so no later call pays
    for a check."""

    def __init__(self, cascade: Cascade):
        self.cascade = cascade

    def __iter__(self):
        return iter(self.cascade._lay_joint())


def lay_entry_indices(cascade: Cascade, js: Sequence[int],
                      start: int, n: int) -> bytearray:
    """A byte per base b in [start, start + n): the least j in ``js`` whose
    entry of ``cascade`` holds b in its event, or the universal entry's
    index where none does.

    Every slot starts at the universal index, the largest a cascade
    holds.  The entries named are laid over it from the last j to the
    first, each residue of an event by one strided slice assignment, so
    the least j is the one left in its slot.  Only offsets from ``start``
    index the buffer; ``start`` is reduced per entry modulus as a Python
    int, so any start works.
    """
    entries = cascade.entries
    idx = bytearray([len(entries) - 1]) * n
    for j in reversed(js):
        e = entries[j]
        m = e.root_modulus
        for r in e.event:
            i = (r - start) % m
            idx[i::m] = bytes([j]) * len(range(i, n, m))
    return idx


def class_profile(cascade: Cascade, modulus: int, residue: int,
                  max_distinct: int | None = None) -> list[int]:
    """Distinct classify values attained on {b : b = residue (mod modulus)},
    in decision-list order; stops after ``max_distinct`` values.

    classify(b) is the least entry index on b's cells across the
    per-prime tables, and the class pins each table to the cells
    congruent to the residue mod gcd(modulus, period), one cell per table
    chosen freely.  An index on a pinned cell is therefore attained
    exactly when every other table has a pinned cell holding no smaller
    index: when it does not exceed the least per-table maximum.  Only the
    primes that divide the modulus are sliced; every other table stays
    whole and adds its constant maximum to that bound.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    tables = cascade.prime_tables
    pinned: dict[int, bytes] = {}
    tops: list[int] = []
    for p, t in tables.items():
        if modulus % p:
            tops.append(t.top)
        else:
            pin = gcd(modulus, t.period)
            cells = pinned[p] = t.cells[residue % pin::pin]
            tops.append(max(cells))
    bound = min(tops, default=len(cascade.entries) - 1)
    values: list[int] = []
    for j, e in enumerate(cascade.entries):
        if j > bound or len(values) == max_distinct:
            break
        p = e.prime
        if p is None or j in (pinned[p] if p in pinned else tables[p].cells):
            values.append(e.q)
    return values


def build_cascade() -> Cascade:
    """Derive the full decision list by the ascending-composite walk."""
    ledger = PreemptionLedger()
    entries: list[Characterization] = []
    skipped: list[SkippedComposite] = []
    for q in sieve_and_factor().composites:
        events = composite_event(q)
        empty = ledger.residual(events)
        if empty:
            skipped.append(SkippedComposite(q, empty))
            continue
        density = ledger.ingest(events)   # FormViolation on 2+ primes
        if events:
            (ev,) = events
            entry = Characterization(q, ev.degree, ev.modulus, ev.p,
                                     ev.residues, density)
        else:
            # universal pretender: every base matches, absorbing the rest
            entry = Characterization(q, 1, 1, None, frozenset({0}), density)
        entries.append(entry)
    return Cascade(tuple(entries), tuple(skipped))


class RootDescriptionError(RuntimeError):
    """An entry's k-th-roots description failed verification."""


# formula_set: the k-th roots of 0 or 1 mod m; surplus: formula_set
# minus the exact event
RootDescription = namedtuple("RootDescription",
                             "q degree modulus formula_set surplus")


def derive_k_m(cascade: Cascade, q: int) -> RootDescription:
    """Verify an entry's (degree, modulus) description:

    (a) the exact event, in closed form, has k + 1 residues;
    (b) the event is contained in the k-th roots of 0 or 1 (mod m);
    (c) inside the cascade the description selects exactly the entry's
        new bases, i.e. every surplus root was already preempted.

    Check (c) reads the table of q's prime over its period, a multiple of
    m: the cells free before q hold q's index j or a later one, and the
    cells q claimed hold j.  Those cells are laid from the event, so by
    (b) they are roots; what is left to check is that no cell holding a
    later index is one.
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
    j = cascade.entries.index(entry)
    cells = cascade.prime_tables[p].cells
    if any(v > j and r % m in formula for r, v in enumerate(cells)):
        raise RootDescriptionError(
            f"entry {q}: surplus roots of 0 were not all preempted")
    return RootDescription(q, degree, m, formula, formula - entry.event)


# missing: in the closed-form family, not in the cascade; extra: in the
# cascade, not in the family
FamilyReport = namedtuple("FamilyReport",
                          "matches missing extra group_sizes")


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
    family = set().union(*groups.values())
    derived = set(cascade.qs())
    return FamilyReport(
        matches=family == derived,
        missing=tuple(sorted(family - derived)),
        extra=tuple(sorted(derived - family)),
        group_sizes={name: len(members) for name, members in groups.items()},
    )

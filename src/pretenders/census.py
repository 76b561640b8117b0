"""Counting over the decision list: densities and first bases.

``classify_range`` classifies a contiguous base range at once.  It keeps
a byte per base holding the index of its entry, laid by
``cascade.lay_entry_indices`` as the joint tables of ``classify`` are:
over the universal entry's index, the other entries from last to first,
each residue of an entry's event by one strided slice assignment, so the
earliest entry that matches a base is the one left in its slot.  Two
``bytes.translate`` tables then turn indices into q values.

The least base of each entry is found exactly, with no bound.  The bases
below ``PREFIX`` are classified outright; every entry still unfound is
then searched over its candidates only.  Entry j at prime p serves b
exactly when p's cell at b holds j and every joint table holds an index
of at least j at b: classify takes the least index across the joint
tables, and only p's table can hold j.  The class modulus k is the gcd
of ``CLASS_MODULUS`` and the modulus of joint table 0 (180 on the
build), so a class s mod k pins that table to its cells congruent to s,
and j can serve the class only if j is at most the largest of those
cells and the largest index of every later table.  The candidates join
each of p's cells that holds j, by CRT, to each class that bound admits
and the cell agrees with mod their gcd: a few residues mod lcm(k, p's
period); the universal entry, at no prime, takes the admitted classes
alone.  The walk takes them in ascending blocks and tests each in place
against the joint tables with j as the threshold, tables 0 and 1 first
since they reject most.  The first that passes is j's least base; a walk
given ``max_base`` stops at it.  It is exact because the candidates hold
every base j serves.  It ends because every candidate residue holds such
bases: each table's cells are independent per-prime cells by CRT, so
every other prime has a cell holding j or more in the pinned class, and
a base that meets all of them is served by j.

The density and skip checks recount free cells from raw congruences, so
they do not lean on the event machinery or the tables they are checking.
One walk per cascade answers them all.  It takes the entries and skips
in ascending q and keeps, for each prime p with tracked power P (the
sieve's ``tracked_powers``: the largest power of p that is a component
of a composite up to 561), a byte per cell mod P marking the cells no
earlier entry claims, and their count.  At each q it reads first: a
skip counts the free cells that satisfy q's own congruence at each prime
it names, and an entry counts them at q's own primes.  An entry's
count is those counts times the free counts at every other prime: the
bases it takes in each run of D consecutive ones, D the product of the
P, kept as an int.  Its density, count/D, becomes a ``Fraction`` only
when it is asked for.  Then each entry at q zeroes the cells of its
congruence at its prime, one strided slice per root.  The walk reads
only the entries' q, prime and modulus, the skips' q and named primes
and the sieve; the roots come from pow()
and are cached per (exponent, modulus) pair.  A memo keyed weakly by the
cascade object keeps the walk's answers, so the first query makes them
and a cascade that is dropped frees them.

``diff_cells`` is the one diff of golden against derived keyed cells:
``tables.run_regressions`` gives it mod36, t1, t2 and the period, and
``rarity_regression`` the t3 rows as (q, field) cells.
"""

import sys
from array import array
from collections import namedtuple
from functools import cache
from itertools import count
from math import gcd, prod
from weakref import WeakKeyDictionary

from .arith import sieve_and_factor
from .cascade import Cascade, SkippedComposite, lay_entry_indices

__all__ = [
    "CensusReport",
    "FirstBaseScan",
    "Mismatch",
    "classify_range",
    "density_by_residue_count",
    "diff_cells",
    "first_bases",
    "rarity_regression",
    "verify_skipped",
]

PREFIX = 1 << 14        # bases classified outright by the first-base search
CLASS_MODULUS = 180     # classes mod 4, 9 and 5 that prune its candidates


def classify_range(cascade: Cascade, start: int, stop: int) -> array:
    """Primary pretenders of b in [start, stop), as an ``array('H')``;
    any start works, however large or negative."""
    if stop < start:
        raise ValueError(f"classify_range: stop {stop} is below start {start}")
    entries = cascade.entries
    n = stop - start
    idx = lay_entry_indices(cascade, range(len(entries) - 1), start, n)
    qs = [e.q for e in entries]
    pad = bytes(256 - len(qs))
    low = bytes(q & 0xFF for q in qs) + pad
    high = bytes(q >> 8 for q in qs) + pad
    buf = bytearray(2 * n)
    buf[0::2] = idx.translate(low)
    buf[1::2] = idx.translate(high)
    out = array("H", buf)
    if sys.byteorder == "big":
        out.byteswap()
    return out


FirstBaseScan = namedtuple("FirstBaseScan", "found missing")


def _candidates(cascade: Cascade, j: int, modulus: int, classes: list[int]
                ) -> tuple[int, list[int]]:
    """The period L = lcm(``modulus``, own period of entry ``j``'s prime)
    and, ascending, the residues mod L whose cell at that prime holds j
    and whose class mod ``modulus`` is in ``classes``: one CRT of each
    cell with each class it is congruent to mod their gcd."""
    entry = cascade.entries[j]
    if entry.prime is None:   # the universal entry holds no cell of its own
        own, cells = 1, [0]
    else:
        own, table, _ = cascade.prime_tables[entry.prime]
        cells = [r for r, v in enumerate(table) if v == j]
    g = gcd(own, modulus)
    n = modulus // g
    step = pow(own // g, -1, n)   # own // g times step is 1 mod n
    return own * n, sorted(r + own * ((s - r) // g * step % n)
                           for r in cells for s in classes
                           if (s - r) % g == 0)


def _least_base(tables: tuple, j: int, period: int, residues: list[int],
                start: int, stop: int | None) -> int | None:
    """Least base that entry ``j`` serves, given that none lies below
    ``start``: the first candidate on which no joint table holds an index
    below j (see the module docstring).  None if the walk passes ``stop``
    first; a base it returns may still lie at ``stop`` or past it."""
    (m0, c0, _), (m1, c1, _) = tables[:2]
    first = start - start % period
    blocks = (count(first, period) if stop is None
              else range(first, stop, period))
    for block in blocks:
        for r in residues:
            b = block + r
            # tables 0 and 1 reject most candidates; the walk below reads
            # them again, as classify does, and stops once no later
            # table holds an index below j
            if c0[b % m0] < j or c1[b % m1] < j:
                continue
            for m, cells, later in tables:
                if cells[b % m] < j:
                    break
                if j <= later:
                    return b
    return None


def first_bases(cascade: Cascade, max_base: int | None = None
                ) -> FirstBaseScan:
    """Least base for every entry, exact and unbounded; an entry that
    serves no base raises ``RuntimeError``.  With ``max_base``, the
    entries with no least base below it are reported missing."""
    head = classify_range(cascade, 0, PREFIX)
    # a later pair overwrites an earlier one, so the least base is kept
    first = dict(zip(reversed(head), range(PREFIX - 1, -1, -1)))
    entries = cascade.entries
    rest = [j for j, e in enumerate(entries) if e.q not in first]
    if rest:
        universal = len(entries) - 1
        # a table of one cell holding the universal index rejects nothing,
        # so a cascade with a single joint table is walked the same way
        tables = (*cascade.joint_tables, (1, bytes([universal]), universal))
        m0, cells0, _ = tables[0]
        k = gcd(CLASS_MODULUS, m0)   # a class mod k pins cells of table 0
        # no index exceeds the universal one, so the byte searches down
        # from it find each table's maximum, far cheaper than max()
        tail = min(next(v for v in range(universal, -1, -1) if v in cells)
                   for _, cells, _ in tables[1:])
        bound = [min(max(cells0[s::k]), tail) for s in range(k)]
        for j in rest:
            classes = [s for s, top in enumerate(bound) if top >= j]
            period, residues = _candidates(cascade, j, k, classes)
            if not residues:
                if max_base is None:
                    raise RuntimeError(f"entry {entries[j].q}: the joint "
                                       "tables leave it no candidate base")
                continue
            b = _least_base(tables, j, period, residues, PREFIX, max_base)
            if b is not None:
                first[entries[j].q] = b
    found = {q: b for q, b in sorted(first.items())
             if max_base is None or b < max_base}
    missing = tuple(sorted(set(cascade.qs()) - found.keys()))
    return FirstBaseScan(found=found, missing=missing)


class CensusReport(namedtuple("CensusReport", "cascade scan")):
    __slots__ = ()

    @property
    def first_base(self) -> dict[int, int]:
        return self.scan.found

    @classmethod
    def build(cls, cascade: Cascade,
              max_base: int | None = None) -> "CensusReport":
        return cls(cascade, first_bases(cascade, max_base))


Mismatch = namedtuple("Mismatch", "table key expected actual")


def diff_cells(table: str, expected: dict, actual: dict) -> list[Mismatch]:
    """Every key whose expected and actual cells differ, in key order;
    a key on one side only reads ``<absent>`` on the other."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        e, a = expected.get(key, "<absent>"), actual.get(key, "<absent>")
        if e != a:
            out.append(Mismatch(table, key, e, a))
    return out


def _t3_cells(rows) -> dict[tuple[int, str], object]:
    """The cells of (q, k, m, first_base, rarity) rows keyed (q, field),
    each rarity in integer hundredths written as a two-place decimal."""
    return {(q, field): v for q, k, m, first, r in rows
            for field, v in (("k", k), ("m", m), ("first_base", first),
                             ("rarity", f"{r // 100}.{r % 100:02}"))}


def rarity_regression(report: CensusReport, golden_rows) -> list[Mismatch]:
    """Diff the derived per-entry summary against golden (q, k, m,
    first_base, rarity) rows, keyed (q, field); a q on one side only is
    a mismatch in each of its four fields.

    The golden rarity column is the exact rarity truncated (not rounded,
    as ``rarity_display`` is) to hundredths; the derived one, 1/density,
    is truncated the same way: 100 * period // count.
    """
    derived = [(e.q, e.root_degree, e.root_modulus,
                report.first_base.get(e.q), 100 * e.period // e.count)
               for e in report.cascade.entries]
    return diff_cells("t3", _t3_cells(golden_rows), _t3_cells(derived))


# ---------------------------------------------------------------------------
# independent density checks

@cache
def _self_power_roots(w: int, m: int) -> tuple[int, ...]:
    """Residues r mod m with r**w = r (mod m), by plain enumeration."""
    return tuple(r for r in range(m) if pow(r, w, m) == r)


def _own_cells(mask: bytearray, q: int, m: int) -> int:
    """Cells r of ``mask`` still free that satisfy q's own congruence
    r**q = r (mod m), which every cell does when m is 1; m divides the
    mask's length."""
    return sum(mask[s::m].count(1) for s in _self_power_roots(q, m))


# each cascade's counts and skip verdicts, made on its first query and
# dropped with it
_recounts: WeakKeyDictionary = WeakKeyDictionary()


def _recount(cascade: Cascade
             ) -> tuple[int, dict[int, int], dict[int, bool]]:
    """D, every entry's count of bases per D and every skip's verdict, by
    q, from one walk over the cascade in ascending q (see the module
    docstring)."""
    done = _recounts.get(cascade)
    if done is not None:
        return done
    sieve = sieve_and_factor()
    masks = {p: bytearray(b"\x01") * m
             for p, m in sieve.tracked_powers.items()}
    free = {p: len(mask) for p, mask in masks.items()}
    # the running product of the free counts, D before any claim
    num = whole = prod(free.values())
    counts: dict[int, int] = {}
    skips: dict[int, bool] = {}
    # a skip reads before an entry at its q claims
    walk = sorted([*cascade.skipped, *cascade.entries],
                  key=lambda x: (x.q, not isinstance(x, SkippedComposite)))
    for x in walk:
        q = x.q
        own = dict(sieve.factorization(q))
        if isinstance(x, SkippedComposite):
            skips[q] = bool(x.empty_primes) and not any(
                _own_cells(masks[p], q, own.get(p, 1))
                for p in x.empty_primes)
            continue
        # at each of q's primes its own free cells replace the free
        # count; every other prime keeps its share
        n, d = num, 1
        for p, m in own.items():
            if p in masks:
                n *= _own_cells(masks[p], q, m)
                d *= free[p]
        counts[q] = n // d
        if x.prime in masks:
            p, m = x.prime, x.root_modulus
            mask = masks[p]
            zeros = bytes(len(mask) // m)
            for s in _self_power_roots(q, m):
                mask[s::m] = zeros
            old, free[p] = free[p], mask.count(1)
            if old:   # else num is 0 already
                num = num // old * free[p]
    done = _recounts[cascade] = whole, counts, skips
    return done


def density_by_residue_count(cascade: Cascade, q: int) -> "Fraction":
    """Recount an entry's density from raw congruences, as a ``Fraction``
    made from the recount when it is asked for.

    For each prime p, count the cells mod the tracked power P of p that
    no earlier entry's congruence claims, and at q's own primes only
    those satisfying q's congruence.  The density is the product of the
    counts over the product of the P.  Everything is recomputed with
    pow(); the only cascade inputs are the entries' q values, primes and
    constrained moduli.
    """
    from fractions import Fraction
    cascade.entry_for(q)   # KeyError unless q is an entry
    whole, counts, _ = _recount(cascade)
    return Fraction(counts[q], whole)


def verify_skipped(cascade: Cascade, q: int) -> bool:
    """Confirm from raw congruences that a skipped composite truly has an
    empty residual: at every prime it names, no cell is left free."""
    skips = _recount(cascade)[2]
    if q not in skips:
        raise KeyError(f"{q} is not a skipped composite")
    return skips[q]

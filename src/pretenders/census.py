"""Counting over the decision list: densities, first bases, extremes.

``classify_range`` classifies a contiguous base range at once.  It keeps
a byte per base holding the index of its entry, laid by
``cascade.lay_entry_indices`` as the joint tables of ``classify`` are:
the entries from last to first, each residue of an entry's event by one
strided slice assignment, so the earliest entry that matches a base is
the one left in its slot.  Two ``bytes.translate`` tables then turn
indices into q values.

The least base of each entry is found exactly, with no bound.  The bases
below ``PREFIX`` are classified outright; every entry still unfound is
then searched over its candidates only.  classify(b) is the least entry
index on b's cells across the cascade's per-prime tables, so each base
q serves has q's index on its cell mod the period of q's prime, and its
class mod ``CLASS_MODULUS`` has q in its ``class_profile``.  Together the
two conditions pick a few residues mod lcm(``CLASS_MODULUS``, period);
walking them in ascending blocks, the first base that classifies to q is
its least base.  The walk ends because the candidates hold every base q
serves, and that set is periodic with positive density.

The density and skip checks recount free cells from raw congruences, so
they do not lean on the event machinery or the tables they are checking.
One walk per cascade answers them all.  It takes the entries and skips
in ascending q and keeps, for each prime p with tracked power P (the
sieve's ``tracked_powers``: the largest power of p that is a component
of a composite up to 561), a byte per cell mod P marking the cells no
earlier entry claims, and their count.  At each q it reads first: a
skip counts the free cells that satisfy q's own congruence at each prime
it names, and an entry counts them at q's own primes.  An entry's
density is those counts times the free counts at every other prime,
over the product of the P; the walk keeps the product of the free
counts as one running int and makes one Fraction per entry.  Then each
entry at q zeroes the cells of its congruence at its prime, one strided
slice per root.  The walk reads only the entries' q, prime and modulus,
the skips' q and named primes and the sieve; the roots come from pow()
and are cached per (exponent, modulus) pair.  A memo keyed weakly by the
cascade object keeps the walk's answers, so the first query makes them
and a cascade that is dropped frees them.
"""

import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import count
from math import floor, lcm, prod
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .arith import render_decimal, sieve_and_factor
from .cascade import (Cascade, SkippedComposite, class_profile,
                      lay_entry_indices)
from .pretender import primary_pretender_oracle

__all__ = [
    "CensusReport",
    "Extremes",
    "FirstBaseScan",
    "Mismatch",
    "classify_range",
    "density_by_residue_count",
    "entry_period_lcm",
    "extremes",
    "first_bases",
    "oracle_period_census",
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
    idx = lay_entry_indices(entries, range(len(entries)), start, n)
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


class FirstBaseScan(NamedTuple):
    found: dict[int, int]
    missing: tuple[int, ...]
    seconds: float


def _least_base(cascade: Cascade, j: int, profiles: list[set[int]],
                start: int) -> int:
    """Least base b with classify(b) the q of entry ``j``, given that
    none lies below ``start``, trying only q's candidates (see the module
    docstring)."""
    entry = cascade.entries[j]
    q, width = entry.q, CLASS_MODULUS
    classes = {r for r, profile in enumerate(profiles) if q in profile}
    if entry.prime is None:   # the universal entry holds no cell of its own
        period, residues = width, sorted(classes)
    else:
        own, cells, _ = cascade.prime_tables[entry.prime]
        period = lcm(width, own)
        residues = sorted(
            x for r, v in enumerate(cells)
            if v == j for x in range(r, period, own) if x % width in classes)
    if not residues:
        raise RuntimeError(f"entry {q}: the per-prime tables leave it no "
                           "candidate base")
    classify = cascade.classify
    for block in count(start - start % period, period):
        for r in residues:
            if classify(block + r) == q:
                return block + r


def first_bases(cascade: Cascade, max_base: int | None = None
                ) -> FirstBaseScan:
    """Least base for every entry, exact and unbounded.  With
    ``max_base``, the entries whose least base is not below it are
    reported missing."""
    t0 = time.perf_counter()
    head = classify_range(cascade, 0, PREFIX)
    # a later pair overwrites an earlier one, so the least base is kept
    first = dict(zip(reversed(head), range(PREFIX - 1, -1, -1)))
    rest = [j for j, e in enumerate(cascade.entries) if e.q not in first]
    if rest:
        profiles = [set(class_profile(cascade, CLASS_MODULUS, r))
                    for r in range(CLASS_MODULUS)]
        for j in rest:
            first[cascade.entries[j].q] = _least_base(cascade, j, profiles,
                                                      PREFIX)
    found = {q: b for q, b in sorted(first.items())
             if max_base is None or b < max_base}
    return FirstBaseScan(found=found,
                         missing=tuple(sorted(first.keys() - found.keys())),
                         seconds=time.perf_counter() - t0)


class CensusReport(NamedTuple):
    cascade: Cascade
    scan: FirstBaseScan

    @property
    def first_base(self) -> dict[int, int]:
        return self.scan.found

    @classmethod
    def build(cls, cascade: Cascade,
              max_base: int | None = None) -> "CensusReport":
        return cls(cascade, first_bases(cascade, max_base))


class Extremes(NamedTuple):
    latest_first_base: tuple[int, int]     # (q, base)
    rarest: tuple[int, Fraction]           # (q, rarity)
    first_base_ties: tuple[int, ...]
    rarity_ties: tuple[int, ...]


def extremes(report: CensusReport) -> Extremes:
    fb = report.first_base
    q_fb = max(fb, key=lambda q: fb[q])
    fb_ties = tuple(sorted(q for q in fb if fb[q] == fb[q_fb]))
    rar = {e.q: e.rarity for e in report.cascade.entries}
    q_r = max(rar, key=lambda q: rar[q])
    r_ties = tuple(sorted(q for q in rar if rar[q] == rar[q_r]))
    return Extremes((q_fb, fb[q_fb]), (q_r, rar[q_r]), fb_ties, r_ties)


class Mismatch(NamedTuple):
    table: str
    key: object
    expected: object
    actual: object


def rarity_regression(report: CensusReport, golden_rows) -> list[Mismatch]:
    """Diff the derived per-entry summary against golden (q, k, m,
    first_base, rarity) rows, keyed (q, field).  Fields are compared
    only when the rows hold each entry's q exactly once.

    The golden rarity column truncates the exact rarity to two places
    (``rarity_display`` rounds half-to-even instead), so it must equal
    that truncation exactly.
    """
    out: list[Mismatch] = []
    derived = {e.q: e for e in report.cascade.entries}
    want = Counter(row.q for row in golden_rows)
    have = Counter(derived.keys())
    if want != have:
        return [Mismatch("t3", (q, "q"), want[q], have[q])
                for q in sorted(want | have) if want[q] != have[q]]
    for row in golden_rows:
        e = derived[row.q]
        if e.root_degree != row.k:
            out.append(Mismatch("t3", (row.q, "k"), row.k, e.root_degree))
        if e.root_modulus != row.m:
            out.append(Mismatch("t3", (row.q, "m"), row.m, e.root_modulus))
        mine_first = report.first_base.get(row.q)
        if mine_first != row.first_base:
            out.append(Mismatch("t3", (row.q, "first_base"),
                                row.first_base, mine_first))
        mine = Fraction(floor(100 * e.rarity), 100)
        if Fraction(row.rarity) != mine:
            out.append(Mismatch("t3", (row.q, "rarity"), row.rarity,
                                render_decimal(mine)))
    return out


# ---------------------------------------------------------------------------
# independent density checks

def entry_period_lcm(cascade: Cascade, upto_q: int) -> int:
    """lcm of the entry moduli for entries <= upto_q; the set of bases
    claimed by those entries repeats with exactly this period."""
    return lcm(*(e.root_modulus for e in cascade.entries if e.q <= upto_q))


def oracle_period_census(limit: int) -> dict[int, int]:
    """Count primary pretenders over [0, limit) by the brute-force oracle."""
    counts: dict[int, int] = {}
    for b in range(limit):
        q = primary_pretender_oracle(b)
        counts[q] = counts.get(q, 0) + 1
    return counts


@cache
def _self_power_roots(w: int, m: int) -> tuple[int, ...]:
    """Residues r mod m with r**w = r (mod m), by plain enumeration."""
    return tuple(r for r in range(m) if pow(r, w, m) == r)


def _own_cells(mask: bytearray, q: int, m: int) -> int:
    """Cells r of ``mask`` still free that satisfy q's own congruence
    r**q = r (mod m), which every cell does when m is 1; m divides the
    mask's length."""
    return sum(mask[s::m].count(1) for s in _self_power_roots(q, m))


# each cascade's densities and skip verdicts, made on its first query
# and dropped with it
_recounts: WeakKeyDictionary = WeakKeyDictionary()


def _recount(cascade: Cascade
             ) -> tuple[dict[int, Fraction], dict[int, bool]]:
    """Every entry's density and every skip's verdict, by q, from one
    walk over the cascade in ascending q (see the module docstring)."""
    done = _recounts.get(cascade)
    if done is not None:
        return done
    sieve = sieve_and_factor()
    masks = {p: bytearray(b"\x01") * m
             for p, m in sieve.tracked_powers.items()}
    free = {p: len(mask) for p, mask in masks.items()}
    # the running product of the free counts, over that of the moduli
    num = den = prod(free.values())
    densities: dict[int, Fraction] = {}
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
        densities[q] = Fraction(n // d, den) if n else Fraction(0)
        if x.prime in masks:
            p, m = x.prime, x.root_modulus
            mask = masks[p]
            zeros = bytes(len(mask) // m)
            for s in _self_power_roots(q, m):
                mask[s::m] = zeros
            old, free[p] = free[p], mask.count(1)
            if old:   # else num is 0 already
                num = num // old * free[p]
    done = _recounts[cascade] = densities, skips
    return done


def density_by_residue_count(cascade: Cascade, q: int) -> Fraction:
    """Recount an entry's density from raw congruences.

    For each prime p, count the cells mod the tracked power P of p that
    no earlier entry's congruence claims, and at q's own primes only
    those satisfying q's congruence.  The density is the product of the
    counts over the product of the P.  Everything is recomputed with
    pow(); the only cascade inputs are the entries' q values, primes and
    constrained moduli.
    """
    cascade.entry_for(q)   # KeyError unless q is an entry
    return _recount(cascade)[0][q]


def verify_skipped(cascade: Cascade, q: int) -> bool:
    """Confirm from raw congruences that a skipped composite truly has an
    empty residual: at every prime it names, no cell is left free."""
    skips = _recount(cascade)[1]
    if q not in skips:
        raise KeyError(f"{q} is not a skipped composite")
    return skips[q]

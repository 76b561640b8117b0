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

The density and skip checks recount free cells one prime at a time, from
raw congruences, so they do not lean on the event machinery or the
tables they are checking.  Each call makes one pass over the entries and
groups the (q', modulus) pairs of those before q by the prime each one
constrains.  For a prime p with tracked power P (the sieve's
``tracked_powers``: the largest power of p that is a component of a
composite up to 561), it keeps a byte per cell mod P, zeroes the cells
that p's group claims (one strided slice per root of each congruence),
then counts the cells left that satisfy q's own congruence.  A density
multiplies the counts and the P as plain ints and makes one Fraction; a
skip check looks only at the primes its skip names.  They read only the
earlier entries' q, prime and modulus and the sieve; the roots come from
pow() and are cached per (exponent, modulus) pair.
"""

import sys
import time
from array import array
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from itertools import count
from math import floor, lcm
from typing import NamedTuple

from .arith import render_decimal, sieve_and_factor
from .cascade import Cascade, class_profile, lay_entry_indices
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


def _claims_before(cascade: Cascade, q: int, primes: Iterable[int]
                   ) -> dict[int, list[tuple[int, int]]]:
    """(q', root_modulus) of every entry before q, grouped by the prime
    each one constrains, for each of ``primes``; one pass over the
    entries."""
    claims: dict[int, list[tuple[int, int]]] = {p: [] for p in primes}
    for e in cascade.entries:
        if e.q < q and e.prime in claims:
            claims[e.prime].append((e.q, e.root_modulus))
    return claims


def _free_cells(tracked: int, claims: list[tuple[int, int]],
                q: int, own: int) -> int:
    """Cells r mod ``tracked`` that satisfy q's own congruence
    r**q = r (mod own), which every cell does when own is 1, and that no
    (q', m') in ``claims`` holds: none has r**q' = r (mod m').  The
    claimed cells are zeroed in a byte mask, one strided slice per root,
    and the free ones counted."""
    free = bytearray(b"\x01") * tracked
    for w, m in claims:
        zeros = bytes(tracked // m)
        for s in _self_power_roots(w, m):
            free[s::m] = zeros
    if own == 1:
        return free.count(1)
    return sum(free[s::own].count(1) for s in _self_power_roots(q, own))


def density_by_residue_count(cascade: Cascade, q: int) -> Fraction:
    """Recount an entry's density from raw congruences.

    For each prime p that q or an earlier entry constrains, mark the cells
    mod the tracked power P of p that an earlier entry's congruence
    claims and count the unmarked cells satisfying q's own congruence.
    The density is the product of the counts over the product of the P.
    Everything is recomputed with pow(); the only cascade inputs are the
    earlier winners' q values, primes and constrained moduli.
    """
    cascade.entry_for(q)   # KeyError unless q is an entry
    own = dict(sieve_and_factor().factorization(q))
    moduli = sieve_and_factor().tracked_powers
    num = den = 1
    # a prime that neither q nor an earlier entry constrains has every
    # cell free, a factor of 1
    for p, claims in _claims_before(cascade, q, moduli).items():
        if claims or p in own:
            num *= _free_cells(moduli[p], claims, q, own.get(p, 1))
            den *= moduli[p]
    return Fraction(num, den)


def verify_skipped(cascade: Cascade, q: int) -> bool:
    """Confirm from raw congruences that a skipped composite truly has an
    empty residual: at every prime it names, no cell is left free."""
    for skip in cascade.skipped:
        if skip.q == q:
            break
    else:
        raise KeyError(f"{q} is not a skipped composite")
    own = dict(sieve_and_factor().factorization(q))
    claims = _claims_before(cascade, q, skip.empty_primes)
    moduli = sieve_and_factor().tracked_powers
    return bool(skip.empty_primes) and all(
        _free_cells(moduli[p], claims[p], q, own.get(p, 1)) == 0
        for p in skip.empty_primes)

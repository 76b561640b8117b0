import gc
import inspect
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from census_checks import entry_period_lcm, extremes, oracle_period_census
import pretenders
from pretenders import census, events
from pretenders.cascade import (
    Cascade,
    SkippedComposite,
    build_cascade,
    class_profile,
)
from pretenders.census import (
    classify_range,
    density_by_residue_count,
    first_bases,
    rarity_regression,
    verify_skipped,
)
from pretenders.tables import format_cascade, format_t3, load_golden_t3

# the directory holding the package under test: src/ or site-packages
PACKAGE_PATH = os.pathsep.join(filter(None, [
    str(Path(pretenders.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


def test_classify_range_matches_scalar(cascade):
    vals = classify_range(cascade, 0, 5000)
    for b in range(0, 5000):
        assert vals[b] == cascade.classify(b)
    # an offset window
    vals = classify_range(cascade, 10**6, 10**6 + 500)
    for i, b in enumerate(range(10**6, 10**6 + 500)):
        assert vals[i] == cascade.classify(b)


def test_classify_range_past_int64_and_negative(cascade):
    for start, stop in ((2**63 - 10, 2**63 + 10), (-700, 300),
                        (10**150 - 5, 10**150 + 5), (77, 77)):
        vals = classify_range(cascade, start, stop)
        assert vals.tolist() == [cascade.classify(b)
                                 for b in range(start, stop)], start


# windows anywhere in +-10**30, or straddling 2**63
STARTS = st.one_of(st.integers(-10**30, 10**30),
                   st.integers(2**63 - 300, 2**63))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(STARTS, st.integers(0, 300))
def test_classify_range_matches_classify_property(cascade, start, n):
    assert (classify_range(cascade, start, start + n).tolist()
            == [cascade.classify(b) for b in range(start, start + n)])


def test_classify_range_rejects_a_reversed_window(cascade):
    with pytest.raises(ValueError, match="stop 3 is below start 5"):
        classify_range(cascade, 5, 3)


def test_truncated_scan_reports_missing(cascade):
    scan = first_bases(cascade, max_base=1000)
    assert scan.found[4] == 0
    assert scan.found[6] == 3
    assert scan.found[341] == 2
    assert scan.missing
    assert 453 in scan.missing
    assert set(scan.found) | set(scan.missing) == set(cascade.qs())


def test_full_scan_finds_everything(census_report):
    scan = census_report.scan
    assert not scan.missing
    assert len(scan.found) == 132
    assert scan.found[453] == 10009487
    # first bases live in the report; the shared cascade stays as built
    assert (format_cascade(census_report.cascade, "json")
            == format_cascade(build_cascade(), "json"))


def test_first_bases_against_golden(census_report):
    golden = {row.q: row.first_base for row in load_golden_t3()}
    assert census_report.first_base == golden


def test_scan_equals_first_occurrences_of_classify(cascade):
    first: dict[int, int] = {}
    for b in range(60_000):
        first.setdefault(cascade.classify(b), b)
    scan = first_bases(cascade, max_base=60_000)
    assert scan.found == first
    assert set(scan.missing) == set(cascade.qs()) - set(first)


def test_search_equals_first_occurrences_below_a_million(cascade,
                                                         census_report):
    # an independent scan: every entry it reaches, it reaches first where
    # the search says, and the search puts every other entry past it
    limit = 10**6
    scan = classify_range(cascade, 0, limit)
    first = dict(zip(reversed(scan), range(limit - 1, -1, -1)))
    assert len(first) == 117
    found = census_report.first_base
    assert {q: found[q] for q in first} == first
    late = {q: b for q, b in found.items() if q not in first}
    assert len(late) == 15 and min(late.values()) >= limit


def test_search_alone_finds_every_first_base(cascade, monkeypatch):
    # with no bases classified outright, the candidate walk finds all 132,
    # the universal entry's among them
    monkeypatch.setattr(census, "PREFIX", 0)
    golden = {row.q: row.first_base for row in load_golden_t3()}
    assert first_bases(cascade).found == golden


def _drawn(cascade, keep, order, primes=None):
    """The build's non-universal entries whose bit is set in ``keep`` (and
    that sit at ``primes``, if given), shuffled by the seed ``order``
    unless it is 0, then the universal one, with the build's skips."""
    *rest, universal = cascade.entries
    picked = [e for i, e in enumerate(rest)
              if keep >> i & 1 and (primes is None or e.prime in primes)]
    if order:
        random.Random(order).shuffle(picked)
    return Cascade((*picked, universal), cascade.skipped)


def _ascending(drawn):
    """The same entries and skips, the non-universal entries by q."""
    *rest, universal = drawn.entries
    return Cascade((*sorted(rest, key=lambda e: e.q), universal),
                   drawn.skipped)


def _reference(entries, b):
    """The q of the first entry whose event holds b mod its modulus."""
    return next(e.q for e in entries if b % e.root_modulus in e.event)


def _reference_window(entries, n):
    """``_reference`` for every b in [0, n), an entry at a time: each
    residue of its event claims the bases no earlier entry holds."""
    out = [None] * n
    for e in entries:
        m = e.root_modulus
        for r in e.event:
            for b in range(r, n, m):
                if out[b] is None:
                    out[b] = e.q
    return out


# a subset of the 131 non-universal entries as a bit mask: hypothesis
# draws mostly small masks, so half the draws take the complement, and
# the subsets run from empty to the whole build; an int shrinks much
# faster than a list of flags.  Their order is drawn as a seed, which
# shrinks to 0, the ascending order.
ALL = 2**131 - 1
KEEP = st.builds(lambda mask, flip: mask ^ ALL if flip else mask,
                 st.integers(0, ALL), st.booleans())
ORDER = st.integers(0, 2**32)
BASES = st.lists(st.one_of(st.integers(-10**40, 10**40),
                           st.integers(0, 10**6)), max_size=20)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(KEEP, ORDER, BASES, st.integers(-10**30, 10**30), st.integers(0, 200))
def test_classify_matches_the_entries_on_drawn_cascades(cascade, keep, order,
                                                        bases, start, n):
    drawn = _drawn(cascade, keep, order)
    entries = drawn.entries
    assert [drawn.classify(b) for b in bases] == [
        _reference(entries, b) for b in bases]
    assert classify_range(drawn, start, start + n).tolist() == [
        _reference(entries, b) for b in range(start, start + n)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(KEEP, ORDER, st.sampled_from([0, 2**8, 2**14]))
def test_search_finds_first_occurrences_on_drawn_cascades(cascade, keep,
                                                          order, prefix):
    drawn = _drawn(cascade, keep, order)
    limit = 2**14
    with patch.object(census, "PREFIX", prefix):
        scan = first_bases(drawn, max_base=limit)
    window = _reference_window(drawn.entries, limit)
    first = dict(zip(reversed(window), range(limit - 1, -1, -1)))
    assert scan.found == first
    assert scan.missing == tuple(sorted(set(drawn.qs()) - set(first)))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(KEEP, ORDER)
@example(keep=ALL, order=1)   # the whole build, shuffled
def test_recounts_claim_by_q_on_drawn_orders(cascade, keep, order):
    # the recount walks the entries in ascending q, wherever they sit
    drawn = _drawn(cascade, keep, order)
    ascending = _ascending(drawn)
    for e in drawn.entries:
        assert (density_by_residue_count(drawn, e.q)
                == density_by_residue_count(ascending, e.q)), e.q
    for s in drawn.skipped:
        assert (verify_skipped(drawn, s.q)
                == verify_skipped(ascending, s.q)), s.q


@settings(derandomize=True, max_examples=8, deadline=None)
@given(KEEP, ORDER)
def test_period_queries_match_the_entries_on_drawn_small_cascades(cascade,
                                                                   keep,
                                                                   order):
    # entries at 2, 3, 5 and 7 alone repeat within the joint period 44,100
    drawn = _drawn(cascade, keep, order, primes=(2, 3, 5, 7))
    period = 44_100
    window = _reference_window(drawn.entries, period)
    # one period holds every base an entry serves, so the unbounded
    # search finds them all there
    first = dict(zip(reversed(window), range(period - 1, -1, -1)))
    # in a drawn order an entry may serve no base, which the unbounded
    # search names
    unserved = [q for q in drawn.qs() if q not in first]
    with patch.object(census, "PREFIX", 0):
        if unserved:
            with pytest.raises(RuntimeError, match=f"entry {unserved[0]}:"):
                first_bases(drawn)
        else:
            assert first_bases(drawn).found == first
    # the recount claims by q, so it counts the entries in ascending q
    counts = Counter(_reference_window(_ascending(drawn).entries, period))
    for e in drawn.entries:
        assert density_by_residue_count(drawn, e.q) == Fraction(
            counts[e.q], period), e.q
    for modulus in (36, 180, 1260):
        for s in range(modulus):
            held = set(window[s::modulus])
            assert class_profile(drawn, modulus, s) == [
                q for q in drawn.qs() if q in held], (modulus, s)


# without 4, 10, 15 and 25, joint table 0 has modulus 441, which 180 does
# not divide; the search must read its classes off that table, the same
# with assertions on or stripped by -O
CUT = (4, 10, 15, 25)
CUT_SCRIPT = f"""
from pretenders.cascade import Cascade, build_cascade
from pretenders.census import classify_range, first_bases
cut = Cascade(tuple(e for e in build_cascade().entries
                    if e.q not in {CUT}), ())
window = classify_range(cut, 0, 2**20)
first = dict(zip(reversed(window), range(2**20 - 1, -1, -1)))
found = first_bases(cut, max_base=2**20).found
print(found == first, found[213])
"""


def test_search_on_a_cascade_whose_table_0_is_not_a_multiple_of_180(
        cascade):
    cut = Cascade(tuple(e for e in cascade.entries if e.q not in CUT), ())
    assert cut.joint_tables[0][0] == 441
    limit = 2**20
    window = classify_range(cut, 0, limit)
    first = dict(zip(reversed(window), range(limit - 1, -1, -1)))
    found = first_bases(cut, max_base=limit).found
    assert found == first
    assert found[213] == 23_216
    proc = subprocess.run([sys.executable, "-O", "-c", CUT_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": PACKAGE_PATH})
    assert (proc.returncode, proc.stdout) == (0, "True 23216\n"), proc.stderr


def test_search_stops_when_the_claim_tables_leave_no_candidate(cascade):
    # an entry whose event is widened to every residue mod its prime's
    # period takes every base left, so no later entry serves one: the
    # search names the first it cannot find, not an endless walk.  The
    # widened entries sit in joint tables 0 (14), 1 (22) and later (62).
    for q, m, named in ((62, 31, 65), (14, 49, 15), (22, 121, 25)):
        widened = Cascade(
            tuple(e._replace(root_modulus=m, event=frozenset(range(m)))
                  if e.q == q else e for e in cascade.entries),
            cascade.skipped)
        with pytest.raises(RuntimeError,
                           match=f"entry {named}: .* no candidate"):
            first_bases(widened)


def test_extremes(census_report):
    ex = extremes(census_report)
    assert ex.latest_first_base == (453, 10009487)
    assert ex.rarest[0] == 543
    # both maxima are attained uniquely
    assert ex.first_base_ties == (453,)
    assert ex.rarity_ties == (543,)


@pytest.mark.parametrize("record, field", [
    (lambda report: report.cascade.entries[0], "count"),
    (lambda report: report, "scan"),
    (lambda report: report.scan, "found"),
], ids=["Characterization", "CensusReport", "FirstBaseScan"])
def test_records_cannot_be_reassigned(census_report, record, field):
    # a shared cascade and the reports built on it stay as derived
    target = record(census_report)
    before = getattr(target, field)
    with pytest.raises(AttributeError):
        setattr(target, field, None)
    assert getattr(target, field) is before


def test_rarity_regression_clean(census_report):
    assert rarity_regression(census_report, load_golden_t3()) == []


def test_rarity_regression_flags_out_of_tolerance(census_report):
    rows = load_golden_t3()
    fiddled = [row for row in rows if row.q != 22]
    bad = next(row for row in rows if row.q == 22)
    fiddled.append(bad._replace(rarity=21658))
    hits = rarity_regression(census_report, fiddled)
    assert [m.key for m in hits] == [(22, "rarity")]
    # the golden column is the exact truncation: one cent off is caught,
    # and both sides are reported as two-place decimals
    fiddled[-1] = bad._replace(rarity=21657)
    assert [(m.key, m.expected, m.actual)
            for m in rarity_regression(census_report, fiddled)] == [
        ((22, "rarity"), "216.57", "216.56")]


def test_rarity_regression_names_each_wrong_field(census_report):
    # 341 has k = 10, m = 31 and first base 2; fields come in key order
    rows = [row._replace(k=11, m=29, first_base=3) if row.q == 341 else row
            for row in load_golden_t3()]
    assert [(m.key, m.expected, m.actual)
            for m in rarity_regression(census_report, rows)] == [
        ((341, "first_base"), 3, 2), ((341, "k"), 11, 10),
        ((341, "m"), 29, 31)]


def test_rarity_regression_counts_each_q(census_report):
    # a q missing from the golden rows is absent in each of its four
    # fields; a repeated q never gets here, as load_golden_t3 refuses it
    rows = load_golden_t3()
    assert rows[0].q == 4
    hits = rarity_regression(census_report, rows[1:])
    assert [(m.key, m.expected, m.actual) for m in hits] == [
        ((4, "first_base"), "<absent>", 0), ((4, "k"), "<absent>", 1),
        ((4, "m"), "<absent>", 4), ((4, "rarity"), "<absent>", "2.00")]


def test_density_by_residue_count_small_entries(cascade):
    # kept under its old id: it now recounts every entry, not only small ones
    recounts = [density_by_residue_count(cascade, e.q)
                for e in cascade.entries]
    for e, d in zip(cascade.entries, recounts):
        assert d == e.density, e.q
    assert sum(recounts) == 1


def test_recount_reads_no_ledger_or_events(cascade, monkeypatch):
    # the recounts derive every cell from raw congruences: a cascade keeps
    # no ledger for them to read, and they call nothing in events
    fresh = build_cascade()
    assert list(inspect.signature(Cascade).parameters) == ["entries",
                                                          "skipped"]
    assert not any(isinstance(v, events.PreemptionLedger)
                   for v in vars(fresh).values())

    def forbidden(*args, **kwargs):
        raise AssertionError("the recount called into pretenders.events")

    assert not any(getattr(v, "__module__", None) == events.__name__
                   for v in vars(census).values())
    monkeypatch.setattr(events, "composite_event", forbidden)
    monkeypatch.setattr(events, "prime_power_event", forbidden)
    for e in cascade.entries:
        assert density_by_residue_count(fresh, e.q) == e.density, e.q
    assert len(fresh.skipped) == 326
    for s in fresh.skipped:
        assert verify_skipped(fresh, s.q), s.q


def test_recounts_are_kept_per_cascade_object():
    # the same entry objects without 25 make another cascade with its own
    # recount: every later entry gains the cells 25 no longer claims
    fresh = build_cascade()
    entries = fresh.entries
    assert [density_by_residue_count(fresh, e.q) for e in entries] == [
        e.density for e in entries]
    cut = Cascade(tuple(e for e in entries if e.q != 25), fresh.skipped)
    later = [e for e in cut.entries if e.q > 25]
    assert len(later) == 123
    for e in later:
        assert density_by_residue_count(cut, e.q) != e.density, e.q
    for e in entries:
        assert density_by_residue_count(fresh, e.q) == e.density, e.q


def test_recounts_free_their_walk():
    fresh = build_cascade()
    assert all(verify_skipped(fresh, s.q) for s in fresh.skipped)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_oracle_period_census_prefix(cascade):
    # direct census over one joint period of every entry through q = 33
    period = entry_period_lcm(cascade, 33)
    assert period == 900900
    counts = oracle_period_census(period)
    for e in cascade.entries:
        if e.q > 33:
            break
        assert Fraction(counts[e.q], period) == e.density, e.q


def test_verify_skipped(cascade):
    assert verify_skipped(cascade, 8)
    assert verify_skipped(cascade, 12)
    assert verify_skipped(cascade, 560)


def test_verify_skipped_rejects_a_composite_with_free_cells(cascade):
    # 9 is an entry, so its component at 3 keeps free cells
    c = cascade
    bogus = Cascade(c.entries, c.skipped + (SkippedComposite(9, (3,)),))
    assert not verify_skipped(bogus, 9)


def test_verify_skipped_rejects_a_skip_empty_at_only_some_primes(cascade):
    # 12 is truly empty at 2 and at 3, but entry 10 leaves cells free at 5
    c = cascade
    bogus = Cascade(c.entries, tuple(
        SkippedComposite(12, (2, 3, 5)) if s.q == 12 else s
        for s in c.skipped))
    assert not verify_skipped(bogus, 12)


@pytest.mark.parametrize("q", [341, 7, 562])
def test_verify_skipped_names_a_q_that_is_not_a_skip(cascade, q):
    # an entry, a prime and a number past the sieve
    with pytest.raises(KeyError, match=f"{q} is not a skipped composite"):
        verify_skipped(cascade, q)
    # the same KeyError inside all(), where a StopIteration would turn
    # into a RuntimeError
    with pytest.raises(KeyError, match=f"{q} is not a skipped composite"):
        all(verify_skipped(cascade, x) for x in (8, q))


def test_census_csv_shape(census_report):
    lines = format_t3(census_report, "csv").strip().split("\n")
    assert lines[0] == "q,k,m,first_base,density_num,density_den,rarity"
    assert len(lines) == 133
    by_q = {int(ln.split(",")[0]): ln.split(",") for ln in lines[1:]}
    assert by_q[453][3] == "10009487"
    assert by_q[561][6] == "25437.66"

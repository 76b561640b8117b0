import ast
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

import pretenders
from pretenders import (
    build_cascade,
    derive_k_m,
    family_check,
    primary_pretender_oracle,
)
from pretenders.arith import sieve_and_factor
from pretenders.cascade import (
    JOINT_PERIOD_CAP,
    Cascade,
    RootDescriptionError,
    class_profile,
    lay_entry_indices,
)
from pretenders.census import (density_by_residue_count, first_bases,
                               verify_skipped)
from pretenders.events import PreemptionLedger
from pretenders.period import minimality_witnesses, period_constant
from pretenders.tables import format_cascade, load_golden_t3

# every field of every entry and skip of a build, written by an earlier
# build; the CLI snapshots pin only q, k, m and the densities
PINNED_BUILD = Path(__file__).parent / "data" / "build.json"
# the package under test: src/pretenders in a checkout, or an install
PACKAGE_DIR = Path(pretenders.__file__).parent

HAND_DENSITIES = {
    4: Fraction(1, 2),
    6: Fraction(1, 3),
    9: Fraction(1, 18),
    10: Fraction(2, 45),
    14: Fraction(2, 105),
    15: Fraction(1, 63),
    21: Fraction(2, 315),
    22: Fraction(16, 3465),
    25: Fraction(8, 1925),
}


def test_cardinality_and_order(cascade):
    assert len(cascade) == 132
    qs = cascade.qs()
    assert qs == sorted(qs)
    assert qs[0] == 4 and qs[-1] == 561


def test_skipped_are_disjoint_and_complete(cascade):
    qs = set(cascade.qs())
    skipped = {s.q for s in cascade.skipped}
    assert 8 in skipped and 12 in skipped
    assert not (qs & skipped)
    assert qs | skipped == set(sieve_and_factor().composites)


def test_build_matches_the_pinned_build():
    pinned = json.loads(PINNED_BUILD.read_text())
    built = build_cascade()
    assert [(e.q, e.root_degree, e.root_modulus, e.prime, sorted(e.event),
             f"{e.density.numerator}/{e.density.denominator}")
            for e in built.entries] == [tuple(row) for row in pinned["entries"]]
    assert [(s.q, list(s.empty_primes)) for s in built.skipped] == [
        tuple(row) for row in pinned["skipped"]]
    # the fields have the types a Characterization and a skip declare
    assert all(type(e.event) is frozenset and type(e.density) is Fraction
               for e in built.entries)
    assert all(type(s.empty_primes) is tuple for s in built.skipped)


def test_hand_checked_densities(cascade):
    for q, want in HAND_DENSITIES.items():
        assert cascade.entry_for(q).density == want


def test_densities_sum_to_one_exactly(cascade):
    assert sum(e.density for e in cascade.entries) == Fraction(1)
    assert all(e.density > 0 for e in cascade.entries)


def test_counts_are_whole_bases_per_period(cascade):
    # every entry stores its count of bases per period N in ints; the
    # counts sum to N, and the density is read off them
    n = period_constant()
    assert all(type(e.count) is int and e.period == n
               for e in cascade.entries)
    assert sum(e.count for e in cascade.entries) == n
    for e in cascade.entries:
        assert e.density == Fraction(e.count, n), e.q
        assert e.reduced_density == (e.density.numerator,
                                     e.density.denominator), e.q


def test_classify_spots(cascade):
    assert cascade.classify(0) == 4
    assert cascade.classify(1) == 4
    assert cascade.classify(2) == 341
    assert cascade.classify(3) == 6
    assert cascade.classify(10103) == 561


def test_classify_matches_oracle_random(cascade):
    rng = random.Random(31)
    for _ in range(400):
        b = rng.randrange(0, 10**7)
        assert cascade.classify(b) == primary_pretender_oracle(b)


def test_classify_huge_base_reduces_mod_period(cascade):
    n = period_constant()
    rng = random.Random(32)
    for _ in range(20):
        b = rng.randrange(10**300, 10**400)
        assert cascade.classify(b) == cascade.classify(b % n)


def test_universal_entry_shape(cascade):
    e = cascade.entry_for(561)
    assert e.prime is None
    assert (e.root_degree, e.root_modulus) == (1, 1)
    assert e.density == 1 - sum(x.density for x in cascade.entries
                                if x.q != 561)


def test_characterization_spots(cascade):
    for q, k, m in [(4, 1, 4), (341, 10, 31), (169, 12, 169),
                    (453, 2, 151), (529, 22, 529), (561, 1, 1)]:
        e = cascade.entry_for(q)
        assert (e.root_degree, e.root_modulus) == (k, m), q


def test_derive_k_m_verifies_every_entry(cascade):
    for e in cascade.entries:
        rd = derive_k_m(cascade, e.q)
        assert (rd.degree, rd.modulus) == (e.root_degree, e.root_modulus)


def test_derive_k_m_surplus_is_preempted_only(cascade):
    # 4th roots of 0 mod 25 other than 0 never satisfy r^25 = r, yet the
    # description stays exact because 5,10,15,20 were claimed earlier
    rd = derive_k_m(cascade, 25)
    assert rd.surplus == frozenset({5, 10, 15, 20})


@pytest.mark.parametrize("bend, match", [
    (lambda event: event - {8}, r"10 event residues, not k \+ 1"),
    # 3^10 = 25 (mod 31), so 3 is no 10th root of 0 or 1
    (lambda event: event - {8} | {3}, "event escapes"),
], ids=["a-residue-dropped", "b-residue-outside-the-roots"])
def test_derive_k_m_checks_the_event_against_k(cascade, bend, match):
    # entry 341 has k = 10 and m = 31; its event holds 8, since 8^10 = 1
    bent = Cascade(tuple(e._replace(event=bend(e.event)) if e.q == 341 else e
                         for e in cascade.entries),
                   cascade.skipped)
    with pytest.raises(RootDescriptionError, match="entry 341: " + match):
        derive_k_m(bent, 341)


def test_derive_k_m_catches_a_free_root_left_unclaimed(cascade):
    # with 0 dropped from the events of 10 and 15, the cells 5, 10, 15 and
    # 20 mod 25 are free when 25 is reached and are 4th roots of 0, yet
    # 25 does not claim them: check (c) must see the surplus root, left to
    # the universal entry, or to the very next entry (26 bent to claim 0
    # mod 5), or free only at lifts mod 125 (22 bent to claim 5, 10, 15
    # and 20 mod 125, which makes 125 the period of 5)
    assert {cascade.entry_for(q).root_modulus for q in (10, 15)} == {5}
    qs = cascade.qs()
    assert qs.index(22) < qs.index(25) == qs.index(26) - 1
    entries = [e._replace(event=e.event - {0}) if e.q in (10, 15) else e
               for e in cascade.entries]
    next_claims = [e._replace(prime=5, root_modulus=5, event=frozenset({0}))
                   if e.q == 26 else e for e in entries]
    lifts_free = [e._replace(prime=5, root_modulus=125,
                             event=frozenset({5, 10, 15, 20}))
                  if e.q == 22 else e for e in entries]
    for bent in (entries, next_claims, lifts_free):
        with pytest.raises(RootDescriptionError, match="entry 25: surplus"):
            derive_k_m(Cascade(tuple(bent), cascade.skipped), 25)


def test_entry_169_claims_primitive_twelfth_roots(cascade):
    want = set()
    for exp in (1, 5):
        r = pow(19, exp, 169)
        want |= {r, 169 - r}
    j = cascade.qs().index(169)
    period, cells, _ = cascade.prime_tables[13]
    assert period == 169
    assert {r for r, v in enumerate(cells) if v == j} == want


def test_classify_is_least_claim(cascade, ledger):
    # classify stops early; the full minimum over every claim table checks
    # the early exit, and the first entry whose event holds b checks that
    # the claim tables and the entry events agree
    first = {row.q: row.first_base for row in load_golden_t3()}
    n = period_constant()
    rng = random.Random(33)
    bases = [rng.randrange(-10**6, 10**6) for _ in range(300)]
    bases += [first[q] + rng.randrange(10**6) * n for q in first]
    bases += [rng.randrange(10**149, 10**150) for _ in range(300)]
    for b in bases:
        least = min(table[b % ledger.moduli[p]]
                    for p, table in ledger.claims.items())
        walked = next(e.q for e in cascade.entries
                      if b % e.root_modulus in e.event)
        assert cascade.classify(b) == least == walked, b


def test_classify_keeps_the_tables_it_was_built_with():
    built = build_cascade()
    bases = list(range(-50, 2000)) + [10009487]
    before = list(map(built.classify, bases))
    # a cascade is its entries and skips: it keeps no ledger to edit
    assert list(inspect.signature(Cascade).parameters) == ["entries",
                                                          "skipped"]
    assert not any(isinstance(v, PreemptionLedger)
                   for v in vars(built).values())
    assert list(map(built.classify, bases)) == before
    # classify reads the entries: a cascade made from edited entries reads
    # the edit
    assert built.classify(2) == 341
    entries = list(built.entries)
    entries[0] = entries[0]._replace(event=frozenset(range(4)))
    edited = Cascade(tuple(entries), built.skipped)
    assert edited.classify(2) == 4
    assert edited.classify(3) == edited.classify(-1) == 4


def test_each_floor_is_the_least_claim_after_its_table(cascade, ledger):
    # the joint tables split the tracked primes, ascending, into greedy
    # groups under the cap, each read mod the product of its primes' own
    # periods; every cell holds the least claim over the group's primes
    cascade.classify(0)
    qs, tables = cascade._tables
    periods = {p: lcm(*(e.root_modulus for e in cascade.entries
                        if e.prime == p)) for p in ledger.moduli}
    assert [periods[p] for p in (2, 3, 23, 29, 277)] == [4, 9, 529, 29, 277]
    primes = list(ledger.moduli)
    assert len(primes) == 59 and primes == sorted(primes)
    groups = []
    for m, cells, _ in tables:
        group = [primes.pop(0)]
        while prod(periods[p] for p in group) < m:
            group.append(primes.pop(0))
        assert prod(periods[p] for p in group) == m == len(cells)
        assert m <= JOINT_PERIOD_CAP
        if primes:   # the group could not take the next prime
            assert m * periods[primes[0]] > JOINT_PERIOD_CAP
        for x in range(m):
            assert qs[cells[x]] == min(ledger.claims[p][x % periods[p]]
                                       for p in group), (group, x)
        groups.append(group)
    assert not primes and len(groups) == 36
    assert tables[0][0] == 4 * 9 * 25 * 49 == JOINT_PERIOD_CAP
    for i, (_, _, later) in enumerate(tables):
        assert later == min((min(cells) for _, cells, _ in tables[i + 1:]),
                            default=len(qs) - 1)


def test_each_prime_table_folds_the_ledger(cascade, ledger):
    # one table per tracked prime over its own period, the lcm of its
    # entries' moduli; every ledger cell names the q of the cell it folds to
    qs = cascade.qs()
    tables = cascade.prime_tables
    assert list(tables) == list(ledger.moduli)
    assert [tables[p].period for p in (2, 3, 23, 29, 277)] == [4, 9, 529, 29,
                                                              277]
    assert sum(t.period for t in tables.values()) == 8874
    for p, (period, cells, top) in tables.items():
        assert period == lcm(*(e.root_modulus for e in cascade.entries
                               if e.prime == p))
        assert len(cells) == period and top == max(cells)
        assert ledger.moduli[p] % period == 0
        for r, q in enumerate(ledger.claims[p]):
            assert qs[cells[r % period]] == q, (p, r)


def test_densities_read_off_the_prime_tables(cascade):
    # the tables are laid from the entries' events, not from the ledger
    # that made the densities.  Under CRT their cells are independent and
    # b's entry is the least index across them, so entry j at p takes
    # count_p(j)/period_p times, at every other prime, the share of cells
    # holding an index above j; the universal entry takes each table's
    # share of its own index.
    entries = cascade.entries
    tables = cascade.prime_tables
    counts = {p: [t.cells.count(j) for j in range(len(entries))]
              for p, t in tables.items()}
    total = Fraction(0)
    for j, e in enumerate(entries):
        density = Fraction(1)
        for p, t in tables.items():
            held = (counts[p][j] if e.prime in (p, None)
                    else sum(counts[p][j + 1:]))
            density *= Fraction(held, t.period)
        assert density == e.density, e.q
        total += density
    assert total == 1


def test_every_entry_holds_a_cell_of_its_own_table(cascade):
    tables = cascade.prime_tables
    held = [j for j, e in enumerate(cascade.entries)
            if e.prime is not None and j in tables[e.prime].cells]
    assert len(held) == len(cascade.entries) - 1 == 131
    # and no table holds an index of an entry at another prime
    for p, t in tables.items():
        assert {cascade.entries[j].prime for j in set(t.cells)} <= {p, None}


def test_tables_are_laid_on_first_use(cascade):
    fresh = build_cascade()

    def laid():
        return {name for name, done in (
            ("joint", isinstance(fresh._tables[1], tuple)),
            ("prime", fresh._prime_tables is not None)) if done}
    assert not laid()
    # printing and recounting read no table
    format_cascade(fresh, "json")
    assert density_by_residue_count(fresh, 25) == Fraction(8, 1925)
    assert verify_skipped(fresh, 8)
    assert not laid()
    bases = list(range(-50, 3000)) + [10009487, 10**150 + 7]
    assert list(map(fresh.classify, bases)) == list(map(cascade.classify,
                                                        bases))
    assert laid() == {"joint"}
    joint = fresh._tables
    fresh.classify(12345)
    assert fresh._tables is joint   # kept, not laid again
    assert class_profile(fresh, 36, 2) == class_profile(cascade, 36, 2)
    assert laid() == {"joint", "prime"}
    tables = fresh.prime_tables
    class_profile(fresh, 180, 7)
    # checking a description reads the per-prime tables already laid
    assert derive_k_m(fresh, 169) == derive_k_m(cascade, 169)
    assert fresh.prime_tables is tables
    assert tables == cascade.prime_tables


def test_queries_add_no_attribute_to_a_cascade():
    # an attribute set after __init__ makes CPython 3.11 read the
    # instance's attributes through a plain dict, which slows every
    # classify on it, so no query may add one
    fresh = build_cascade()
    keys = list(vars(fresh))
    fresh.classify(2)
    assert len(fresh.prime_tables) == 59
    class_profile(fresh, 180, 7)
    first_bases(fresh)
    minimality_witnesses(fresh)
    derive_k_m(fresh, 25)
    density_by_residue_count(fresh, 25)
    verify_skipped(fresh, 8)
    assert list(vars(fresh)) == keys


def test_profiles_first_bases_and_witnesses_ignore_the_ledger(
        cascade, census_report):
    # the per-prime tables come from the entries alone: a cascade keeps
    # no ledger for them to read
    edited = build_cascade()
    assert list(inspect.signature(Cascade).parameters) == ["entries",
                                                          "skipped"]
    assert not any(isinstance(v, PreemptionLedger)
                   for v in vars(edited).values())
    for modulus, residue in ((36, 2), (180, 13), (1260, 1111), (277, 5)):
        assert (class_profile(edited, modulus, residue)
                == class_profile(cascade, modulus, residue))
    assert first_bases(edited).found == census_report.first_base
    assert minimality_witnesses(edited) == minimality_witnesses(cascade)


def test_layering_refuses_an_index_past_one_byte(cascade):
    # an entry index is one byte: a cascade of 256 entries lays its
    # indices, and one of 257 is refused when it is made
    universal = cascade.entries[-1:]
    many = cascade.entries[:-1] * 2
    fits = Cascade(many[:255] + universal, ())
    idx = lay_entry_indices(fits, range(255), -600, 600)
    assert [fits.entries[j].q for j in idx] == list(map(cascade.classify,
                                                        range(-600, 0)))
    with pytest.raises(ValueError, match="at most 256 entries"):
        Cascade(many[:256] + universal, cascade.skipped)


def test_laying_no_entry_leaves_the_universal_index(cascade):
    universal = len(cascade) - 1
    for start, n in ((0, 0), (-7, 50), (2**300 + 1, 9)):
        assert lay_entry_indices(cascade, [], start, n) == bytes(
            [universal]) * n


# every query reads the last entry as the floor of every table, so a
# cascade that does not end with the universal entry is refused when it
# is made, with assertions on or stripped by -O
BAD_SHAPES = """
from pretenders.cascade import Cascade, build_cascade
*rest, universal = build_cascade().entries
for entries in (rest, [], [universal, *rest]):
    try:
        print(Cascade(tuple(entries), ()).classify(10_103))
    except ValueError as exc:
        print(exc)
"""


def test_a_cascade_must_end_with_the_universal_entry(cascade):
    *rest, universal = cascade.entries
    for entries in (rest, [], [universal, *rest]):
        with pytest.raises(ValueError, match="end with the universal entry"):
            Cascade(tuple(entries), ())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_SHAPES],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (
        0, "a cascade must end with the universal entry\n" * 3), proc.stderr


def test_the_package_holds_no_assert_statement():
    # python -O strips an assert, so no check of the package may be one
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_derive_k_m_unknown_q(cascade):
    with pytest.raises(KeyError):
        derive_k_m(cascade, 8)


def test_family_construction_matches(cascade):
    rep = family_check(cascade)
    assert rep.matches
    assert not rep.missing and not rep.extra
    assert sorted(rep.group_sizes.values(), reverse=True) == \
        [59, 41, 13, 10, 3, 3, 2, 1]


def test_rarity_rendering_spots(cascade):
    spots = {4: "2", 10: "22.5", 22: "216.56", 25: "240.62",
             561: "25437.66", 519: "3690229.26"}
    for q, text in spots.items():
        assert cascade.entry_for(q).rarity_display == text


def test_csv_and_json_dumps(cascade):
    lines = format_cascade(cascade, "csv").strip().split("\n")
    assert lines[0] == "q,k,m,density_num,density_den,rarity"
    assert len(lines) == 133
    assert lines[1].startswith("4,1,4,1,2,")
    rows = json.loads(format_cascade(cascade, "json"))
    assert len(rows) == 132
    assert rows[0]["q"] == 4 and rows[-1]["q"] == 561


def test_build_is_deterministic():
    a = build_cascade()
    b = build_cascade()
    assert [e.q for e in a.entries] == [e.q for e in b.entries]
    assert [e.density for e in a.entries] == [e.density for e in b.entries]
    assert [e.event for e in a.entries] == [e.event for e in b.entries]

"""Acceptance gate: ten criteria, one test and one printed verdict each.

Every test prints 'ACCEPTANCE <n> PASS|FAIL: <label>' straight to the
terminal before asserting, so one run shows the whole scoreboard even
when a criterion fails.  Criterion 5 places the rarest entry at q = 543,
the argmax of the golden t3 rarities, and checks each golden rarity as
the exact truncation it is.  Criterion 9 holds 161038 = 2*73*1103 to the
self-power form b^q = b (mod q) that defines pretending, and pins the
unit form b^(q-1) = 1 as false there, since 2^161037 is even.
"""

import time
from fractions import Fraction
from math import floor

from pretenders.arith import render_decimal, sieve_and_factor
from pretenders.cascade import build_cascade, derive_k_m, family_check
from pretenders.census import (
    classify_range,
    density_by_residue_count,
    entry_period_lcm,
    extremes,
    oracle_period_census,
    verify_skipped,
)
from pretenders.period import (
    minimality_witnesses,
    period_constant,
    periodicity_check,
    verify_lcm,
)
from pretenders.pretender import (
    is_fermat_pseudoprime,
    is_prime_pretender,
    primary_pretender_oracle,
)
from pretenders.tables import (
    gen_mod36,
    gen_table1,
    gen_table2,
    load_golden_mod36,
    load_golden_period,
    load_golden_t1,
    load_golden_t2,
    load_golden_t3,
)


def verdict(capsys, n: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {n:>2} {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_acceptance_01_cascade_cardinality(capsys):
    sieve_and_factor.cache_clear()
    t0 = time.perf_counter()
    c = build_cascade()
    dt = time.perf_counter() - t0
    fam = family_check(c)
    golden_qs = [row.q for row in load_golden_t3()]
    ok = (len(c) == 132
          and fam.matches
          and c.qs() == sorted(golden_qs)
          and dt < 1.0)
    verdict(capsys, 1, "exactly 132 entries, matching the closed-form family",
            ok, f"built in {dt:.2f}s")


def test_acceptance_02_characterizations(capsys, cascade):
    golden = {r.q: (r.k, r.m) for r in load_golden_t3()}
    bad = [q for q, km in golden.items()
           if (cascade.entry_for(q).root_degree,
               cascade.entry_for(q).root_modulus) != km]
    for e in cascade.entries:   # re-derive each description from scratch
        derive_k_m(cascade, e.q)
    spots = (golden[341] == (10, 31)
             and golden[169] == (12, 169)
             and golden[561] == (1, 1))
    ok = not bad and spots
    verdict(capsys, 2, "all 132 (k, m) pairs match the reference table",
            ok, f"{len(bad)} mismatches")


def test_acceptance_03_oracle_equivalence(capsys, cascade):
    t0 = time.perf_counter()
    mismatches = 0
    limit = 1_000_000
    step = 100_000
    for lo in range(0, limit + 1, step):
        hi = min(lo + step, limit + 1)
        vals = classify_range(cascade, lo, hi)
        for i, b in enumerate(range(lo, hi)):
            if vals[i] != primary_pretender_oracle(b):
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 120.0
    verdict(capsys, 3, "decision list equals brute force on every base to 1e6",
            ok, f"{mismatches} mismatches, {dt:.1f}s")


def test_acceptance_04_first_bases(capsys, census_report):
    golden = {r.q: r.first_base for r in load_golden_t3()}
    ok = (census_report.first_base == golden
          and not census_report.scan.missing
          and extremes(census_report).latest_first_base == (453, 10009487)
          and census_report.scan.seconds < 600.0)
    verdict(capsys, 4, "all 132 first bases match, found by exact search",
            ok, f"search took {census_report.scan.seconds:.1f}s, "
                f"max (453, 10009487)")


def test_acceptance_05_rarities(capsys, cascade, census_report):
    tol = Fraction(1, 100)
    golden = {r.q: Fraction(r.rarity, 100) for r in load_golden_t3()}
    off = [q for q, want in golden.items()
           if abs(Fraction(render_decimal(cascade.entry_for(q).rarity))
                  - want) > tol]
    # the golden column truncates; the rendering rounds half-to-even
    untruncated = [q for q, want in golden.items()
                   if Fraction(floor(100 * cascade.entry_for(q).rarity), 100)
                   != want]
    spots = {4: "2", 10: "22.5", 22: "216.56", 25: "240.62",
             519: "3690229.26", 561: "25437.66"}
    spots_ok = all(cascade.entry_for(q).rarity_display == text
                   for q, text in spots.items())
    golden_argmax = max(golden, key=golden.get)
    rarest_q, rarest = extremes(census_report).rarest
    argmax_ok = (rarest_q == golden_argmax == 543
                 and render_decimal(rarest) == "4178269.83")
    ok = not off and not untruncated and spots_ok and argmax_ok
    verdict(capsys, 5, "all 132 rarities within 0.01 and exact truncations, "
            "argmax at q=543", ok,
            f"{len(off)} out of tolerance, {len(untruncated)} not truncations; "
            f"argmax q={rarest_q} at {render_decimal(rarest)}, "
            f"golden argmax q={golden_argmax}")


def test_acceptance_06_density_conservation(capsys, cascade):
    total = sum(e.density for e in cascade.entries)
    recounts = [density_by_residue_count(cascade, e.q)
                for e in cascade.entries]
    recount_ok = (recounts == [e.density for e in cascade.entries]
                  and sum(recounts) == 1)
    window = entry_period_lcm(cascade, 33)
    counts = oracle_period_census(window)
    census_ok = all(Fraction(counts[e.q], window) == e.density
                    for e in cascade.entries if e.q <= 33)
    ok = total == 1 and recount_ok and census_ok
    verdict(capsys, 6, "densities sum to 1 exactly and survive recounting",
            ok, f"sum={total}, {len(recounts)} entries recounted per prime, "
                f"direct census over {window} through q=33")


def test_acceptance_07_period_constant(capsys, cascade):
    digits = str(period_constant())
    digits_ok = len(digits) == 122 and digits == load_golden_period()
    lcm_ok = verify_lcm(cascade).equal
    per = periodicity_check(cascade, samples=1000)
    wit = minimality_witnesses(cascade)
    ok = (digits_ok and lcm_ok and per.ok and per.checked == 1000
          and wit.ok and len(wit.witnesses) == 59)
    verdict(capsys, 7, "122-digit period: exact value, lcm, periodicity, "
            "minimality", ok,
            f"{per.checked} bases periodic, {len(wit.witnesses)} witnesses")


def test_acceptance_08_table_regressions(capsys, cascade):
    m36 = gen_mod36(cascade)
    m36_ok = (m36 == load_golden_mod36()
              and sorted(r for r, v in m36.items() if v is None)
              == [2, 11, 14, 23])
    t1 = gen_table1(cascade, m36)
    g1 = load_golden_t1()
    numeric = sum(1 for v in t1.values() if v is not None)
    t1_ok = t1 == g1 and len(t1) == 140 and numeric == 108
    t2 = gen_table2(cascade, t1)
    g2 = load_golden_t2()
    t2_ok = (t2 == g2 and len(t2) == 1312
             and t2[(2, 0)] == 341
             and t2[(23, 8)] == 561
             and t2[(38, 0)] == 38)
    ok = m36_ok and t1_ok and t2_ok
    verdict(capsys, 8, "mod-36 display and both grids reproduce exactly",
            ok, "0 mismatches over 36 + 140 + 1312 cells")


def test_acceptance_09_pseudoprime_vectors(capsys):
    v341 = is_fermat_pseudoprime(341, 2) and is_prime_pretender(341, 2)
    self_power = is_prime_pretender(161038, 2)
    # 2^161037 is even, so never 1 modulo the even 161038
    unit_form = is_fermat_pseudoprime(161038, 2)
    universal = all(is_prime_pretender(561, b) for b in range(561))
    ok = v341 and self_power and not unit_form and universal
    verdict(capsys, 9, "pseudoprime vectors (341,2) in both forms, (161038,2) "
            "self-power only, universal 561", ok,
            f"(161038,2) self-power form = {self_power}, "
            f"unit form = {unit_form}")


def test_acceptance_10_negative_structure(capsys, cascade):
    qs = set(cascade.qs())
    absent_ok = 8 not in qs and 12 not in qs
    skipped = [s.q for s in cascade.skipped]
    coverage_ok = set(skipped) | qs == set(sieve_and_factor().composites) \
        and not set(skipped) & qs
    empty_ok = all(verify_skipped(cascade, q) for q in skipped)
    ok = absent_ok and coverage_ok and empty_ok
    verdict(capsys, 10, "8 and 12 skipped; every absent composite has "
            "residual density 0", ok,
            f"{len(skipped)} absences re-verified by direct residue counts")

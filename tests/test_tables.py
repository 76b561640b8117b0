import random
import shutil
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pretenders
from pretenders.cascade import Cascade
from pretenders.tables import (
    GoldenFormatError,
    class_profile,
    format_mod36,
    format_t3,
    format_table1,
    format_table2,
    gen_mod36,
    gen_table1,
    gen_table2,
    load_golden_mod36,
    load_golden_period,
    load_golden_t1,
    load_golden_t2,
    load_golden_t3,
    run_regressions,
)

# the golden files of the package under test, in src/ or installed
ASSET_DIR = Path(pretenders.__file__).parent / "data"
LOADERS = {"mod36.csv": load_golden_mod36, "t1.csv": load_golden_t1,
           "t2.csv": load_golden_t2, "t3.csv": load_golden_t3,
           "period.txt": load_golden_period}


@pytest.fixture()
def asset_copy(tmp_path):
    for name in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / name, tmp_path / name)
    return tmp_path


def test_class_profile_constant_class(cascade):
    assert class_profile(cascade, 36, 0, max_distinct=2) == [4]
    assert class_profile(cascade, 36, 26, max_distinct=2) == [9]


def test_class_profile_mixed_class(cascade):
    vals = class_profile(cascade, 36, 2, max_distinct=2)
    assert len(vals) >= 2


def test_class_profile_full_walk_reaches_universal(cascade):
    vals = class_profile(cascade, 1, 0)
    assert vals[-1] == 561
    assert vals == sorted(vals)
    assert set(vals) == set(cascade.qs())


def test_class_profile_holds_every_sampled_value(cascade):
    # classify reads the joint tables, class_profile the per-prime ones
    rng = random.Random(52)
    for _ in range(40):
        modulus = 1260 * rng.randrange(1, 30)
        residue = rng.randrange(modulus)
        profile = class_profile(cascade, modulus, residue)
        assert profile == sorted(profile)
        seen = {cascade.classify(residue + modulus * rng.randrange(10**12))
                for _ in range(300)}
        assert seen <= set(profile), (modulus, residue)


def _ledger_profile(cascade, ledger, modulus, residue):
    """class_profile's answer read off the ledger's claim tables, mod each
    prime's tracked power: the q values on the cells the class pins that
    no pinned table's maximum undercuts."""
    pinned = {}
    for p, table in ledger.claims.items():
        pin = gcd(modulus, ledger.moduli[p])
        pinned[p] = set(table[residue % pin::pin])
    bound = min(max(qs) for qs in pinned.values())
    return [e.q for e in cascade.entries
            if e.q <= bound and (e.prime is None or e.q in pinned[e.prime])]


def test_class_profile_equals_the_ledger_reference(cascade, ledger):
    rng = random.Random(1260)
    classes = [(m, r) for m in (36, 180, 1260) for r in range(m)]
    moduli = [7 * 11 * 13 * 277, 44_100, 512 * 243, 529 * 361, 31 * 41]
    moduli += [rng.randrange(1, 7 * 11 * 13 * 277 + 1) for _ in range(40)]
    classes += [(m, rng.randrange(-10**30, 10**30))
                for m in moduli for _ in range(4)]
    for modulus, residue in classes:
        want = _ledger_profile(cascade, ledger, modulus, residue)
        for cap in (None, 1, 2):
            assert (class_profile(cascade, modulus, residue, cap)
                    == want[:cap]), (modulus, residue, cap)


def test_class_profile_leaves_out_an_entry_that_holds_no_cell(cascade):
    # entry 15 bent to {0, 1} mod 5, cells that entry 10 already holds,
    # serves no base: a class that leaves 5 unpinned must not show it,
    # and keeps every other value
    bent = Cascade(tuple(e._replace(event=frozenset({0, 1})) if e.q == 15
                         else e for e in cascade.entries),
                   cascade.skipped)
    for modulus, residue in ((1, 0), (36, 2), (77, 3)):
        assert (class_profile(bent, modulus, residue)
                == [q for q in class_profile(cascade, modulus, residue)
                    if q != 15]), modulus


def test_mod36_display(cascade):
    values = gen_mod36(cascade)
    unknown = sorted(r for r, v in values.items() if v is None)
    assert unknown == [2, 11, 14, 23]
    assert values[0] == 4 and values[26] == 9 and values[35] == 9
    assert values == load_golden_mod36()


def test_table1_shape_and_content(cascade):
    t1 = gen_table1(cascade, gen_mod36(cascade))
    assert len({c for c, _ in t1}) == 20
    assert sorted({o for _, o in t1}) == [0, 180, 360, 540, 720, 900, 1080]
    numeric = [v for v in t1.values() if v is not None]
    assert len(numeric) == 108
    assert len(t1) - len(numeric) == 32
    assert set(numeric) == {10, 14, 15, 21}
    assert t1[(83, 0)] == 21
    assert t1[(2, 180)] == 14
    assert t1[(2, 0)] is None
    assert t1 == load_golden_t1()


def test_table1_numeric_cells_really_constant(cascade):
    # sampled backstop for the structural constancy argument
    t1 = gen_table1(cascade, gen_mod36(cascade))
    numeric = [(c + o, v) for (c, o), v in t1.items() if v is not None]
    rng = random.Random(51)
    picks = rng.sample(numeric, 24)
    for cls, v in picks:
        for j in range(0, 1000):
            assert cascade.classify(cls + 1260 * j) == v


def test_table2_matches_golden_and_bounds(cascade):
    t2 = gen_table2(cascade, gen_table1(cascade, gen_mod36(cascade)))
    golden = load_golden_t2()
    assert {c for c, _ in t2} == {c for c, _ in golden}
    assert {i for _, i in t2} == set(range(41))
    assert len(t2) == 1312
    assert t2 == golden
    assert t2[(2, 0)] == 341
    assert t2[(23, 8)] == 561
    assert t2[(38, 0)] == 38
    assert t2[(158, 0)] == 158
    composites = set(cascade.qs())
    assert all(v in composites for v in t2.values())
    # grid corners give the advertised base range
    assert min(c + 1260 * i for c, i in t2) == 2
    assert max(c + 1260 * i for c, i in t2) == 51602


def test_table2_columns_refine_table1_unknowns(cascade):
    t1 = gen_table1(cascade, gen_mod36(cascade))
    unknown = sorted(c + o for (c, o), v in t1.items() if v is None)
    assert unknown == sorted({c for c, _ in gen_table2(cascade, t1)})
    assert len(unknown) == 32
    # and their mod 36 reductions are the four undecided classes
    assert {u % 36 for u in unknown} == {2, 11, 14, 23}


def test_golden_loader_rejects_bad_header(asset_copy):
    (asset_copy / "mod36.csv").write_text("res,val\n0,4\n")
    with pytest.raises(GoldenFormatError, match="expected header"):
        load_golden_mod36(asset_copy)


def test_golden_loader_rejects_bad_cell(asset_copy):
    (asset_copy / "t2.csv").write_text("class,row,value\n2,0,?\n")
    with pytest.raises(GoldenFormatError):
        load_golden_t2(asset_copy)


@pytest.mark.parametrize("name, loader, bad_row", [
    ("t3.csv", load_golden_t3, "x4,1,4,0,2"),
    ("mod36.csv", load_golden_mod36, "a,4"),
    ("t3.csv", load_golden_t3, "4,1,4,0,1/0"),
    ("t2.csv", load_golden_t2, "2,0,3_41"),
    # a rarity is ASCII digits, then optionally a point and one or two
    *(("t3.csv", load_golden_t3, f"4,1,4,0,{rarity}")
      for rarity in ("7/2", "1e2", "2.000", "2_0", " 2")),
])
def test_golden_loader_names_file_and_row_of_a_bad_key(asset_copy, name,
                                                       loader, bad_row):
    lines = (asset_copy / name).read_text().split("\n")
    lines[1] = bad_row
    (asset_copy / name).write_text("\n".join(lines))
    with pytest.raises(GoldenFormatError) as exc:
        loader(asset_copy)
    assert name in str(exc.value) and bad_row in str(exc.value)


@pytest.mark.parametrize("name, extra_row", [
    ("t1.csv", "11,0,10"),       # a row given twice
    ("t1.csv", "11,0,14"),       # a second value for one key
    ("t3.csv", "4,1,4,999,2"),
])
def test_golden_loader_rejects_a_repeated_key(asset_copy, name, extra_row):
    path = asset_copy / name
    path.write_text(path.read_text() + extra_row + "\n")
    with pytest.raises(GoldenFormatError) as exc:
        LOADERS[name](asset_copy)
    assert name in str(exc.value) and extra_row in str(exc.value)


@pytest.mark.parametrize("name", ["mod36.csv", "t1.csv", "t2.csv"])
def test_golden_loader_rejects_a_grid_with_no_rows(asset_copy, name):
    path = asset_copy / name
    path.write_text(path.read_text().split("\n")[0] + "\n")
    with pytest.raises(GoldenFormatError) as exc:
        LOADERS[name](asset_copy)
    assert name in str(exc.value)


def test_golden_loader_rejects_ragged_grid(asset_copy):
    text = (asset_copy / "t1.csv").read_text().strip().split("\n")
    (asset_copy / "t1.csv").write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(GoldenFormatError):
        load_golden_t1(asset_copy)


def test_golden_loader_rejects_bad_period(asset_copy):
    (asset_copy / "period.txt").write_text("12x34\n")
    with pytest.raises(GoldenFormatError):
        load_golden_period(asset_copy)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_golden_loader_names_the_offset_of_a_byte_that_is_not_ascii(
        asset_copy, name):
    path = asset_copy / name
    offset = path.stat().st_size
    with open(path, "ab") as f:
        f.write(b"\xe9\n")
    with pytest.raises(GoldenFormatError) as exc:
        LOADERS[name](asset_copy)
    assert str(exc.value) == (f"{name}: byte 0xe9 at offset {offset} "
                              "is not ASCII")


def test_golden_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_golden_t3(tmp_path)


def test_directory_override_loads_same_data(asset_copy):
    assert load_golden_mod36(asset_copy) == load_golden_mod36()
    assert load_golden_t1(asset_copy) == load_golden_t1()
    assert load_golden_t2(asset_copy) == load_golden_t2()
    assert load_golden_t3(asset_copy) == load_golden_t3()
    assert load_golden_period(asset_copy) == load_golden_period()


@pytest.mark.parametrize("rarity", ["2", "2.0", "2.00"])
def test_golden_rarity_reads_as_hundredths(cascade, census_report,
                                           asset_copy, rarity):
    # q = 4 has rarity exactly 2, however many zero cents are written
    path = asset_copy / "t3.csv"
    text = path.read_text()
    assert "\n4,1,4,0,2\n" in text
    path.write_text(text.replace("\n4,1,4,0,2\n", f"\n4,1,4,0,{rarity}\n"))
    rows = load_golden_t3(asset_copy)
    assert rows == load_golden_t3() and rows[0].rarity == 200
    assert run_regressions(cascade, census_report, asset_copy).ok


def test_run_regressions_clean(cascade, census_report):
    summary = run_regressions(cascade, census_report)
    assert summary.ok
    assert summary.total() == 0
    assert sorted(summary.mismatches) == ["mod36", "period", "t1", "t2", "t3"]


def test_run_regressions_catches_tampering(cascade, census_report, asset_copy):
    text = (asset_copy / "t2.csv").read_text()
    assert "\n2,0,341\n" in text
    (asset_copy / "t2.csv").write_text(text.replace("\n2,0,341\n", "\n2,0,343\n"))
    summary = run_regressions(cascade, census_report, directory=asset_copy)
    assert not summary.ok
    assert [m.key for m in summary.mismatches["t2"]] == [(2, 0)]
    assert summary.mismatches["t1"] == []


def test_format_round_trip_through_loaders(cascade):
    # the CSV writer reproduces each golden file byte for byte, from the
    # derived grid and from the grid its loader reads
    m36 = gen_mod36(cascade)
    t1 = gen_table1(cascade, m36)
    t2 = gen_table2(cascade, t1)
    for name, fmt, derived, golden in (
            ("mod36.csv", format_mod36, m36, load_golden_mod36()),
            ("t1.csv", format_table1, t1, load_golden_t1()),
            ("t2.csv", format_table2, t2, load_golden_t2())):
        text = (ASSET_DIR / name).read_text()
        assert fmt(derived, "csv") == text, name
        assert fmt(golden, "csv") == text, name


def test_format_txt_smoke(cascade, census_report):
    m36 = gen_mod36(cascade)
    txt = format_mod36(m36)
    assert "?" in txt and "b mod 36" in txt
    t1 = gen_table1(cascade, m36)
    txt = format_table1(t1)
    assert "+1080" in txt
    txt = format_table2(gen_table2(cascade, t1))
    assert "341" in txt
    txt = format_t3(census_report)
    assert "10009487" in txt and "25437.66" in txt


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


TOKENS = st.one_of(
    st.sampled_from(["", "?", "-1", "x", "1/0", "1e3", " 7", "1_0",
                     "9" * 30, "\u00b2", "\u0663"]),
    st.text(st.sampled_from("0123456789?,-./ x"), max_size=8))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)),
       edit=st.sampled_from(["drop", "repeat", "line", "token"]),
       at=st.integers(0, 10**6), token=TOKENS)
def test_fuzzed_golden_files_load_or_name_the_file(fuzz_dir, name, edit, at,
                                                   token):
    # one line dropped, repeated or replaced, or one field of it replaced:
    # the loader returns, or fails with the file named, and never crashes
    lines = (ASSET_DIR / name).read_text().splitlines()
    i = at % len(lines)
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "line":
        lines[i] = token
    else:
        fields = lines[i].split(",")
        fields[at // len(lines) % len(fields)] = token
        lines[i] = ",".join(fields)
    (fuzz_dir / name).write_text("\n".join(lines) + "\n")
    try:
        LOADERS[name](fuzz_dir)
    except GoldenFormatError as exc:
        assert name in str(exc)

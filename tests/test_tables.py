import random
import shutil
from pathlib import Path

import pytest

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

ASSET_DIR = Path(__file__).resolve().parents[1] / "src" / "pretenders" / "data"


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
    # classify never reads the claim tables that class_profile restricts
    rng = random.Random(52)
    for _ in range(40):
        modulus = 1260 * rng.randrange(1, 30)
        residue = rng.randrange(modulus)
        profile = class_profile(cascade, modulus, residue)
        assert profile == sorted(profile)
        seen = {cascade.classify(residue + modulus * rng.randrange(10**12))
                for _ in range(300)}
        assert seen <= set(profile), (modulus, residue)


def test_mod36_display(cascade):
    values = gen_mod36(cascade)
    unknown = sorted(r for r, v in values.items() if v is None)
    assert unknown == [2, 11, 14, 23]
    assert values[0] == 4 and values[26] == 9 and values[35] == 9
    assert values == load_golden_mod36()


def test_table1_shape_and_content(cascade):
    t1 = gen_table1(cascade, gen_mod36(cascade))
    assert len(t1.columns) == 20
    assert t1.offsets == (0, 180, 360, 540, 720, 900, 1080)
    numeric = [v for v in t1.cells.values() if v is not None]
    assert len(numeric) == 108
    assert len(t1.cells) - len(numeric) == 32
    assert set(numeric) == {10, 14, 15, 21}
    assert t1.cells[(83, 0)] == 21
    assert t1.cells[(2, 180)] == 14
    assert t1.cells[(2, 0)] is None
    assert t1.cells == load_golden_t1().cells


def test_table1_numeric_cells_really_constant(cascade):
    # sampled backstop for the structural constancy argument
    t1 = gen_table1(cascade, gen_mod36(cascade))
    numeric = [(c + o, v) for (c, o), v in t1.cells.items() if v is not None]
    rng = random.Random(51)
    picks = rng.sample(numeric, 24)
    for cls, v in picks:
        for j in range(0, 1000):
            assert cascade.classify(cls + 1260 * j) == v


def test_table2_matches_golden_and_bounds(cascade):
    t2 = gen_table2(cascade, gen_table1(cascade, gen_mod36(cascade)))
    golden = load_golden_t2()
    assert t2.columns == golden.columns
    assert t2.num_rows == 41
    assert len(t2.cells) == 1312
    assert t2.cells == golden.cells
    assert t2.cells[(2, 0)] == 341
    assert t2.cells[(23, 8)] == 561
    assert t2.cells[(38, 0)] == 38
    assert t2.cells[(158, 0)] == 158
    composites = set(cascade.qs())
    assert all(v in composites for v in t2.cells.values())
    # grid corners give the advertised base range
    assert min(c + 1260 * i for c, i in t2.cells) == 2
    assert max(c + 1260 * i for c, i in t2.cells) == 51602


def test_table2_columns_refine_table1_unknowns(cascade):
    t1 = gen_table1(cascade, gen_mod36(cascade))
    unknown = sorted(c + o for (c, o), v in t1.cells.items() if v is None)
    assert tuple(unknown) == gen_table2(cascade, t1).columns
    assert len(unknown) == 32
    # and their mod 36 reductions are the four undecided classes
    assert {u % 36 for u in unknown} == {2, 11, 14, 23}


def test_golden_loader_rejects_bad_header(asset_copy):
    (asset_copy / "mod36.csv").write_text("res,val\n0,4\n")
    with pytest.raises(GoldenFormatError):
        load_golden_mod36(asset_copy)


def test_golden_loader_rejects_bad_cell(asset_copy):
    (asset_copy / "t2.csv").write_text("class,row,value\n2,0,?\n")
    with pytest.raises(GoldenFormatError):
        load_golden_t2(asset_copy)


@pytest.mark.parametrize("name, loader, bad_row", [
    ("t3.csv", load_golden_t3, "x4,1,4,0,2"),
    ("mod36.csv", load_golden_mod36, "a,4"),
])
def test_golden_loader_names_file_and_row_of_a_bad_key(asset_copy, name,
                                                       loader, bad_row):
    lines = (asset_copy / name).read_text().split("\n")
    lines[1] = bad_row
    (asset_copy / name).write_text("\n".join(lines))
    with pytest.raises(GoldenFormatError) as exc:
        loader(asset_copy)
    assert name in str(exc.value) and bad_row in str(exc.value)


def test_golden_loader_rejects_ragged_grid(asset_copy):
    text = (asset_copy / "t1.csv").read_text().strip().split("\n")
    (asset_copy / "t1.csv").write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(GoldenFormatError):
        load_golden_t1(asset_copy)


def test_golden_loader_rejects_bad_period(asset_copy):
    (asset_copy / "period.txt").write_text("12x34\n")
    with pytest.raises(GoldenFormatError):
        load_golden_period(asset_copy)


def test_golden_loader_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_golden_t3(tmp_path)


def test_directory_override_loads_same_data(asset_copy):
    assert load_golden_mod36(asset_copy) == load_golden_mod36()
    assert load_golden_t1(asset_copy).cells == load_golden_t1().cells
    assert load_golden_t2(asset_copy).cells == load_golden_t2().cells
    assert load_golden_t3(asset_copy) == load_golden_t3()
    assert load_golden_period(asset_copy) == load_golden_period()


def test_run_regressions_clean(cascade, census_report):
    summary = run_regressions(cascade, census_report)
    assert summary.ok
    assert summary.total() == 0
    assert sorted(summary.mismatches) == ["mod36", "period", "t1", "t2", "t3"]


def test_run_regressions_without_census_skips_t3(cascade):
    summary = run_regressions(cascade)
    assert summary.ok
    assert "t3" not in summary.mismatches


def test_run_regressions_catches_tampering(cascade, census_report, asset_copy):
    text = (asset_copy / "t2.csv").read_text()
    assert "\n2,0,341\n" in text
    (asset_copy / "t2.csv").write_text(text.replace("\n2,0,341\n", "\n2,0,343\n"))
    summary = run_regressions(cascade, census_report, directory=asset_copy)
    assert not summary.ok
    assert [m.key for m in summary.mismatches["t2"]] == [(2, 0)]
    assert summary.mismatches["t1"] == []


def test_format_round_trip_through_loaders(cascade, census_report, tmp_path):
    m36 = gen_mod36(cascade)
    t1 = gen_table1(cascade, m36)
    (tmp_path / "mod36.csv").write_text(format_mod36(m36, "csv"))
    (tmp_path / "t1.csv").write_text(format_table1(t1, "csv"))
    t2 = gen_table2(cascade, t1)
    (tmp_path / "t2.csv").write_text(format_table2(t2, "csv"))
    assert load_golden_mod36(tmp_path) == load_golden_mod36()
    assert load_golden_t1(tmp_path).cells == load_golden_t1().cells
    assert load_golden_t2(tmp_path).cells == load_golden_t2().cells


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

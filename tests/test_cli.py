import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import pretenders
from pretenders import cli, period, pretender
from pretenders.cascade import build_cascade
from pretenders.cli import main

# the package under test, where this process imported it from: src/ in
# a checkout, site-packages when the suite runs against an install
PACKAGE_DIR = Path(pretenders.__file__).parent
ASSET_DIR = PACKAGE_DIR / "data"


def child_env():
    """The environment for a child process that imports the same copy of
    the package as this one, under ``python -S`` too."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_and_oracle(capsys):
    code, out, _ = run(capsys, "classify", "2")
    assert code == 0 and out.strip() == "341"
    code, out, _ = run(capsys, "oracle", "2")
    assert code == 0 and out.strip() == "341"
    big = str(10**50 + 3)
    code, out, _ = run(capsys, "classify", big)
    assert code == 0 and int(out) <= 561
    # a bare negative base answers as one after '--'
    assert run(capsys, "classify", "-7") == run(capsys, "classify", "--", "-7")


@pytest.mark.parametrize("command", ["classify", "oracle"])
def test_bases_past_the_digit_limit(capsys, command):
    # 5001 digits, past the 4300 that int(str) accepts by default
    expected = build_cascade().classify(10**5000 + 2)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = digit_limit()
    code, out, _ = run(capsys, command, "1" + "0" * 4999 + "2")
    assert (code, out) == (0, f"{expected}\n")
    assert digit_limit() == before   # the limit is restored


def test_cascade_formats(capsys):
    code, out, _ = run(capsys, "cascade", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 133 and lines[0].startswith("q,k,m")
    code, out, _ = run(capsys, "cascade", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 132
    code, out, _ = run(capsys, "cascade")
    assert code == 0 and "rarity" in out


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "15")
    assert code == 0 and "1/63" in out
    code, out, _ = run(capsys, "density", "8")
    assert code == 0 and "0/1" in out
    code, _, err = run(capsys, "density", "7")
    assert code == 2 and "error" in err


def test_firstbases_truncated_scan_warns(capsys):
    code, out, err = run(capsys, "firstbases", "--max", "1000")
    assert code == 1
    assert "10103" not in out.split("\n")[0]
    assert "warning" in err


def test_firstbases_cap_is_exclusive(capsys):
    # 453's first base, 10009487, is the largest: a cap of exactly that
    # leaves 453 alone out, and one more keeps every entry
    code, out, err = run(capsys, "firstbases", "--max", "10009487")
    assert code == 1
    assert err == "warning: no base below 10009487 reaches: 453\n"
    assert "\n453,2,151,," in out and "10009487" not in out
    code, out, err = run(capsys, "firstbases", "--max", "10009488")
    assert (code, err) == (0, "")
    assert "\n453,2,151,10009487," in out


def test_firstbases_cap_of_one(capsys):
    # only 4's first base, 0, lies below 1: a valid cap, so exit 1, not 2
    code, out, err = run(capsys, "firstbases", "--max", "1")
    assert code == 1
    assert out.split("\n")[1:3] == ["4,1,4,0,1,2,2", "6,1,3,,1,3,3"]
    assert err.startswith("warning: no base below 1 reaches: 6, 9, 10, ")


def test_period_command(capsys):
    code, out, _ = run(capsys, "period")
    assert code == 0 and "digits: 122" in out
    code, out, _ = run(capsys, "period", "--digits")
    assert code == 0 and len(out.strip()) == 122
    code, out, _ = run(capsys, "period", "--samples", "40", "--minimality")
    assert code == 0
    assert "periodicity: 40 bases checked, 0 failures" in out
    assert "witnesses for 59 primes" in out


@pytest.mark.parametrize("check, fail, line", [
    ("verify_lcm", lambda rep: rep._replace(equal=False),
     "lcm of entry moduli matches: False"),
    ("periodicity_check", lambda rep: rep._replace(failures=(0,)),
     "periodicity: 10 bases checked, 1 failures"),
    ("minimality_witnesses", lambda rep: rep._replace(failed=(2,)),
     "minimality: witnesses for 59 primes, 1 unwitnessed"),
])
def test_period_exits_1_on_a_failed_check(capsys, monkeypatch, check, fail,
                                          line):
    # the command reads each check from its module when it runs
    real = getattr(period, check)
    monkeypatch.setattr(period, check, lambda *a, **kw: fail(real(*a, **kw)))
    code, out, _ = run(capsys, "period", "--samples", "10", "--minimality")
    assert code == 1
    assert line in out.split("\n")


@pytest.mark.parametrize("which, head", [
    ("t1", ["b mod 180   2  11  14  23  38  47  50  59  74  83",
            "       +0   ?  10  14   ?   ?   ?  10  15  15  21"]),
    ("t2", ["row    2   23   38   47  122  158  227  263  338  347",
            "  0  341   22   38   46   22  158   49   33   26   87"]),
])
def test_table_txt_layout(capsys, which, head):
    # the first two lines, cut at ten columns, byte for byte
    code, out, _ = run(capsys, "table", "--which", which)
    assert code == 0
    assert [line[:len(h)] for line, h in zip(out.split("\n"), head)] == head


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--which", "mod36")
    assert code == 0 and "?" in out
    code, out, _ = run(capsys, "table", "--which", "t1", "--format", "csv")
    assert code == 0 and len(out.strip().split("\n")) == 141
    code, out, _ = run(capsys, "table", "--which", "t2", "--format", "csv")
    assert code == 0 and len(out.strip().split("\n")) == 1313
    code, out, _ = run(capsys, "table", "--which", "t3", "--format", "csv")
    assert code == 0 and "453,2,151,10009487" in out


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--oracle-limit", "2000")
    assert code == 0
    assert "t2: ok" in out
    assert "oracle agreement on [0, 2000]: ok" in out


def test_verify_exits_1_when_the_oracle_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(pretender, "primary_pretender_oracle", lambda b: 4)
    code, out, _ = run(capsys, "verify", "--oracle-limit", "10")
    assert code == 1
    assert "t2: ok" in out   # the golden diffs still pass
    # classify gives 4 only to the bases 0, 1, 4, 5, 8, 9 of [0, 10]
    lines = out.splitlines()
    at = lines.index("oracle agreement on [0, 10]: 5 disagreements")
    assert lines[at + 1:] == ["  2: expected 4, got 341",
                              "  3: expected 4, got 6",
                              "  6: expected 4, got 6",
                              "  7: expected 4, got 6",
                              "  10: expected 4, got 6"]


def test_verify_flags_mismatch(capsys, tmp_path):
    for name in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / name, tmp_path / name)
    text = (tmp_path / "mod36.csv").read_text()
    (tmp_path / "mod36.csv").write_text(text.replace("26,9", "26,15"))
    code, out, _ = run(capsys, "verify", "--golden", str(tmp_path),
                       "--oracle-limit", "0")
    assert code == 1
    assert "mod36: 1 mismatches" in out


def test_verify_flags_a_rarity_one_cent_off(capsys, tmp_path):
    # the golden rarity is the exact truncation, so 0.01 off is a mismatch
    for name in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / name, tmp_path / name)
    text = (tmp_path / "t3.csv").read_text()
    assert "\n4,1,4,0,2\n" in text
    (tmp_path / "t3.csv").write_text(text.replace("\n4,1,4,0,2\n",
                                                  "\n4,1,4,0,2.01\n"))
    code, out, _ = run(capsys, "verify", "--golden", str(tmp_path),
                       "--oracle-limit", "0")
    assert code == 1
    assert "t3: 1 mismatches" in out
    assert "  (4, 'rarity'): expected 2.01, got 2.00" in out.splitlines()


def test_verify_flags_a_missing_t3_row_in_each_field(capsys, tmp_path):
    for name in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / name, tmp_path / name)
    text = (tmp_path / "t3.csv").read_text()
    row = "453,2,151,10009487,2143037.38\n"
    assert row in text
    (tmp_path / "t3.csv").write_text(text.replace(row, ""))
    code, out, _ = run(capsys, "verify", "--golden", str(tmp_path),
                       "--oracle-limit", "0")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("t3: 4 mismatches")
    assert lines[at + 1:] == [
        "  (453, 'first_base'): expected <absent>, got 10009487",
        "  (453, 'k'): expected <absent>, got 2",
        "  (453, 'm'): expected <absent>, got 151",
        "  (453, 'rarity'): expected <absent>, got 2143037.38"]


@pytest.mark.parametrize("name, bad_row", [("t3.csv", "x4,1,4,0,2"),
                                           ("mod36.csv", "a,4")])
def test_verify_names_a_golden_file_with_a_bad_key(capsys, tmp_path, name,
                                                   bad_row):
    for asset in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / asset, tmp_path / asset)
    lines = (tmp_path / name).read_text().split("\n")
    lines[1] = bad_row
    (tmp_path / name).write_text("\n".join(lines))
    code, _, err = run(capsys, "verify", "--golden", str(tmp_path),
                       "--oracle-limit", "0")
    assert code == 2
    assert err.startswith("error: ") and name in err and bad_row in err


def _repeat_4_and_break_453(text):
    text = text.replace("\n453,2,151,10009487,2143037.38\n",
                        "\n453,1,151,1,99\n")
    return text + "4,1,4,999,2\n"


def _write_rarity_543_as_a_fraction(text):
    # the same value, but not a rarity as t3 writes one: no diff by value
    return text.replace("\n543,2,181,4503098,4178269.82\n",
                        "\n543,2,181,4503098,417826982/100\n")


@pytest.mark.parametrize("name, edit", [
    ("t3.csv", _repeat_4_and_break_453),
    ("t2.csv", lambda text: "class,row,value\n"),
    ("t1.csv", lambda text: text + "11,0,10\n"),
    ("t1.csv", lambda text: text.replace("residue,", "class,", 1)),
    ("period.txt", lambda text: text.strip() + "\u00b2\n"),
    # written through surrogateescape, U+DCFF is the lone byte 0xff
    ("t2.csv", lambda text: text + "\udcff"),
    ("t3.csv", _write_rarity_543_as_a_fraction),
], ids=["t3-repeated-q", "t2-header-only", "t1-repeated-key",
        "t1-bad-header", "period-superscript-digit", "t2-ends-in-0xff",
        "t3-rarity-as-a-fraction"])
def test_verify_rejects_repeated_rows_and_empty_grids(capsys, tmp_path, name,
                                                      edit):
    for asset in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / asset, tmp_path / asset)
    (tmp_path / name).write_text(edit((tmp_path / name).read_text()),
                                 errors="surrogateescape")
    code, out, err = run(capsys, "verify", "--golden", str(tmp_path),
                         "--oracle-limit", "0")
    assert code == 2, out
    assert err.startswith("error: ") and name in err


def _drop_t2_row_40(text):
    return "".join(ln for ln in text.splitlines(True) if ",40," not in ln)


def _add_t2_row_41(text):
    # the true values, so that only the row itself is wrong
    cascade = build_cascade()
    classes = [ln.split(",")[0] for ln in text.splitlines() if ",40," in ln]
    return text + "".join(f"{c},41,{cascade.classify(int(c) + 1260 * 41)}\n"
                          for c in classes)


def _verify_edited_t2(capsys, tmp_path, edit):
    for asset in ("mod36.csv", "t1.csv", "t2.csv", "t3.csv", "period.txt"):
        shutil.copy(ASSET_DIR / asset, tmp_path / asset)
    (tmp_path / "t2.csv").write_text(edit((tmp_path / "t2.csv").read_text()))
    return run(capsys, "verify", "--golden", str(tmp_path),
               "--oracle-limit", "0")


@pytest.mark.parametrize("edit, row", [(_drop_t2_row_40, "40"),
                                       (_add_t2_row_41, "41")],
                         ids=["t2-without-row-40", "t2-with-row-41"])
def test_verify_counts_a_missing_or_extra_t2_row(capsys, tmp_path, edit, row):
    # t2 has 41 rows whatever the golden file holds, so a row the file
    # lacks or adds is 32 mismatches, not a shorter clean diff
    code, out, _ = _verify_edited_t2(capsys, tmp_path, edit)
    assert code == 1
    assert "t2: 32 mismatches" in out
    rows = re.findall(r"^  \(\d+, (\d+)\): expected", out, re.M)
    assert len(rows) == 20 and set(rows) == {row}


def test_verify_lists_the_least_mismatch_keys_in_order(capsys, tmp_path):
    # keys sort as tuples of ints: (2, 40) comes before (1067, 40)
    code, out, _ = _verify_edited_t2(capsys, tmp_path, _drop_t2_row_40)
    assert code == 1
    listed = [(int(c), int(r)) for c, r in
              re.findall(r"^  \((\d+), (\d+)\): expected", out, re.M)]
    classes = sorted(int(ln.split(",")[0]) for ln in
                     (ASSET_DIR / "t2.csv").read_text().splitlines()
                     if ",40," in ln)
    assert listed == [(c, 40) for c in classes[:20]]


def test_verify_missing_golden_dir(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--golden", str(tmp_path / "nope"),
                       "--oracle-limit", "0")
    assert code == 2 and "error" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ("period", "--samples", "-3"),
    ("firstbases", "--max", "-5"),
    ("firstbases", "--max", "0"),
    ("verify", "--oracle-limit", "-1"),
    ("classify", "12x"),
    ("period", "--samples", "10x"),
    ("firstbases", "--max", "abc"),
])
def test_bad_numeric_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-1] in err
    # the message names no private helper such as _positive
    assert not re.search(r"\b_\w", err)
    if not argv[-1].lstrip("-").isdigit():
        assert "invalid int value" in err


def _outcome(monkeypatch, argv, parser_only):
    """Exit status, stdout and stderr of ``main(argv)``, with the parser
    answering every argv when ``parser_only``."""
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as patched:
        patched.setenv("COLUMNS", "80")
        if parser_only:
            patched.setattr(cli, "_bare_integer", lambda argv: None)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:   # argparse's usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue()


HUGE = "9" * 5000   # past the 4300 digits that int(str) accepts by default

# one integer token of ASCII digits, optionally after a '-': answered
# without the parser
BARE = [("classify", "2"), ("classify", "-0"), ("classify", "-7"),
        ("classify", "007"), ("classify", HUGE), ("oracle", "-341"),
        ("density", "15"), ("density", "8"), ("density", "7"),
        ("density", "-4")]
# everything else, and a token whose conversion fails, goes to the parser
PARSED = [("density", HUGE), ("classify", "+5"), ("classify", "1_000"),
          ("classify", " 5"), ("classify", "\u0663"), ("classify", "5", "6"),
          ("classify", "--", "-7"), ("classify", "-h"), ("classify",),
          ("classify", "-"), ("classify", "--7"), ("classify", ""),
          ("period", "5"), ()]


@pytest.mark.parametrize("argv", BARE + PARSED, ids=[
    repr(" ".join(argv).replace(HUGE, "9x5000")) for argv in BARE + PARSED])
def test_a_bare_integer_answers_as_the_parser_does(monkeypatch, argv):
    assert (cli._bare_integer(list(argv)) is not None) == (argv in BARE)
    got = _outcome(monkeypatch, argv, parser_only=False)
    assert got == _outcome(monkeypatch, argv, parser_only=True)
    if argv == ("density", HUGE):
        assert got[0] == 2 and "invalid int value" in got[2]


def test_zero_samples_still_skips(capsys):
    code, out, _ = run(capsys, "period", "--samples", "0")
    assert code == 0 and "periodicity" not in out


@pytest.mark.parametrize("module", ["pretenders", "pretenders.cli"])
def test_python_dash_m(module):
    proc = subprocess.run([sys.executable, "-m", module, "classify", "2"],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "341\n"), proc.stderr


def test_runs_without_numpy():
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from pretenders.cli import main\n"
              "assert main(['firstbases', '--max', '1000']) == 1\n"
              "assert main(['classify', '2']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("q,k,m,first_base")
    assert proc.stdout.endswith("\n341\n")


def test_runs_without_dataclasses_typing_or_pathlib():
    # records are collections.namedtuples and golden files are found
    # through os.path: no subcommand may pull dataclasses (and with it
    # inspect), typing or pathlib into its start-up
    script = ("import sys\n"
              "for name in ('dataclasses', 'typing', 'pathlib'):\n"
              "    sys.modules[name] = None\n"
              "from pretenders.cli import main\n"
              "for argv in (['classify', '2'],\n"
              "             ['verify', '--oracle-limit', '10'],\n"
              "             ['table', '--which', 't3'],\n"
              "             ['period', '--samples', '10', '--minimality']):\n"
              "    assert main(argv) == 0, argv\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("341\n")


# modules that no subcommand loads
NOT_FOR_ANY = ("typing", "pathlib", "fractions", "decimal")
# modules that neither `classify` nor `density` runs; a bare integer
# builds no parser
NOT_FOR_CLASSIFY = NOT_FOR_ANY + (
    "pretenders.census", "pretenders.period", "pretenders.tables",
    "pretenders.pretender", "json", "random", "importlib.resources",
    "argparse")


@pytest.mark.parametrize("argv, absent", [
    (["classify", "2"], NOT_FOR_CLASSIFY),
    (["density", "4"], NOT_FOR_CLASSIFY),
    (["period", "--samples", "10", "--minimality"],
     NOT_FOR_ANY + ("pretenders.census", "pretenders.tables", "json")),
    (["oracle", "2"], NOT_FOR_ANY + ("pretenders.census", "pretenders.period",
                                     "pretenders.tables", "random",
                                     "argparse")),
    # only the JSON listing loads json, and only sampling random
    (["table", "--which", "t2"], NOT_FOR_ANY + ("json", "random")),
    (["cascade", "--format", "csv"], NOT_FOR_ANY + ("json", "random")),
], ids=["classify", "density", "period", "oracle", "table-t2", "cascade-csv"])
def test_a_subcommand_imports_only_what_it_runs(capsys, argv, absent):
    # under -S: a site hook may import json, pathlib or importlib.resources
    # before any package code runs
    script = ("import sys\n"
              "from pretenders.cli import main\n"
              f"code = main({argv!r})\n"
              f"print(sorted(set({absent!r}) & set(sys.modules)), "
              "file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    # the same output as the command run in this process
    assert (0, proc.stdout, "") == run(capsys, *argv)
    if argv[0] in ("classify", "oracle"):
        assert proc.stdout == "341\n"


API = {"CensusReport": "census", "build_cascade": "cascade",
       "classify_range": "census", "density_by_residue_count": "census",
       "derive_k_m": "cascade", "family_check": "cascade",
       "minimality_witnesses": "period", "periodicity_check": "period",
       "primary_pretender_oracle": "pretender", "run_regressions": "tables",
       "verify_lcm": "period", "verify_skipped": "census"}

# run in a fresh interpreter, with the first read of the API as argv[1]
API_CHECK = """
import importlib, sys
import pretenders
loaded = {n for n in sys.modules if n.startswith("pretenders.")}
assert loaded == {"pretenders.arith", "pretenders.events",
                  "pretenders.cascade"}, loaded
exec(sys.argv[1], {"pretenders": pretenders})
assert sorted(pretenders.__all__) == sorted(API)
for name, module in API.items():
    defined = getattr(importlib.import_module("pretenders." + module), name)
    assert vars(pretenders)[name] is defined, name   # all bound at once
star = {}
exec("from pretenders import *", star)
assert all(star[name] is vars(pretenders)[name] for name in API)
try:
    pretenders.nope
except AttributeError:
    pass
else:
    raise AssertionError("pretenders.nope was found")
"""


@pytest.mark.parametrize("first_read", ["pretenders.verify_lcm",
                                        "from pretenders import *"])
def test_the_public_api_is_bound_on_its_first_read(first_read):
    proc = subprocess.run(
        [sys.executable, "-c", f"API = {API!r}\n{API_CHECK}", first_read],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr

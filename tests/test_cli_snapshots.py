"""Every CLI output, pinned: the exit status, stdout and stderr of each
command in ``data/cli/cases.json``, run in-process through ``main``.

The snapshot is checked against data that shares no code with the build
(``test_the_snapshot_agrees_with_t3_and_the_recounts``), so it does not
freeze an unchecked value.  A change that means to alter an output
rewrites the files with ``python tests/test_cli_snapshots.py`` and says
so.
"""

import csv
import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

import pretenders
from pretenders.census import density_by_residue_count, verify_skipped
from pretenders.cli import main

DATA = Path(__file__).parent / "data" / "cli"
# the golden files of the package under test, in src/ or installed
GOLDEN = Path(pretenders.__file__).parent / "data"
CASES = json.loads((DATA / "cases.json").read_text(encoding="utf-8"))


def run(argv):
    """Exit status, stdout and stderr of ``pretenders *argv``; argparse
    wraps its usage lines to COLUMNS, which the snapshot took as 80."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Cases whose stderr is argparse's top-level usage, which Python 3.13
# wraps differently and whose later releases stop quoting the choices.
# Their stderr is compared with every run of whitespace made one space
# and the quotes dropped, so the usage, the message and the token named
# are still pinned on every version.
ARGPARSE_USAGE = {"error-bad-command", "error-no-command"}


def unwrapped(text: str) -> str:
    return " ".join(text.replace("'", "").split())


def stdout_of(name: str) -> str:
    return (DATA / f"{name}.out").read_text(encoding="utf-8")


def first_difference(want: str, got: str) -> str:
    pairs = zip_longest(want.splitlines(True), got.splitlines(True))
    for n, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {n}: expected {a!r}, got {b!r}"
    return "no line differs"


def test_every_subcommand_has_a_case():
    commands = {case["argv"][0] for case in CASES if case["argv"]}
    assert {"classify", "oracle", "cascade", "density", "firstbases",
            "period", "table", "verify"} <= commands
    assert len(CASES) == 39


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_its_snapshot(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(case["argv"])
    command = shlex.join(["pretenders", *case["argv"]])
    assert code == case["exit"], f"{command}: exit {code}"
    want_err = case["stderr"]
    if case["name"] in ARGPARSE_USAGE:
        want_err, err = unwrapped(want_err), unwrapped(err)
    for stream, want, got in (("stdout", stdout_of(case["name"]), out),
                              ("stderr", want_err, err)):
        assert got == want, \
            f"{command}: {stream} {first_difference(want, got)}"


def printed_densities():
    """(case, q, density) for every density the snapshot prints."""
    for name in ("cascade-csv", "table-t3-csv", "firstbases",
                 "firstbases-max-1000"):
        for row in csv.DictReader(io.StringIO(stdout_of(name))):
            yield name, int(row["q"]), Fraction(int(row["density_num"]),
                                                int(row["density_den"]))
    for row in json.loads(stdout_of("cascade-json")):
        yield "cascade-json", row["q"], Fraction(row["density_num"],
                                                 row["density_den"])
    for name in ("cascade", "cascade-txt"):
        for line in stdout_of(name).splitlines()[1:]:
            q, _, _, density, _ = line.split()
            yield name, int(q), Fraction(density)
    for q in (15, 561):
        line = stdout_of(f"density-{q}").splitlines()[0]
        yield f"density-{q}", q, Fraction(line.removeprefix("density: "))


def test_the_snapshot_agrees_with_t3_and_the_recounts(cascade):
    # q, k and m of every listing are t3's first three columns
    with (GOLDEN / "t3.csv").open(newline="") as f:
        t3 = [row[:3] for row in csv.reader(f)][1:]
    qkm = {
        "cascade-csv": [row[:3] for row in
                        csv.reader(io.StringIO(stdout_of("cascade-csv")))][1:],
        "cascade-json": [[str(row[c]) for c in "qkm"] for row in
                         json.loads(stdout_of("cascade-json"))],
        "cascade": [line.split()[:3]
                    for line in stdout_of("cascade").splitlines()[1:]],
    }
    for name, rows in qkm.items():
        assert rows == t3, name
    # and each CSV grid the CLI prints is its golden file, byte for byte
    for which in ("mod36", "t1", "t2"):
        assert (DATA / f"table-{which}-csv.out").read_bytes() == \
            (GOLDEN / f"{which}.csv").read_bytes(), which
    # every printed density is the raw recount of its entry's share
    recount = {e.q: density_by_residue_count(cascade, e.q)
               for e in cascade.entries}
    printed = list(printed_densities())
    assert len(printed) == 7 * 132 + 2
    for name, q, density in printed:
        assert density == recount[q], (name, q)
    assert sum(recount.values()) == 1
    # and a skipped composite prints density 0
    assert stdout_of("density-8").startswith("density: 0/1\n")
    assert verify_skipped(cascade, 8)


if __name__ == "__main__":
    # rewrite every snapshot from the code as it stands
    os.environ["COLUMNS"] = "80"
    for case in CASES:
        case["exit"], out, case["stderr"] = run(case["argv"])
        (DATA / f"{case['name']}.out").write_text(out, encoding="utf-8")
    (DATA / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n",
                                     encoding="utf-8")

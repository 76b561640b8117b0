"""Residue-class displays, their derivation, golden-file regression, and
every text, CSV and JSON layout the package reads or writes.

A residue class c mod M pins b mod p**v for each prime power p**v || M.
Restricting the cascade's per-prime entry tables, one per tracked prime
over its own period, to the pinned cells tells exactly which entries
classify members of the class; the class shows a definite value
precisely when a single entry takes all of it.  Only the primes that
divide M are restricted: 2, 3, 5 and 7 for the moduli 36, 180 and 1260.
That restriction (``class_profile``, kept beside the tables in
``cascade.py``) produces the mod-36 display (values 4, 6, 9 or '?'), the
20x7 grid over the undecided classes mod 1260 (values 10, 14, 15, 21 or
'?'), and the 32 columns of the computed-value grid for the classes that
stay undecided at every modulus dividing 1260.  Each display is a plain
dict of cells keyed by its CSV key columns; its axes are read off the
keys.

The golden copies of these displays ship as ASCII CSV assets.  They are
data, transcribed once; nothing here derives from them -- they exist
only to be diffed against, by ``census.diff_cells``.
"""

import os
from collections import namedtuple
from math import prod

from .cascade import Cascade, class_profile
from .census import CensusReport, diff_cells, rarity_regression
from .period import period_constant

__all__ = [
    "GoldenFormatError",
    "class_profile",
    "format_cascade",
    "format_mod36",
    "format_t3",
    "format_table1",
    "format_table2",
    "gen_mod36",
    "gen_table1",
    "gen_table2",
    "load_golden_mod36",
    "load_golden_period",
    "load_golden_t1",
    "load_golden_t2",
    "load_golden_t3",
    "run_regressions",
]

T2_ROWS = 41   # rows of the t2 grid, as in the paper

# golden file and CSV header of each residue-class grid
_GRIDS = {"mod36": ("mod36.csv", "residue,value"),
          "t1": ("t1.csv", "residue,offset,value"),
          "t2": ("t2.csv", "class,row,value")}


class GoldenFormatError(ValueError):
    """A golden asset failed to parse; distinct from a value mismatch."""


# ---------------------------------------------------------------------------
# derivation

def _constant(cascade: Cascade, modulus: int, residue: int) -> int | None:
    """The one classify value of a class, None when it takes several."""
    profile = class_profile(cascade, modulus, residue, max_distinct=2)
    return profile[0] if len(profile) == 1 else None


def gen_mod36(cascade: Cascade) -> dict[int, int | None]:
    """Value of each class mod 36, None when the class is not constant."""
    return {r: _constant(cascade, 36, r) for r in range(36)}


def gen_table1(cascade: Cascade, mod36: dict[int, int | None]
               ) -> dict[tuple[int, int], int | None]:
    """Constant-or-undecided grid over the classes mod 1260 refining the
    '?' classes of the mod-36 display ``mod36``, keyed (residue mod 180,
    offset) with offsets 0, 180, ..., 1080."""
    unknown36 = {r for r, v in mod36.items() if v is None}
    return {(col, off): _constant(cascade, 1260, col + off)
            for col in range(180) if col % 36 in unknown36
            for off in range(0, 1260, 180)}


def gen_table2(cascade: Cascade, t1: dict[tuple[int, int], int | None]
               ) -> dict[tuple[int, int], int]:
    """classify over the classes mod 1260 that ``t1`` leaves undecided,
    keyed (class, row), row i adding 1260 * i."""
    return {(c + o, i): cascade.classify(c + o + 1260 * i)
            for (c, o), v in t1.items() if v is None for i in range(T2_ROWS)}


def _axes(cells: dict) -> list[list[int]]:
    """Sorted distinct values of each key column of a grid."""
    return [sorted(set(axis)) for axis in zip(*cells)]


# ---------------------------------------------------------------------------
# golden assets

def _read_lines(name: str, directory) -> list[str]:
    """The non-blank lines of a golden file, which must be ASCII."""
    if directory is None:
        directory = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(directory, name), encoding="ascii") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise GoldenFormatError(
                f"{name}: byte {exc.object[exc.start]:#04x} at offset "
                f"{exc.start} is not ASCII") from None
    return [ln for ln in text.splitlines() if ln.strip()]


def _bad_row(name: str, what: str, row: list[str]) -> GoldenFormatError:
    return GoldenFormatError(f"{name}: {what} in row {','.join(row)!r}")


def _int(token: str, name: str, row: list[str]) -> int:
    # int() alone also reads '3_41' and ' 341'; golden text is ASCII, so
    # isdigit() holds for ASCII digits alone
    try:
        if token.isdigit():
            return int(token)
    except ValueError:   # past the interpreter's limit on digits
        pass
    raise _bad_row(name, f"bad integer {token!r}", row)


def _parse_csv(name: str, directory, header: str,
               keys: int) -> dict[tuple[int, ...], list[str]]:
    """Rows of a golden CSV by the integers in their first ``keys``
    columns; a repeated key is an error."""
    lines = _read_lines(name, directory)
    if not lines or lines[0] != header:
        raise GoldenFormatError(f"{name}: expected header {header!r}")
    width = len(header.split(","))
    rows: dict[tuple[int, ...], list[str]] = {}
    for row in (ln.split(",") for ln in lines[1:]):
        if len(row) != width:
            raise _bad_row(name, f"expected {width} fields", row)
        key = tuple([_int(token, name, row) for token in row[:keys]])
        if key in rows:
            raise _bad_row(name, "repeated key", row)
        rows[key] = row
    return rows


def _read_grid(which: str, directory) -> dict[tuple[int, ...], int | None]:
    """Cells of a golden grid keyed by the tuple of its key columns; '?'
    reads as None.  The keys must fill the product of their axes."""
    name, header = _GRIDS[which]
    rows = _parse_csv(name, directory, header, header.count(","))
    cells = {key: None if row[-1] == "?" else _int(row[-1], name, row)
             for key, row in rows.items()}
    if not cells:
        raise GoldenFormatError(f"{name}: no rows below the header")
    if len(cells) != prod(len(axis) for axis in _axes(cells)):
        raise GoldenFormatError(f"{name}: ragged grid")
    return cells


def load_golden_mod36(directory=None) -> dict[int, int | None]:
    out = {r: v for (r,), v in _read_grid("mod36", directory).items()}
    if sorted(out) != list(range(36)):
        raise GoldenFormatError("mod36.csv: expected residues 0..35")
    return out


def load_golden_t1(directory=None) -> dict[tuple[int, int], int | None]:
    return _read_grid("t1", directory)


def load_golden_t2(directory=None) -> dict[tuple[int, int], int]:
    cells = _read_grid("t2", directory)
    if None in cells.values():
        raise GoldenFormatError("t2.csv: unexpected '?'")
    return cells


# rarity: in hundredths
GoldenEntry = namedtuple("GoldenEntry", "q k m first_base rarity")


def load_golden_t3(directory=None) -> list[GoldenEntry]:
    """Per-entry summary rows, one per q.  The rarity column is the exact
    rarity truncated (not rounded) to two decimals, written as ASCII
    digits, then optionally a point and one or two more; it is read as
    an integer count of hundredths."""
    name = "t3.csv"
    out = []
    for (q,), row in _parse_csv(name, directory, "q,k,m,first_base,rarity",
                                1).items():
        k, m, first = (_int(token, name, row) for token in row[1:4])
        whole, point, cents = row[4].partition(".")
        if point and len(cents) not in (1, 2):
            raise _bad_row(name, f"bad rarity {row[4]!r}", row)
        rarity = 100 * _int(whole, name, row)
        if point:   # one decimal counts tenths
            rarity += _int(cents, name, row) * 10 ** (2 - len(cents))
        out.append(GoldenEntry(q, k, m, first, rarity))
    return out


def load_golden_period(directory=None) -> str:
    lines = _read_lines("period.txt", directory)
    if len(lines) != 1 or not lines[0].isdigit():
        raise GoldenFormatError("period.txt: expected one line of digits")
    return lines[0]


# ---------------------------------------------------------------------------
# regression

class RegressionSummary(namedtuple("RegressionSummary", "mismatches")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not any(self.mismatches.values())

    def total(self) -> int:
        return sum(len(v) for v in self.mismatches.values())


def run_regressions(cascade: Cascade, report: CensusReport,
                    directory=None) -> RegressionSummary:
    """Diff every derived display against its golden asset; ``report``
    gives the first bases of the per-entry summary (t3).  A golden cell
    the derivation lacks, or the reverse, is a mismatch."""
    d36 = gen_mod36(cascade)
    d1 = gen_table1(cascade, d36)
    return RegressionSummary({
        "mod36": diff_cells("mod36", load_golden_mod36(directory), d36),
        "t1": diff_cells("t1", load_golden_t1(directory), d1),
        "t2": diff_cells("t2", load_golden_t2(directory),
                         gen_table2(cascade, d1)),
        "period": diff_cells("period",
                             {"digits": load_golden_period(directory)},
                             {"digits": str(period_constant())}),
        "t3": rarity_regression(report, load_golden_t3(directory)),
    })


# ---------------------------------------------------------------------------
# rendering

def _cell_text(v: int | None) -> str:
    return "?" if v is None else str(v)


def _csv(header: str, rows) -> str:
    lines = [header] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _grid_csv(which: str, cells: dict[tuple[int, ...], int | None]) -> str:
    """A grid in its golden file's layout, the last key varying slowest."""
    return _csv(_GRIDS[which][1],
                [(*key, _cell_text(cells[key]))
                 for key in sorted(cells, key=lambda k: k[::-1])])


def _grid_txt(cells: dict[tuple[int, int], int | None], corner: str,
              width: int, label) -> str:
    """A two-key grid with its first key across and its second down."""
    columns, rows = _axes(cells)
    lines = [corner + " ".join(f"{c:>{width}}" for c in columns)]
    for r in rows:
        lines.append(label(r) + " " + " ".join(
            f"{_cell_text(cells[(c, r)]):>{width}}" for c in columns))
    return "\n".join(lines) + "\n"


def format_mod36(values: dict[int, int | None], fmt: str = "txt") -> str:
    if fmt == "csv":
        return _grid_csv("mod36", {(r,): v for r, v in values.items()})
    head = " ".join(f"{r:>2}" for r in sorted(values))
    body = " ".join(f"{_cell_text(values[r]):>2}" for r in sorted(values))
    return f"b mod 36:  {head}\nvalue   :  {body}\n"


def format_table1(t1: dict[tuple[int, int], int | None],
                  fmt: str = "txt") -> str:
    if fmt == "csv":
        return _grid_csv("t1", t1)
    return _grid_txt(t1, "b mod 180 ", 3, lambda off: f"{'+' + str(off):>9}")


def format_table2(t2: dict[tuple[int, int], int], fmt: str = "txt") -> str:
    if fmt == "csv":
        return _grid_csv("t2", t2)
    return _grid_txt(t2, "row ", 4, lambda i: f"{i:>3}")


def _entry_table(cascade: Cascade, fmt: str,
                 first_base: dict[int, int] | None = None) -> str:
    """One CSV line or JSON object per entry.  With ``first_base`` a
    first_base column follows m, blank for an entry left out by a cap."""
    rows = []
    for e in cascade.entries:
        row = {"q": e.q, "k": e.root_degree, "m": e.root_modulus}
        if first_base is not None:
            row["first_base"] = first_base.get(e.q, "")
        num, den = e.reduced_density
        rows.append(row | {"density_num": num, "density_den": den,
                           "rarity": e.rarity_display})
    if fmt == "json":
        import json   # its only use: a CSV or text process never loads it
        return json.dumps(rows, indent=2) + "\n"
    return _csv(",".join(rows[0]), (row.values() for row in rows))


def format_cascade(cascade: Cascade, fmt: str = "txt") -> str:
    """The decision list as text, CSV or JSON."""
    if fmt != "txt":
        return _entry_table(cascade, fmt)
    lines = [f"{'q':>4} {'k':>3} {'m':>4} {'density':>12} {'rarity':>11}"]
    for e in cascade.entries:
        num, den = e.reduced_density
        dens = f"{num}/{den}"
        lines.append(f"{e.q:>4} {e.root_degree:>3} {e.root_modulus:>4} "
                     f"{dens:>12} {e.rarity_display:>11}")
    return "\n".join(lines) + "\n"


def format_t3(report: CensusReport, fmt: str = "txt") -> str:
    """The per-entry summary with first bases, as text or CSV."""
    if fmt == "csv":
        return _entry_table(report.cascade, fmt, report.first_base)
    lines = [f"{'q':>4} {'roots':>10} {'first base':>10} {'rarity':>11}"]
    for e in report.cascade.entries:
        roots = f"{e.root_degree}({e.root_modulus})"
        first = report.first_base.get(e.q, "")
        lines.append(f"{e.q:>4} {roots:>10} {first:>10} {e.rarity_display:>11}")
    return "\n".join(lines) + "\n"

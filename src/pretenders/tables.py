"""Residue-class displays, their derivation, and golden-file regression.

A residue class c mod M pins b mod p**v for each prime power p**v || M.
Restricting the ledger's per-prime claim tables to the pinned cells tells
exactly which entries claim members of the class; the class shows a
definite value precisely when a single entry claims all of it.  That
restriction produces the mod-36 display (values 4, 6, 9 or '?'), the 20x7
grid over the undecided classes mod 1260 (values 10, 14, 15, 21 or '?'),
and the 32 columns of the computed-value grid for the classes that stay
undecided at every modulus dividing 1260.

The golden copies of these displays ship as CSV assets.  They are data,
transcribed once; nothing here derives from them -- they exist only to be
diffed against.
"""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

from .cascade import Cascade
from .census import CensusReport, Mismatch, rarity_regression
from .period import period_constant

__all__ = [
    "GoldenEntry",
    "GoldenFormatError",
    "RegressionSummary",
    "Table1",
    "Table2",
    "class_profile",
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


class GoldenFormatError(ValueError):
    """A golden asset failed to parse; distinct from a value mismatch."""


# ---------------------------------------------------------------------------
# derivation

def class_profile(cascade: Cascade, modulus: int, residue: int,
                  max_distinct: int | None = None) -> list[int]:
    """Distinct classify values attained on {b : b = residue (mod modulus)},
    in decision-list order; stops after ``max_distinct`` values.

    classify(b) is the least claim on b's cell across the per-prime claim
    tables, and the class pins each table to the cells congruent to the
    residue mod gcd(modulus, tracked power), one cell per table chosen
    freely.  A claim on a pinned cell is therefore attained exactly when
    every other table has a pinned cell claimed no earlier: when it does
    not exceed the least per-table maximum.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    ledger = cascade.ledger
    cells: dict[int, list[int]] = {}
    for p, table in ledger.claims.items():
        pin = gcd(modulus, ledger.moduli[p])
        cells[p] = table[residue % pin::pin]
    # an unclaimed cell is a table's largest possible value; finding one
    # is much cheaper than max() over the long unpinned tables
    bound = min(ledger.unclaimed if ledger.unclaimed in c else max(c)
                for c in cells.values())
    values: list[int] = []
    for e in cascade.entries:
        if e.q > bound or len(values) == max_distinct:
            break
        if e.prime is None or e.q in cells[e.prime]:
            values.append(e.q)
    return values


def gen_mod36(cascade: Cascade) -> dict[int, int | None]:
    """Value of each class mod 36, None when the class is not constant."""
    out: dict[int, int | None] = {}
    for r in range(36):
        profile = class_profile(cascade, 36, r, max_distinct=2)
        out[r] = profile[0] if len(profile) == 1 else None
    return out


@dataclass(frozen=True)
class Table1:
    columns: tuple[int, ...]             # residues mod 180
    offsets: tuple[int, ...]             # 0, 180, ..., 1080
    cells: dict[tuple[int, int], int | None]


def gen_table1(cascade: Cascade, mod36: dict[int, int | None]) -> Table1:
    """Constant-or-undecided grid over the classes mod 1260 refining the
    '?' classes of the mod-36 display ``mod36``."""
    unknown36 = {r for r, v in mod36.items() if v is None}
    columns = tuple(r for r in range(180) if r % 36 in unknown36)
    offsets = tuple(180 * i for i in range(7))
    cells: dict[tuple[int, int], int | None] = {}
    for col in columns:
        for off in offsets:
            profile = class_profile(cascade, 1260, col + off, max_distinct=2)
            cells[(col, off)] = profile[0] if len(profile) == 1 else None
    return Table1(columns, offsets, cells)


@dataclass(frozen=True)
class Table2:
    columns: tuple[int, ...]             # residues mod 1260
    num_rows: int
    cells: dict[tuple[int, int], int]    # (column, row) -> classify value


def gen_table2(cascade: Cascade, t1: Table1, num_rows: int = 41) -> Table2:
    """classify over the classes mod 1260 that ``t1`` leaves undecided,
    rows adding successive multiples of 1260."""
    columns = tuple(sorted(c + o for (c, o), v in t1.cells.items()
                           if v is None))
    cells = {(col, i): cascade.classify(col + 1260 * i)
             for col in columns for i in range(num_rows)}
    return Table2(columns, num_rows, cells)


# ---------------------------------------------------------------------------
# golden assets

def _read_lines(name: str, directory: str | Path | None) -> list[str]:
    if directory is not None:
        text = (Path(directory) / name).read_text()
    else:
        text = (resources.files("pretenders") / "data" / name).read_text()
    return [ln for ln in text.splitlines() if ln.strip()]


def _parse_csv(name: str, directory, header: str) -> list[list[str]]:
    lines = _read_lines(name, directory)
    if not lines or lines[0] != header:
        raise GoldenFormatError(f"{name}: expected header {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    width = len(header.split(","))
    for row in rows:
        if len(row) != width:
            raise GoldenFormatError(f"{name}: malformed row {row!r}")
    return rows


def _int(token: str, name: str, row: list[str]) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise GoldenFormatError(
            f"{name}: bad integer {token!r} in row {','.join(row)!r}") from exc


def _cell(token: str, name: str, row: list[str]) -> int | None:
    return None if token == "?" else _int(token, name, row)


def load_golden_mod36(directory=None) -> dict[int, int | None]:
    name = "mod36.csv"
    rows = _parse_csv(name, directory, "residue,value")
    out = {_int(row[0], name, row): _cell(row[1], name, row) for row in rows}
    if sorted(out) != list(range(36)):
        raise GoldenFormatError("mod36.csv: expected residues 0..35")
    return out


def load_golden_t1(directory=None) -> Table1:
    name = "t1.csv"
    rows = _parse_csv(name, directory, "residue,offset,value")
    cells = {(_int(row[0], name, row), _int(row[1], name, row)):
             _cell(row[2], name, row) for row in rows}
    columns = tuple(sorted({r for r, _ in cells}))
    offsets = tuple(sorted({o for _, o in cells}))
    if len(cells) != len(columns) * len(offsets):
        raise GoldenFormatError("t1.csv: ragged grid")
    return Table1(columns, offsets, cells)


def load_golden_t2(directory=None) -> Table2:
    name = "t2.csv"
    rows = _parse_csv(name, directory, "class,row,value")
    cells = {}
    for row in rows:
        val = _cell(row[2], name, row)
        if val is None:
            raise GoldenFormatError(f"{name}: unexpected '?'")
        cells[(_int(row[0], name, row), _int(row[1], name, row))] = val
    columns = tuple(sorted({c for c, _ in cells}))
    num_rows = 1 + max(i for _, i in cells)
    if len(cells) != len(columns) * num_rows:
        raise GoldenFormatError("t2.csv: ragged grid")
    return Table2(columns, num_rows, cells)


@dataclass(frozen=True)
class GoldenEntry:
    q: int
    k: int
    m: int
    first_base: int
    rarity: str


def load_golden_t3(directory=None) -> list[GoldenEntry]:
    """Per-entry summary rows.  The rarity column is the exact rarity
    truncated (not rounded) to two decimals, kept as its text."""
    name = "t3.csv"
    rows = _parse_csv(name, directory, "q,k,m,first_base,rarity")
    out = []
    for row in rows:
        rarity = row[4]
        try:
            Fraction(rarity)
        except ValueError as exc:
            raise GoldenFormatError(f"{name}: bad rarity {rarity!r}") from exc
        q, k, m, first = (_int(token, name, row) for token in row[:4])
        out.append(GoldenEntry(q, k, m, first, rarity))
    return out


def load_golden_period(directory=None) -> str:
    lines = _read_lines("period.txt", directory)
    if len(lines) != 1 or not lines[0].isdigit():
        raise GoldenFormatError("period.txt: expected one line of digits")
    return lines[0]


# ---------------------------------------------------------------------------
# regression

def _diff_cells(table: str, expected: dict, actual: dict) -> list[Mismatch]:
    out = []
    for key in sorted(set(expected) | set(actual), key=str):
        e, a = expected.get(key, "<absent>"), actual.get(key, "<absent>")
        if e != a:
            out.append(Mismatch(table, key, e, a))
    return out


@dataclass
class RegressionSummary:
    mismatches: dict[str, list[Mismatch]]

    @property
    def ok(self) -> bool:
        return not any(self.mismatches.values())

    def total(self) -> int:
        return sum(len(v) for v in self.mismatches.values())


def run_regressions(cascade: Cascade, report: CensusReport | None = None,
                    directory=None) -> RegressionSummary:
    """Diff every derived display against its golden asset.  The per-entry
    summary (t3) is only checked when a census report is supplied, since
    its first-base column needs the scan."""
    results: dict[str, list[Mismatch]] = {}
    d36 = gen_mod36(cascade)
    results["mod36"] = _diff_cells("mod36", load_golden_mod36(directory), d36)
    g1 = load_golden_t1(directory)
    d1 = gen_table1(cascade, d36)
    results["t1"] = _diff_cells("t1", g1.cells, d1.cells)
    g2 = load_golden_t2(directory)
    d2 = gen_table2(cascade, d1, g2.num_rows)
    results["t2"] = _diff_cells("t2", g2.cells, d2.cells)
    if report is not None:
        results["t3"] = rarity_regression(report, load_golden_t3(directory))
    golden_digits = load_golden_period(directory)
    derived_digits = str(period_constant())
    results["period"] = ([] if golden_digits == derived_digits
                         else [Mismatch("period", "digits", golden_digits,
                                        derived_digits)])
    return RegressionSummary(results)


# ---------------------------------------------------------------------------
# rendering

def _cell_text(v: int | None) -> str:
    return "?" if v is None else str(v)


def format_mod36(values: dict[int, int | None], fmt: str = "txt") -> str:
    if fmt == "csv":
        lines = ["residue,value"]
        lines += [f"{r},{_cell_text(values[r])}" for r in sorted(values)]
        return "\n".join(lines) + "\n"
    head = " ".join(f"{r:>2}" for r in sorted(values))
    body = " ".join(f"{_cell_text(values[r]):>2}" for r in sorted(values))
    return f"b mod 36:  {head}\nvalue   :  {body}\n"


def format_table1(t1: Table1, fmt: str = "txt") -> str:
    if fmt == "csv":
        lines = ["residue,offset,value"]
        for off in t1.offsets:
            for col in t1.columns:
                lines.append(f"{col},{off},{_cell_text(t1.cells[(col, off)])}")
        return "\n".join(lines) + "\n"
    lines = ["b mod 180 " + " ".join(f"{c:>3}" for c in t1.columns)]
    for off in t1.offsets:
        row = " ".join(f"{_cell_text(t1.cells[(c, off)]):>3}"
                       for c in t1.columns)
        lines.append(f"{'+' + str(off):>9} {row}")
    return "\n".join(lines) + "\n"


def format_table2(t2: Table2, fmt: str = "txt") -> str:
    if fmt == "csv":
        lines = ["class,row,value"]
        for i in range(t2.num_rows):
            for col in t2.columns:
                lines.append(f"{col},{i},{t2.cells[(col, i)]}")
        return "\n".join(lines) + "\n"
    lines = ["row " + " ".join(f"{c:>4}" for c in t2.columns)]
    for i in range(t2.num_rows):
        row = " ".join(f"{t2.cells[(c, i)]:>4}" for c in t2.columns)
        lines.append(f"{i:>3} {row}")
    return "\n".join(lines) + "\n"


def format_t3(report: CensusReport, fmt: str = "txt") -> str:
    if fmt == "csv":
        return report.to_csv_text()
    lines = [f"{'q':>4} {'roots':>10} {'first base':>10} {'rarity':>11}"]
    for e in report.cascade.entries:
        roots = f"{e.root_degree}({e.root_modulus})"
        first = report.first_base.get(e.q, "")
        lines.append(f"{e.q:>4} {roots:>10} {first:>10} {e.rarity_display:>11}")
    return "\n".join(lines) + "\n"

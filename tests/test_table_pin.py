"""The tables the build lays, pinned by sha256 in ``data/tables.sha256``:
the joint tables ``classify`` walks, the per-prime tables the first-base
search reads, and ``classify_range`` over windows from 0 to past 2^300,
negative ones among them.  Each digest is over a fixed text form.  A
change that means to alter a table rewrites the pin with ``python
tests/test_table_pin.py`` and says so.
"""

from hashlib import sha256
from pathlib import Path

from pretenders.cascade import build_cascade
from pretenders.census import classify_range

PIN = Path(__file__).parent / "data" / "tables.sha256"

STARTS = (0, -1, -600, -10**20 - 3, 2**63 - 10, 2**63, 10**90 + 7,
          2**300 - 77, -2**299 + 5, 3 * 2**200)
LENGTHS = (0, 1, 37, 5000)


def laid_tables(cascade):
    """Name and text form of each pinned group, one line per table or
    window."""
    yield "joint", "".join(f"{m},{cells.hex()},{floor}\n"
                           for m, cells, floor in cascade.joint_tables)
    yield "prime", "".join(f"{p},{t.period},{t.cells.hex()},{t.top}\n"
                           for p, t in cascade.prime_tables.items())
    yield "classify_range", "".join(
        f"{s},{n}:{','.join(map(str, classify_range(cascade, s, s + n)))}\n"
        for s in STARTS for n in LENGTHS)


def digests(cascade):
    """``sha256sum``-style lines, one per group."""
    return "".join(f"{sha256(text.encode('ascii')).hexdigest()}  {name}\n"
                   for name, text in laid_tables(cascade))


def test_the_laid_tables_match_their_pin(cascade):
    assert len(cascade.joint_tables) == 36
    assert len(cascade.prime_tables) == 59
    pinned = PIN.read_text(encoding="ascii").splitlines()
    for want, got in zip(pinned, digests(cascade).splitlines(), strict=True):
        assert got == want, f"{got.split()[1]}: the digest differs"


if __name__ == "__main__":
    # rewrite the pin from the code as it stands
    PIN.write_text(digests(build_cascade()), encoding="ascii")

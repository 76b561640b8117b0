"""Command-line front end.

Subcommands:
  classify <b>        least composite q with b^q = b (mod q), via the decision list
  oracle <b>          the same value by direct search, for cross-checking
  cascade             the 132-entry decision list (txt, csv, or json)
  density <q>         exact base density and rarity of one entry
  firstbases          the least base reaching each entry (CSV)
  period              the 122-digit period constant and its checks
  table               render a residue-class display (mod36, t1, t2, t3)
  verify              regenerate every display and diff against golden data

Exit status: 0 success / full match, 1 verification mismatch, 2 usage or
I/O trouble.
"""

import sys
from types import SimpleNamespace

# Each subcommand imports the modules it runs, so that `classify` and
# `density` load only the cascade.  `classify`, `oracle` and `density`
# with one bare integer skip argparse too (see ``_bare_integer``).
from .cascade import build_cascade

__all__ = ["entry", "main"]


def _cmd_classify(args) -> int:
    print(build_cascade().classify(args.base))
    return 0


def _cmd_oracle(args) -> int:
    from .pretender import primary_pretender_oracle
    print(primary_pretender_oracle(args.base))
    return 0


def _cmd_cascade(args) -> int:
    from .tables import format_cascade
    sys.stdout.write(format_cascade(build_cascade(), args.format))
    return 0


def _cmd_density(args) -> int:
    cascade = build_cascade()
    q = args.q
    try:
        e = cascade.entry_for(q)
    except KeyError:
        if q in {s.q for s in cascade.skipped}:
            print("density: 0/1")
            print("rarity : n/a (no bases)")
            return 0
        raise ValueError(f"{q} is not a composite below 562") from None
    num, den = e.reduced_density
    print(f"density: {num}/{den}")
    print(f"rarity : {e.rarity_display}")
    return 0


def _cmd_firstbases(args) -> int:
    from .census import CensusReport
    from .tables import format_t3
    cascade = build_cascade()
    report = CensusReport.build(cascade, max_base=args.max)
    sys.stdout.write(format_t3(report, "csv"))
    if report.scan.missing:
        missing = ", ".join(str(q) for q in report.scan.missing)
        print(f"warning: no base below {args.max} reaches: {missing}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_period(args) -> int:
    from .period import (minimality_witnesses, period_constant,
                         periodicity_check, verify_lcm)
    digits = str(period_constant())
    if args.digits:
        print(digits)
    else:
        print(f"digits: {len(digits)}")
        print(f"value : {digits}")
    status = 0
    if args.samples or args.minimality:
        cascade = build_cascade()
        lc = verify_lcm(cascade)
        print(f"lcm of entry moduli matches: {lc.equal}")
        if not lc.equal:
            status = 1
    if args.samples:
        rep = periodicity_check(cascade, samples=args.samples)
        print(f"periodicity: {rep.checked} bases checked, "
              f"{len(rep.failures)} failures")
        if not rep.ok:
            status = 1
    if args.minimality:
        rep = minimality_witnesses(cascade)
        print(f"minimality: witnesses for {len(rep.witnesses)} primes, "
              f"{len(rep.failed)} unwitnessed")
        if not rep.ok:
            status = 1
    return status


def _cmd_table(args) -> int:
    from .census import CensusReport
    from .tables import (format_mod36, format_t3, format_table1, format_table2,
                         gen_mod36, gen_table1, gen_table2)
    cascade = build_cascade()
    if args.which == "t3":   # t3 needs the first bases
        text = format_t3(CensusReport.build(cascade), args.format)
    elif args.which == "mod36":
        text = format_mod36(gen_mod36(cascade), args.format)
    else:
        t1 = gen_table1(cascade, gen_mod36(cascade))
        text = (format_table1(t1, args.format) if args.which == "t1"
                else format_table2(gen_table2(cascade, t1), args.format))
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .census import CensusReport, diff_cells
    from .pretender import primary_pretender_oracle
    from .tables import run_regressions
    cascade = build_cascade()
    report = CensusReport.build(cascade)
    summary = run_regressions(cascade, report, directory=args.golden)
    diffs = [(name, bad, "mismatches")
             for name, bad in sorted(summary.mismatches.items())]
    if args.oracle_limit:
        bases = range(args.oracle_limit + 1)
        want = {b: primary_pretender_oracle(b) for b in bases}
        got = {b: cascade.classify(b) for b in bases}
        diffs.append((f"oracle agreement on [0, {args.oracle_limit}]",
                      diff_cells("oracle", want, got), "disagreements"))
    for label, bad, noun in diffs:
        print(f"{label}: {'ok' if not bad else f'{len(bad)} {noun}'}")
        for mm in bad[:20]:
            print(f"  {mm.key}: expected {mm.expected}, got {mm.actual}")
    return 1 if any(bad for _, bad, _ in diffs) else 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _base(text: str) -> int:
    """An integer of any length: the interpreter's limit on digits in
    int(str), where it has one, is lifted for this one conversion."""
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _int(text)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _non_negative(text: str) -> int:
    value = _int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


# the subcommands that take one integer: handler, argument name and
# converter, for the parser and for ``_bare_integer`` alike
_ONE_INTEGER = {"classify": (_cmd_classify, "base", _base),
                "oracle": (_cmd_oracle, "base", _base),
                "density": (_cmd_density, "q", int)}


def _make_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="pretenders",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def one_integer(command, summary):
        func, name, convert = _ONE_INTEGER[command]
        p = sub.add_parser(command, help=summary)
        p.add_argument(name, type=convert)
        p.set_defaults(func=func)

    one_integer("classify", "decision-list value for one base")
    one_integer("oracle", "brute-force value for one base")

    p = sub.add_parser("cascade", help="dump the 132-entry decision list")
    p.add_argument("--format", choices=("txt", "csv", "json"), default="txt")
    p.set_defaults(func=_cmd_cascade)

    one_integer("density", "exact density and rarity of one entry")

    p = sub.add_parser("firstbases", help="exact least base per entry")
    p.add_argument("--max", type=_positive, default=None, metavar="N",
                   help="leave out first bases of N or more, warn and "
                        "exit 1 if any (default: no cap)")
    p.set_defaults(func=_cmd_firstbases)

    p = sub.add_parser("period", help="the period constant and its checks")
    p.add_argument("--digits", action="store_true",
                   help="print only the digit string")
    p.add_argument("--samples", type=_non_negative, default=0, metavar="N",
                   help="also spot-check periodicity on N bases")
    p.add_argument("--minimality", action="store_true",
                   help="also exhibit a witness for each prime divisor")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("table", help="render one residue-class display")
    p.add_argument("--which", required=True,
                   choices=("mod36", "t1", "t2", "t3"))
    p.add_argument("--format", choices=("txt", "csv"), default="txt")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="diff every display against golden data")
    p.add_argument("--golden", metavar="DIR", default=None,
                   help="directory of golden assets (default: bundled)")
    p.add_argument("--oracle-limit", type=_non_negative, default=10_000,
                   metavar="N",
                   help="also cross-check classify against the oracle "
                        "on [0, N] (0 skips)")
    p.set_defaults(func=_cmd_verify)
    return parser


def _bare_integer(argv: list[str]) -> SimpleNamespace | None:
    """The parsed arguments of a subcommand of ``_ONE_INTEGER`` followed
    by one token of ASCII digits, optionally after a '-', converted as the
    parser converts it.  None for any other argv, and for a token whose
    conversion fails: the parser answers those, help and errors among
    them."""
    if len(argv) != 2 or argv[0] not in _ONE_INTEGER:
        return None
    digits = argv[1].removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    func, name, convert = _ONE_INTEGER[argv[0]]
    try:
        value = convert(argv[1])
    except ValueError:   # int past the interpreter's limit on digits
        return None
    return SimpleNamespace(func=func, **{name: value})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _bare_integer(argv)
    if args is None:
        parser = _make_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

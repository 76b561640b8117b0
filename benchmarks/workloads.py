"""The three workloads: their seeded inputs, their rounds and their checks.

A round calls public functions of ``pretenders`` and times only those
calls.  Its outputs are then checked against the benchmark's reference,
the golden files read from disk, and properties the method must have;
every disagreement is recorded in ``Bench.problems``.
"""

import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pretenders as P

import reference as ref

HERE = Path(__file__).resolve().parent
ENTRY = "from pretenders.cli import entry; entry()"

# derive-verify
ORACLE_LIMIT = 10_000
PERIODICITY_SAMPLES = 1000

# classify-stream: a round is STREAM_PARTS sub-batches of each kind
KINDS = ("uniform", "huge", "deep", "range")
STREAM_PARTS = 8
UNIFORM_N = 50_000            # bases below 2**62
HUGE_N = 12_500               # bases of 150 to 300 digits
DEEP_PER_ENTRY = 12           # golden first base + k * period, per entry
RANGE_WINDOWS = 2             # windows of RANGE_LEN bases below 2**62
RANGE_LEN = 125_000
# classify_range wraps past int64 here, so this window fails every round
EDGE_WINDOW = (2 ** 63 - 10, 2 ** 63 + 10)

CHILD_TIMEOUT_S = 120


def stream_batches(rng: random.Random, golden: ref.Golden, parts: int):
    """Yield (kind, bases, expected answers or None) for one round of
    classify-stream; each batch is made just before it is used.  For
    "range" the bases are the window starts."""
    for _ in range(parts):
        yield "uniform", [rng.getrandbits(62) for _ in range(UNIFORM_N)], None
        huge = []
        for _ in range(HUGE_N):
            digits = rng.randint(150, 300)
            huge.append(rng.randrange(10 ** (digits - 1), 10 ** digits))
        yield "huge", huge, None
        del huge
        expected = [q for q in golden.qs for _ in range(DEEP_PER_ENTRY)]
        rng.shuffle(expected)
        yield "deep", [golden.first_base[q] + rng.getrandbits(32) * golden.period
                       for q in expected], expected
        yield "range", [rng.randrange(2 ** 62 - RANGE_LEN)
                        for _ in range(RANGE_WINDOWS)], None


class Bench:
    """State of one run: the seed, the golden data, the reference answers
    and the problems found so far."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.golden = ref.Golden(root / "src" / "pretenders" / "data")
        self.build_dir = root / ".bench_build"
        self.trace_dir = self.build_dir / "trace"
        self.problems: list[str] = []
        self.small = [ref.least_pretender(b) for b in range(ORACLE_LIMIT + 1)]
        self.edge = [ref.least_pretender(b) for b in range(*EDGE_WINDOW)]
        self.cascade = None
        self.tracer = None
        self.cli_layers: dict[str, float] = {}
        env = dict(os.environ)
        # Children read and write byte code under one prefix inside the
        # checkout, warmed before timing, so every commit starts the same.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.build_dir / "pycache")
        env["PYTHONPATH"] = str(root / "src")
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
        self.env = env

    def rng(self, tag: str, index: int) -> random.Random:
        return random.Random(f"{self.seed}/{tag}/{index}")

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)

    # -- child processes ---------------------------------------------------

    def run_child(self, argv: list[str]) -> tuple[float, float, str, int]:
        """Run one child to its end: (wall seconds, peak RSS in MB,
        stdout and stderr, exit code)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=self.env,
                                cwd=self.root)
        chunks = []
        fd = proc.stdout.fileno()
        try:
            while True:
                left = t0 + CHILD_TIMEOUT_S - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    raise TimeoutError(f"child did not finish: {argv}")
                ready, _, _ = select.select([fd], [], [], left)
                if ready:
                    data = os.read(fd, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - t0
        return (seconds, usage.ru_maxrss / 1024, b"".join(chunks).decode(),
                proc.returncode)

    def warm_up(self, traced: bool) -> None:
        """Fill the byte-code cache the timed children will read."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.run_child([sys.executable, "-c", ENTRY, "classify", "0"])
        self.run_child([sys.executable, str(HERE / "child.py"), "setup"])
        if traced:
            self.run_child([sys.executable, str(HERE / "child.py"),
                            "setup-traced", str(self.trace_dir / "warm.json")])

    def setup_probe(self) -> float:
        """Seconds to import pretenders and build the cascade, fresh."""
        _, _, out, code = self.run_child(
            [sys.executable, str(HERE / "child.py"), "setup"])
        self.expect(code == 0, f"setup child exited {code}: {out[-300:]}")
        return float(out.split()[-1]) if code == 0 else float("nan")

    def setup_probe_traced(self) -> dict:
        path = self.trace_dir / "setup.json"
        _, _, out, code = self.run_child(
            [sys.executable, str(HERE / "child.py"), "setup-traced", str(path)])
        if code != 0:
            raise RuntimeError(f"traced setup child exited {code}: {out[-300:]}")
        return json.loads(path.read_text())

    # -- derive-verify -----------------------------------------------------

    def derive_verify_round(self, index: int) -> dict:
        rng = self.rng("derive-verify", index)
        periodicity_seed = rng.getrandbits(32)
        self.cascade = None     # keep no cascade of an earlier round alive
        t0 = time.perf_counter()
        c = P.build_cascade()
        report = P.CensusReport.build(c)
        summary = P.run_regressions(c, report)
        qs = c.qs()
        roots = [P.derive_k_m(c, q) for q in qs]
        family = P.family_check(c)
        skips = [P.verify_skipped(c, s.q) for s in c.skipped]
        recount = [P.density_by_residue_count(c, q) for q in qs]
        lcm_check = P.verify_lcm(c)
        periodic = P.periodicity_check(c, samples=PERIODICITY_SAMPLES,
                                       seed=periodicity_seed)
        minimal = P.minimality_witnesses(c)
        at_first = [c.classify(b) for b in report.first_base.values()]
        classified = list(map(c.classify, range(ORACLE_LIMIT + 1)))
        oracle = list(map(P.primary_pretender_oracle, range(ORACLE_LIMIT + 1)))
        seconds = time.perf_counter() - t0

        g, expect = self.golden, self.expect
        expect(tuple(qs) == g.qs, "entries differ from golden t3")
        skipped = [s.q for s in c.skipped]
        expect(len(qs) == 132 and len(skipped) == 326
               and sorted(qs + skipped) == list(ref.COMPOSITES),
               "132 entries and 326 skips do not make the 458 composites")
        expect(sum(e.density for e in c.entries) == 1,
               "entry densities do not sum to 1")
        for e in c.entries:
            expect(ref.truncated(1 / e.density) == g.rarity.get(e.q),
                   f"rarity of {e.q} differs from golden t3")
        expect(report.first_base == g.first_base and not report.scan.missing,
               "first bases differ from golden t3")
        first_seen = {}
        for b, q in enumerate(self.small):
            first_seen.setdefault(q, b)
        expect(at_first == list(report.first_base),
               "classify of a first base is not its entry")
        for q, b in report.first_base.items():
            expect(ref.least_pretender(b) == q,
                   f"first base {b} does not map to {q}")
            expect(first_seen.get(q, b) == b,
                   f"{q} reached at {first_seen.get(q)}, before first base {b}")
        expect(summary.ok and set(summary.mismatches)
               == {"mod36", "t1", "t2", "t3", "period"},
               f"golden regressions: {summary.total()} mismatches")
        for q, rd in zip(qs, roots):
            expect((rd.degree, rd.modulus) == (g.k.get(q), g.m.get(q)),
                   f"derive_k_m({q}) differs from golden k, m")
        expect(family.matches and not family.missing and not family.extra,
               "family_check does not match")
        expect(all(skips), "verify_skipped rejected a skip")
        expect(recount == [e.density for e in c.entries]
               and sum(recount) == 1, "recounted densities differ")
        expect(lcm_check.equal and lcm_check.entry_lcm == ref.PERIOD == g.period,
               "entry lcm differs from the period")
        expect(periodic.ok and periodic.checked == PERIODICITY_SAMPLES
               and periodic.period == ref.PERIOD, "periodicity check failed")
        expect(minimal.ok and set(minimal.witnesses) == set(ref.PRIMES_TO_277),
               "minimality witnesses missing")
        for p, w in minimal.witnesses.items():
            v, sv = ref.least_pretender(w.base), ref.least_pretender(w.shifted)
            expect(w.shifted - w.base == ref.PERIOD // p
                   and (v, sv) == (w.value, w.shifted_value) and v != sv,
                   f"minimality witness for {p} does not hold")
        expect(classified == self.small, "classify disagrees with reference")
        expect(oracle == self.small, "oracle disagrees with reference")
        ops = (3 + len(roots) + 1 + len(skips) + len(recount) + 3
               + len(at_first) + len(classified) + len(oracle))
        self.cascade = c        # the probe after this round classifies with it
        return {"seconds": seconds, "ops": ops, "failed": 0}

    # -- classify-stream ---------------------------------------------------

    def ensure_cascade(self):
        if self.cascade is None:
            self.cascade = P.build_cascade()
            self.expect(tuple(self.cascade.qs()) == self.golden.qs,
                        "set-up cascade differs from golden t3")
        return self.cascade

    def classify_stream_round(self, index: int, parts: int = STREAM_PARTS,
                              edge: bool = True) -> dict:
        """``parts`` sub-batches of each kind, each timed as a whole; the
        window across 2**63 is checked apart and not timed."""
        c = self.ensure_cascade()
        timed = {kind: [0, 0.0] for kind in KINDS}   # bases, seconds
        depth: dict[str, float] = {}   # mean index of the answers
        seconds = 0.0
        ops = 0
        rng = self.rng("classify-stream", index)
        for kind, batch, expected in stream_batches(rng, self.golden, parts):
            t0 = time.perf_counter()
            if kind == "range":
                got = [P.classify_range(c, s, s + RANGE_LEN) for s in batch]
            else:
                got = list(map(c.classify, batch))
            dt = time.perf_counter() - t0
            if kind == "range":
                bad = sum(w.tolist() != list(map(ref.least_pretender,
                                                 range(s, s + RANGE_LEN)))
                          for s, w in zip(batch, got))
                n = len(batch) * RANGE_LEN
            else:
                expected = expected or list(map(ref.least_pretender, batch))
                bad = sum(a != b for a, b in zip(got, expected))
                n = len(batch)
                index_of = self.golden.index
                depth[kind] = depth.get(kind, 0) + sum(
                    index_of.get(q, 0) for q in expected) / n / parts
            self.expect(bad == 0, f"{kind}: {bad} wrong answers")
            timed[kind][0] += n
            timed[kind][1] += dt
            seconds += dt
            ops += len(batch)
        out = {"seconds": seconds, "ops": ops, "failed": 0, "timed": timed,
               "depth": depth}
        if edge:
            out["ops"] += 1
            try:
                out["failed"] = int(P.classify_range(c, *EDGE_WINDOW).tolist()
                                    != self.edge)
            except (OverflowError, ValueError):
                out["failed"] = 1
        return out

    # -- cli-oneshot -------------------------------------------------------

    def cli_script(self, index: int, classify_only: bool = False) -> list:
        """(label, argv, check) for each invocation of one round."""
        rng = self.rng("cli-oneshot", index)
        g = self.golden
        small = rng.randrange(10 ** 6)
        wide = rng.randrange(10 ** 299, 10 ** 300)
        late = rng.choice(g.qs[-20:])
        deep = g.first_base[late] + rng.getrandbits(32) * g.period
        dq = rng.choice(g.qs)

        def classify_check(b):
            want = f"{ref.least_pretender(b)}\n"
            return lambda out: out == want

        script = [("classify", ["classify", str(b)], classify_check(b))
                  for b in (small, wide, deep)]
        if classify_only:
            return script
        script += [
            ("density", ["density", str(dq)], lambda out: self._density_ok(dq, out)),
            ("cascade_json", ["cascade", "--format", "json"], self._cascade_json_ok),
            ("table_t2", ["table", "--which", "t2"], self._table_t2_ok),
            ("period", ["period", "--samples", "100", "--minimality"],
             self._period_ok),
        ]
        return script

    def _density_ok(self, q: int, out: str) -> bool:
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("density: "):
            return False
        num, den = lines[0].split()[1].split("/")
        d = Fraction(int(num), int(den))
        shown = Fraction(lines[1].split(":", 1)[1].strip())
        want = self.golden.rarity[q]
        return (ref.truncated(1 / d) == want
                and 0 <= shown - want <= Fraction(1, 100))

    def _cascade_json_ok(self, out: str) -> bool:
        rows = json.loads(out)
        g = self.golden
        dens = [Fraction(r["density_num"], r["density_den"]) for r in rows]
        return (tuple(r["q"] for r in rows) == g.qs
                and all((r["k"], r["m"]) == (g.k[r["q"]], g.m[r["q"]])
                        for r in rows)
                and sum(dens) == 1
                and all(ref.truncated(1 / d) == g.rarity[r["q"]]
                        for r, d in zip(rows, dens)))

    def _table_t2_ok(self, out: str) -> bool:
        lines = out.splitlines()
        columns = [int(x) for x in lines[0].split()[1:]]
        cells = {}
        for line in lines[1:]:
            row, *values = (int(x) for x in line.split())
            cells.update(((col, row), v) for col, v in zip(columns, values))
        return cells == self.golden.t2

    def _period_ok(self, out: str) -> bool:
        return out.splitlines() == [
            "digits: 122",
            f"value : {ref.PERIOD}",
            "lcm of entry moduli matches: True",
            "periodicity: 100 bases checked, 0 failures",
            f"minimality: witnesses for {len(ref.PRIMES_TO_277)} primes, "
            "0 unwitnessed",
        ] and ref.PERIOD == self.golden.period

    def _invoke(self, args: list[str]) -> tuple[float, float, str, int]:
        """One CLI process; traced runs go through child.py and add its
        layer metrics to ``self.cli_layers``."""
        if self.tracer is None:
            return self.run_child([sys.executable, "-c", ENTRY, *args])
        path = self.trace_dir / "cli.json"
        result = self.run_child([sys.executable, str(HERE / "child.py"),
                                 "cli-traced", str(path), *args])
        for key, value in json.loads(path.read_text()).items():
            self.cli_layers[key] = self.cli_layers.get(key, 0) + value
        return result

    def _checked_invoke(self, args: list[str], check) -> tuple[float, float]:
        seconds, rss_mb, out, code = self._invoke(args)
        try:
            ok = code == 0 and check(out)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        self.expect(ok, f"cli {' '.join(args)[:60]}: exit {code}, {out[:200]!r}")
        return seconds, rss_mb

    def cli_round(self, index: int) -> dict:
        self.cli_layers = {}
        times: dict[str, list[float]] = {}
        peak_mb = 0.0
        for label, args, check in self.cli_script(index):
            seconds, rss_mb = self._checked_invoke(args, check)
            times.setdefault(label, []).append(seconds)
            peak_mb = max(peak_mb, rss_mb)
        layers = self.cli_layers
        for label, values in times.items():
            layers[f"cli.{label}_ms"] = statistics.median(values) * 1e3
        return {"seconds": sum(sum(v) for v in times.values()),
                "classify_s": times["classify"], "peak_mb": peak_mb,
                "ops": sum(len(v) for v in times.values()), "failed": 0,
                "layers": layers}

    def classify_probe(self, index: int) -> dict:
        """The script's three `classify` invocations, for the workloads
        whose rounds start no CLI process."""
        return {"classify_s": [
            self._checked_invoke(args, check)[0]
            for _, args, check in self.cli_script(index, classify_only=True)]}

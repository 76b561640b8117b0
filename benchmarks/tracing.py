"""Per-layer spans and counts, recorded around calls into ``pretenders``.

``Tracer.install`` replaces public functions and methods of the package
with wrappers, under every name that any ``pretenders`` module binds them
to, so calls one module makes into another are seen as well.  A span
records the call's inclusive time and subtracts it from the caller's self
time, which gives each layer (module) its own self time.  Calls that take
well under a microsecond (``Cascade.classify``, ``class_profile``) only
count, because reading the clock would cost as much as the call.
"""

import functools
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("arith", "events", "cascade", "census", "period", "tables",
          "pretender", "cli")

SPAN, COUNT = "span", "count"

# (module, attribute, span name or counter, kind)
TARGETS = (
    ("arith", "Sieve.__init__", "arith.sieve", SPAN),
    ("events", "composite_event", "events.composite_event", SPAN),
    ("events", "PreemptionLedger.__init__", "events.ledger_init", SPAN),
    ("events", "PreemptionLedger.residual", "events.residual", SPAN),
    ("events", "PreemptionLedger.ingest", "events.ingest", SPAN),
    ("cascade", "build_cascade", "cascade.build", SPAN),
    ("cascade", "Cascade.classify", "cascade.classify_calls", COUNT),
    ("cascade", "derive_k_m", "cascade.derive_k_m", SPAN),
    ("cascade", "family_check", "cascade.family_check", SPAN),
    ("census", "CensusReport.build", "census.report_build", SPAN),
    ("census", "first_bases", "census.first_bases", SPAN),
    ("census", "classify_range", "census.classify_range", SPAN),
    ("census", "density_by_residue_count", "census.recount", SPAN),
    ("census", "verify_skipped", "census.verify_skipped", SPAN),
    ("census", "rarity_regression", "census.rarity_regression", SPAN),
    ("period", "period_constant", "period.period_constant", SPAN),
    ("period", "verify_lcm", "period.verify_lcm", SPAN),
    ("period", "periodicity_check", "period.periodicity_check", SPAN),
    ("period", "minimality_witnesses", "period.minimality", SPAN),
    ("tables", "class_profile", "tables.class_profile_calls", COUNT),
    ("tables", "gen_mod36", "tables.gen_mod36", SPAN),
    ("tables", "gen_table1", "tables.gen_table1", SPAN),
    ("tables", "gen_table2", "tables.gen_table2", SPAN),
    ("tables", "run_regressions", "tables.run_regressions", SPAN),
    ("tables", "load_golden_mod36", "tables.golden_load", SPAN),
    ("tables", "load_golden_t1", "tables.golden_load", SPAN),
    ("tables", "load_golden_t2", "tables.golden_load", SPAN),
    ("tables", "load_golden_t3", "tables.golden_load", SPAN),
    ("tables", "load_golden_period", "tables.golden_load", SPAN),
    ("pretender", "primary_pretender_oracle", "pretender.oracle", SPAN),
    ("cli", "main", "cli.main", SPAN),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()      # span name -> calls
        self.total_ns = Counter()   # span name -> inclusive time
        self.self_ns = Counter()    # layer -> self time
        self.counts = Counter()     # counter name -> value
        self._stack = []            # [child time, span name] per open span
        self._undo = []

    def reset(self) -> None:
        for c in (self.calls, self.total_ns, self.self_ns, self.counts):
            c.clear()

    def _span(self, name, fn):
        layer = name.split(".", 1)[0]
        stack, calls = self._stack, self.calls
        total_ns, self_ns = self.total_ns, self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0, name]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                total_ns[name] += dt
                self_ns[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scan_counter(self, fn):
        """classify_range, also counting the bases the first-base scan
        asks for (calls made while first_bases is the innermost span)."""
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(cascade, start, stop, *args, **kwargs):
            if stack and stack[-1][1] == "census.first_bases":
                counts["census.bases_scanned"] += stop - start
            return fn(cascade, start, stop, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target in the modules of the package imported so far."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pretenders" or n.startswith("pretenders.")]
        for module_name, attr, name, kind in TARGETS:
            owner = sys.modules.get(f"pretenders.{module_name}")
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = (self._span if kind == SPAN else self._count)(name, fn)
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = (self._span if kind == SPAN else self._count)(name, fn)
            if attr == "classify_range":
                wrapped = self._scan_counter(wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Flat metrics: ``<span>_s`` and ``<span>_calls`` per span,
        ``<layer>.self_s`` per layer, and the plain counters."""
        out = {}
        for name, ns in self.total_ns.items():
            out[f"{name}_s"] = ns / 1e9
            out[f"{name}_calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        out.update(self.counts)
        return out

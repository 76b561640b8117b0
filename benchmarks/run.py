"""Benchmark of the pretenders package.  Run from the repository root:

    python3 benchmarks/run.py --workload derive-verify --seed 1 --seconds 20 --trace 0

Workloads (README.md in this directory has the details):
  derive-verify    one round derives and checks everything the package claims
  classify-stream  seeded batches of bases through classify and classify_range
  cli-oneshot      a fixed script of fresh `pretenders` CLI processes

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, from a separate run with the tracer installed.  The
exit status is 2 when the package source is missing or an argument is bad.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("derive-verify", "classify-stream", "cli-oneshot")
SETUP_REPS = 5              # traced set-up processes per traced run
MIN_CYCLES = 3              # rounds (each with its probes) per run, at least
PROBE_STREAM_PARTS = 2      # sub-batches per kind after each other round
# Batch kinds with a throughput metric.  Uniform batches are timed too
# (they are part of classify-stream's round_s) but get no metric of their
# own: on a 2-vCPU virtual machine their rate moved 1.8-fold with the
# load of the host, and its spread across ten runs reached 0.31-0.42.
RATE_KINDS = ("huge", "deep", "range")

# Layer metrics taken from the traced set-up children (one fresh build);
# every other layer metric is per pass, one round of each workload.
SETUP_LAYERS = ("import.pretenders_s", "import.numpy_s", "arith.sieve_s",
                "events.composite_event_s", "events.residual_s",
                "events.residual_calls", "cascade.build_s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _round_fn(bench, workload):
    return {"derive-verify": bench.derive_verify_round,
            "classify-stream": bench.classify_stream_round,
            "cli-oneshot": bench.cli_round}[workload]


def _probe(bench, workload, index) -> dict:
    """After each round: one set-up process, and samples of the end-to-end
    metrics that are native to another workload (a short classify-stream
    round, and the script's three `classify` CLI processes)."""
    out = {"setup_s": bench.setup_probe()}
    if workload != "classify-stream":
        out["timed"] = bench.classify_stream_round(
            index, parts=PROBE_STREAM_PARTS, edge=False)["timed"]
    if workload != "cli-oneshot":
        out.update(bench.classify_probe(index))
    return out


def _untraced(bench, workload, seconds):
    if workload == "classify-stream":
        bench.ensure_cascade()
    round_fn = _round_fn(bench, workload)
    rounds, probes = [], []
    start = time.perf_counter()
    end = start + seconds
    # Whole cycles of a round and its probes, so that set-up, round and
    # probe samples all spread over the run; the last cycle starts only
    # if it should end in time.
    while len(rounds) < MIN_CYCLES or time.perf_counter() + cycle <= end:
        rounds.append(round_fn(len(rounds)))
        probes.append(_probe(bench, workload, len(probes)))
        cycle = (time.perf_counter() - start) / len(rounds)
    if workload == "cli-oneshot":
        peak_mb = max(r["peak_mb"] for r in rounds)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Round and process times are means, not medians: the machine's speed
    # moves between a slow and a fast state, and a median jumps from one to
    # the other as the fast share of a run crosses one half, where a mean
    # moves with that share.  Set-up time, a single process per cycle, is
    # a median.
    samples = rounds + probes
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "round_s": statistics.fmean(r["seconds"] for r in rounds),
        "peak_rss_mb": peak_mb,
        "classify_cmd_ms": 1e3 * statistics.fmean(
            s for r in samples for s in r.get("classify_s", ())),
    }
    for kind in RATE_KINDS:
        bases, spent = (sum(r["timed"][kind][i] for r in samples
                            if "timed" in r) for i in (0, 1))
        metrics[f"{kind}_bases_per_s"] = bases / spent
    return metrics, rounds


def _traced(bench, workload, seconds):
    from tracing import Tracer
    end = time.perf_counter() + seconds     # the whole traced run
    setup = [bench.setup_probe_traced() for _ in range(SETUP_REPS)]
    bench.ensure_cascade()
    bench.tracer = tracer = Tracer()
    tracer.install()

    def traced_round(name, index):
        tracer.reset()
        result = _round_fn(bench, name)(index)
        layers = tracer.metrics()
        layers.update(result.get("layers", {}))
        for kind, depth in result.get("depth", {}).items():
            layers[f"cascade.walk_depth_{kind}"] = depth
        result["layers"] = layers
        return result

    passes = {name: [traced_round(name, 0)]
              for name in WORKLOADS if name != workload}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() + cycle <= end:
        rounds.append(traced_round(workload, len(rounds)))
        cycle = (time.perf_counter() - start) / len(rounds)
    passes[workload] = rounds
    tracer.uninstall()

    def layer(name):
        if name == "trace.round_s":
            return statistics.fmean(r["seconds"] for r in rounds)
        if name in SETUP_LAYERS:
            return statistics.median_low(s[name] for s in setup)
        if name.startswith("cascade.walk_depth_"):
            # depends on the batches: the first round is the same per seed
            return passes["classify-stream"][0]["layers"][name]
        if not any(name in r["layers"] for rs in passes.values() for r in rs):
            raise KeyError(f"no traced round produced layer metric {name}")
        return sum(statistics.median_low(r["layers"].get(name, 0) for r in rs)
                   for rs in passes.values())
    return layer, rounds


def main(argv=None) -> int:
    args = _parse(argv)
    package = ROOT / "src" / "pretenders"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import pretenders
    if Path(pretenders.__file__).resolve().parent != package.resolve():
        print(f"error: imported pretenders from {pretenders.__file__}",
              file=sys.stderr)
        return 2
    import reference
    import workloads
    reference.check_stated_facts()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = workloads.Bench(ROOT, args.seed)
    bench.warm_up(traced=bool(args.trace))
    if args.trace:
        layer, rounds = _traced(bench, args.workload, args.seconds)
        declared = spec["per_layer"]
        values = {m["name"]: layer(m["name"]) for m in declared}
    else:
        values, rounds = _untraced(bench, args.workload, args.seconds)
        declared = spec["end_to_end"]
        missing = {m["name"] for m in declared} ^ set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not matching BENCHMARK.json: "
                           f"{sorted(missing)}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=len(rounds),
                  round_seconds=[r["seconds"] for r in rounds],
                  problems=bench.problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

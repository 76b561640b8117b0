"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q benchmarks
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_reference_states_the_paper_facts():
    ref.check_stated_facts()
    assert ref.least_pretender(2) == 341
    assert ref.least_pretender(10009487) == 453
    assert ref.pretends(161038, 2)
    assert [p for p in range(30) if ref.is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_reference_is_the_least_composite_that_pretends():
    rng = random.Random(5)
    bases = list(range(600)) + [rng.getrandbits(200) for _ in range(200)]
    for b in bases:
        direct = next(q for q in range(4, 562)
                      if not ref.is_prime(q) and pow(b % q, q, q) == b % q)
        assert ref.least_pretender(b) == direct


def test_reference_period_is_the_golden_period():
    golden = ref.Golden(ROOT / "src" / "pretenders" / "data")
    assert ref.PERIOD == golden.period
    assert len(golden.qs) == 132 and golden.qs[-1] == 561


@pytest.fixture(scope="module")
def bench():
    return workloads.Bench(ROOT, seed=7)


def _inputs(bench, index):
    rng = bench.rng("classify-stream", index)
    return list(workloads.stream_batches(rng, bench.golden, parts=2))


def test_inputs_repeat_for_a_seed(bench):
    other = workloads.Bench(ROOT, seed=7)
    for index in (0, 3):
        assert _inputs(bench, index) == _inputs(other, index)
        assert [args for _, args, _ in bench.cli_script(index)] == \
            [args for _, args, _ in other.cli_script(index)]
    assert _inputs(bench, 0) != _inputs(workloads.Bench(ROOT, seed=8), 0)


def test_deep_inputs_reach_every_entry_equally(bench):
    for kind, bases, expected in _inputs(bench, 0):
        if kind == "deep":
            assert len(expected) == 132 * workloads.DEEP_PER_ENTRY
            assert all(expected.count(q) == workloads.DEEP_PER_ENTRY
                       for q in bench.golden.qs)
            for b, q in list(zip(bases, expected))[:300]:
                assert ref.least_pretender(b) == q


class WrongCascade:
    """A cascade whose classify answers 4 wherever the answer is 6."""

    def __init__(self, cascade):
        self.cascade = cascade

    def __getattr__(self, name):
        return getattr(self.cascade, name)

    def classify(self, b):
        value = self.cascade.classify(b)
        return 4 if value == 6 else value


def test_a_wrong_classify_value_is_caught():
    import pretenders
    bench = workloads.Bench(ROOT, seed=1)
    bench.cascade = pretenders.build_cascade()
    right = bench.classify_stream_round(0, parts=1)
    # failed is 1 while classify_range wraps at 2**63, 0 once that is fixed
    assert bench.problems == [] and right["failed"] in (0, 1)
    bench.cascade = WrongCascade(bench.cascade)
    bench.classify_stream_round(0, parts=1)
    # classify_range does not go through classify, so "range" stays right
    assert [p.split(":")[0] for p in bench.problems] == ["uniform", "huge", "deep"]


def test_a_wrong_cli_answer_is_rejected(bench):
    label, args, check = bench.cli_script(0, classify_only=True)[0]
    right = ref.least_pretender(int(args[1]))
    assert check(f"{right}\n")
    assert not check(f"{right + 1}\n")


def test_tracer_counts_one_build_and_restores():
    import pretenders
    from pretenders import cascade as cascade_mod
    original = cascade_mod.build_cascade
    tracer = Tracer()
    tracer.install()
    try:
        pretenders.build_cascade()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert cascade_mod.build_cascade is original
    assert metrics["events.residual_calls"] == 458
    assert metrics["cascade.build_calls"] == 1
    assert metrics["cascade.build_s"] >= metrics["events.residual_s"] > 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "classify-stream", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # whole rounds; at most one failure each, the window across 2**63
    per_round = workloads.STREAM_PARTS * (
        workloads.UNIFORM_N + workloads.HUGE_N + 132 * workloads.DEEP_PER_ENTRY
        + workloads.RANGE_WINDOWS) + 1
    rounds, rest = divmod(result["attempted"], per_round)
    assert rounds >= 1 and rest == 0
    assert result["failed"] in (0, rounds)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}
    if trace == "1":
        assert result["metrics"]["events.residual_calls"]["value"] == 458


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "derive-verify", "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

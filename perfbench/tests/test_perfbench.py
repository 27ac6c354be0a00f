"""Tests of the benchmark itself: workloads, output checks and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SEED = 1


@pytest.fixture(scope="module")
def checkout():
    return run.Checkout(ROOT)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_only_reorders_commands(name):
    workload = WORKLOADS[name]
    keys = sorted(c.key for c in workload.commands)
    last = [c.key for c in workload.commands if c.last]
    orders = set()
    for seed in range(20):
        order = [c.key for c in workload.order(random.Random(seed))]
        assert sorted(order) == keys
        assert order[len(order) - len(last):] == last
        orders.add(tuple(order))
    assert len(orders) > 1


def test_self_time_subtracts_child_spans():
    ticks = iter([0, 1, 2, 4, 5, 6, 7, 9, 10, 12])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    a = rec.open(rec.name_index("x.a"))
    b = rec.open(rec.name_index("x.b"))
    c = rec.open(rec.name_index("y.c"))
    rec.close(c)  # y.c: 2..4
    rec.close(b)  # x.b: 1..5
    b = rec.open(rec.name_index("x.b"))
    inner = rec.open(rec.name_index("x.b"))
    rec.close(inner)  # x.b nested in x.b: 7..9
    rec.close(b)  # x.b: 6..10
    rec.close(a)  # x.a: 0..12
    t = spans.totals(rec)
    assert t.calls == {"x.a": 1, "x.b": 3, "y.c": 1}
    assert t.inclusive == {"x.a": 12, "x.b": 8, "y.c": 2}
    assert t.self_time == {"x.a": 4, "x.b": 6, "y.c": 2}
    assert t.layer_self("x") == 10 and t.layer_self("y") == 2
    assert list(rec.parent) == [-1, 0, 1, 0, 3]


def test_cross_module_calls_become_child_spans(checkout):
    sys.path.insert(0, str(checkout.src))
    from permprob import Family, probability

    original = probability.exact_counts
    rec = spans.SpanRecorder()
    with spans.instrumented(lambda name, fn: spans.span_wrapper(rec, name, fn)):
        probability.compare_grid(Family.C, 2, grid_points=3)
    assert probability.exact_counts is original
    names = [rec.names[i] for i in rec.name_id]
    grid = names.index("probability.compare_grid")
    for child in ("probability.exact_counts", "termdist.e_table", "probability.q_eval"):
        assert rec.parent[names.index(child)] >= grid
    assert rec.parent[names.index("probability.exact_counts")] == grid


def test_missing_names_read_zero():
    metrics = run.layer_metrics(spans.SpanRecorder(), bytes_out=0)
    assert set(metrics) <= set(run.PER_LAYER)
    assert all(v == 0 for v in metrics.values())


def test_checks_reject_wrong_outputs():
    exact_c4 = next(c for c in WORKLOADS["small-k"].commands
                    if c.key == "exact --family C --n 4")
    assert len(exact_c4.problems("i,count\n0,1\n1,12\n", None)) == 2
    dist = next(c for c in WORKLOADS["tables-validate"].commands
                if c.key == "dist --family A --n 30")
    assert any("total" in p for p in dist.problems("n,m,count\n2,2,3\n", None))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_at_the_seed_has_no_failures(checkout, name):
    workload = WORKLOADS[name]
    result = run.e2e_pass(checkout, workload, workload.order(random.Random(SEED)))
    assert result.problems == []
    assert (result.attempted, result.failed) == (len(workload.commands), 0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_traced_pass_at_the_seed_has_no_failures(checkout, name, monkeypatch):
    sys.path.insert(0, str(checkout.src))
    import permprob.cli  # noqa: F401

    workload = WORKLOADS[name]
    monkeypatch.chdir(checkout.work)
    rec = spans.SpanRecorder()
    with spans.instrumented(lambda n, fn: spans.span_wrapper(rec, n, fn, run.HOOKS.get(n))):
        result = run.inproc_pass(checkout, workload, workload.order(random.Random(SEED)),
                                 spans.cached_functions())
    assert result.problems == []
    assert result.failed == 0
    assert run.layer_metrics(rec, result.bytes_out)["cli.self_s"] > 0

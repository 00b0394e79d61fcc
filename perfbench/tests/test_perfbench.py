"""Tests of the benchmark harness itself (not of the system it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import pickle
import re
from pathlib import Path

import pytest

import layers
import run
from layers import LayerTracer, SpanRecorder, layer_metrics
from workloads import WORKLOADS

#: metric and workload names: letters, digits, ``_``, ``.``, ``-``; at most 64
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
     (9999, 99), (20000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert run.highest_percentile(count) == expected
    if expected is not None:
        assert run.samples_beyond(count, expected) >= run.MIN_BEYOND


def test_percentile_refuses_a_percentile_with_too_few_samples_beyond():
    samples = list(range(100))
    assert run.percentile(samples, 50) == 49
    assert run.percentile(samples, 90) == 89
    with pytest.raises(ValueError):
        run.percentile(samples, 99)
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 90)


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_of_nested_spans_excludes_children():
    rec = SpanRecorder(clock=_clock(0.0, 1.0, 1.5, 4.0, 6.0, 10.0))
    rec.begin()  # outer opens at 0
    rec.begin()  # child opens at 1
    rec.begin()  # grandchild opens at 1.5
    rec.end("grandchild")  # 1.5 .. 4
    rec.end("child")  # 1 .. 6
    rec.end("outer")  # 0 .. 10
    assert rec.self_s["grandchild"] == pytest.approx(2.5)
    assert rec.self_s["child"] == pytest.approx(5.0 - 2.5)
    assert rec.self_s["outer"] == pytest.approx(10.0 - 5.0)
    assert sum(rec.self_s.values()) == pytest.approx(10.0)


def test_self_time_of_back_to_back_spans_is_their_duration():
    rec = SpanRecorder(clock=_clock(0.0, 1.0, 3.0, 3.0, 7.0, 8.0))
    rec.begin()  # parent opens at 0
    rec.begin()
    rec.end("a")  # 1 .. 3
    rec.begin()
    rec.end("a")  # 3 .. 7
    rec.end("parent")  # 0 .. 8
    assert rec.calls["a"] == 2
    assert rec.self_s["a"] == pytest.approx(6.0)
    assert rec.self_s["parent"] == pytest.approx(2.0)


def test_wrapped_function_records_span_even_when_it_raises():
    rec = SpanRecorder(clock=_clock(0.0, 2.0))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("layer.op", "site", boom)()
    assert rec.calls["layer.op"] == 1
    assert rec.self_s["layer.op"] == pytest.approx(2.0)
    assert rec._stack == []


@pytest.mark.parametrize(
    "name, ok",
    [("ops_per_s", True), ("postings.encoded_size.mean_len", True),
     ("dpp-query", True), ("9lives", True), ("_x", False), (".x", False),
     ("a b", False), ("a/b", False), ("é", False), ("x" * 64, True),
     ("x" * 65, False), ("", False)],
)
def test_metric_name_charset(name, ok):
    assert (NAME_RE.match(name) is not None) is ok


def test_every_declared_and_produced_metric_name_is_valid():
    produced = layer_metrics(SpanRecorder(), 1, 1, 1.0, 1.0)
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    declared += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME_RE.match(name) for name in list(produced) + declared)
    assert len(set(declared)) == len(declared)
    # the traced run reports exactly the per-layer metrics BENCHMARK.json names
    assert list(produced) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    first = pickle.dumps(workload.make_inputs(7))
    assert pickle.dumps(workload.make_inputs(7)) == first
    assert pickle.dumps(workload.make_inputs(8)) != first


def test_layer_tracer_restores_every_wrapped_site():
    rec = SpanRecorder()
    sites = list(layers._sites(rec))
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in sites]
    with LayerTracer(rec):
        assert all(
            vars(owner).get(attr) is not original
            for owner, attr, original in before
        )
    assert [
        (owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in sites
    ] == before

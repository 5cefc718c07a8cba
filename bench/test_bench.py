"""Tests of the benchmark's own arithmetic: python3 -m pytest bench"""

import json

import pytest

from run import ROOT, count_failed, end_to_end, per_layer, percentile
from tracing import Span, Tracer, self_times
from workloads import Call, check_references


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.90) == 90  # 10 samples beyond
    assert percentile(values[:99], 0.90) is None  # rank 90 of 99 leaves 9 beyond
    assert percentile(values[:20], 0.50) == 10
    assert percentile(values[:19], 0.50) is None
    assert percentile(list(reversed(values)), 0.50) == 50


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(2, 1, 0, "leaf", 2.0, 3.0),
        Span(1, 0, 0, "mid", 1.0, 4.0),
        Span(3, 0, 0, "mid", 5.0, 9.0),
        Span(0, None, 0, "root", 0.0, 10.0),
    ]
    assert self_times(spans) == pytest.approx({"root": 3.0, "mid": 6.0, "leaf": 1.0})


def test_tracer_links_nested_calls():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    outer()
    outer()
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "inner":
            assert by_id[s.parent].name == "outer"
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
        else:
            assert s.parent is None
    own = self_times(tracer.spans)
    total_outer = sum(s.end - s.start for s in tracer.spans if s.name == "outer")
    assert own["outer"] + own["inner"] == pytest.approx(total_outer)


def test_installed_wraps_each_binding_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import magalg.cli
    import magalg.extremal

    originals = (magalg.cli.main, magalg.extremal.sphere_ascent, magalg.extremal.principal_abs)
    tracer = Tracer()
    with tracer.installed():
        assert tracer.missing == []
        wrapped = (magalg.cli.main, magalg.extremal.sphere_ascent, magalg.extremal.principal_abs)
        assert all(w is not o for w, o in zip(wrapped, originals))
    assert (magalg.cli.main, magalg.extremal.sphere_ascent, magalg.extremal.principal_abs) == originals


def test_failure_counting_is_per_unit():
    calls = [
        Call(0.1, [[], [], []], [], []),
        Call(0.1, [["row 1 bad"], [], ["row 3 bad", "and worse"]], [], []),
        Call(0.1, [["call raised"]], [], []),
    ]
    assert count_failed(calls) == (7, 3)


class _Reference:
    def reference(self, key):
        return {"a": (2.0, 0), "b": (1.0, 100_000)}[key]


def test_reference_check_fails_units_beyond_the_oracle_slack():
    # 20000 samples: slack 25/20000 = 1.25e-3, plus 2.5e-4 for the 100000-sample reference
    calls = [Call(0.1, [[], [], []], [(0, "a", 2.0 * (1 - 1e-3), 20000),
                                      (1, "b", 1.0 - 1.4e-3, 20000),
                                      (2, "b", 1.0 - 1.6e-3, 20000)], [])]
    worst = check_references(_Reference(), calls)
    assert worst == pytest.approx(1.6e-3)
    assert [bool(p) for p in calls[0].problems] == [False, False, True]
    assert count_failed(calls) == (3, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = [Call(0.1, [[]], [], [])]
    assert set(end_to_end(calls, [0.1])) == {m["name"] for m in spec["end_to_end"]}
    layers = per_layer(Tracer(), calls, calls, "sweep-pair")
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**end_to_end(calls, [0.1]), **layers}.items())

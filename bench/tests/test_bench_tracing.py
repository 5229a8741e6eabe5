"""Span arithmetic and wrapper installation of the benchmark's tracing."""

import inspect
import json
import sys
import time
from functools import cached_property

import pytest

import launch
import tracing

SMALL_JOB = ["certify", "quasi-perfect", "--recipe", "quasi-perfect-2xm", "q=2", "m=2", "u=2"]


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": "j"}


def test_self_times_subtract_direct_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("c", 6.0, 8.0, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    # self times partition the root span
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_summarize_counts_recursion_once_in_inclusive_time():
    spans = [
        _span("x", 0.0, 8.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 2.0, 3.0, 1),
        _span("y", 6.0, 7.0, 0),
    ]
    summary = tracing.summarize(spans)
    assert summary["x"] == pytest.approx({"calls": 2, "self": 6.0, "total": 8.0})
    assert summary["y"] == pytest.approx({"calls": 2, "self": 2.0, "total": 2.0})


def _bindings():
    """Every module global, class attribute and cached_property function
    of the sumrank modules, by identity."""
    import sumrank.cli  # noqa: F401 - loads every sumrank module

    snap = {}
    for name in tracing.SUMRANK_MODULES:
        module = sys.modules[name]
        for key, value in vars(module).items():
            snap[(name, key)] = value
            if inspect.isclass(value) and value.__module__.startswith("sumrank"):
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
                    if isinstance(member, cached_property):
                        snap[(name, key, attr, "func")] = member.func
    return snap


def test_install_wraps_every_binding_of_a_function():
    import sumrank
    import sumrank.certify
    import sumrank.spaces

    before = _bindings()
    patches = tracing.install_spans(tracing.Recorder("j"))
    try:
        for module, name in ((sumrank.spaces, "rank_array"), (sumrank.certify, "rank_array"),
                             (sumrank.certify, "sr_min_distance"), (sumrank, "sr_min_distance")):
            original = before[(module.__name__, name)]
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
    finally:
        tracing.restore(patches)


@pytest.mark.parametrize("mode", ["spans", "count"])
def test_launch_restores_every_binding(tmp_path, mode):
    before = _bindings()
    trace = tmp_path / "trace.json"
    argv = [mode, str(trace), "job-1", str(time.perf_counter()), "--",
            *SMALL_JOB, "--out", str(tmp_path / "cert.json")]
    assert launch.main(argv) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    record = json.loads(trace.read_text())
    if mode == "count":
        assert record["counters"]["gf.add_calls"] > 0
        return
    spans = record["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    assert all(s["job"] == "job-1" for s in spans)
    assert all(0 <= s["parent"] < i for i, s in enumerate(spans) if i)
    names = {s["name"] for s in spans}
    assert {"certify.sr_min_distance", "certify.sr_covering_radius",
            "construct.build_recipe"} <= names


def test_benchmark_json_matches_the_metrics_run_reports():
    import run
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

"""Self-tests for the benchmark's helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, latency_summary, percentile, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_percentile_interpolates_linearly():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([1.0, 2.0], 0) == 1.0 and percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_summary_reports_count_and_p90_support():
    s = latency_summary([i / 1000 for i in range(1, 101)])
    assert s["n"] == 100 and s["p90_has_10_beyond"]
    assert s["ms_p50"] == pytest.approx(50.5) and s["ms_p90"] == pytest.approx(90.1)
    assert not latency_summary([0.001] * 99)["p90_has_10_beyond"]


def test_self_time_subtracts_the_union_of_children_inside_the_span():
    parent = Span("p", 0.0, 10.0)
    kids = [Span("a", 1.0, 3.0), Span("b", 2.0, 5.0), Span("c", 8.0, 12.0)]
    # covered: [1, 5] and [8, 10] -> 6 of 10
    assert self_time(parent, kids) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_originals():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.patch(mod, "inner", "m.inner", attrs=lambda args, kwargs, result: result)
    tracer.patch(mod, "outer", "m.outer")
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.inner, mod.outer) == originals
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("m.outer", None)
    assert (inner.name, inner.parent, inner.attrs) == ("m.inner", 0, 2)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.self_times("m.outer")[0] == pytest.approx(outer.duration - inner.duration)
    assert tracer.dump()[1][:1] == ["m.inner"]


def test_forward_flops_follow_the_strided_conv_shapes():
    cfg = layers.net.EncoderConfig(bands=2, conv_channels=(3,), kernel=5, stride=2, embed_dim=4)
    # one conv: T_out = (9 - 5) // 2 + 1 = 3; 2*3*2*5*3 = 180, head 2*4*3 = 24
    assert layers.forward_flops(cfg, 9) == 204
    assert layers.forward_flops(cfg, 1) == layers.forward_flops(cfg, cfg.min_frames)


def test_names_and_units_are_well_formed_and_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in layers.METRICS]

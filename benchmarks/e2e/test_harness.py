"""Tests of the e2e bench harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  The pure
tests need nothing but this package; the smoke tests launch real
two-shard fleets on a small dataset (about a minute in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from e2e import loadgen, trace

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 99),  # exactly 10 beyond p99
        (999, 95),  # 9.99 beyond p99: not enough
        (200, 95),
        (199, 90),
        (100, 90),
        (99, 50),
        (20, 50),
        (19, None),
        (0, None),
    ],
)
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert loadgen.supported_percentile(n) == expected


def test_percentile_of_empty_sample_is_zero():
    assert loadgen.percentile([], 50) == 0.0
    assert loadgen.percentile([1.0, 2.0, 3.0], 50) == 2.0


# ----------------------------------------------------------------------
# self time and attribution on synthetic span sets
# ----------------------------------------------------------------------
def _span(pid, sid, name, start, end, tid=1, parent=None, **attrs):
    return trace.Span(
        key=(pid, sid),
        name=name,
        trace="t",
        start=start,
        end=end,
        pid=pid,
        tid=tid,
        parent=(pid, parent) if parent is not None else None,
        attrs=attrs,
    )


def _root(start=0, end=100):
    return _span(0, 0, trace.CLIENT, start, end)


def _assert_exact(root, spans):
    """self + children == wall everywhere; owned time sums to the root."""
    assert trace.check_tree(root) == 0
    for span in trace.walk(root):
        inherited = trace.union_length((c.cstart, c.cend) for c in span.children)
        assert trace.self_time(span) + inherited == span.wall
    assert sum(trace.owned_times(root).values()) == root.wall
    assert len(list(trace.walk(root))) == len(spans) + 1


def test_nested_spans_in_one_thread():
    root = _root()
    outer = _span(1, 1, "core.service", 10, 60)
    first = _span(1, 2, "ml.gbm.predict", 20, 30, parent=1)
    second = _span(1, 3, "ml.gbm.predict", 40, 50, parent=1)
    spans = [outer, first, second]
    assert trace.build_tree(root, spans) == 0
    assert outer.children == [first, second]
    assert trace.self_time(outer) == 30
    assert trace.self_time(root) == 50
    owned = trace.owned_times(root)
    assert owned == {trace.FRONT_WIRE: 50, "core.service": 30, "ml.gbm.predict": 20}
    _assert_exact(root, spans)


def test_cross_thread_parent_is_innermost_enclosing_span_of_the_process():
    root = _root()
    frontend = _span(1, 1, "serve.frontend", 5, 95, tid=1)
    router = _span(1, 2, "serve.router", 10, 90, tid=2)
    encode = _span(1, 3, "serve.framing.encode", 96, 98, tid=1)
    spans = [frontend, router, encode]
    trace.build_tree(root, spans)
    assert frontend.children == [router]
    # encode runs after the front-end span closed: it hangs off the client
    assert set(root.children) == {frontend, encode}
    _assert_exact(root, spans)


def test_fan_out_legs_matched_to_shards_by_port():
    root = _root()
    router = _span(1, 1, "serve.router", 10, 90)
    leg_a = _span(1, 2, "serve.client", 20, 60, tid=2, peer=7001)
    leg_b = _span(1, 3, "serve.client", 21, 80, tid=3, peer=7002)
    # Both shard spans start inside both legs; enclosure alone would pick
    # the later-starting leg for each.
    shard_a = _span(2, 1, "serve.shard", 25, 55, port=7001)
    shard_b = _span(3, 1, "serve.shard", 26, 75, port=7002)
    spans = [router, leg_a, leg_b, shard_a, shard_b]
    trace.build_tree(root, spans)
    assert leg_a.children == [shard_a]
    assert leg_b.children == [shard_b]
    owned = trace.owned_times(root)
    # While both legs are out, the request waits on leg b (it ends last):
    # leg a is charged only before leg b starts.
    assert owned["serve.client"] == (21 - 20) + (26 - 21) + (80 - 75)
    assert owned["serve.shard"] == 75 - 26
    assert owned["serve.router"] == (20 - 10) + (90 - 80)
    _assert_exact(root, spans)


def test_child_outliving_its_cross_process_parent_is_clipped():
    root = _root()
    leg = _span(1, 1, "serve.client", 10, 50, peer=7001)
    shard = _span(2, 1, "serve.shard", 20, 55, port=7001)
    wait = _span(2, 2, "core.server.wait", 22, 30, tid=2)
    service = _span(2, 3, "core.service", 30, 54, tid=2)
    spans = [leg, shard, wait, service]
    trace.build_tree(root, spans)
    assert (shard.cstart, shard.cend) == (20, 50)
    assert (service.cstart, service.cend) == (30, 50)
    assert shard.children == [wait, service]
    _assert_exact(root, spans)


def test_span_starting_outside_every_span_is_an_orphan_under_the_client():
    root = _root(0, 100)
    stray = _span(1, 1, "serve.shard", 150, 160)
    assert trace.build_tree(root, [stray]) == 1
    assert stray.wall == 0
    _assert_exact(root, [stray])


def test_trace_report_layer_means_sum_to_mean_rtt():
    roots = [_root(0, 100), _span(0, 9, trace.CLIENT, 200, 260)]
    roots[1].trace = "u"
    spans = [_span(1, 1, "core.service", 10, 60)]
    other = _span(1, 2, "core.service", 210, 230)
    other.trace = "u"
    report = trace.TraceReport.merge(roots, spans + [other], {0: "bench", 1: "shard-0"})
    total = sum(report.layer_ms(layer) for layer in report.owned)
    assert total == pytest.approx((100 + 60) / 2 / 1e6)
    assert report.coverage() == pytest.approx((50 + 20) / 160)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _take(iterator, n):
    return [next(iterator) for _ in range(n)]


def test_request_stream_and_schedule_are_pure_functions_of_the_seed():
    avails = list(range(100, 300))
    assert _take(loadgen.point_read_requests(7, avails), 500) == _take(
        loadgen.point_read_requests(7, avails), 500
    )
    assert _take(loadgen.point_read_requests(7, avails), 50) != _take(
        loadgen.point_read_requests(8, avails), 50
    )
    assert loadgen.poisson_schedule(7, 30.0, 20.0) == loadgen.poisson_schedule(
        7, 30.0, 20.0
    )
    assert loadgen.poisson_schedule(7, 30.0, 20.0) != loadgen.poisson_schedule(
        8, 30.0, 20.0
    )
    dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert _take(loadgen.dashboard_requests(3, dates), 50) == _take(
        loadgen.dashboard_requests(3, dates), 50
    )


def test_point_read_mix_and_arrival_rate():
    requests = _take(loadgen.point_read_requests(1, [5, 6, 7]), 4000)
    explains = [r for r in requests if r["type"] == "explain"]
    assert 0.13 < len(explains) / len(requests) < 0.17
    for request in requests:
        assert 0.0 <= request["t_star"] <= 100.0
        assert round(request["t_star"] * 10) == request["t_star"] * 10
    offsets = loadgen.poisson_schedule(1, 30.0, 100.0)
    assert offsets == sorted(offsets) and offsets[-1] < 100e9
    assert 2700 < len(offsets) < 3300


def test_trace_ids_are_unique_w3c_traceparents():
    ids = loadgen.TraceIds(3, phase=0)
    seen = set()
    for _ in range(100):
        trace_id, header = ids.next()
        version, tid, span, flags = header.split("-")
        assert (version, flags, tid) == ("00", "01", trace_id)
        assert len(tid) == 32 and len(span) == 16
        seen.add(trace_id)
    assert len(seen) == 100


# ----------------------------------------------------------------------
# the command against the BENCHMARK.json contract
# ----------------------------------------------------------------------
def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [*SPEC["command"], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_metric_tables_match_benchmark_json():
    from e2e import run

    tables = (("end_to_end", run.E2E_METRICS), ("per_layer", run.LAYER_METRICS))
    for key, table in tables:
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_no_failed_op(workload, traced):
    proc = _run(
        "--workload", workload, "--seed", "5", "--seconds", "2",
        "--trace", str(traced), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if not traced:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _run("--workload", "point_reads", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

"""Observability overhead: the always-on plane's CPU share of real serving.

``repro serve`` runs a background :class:`TelemetrySampler` and, with
``--profile-out``, a continuous :class:`StackProfiler`.  Their budget is
**2%** of serving: the CPU the observer threads burn must stay within 2%
of the CPU the serving thread spends answering requests.

This bench serves a mixed request stream (DoMD queries, explanations,
fleet status, evaluation metrics) sequentially on one thread through a
:class:`DomdService` — CPU-bound work, no emulated I/O — with a 50 ms
sampler (collection and the time-series store; no SLO engine, no
``sample`` events) and a 20 ms profiler attached, 20x and 1x the serve
CLI's default rates.  The serve CLI's SLO engine and ``sample`` events
add about 0.2 ms of CPU per tick (0.5 ms instead of 0.3 ms on a 2-vCPU
host), about 0.4% more at this tick rate.  It wraps the two instances'
``tick`` / ``sample_once`` to sum the observer threads' CPU time
(``time.thread_time``), including the sampler's first tick and its
final tick on stop, and divides by the serving thread's CPU time over
the same runs.  The product is not changed.

Why CPU and not wall-clock: on a small shared host the plain runs of
this stream spread by tens of percent (0.90-1.51 s for one stream on a
2-vCPU host), so a wall-clock on/off ratio cannot resolve 2%.  The CPU
share does not include what the serving thread loses waiting for the
GIL while an observer runs (the hand-off latency); the min-of-N
wall-clock times with the plane on and off are reported beside it for
information only, and are not asserted.

The measurement runs in a child interpreter (this file run as a
script), serving on its main thread as ``repro serve`` does.  The
profiler walks every thread's stack on each sample, and under pytest
the main thread sits below the test harness's own frames, which made a
sample cost 0.18 ms instead of the 0.07 ms it costs over a serving
process's stack.

Run it with ``pytest --benchmark-only
benchmarks/bench_observability_overhead.py``, or print the raw numbers
with ``python benchmarks/bench_observability_overhead.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import emit_json, emit_report, format_table
from repro.core import DomdEstimator, PipelineConfig
from repro.core.service import DomdService
from repro.data import SyntheticNmdConfig, generate_dataset, split_dataset
from repro.data.dates import day_to_iso
from repro.ml import GbmParams
from repro.runtime.telemetry import StackProfiler, TelemetrySampler

N_REQUESTS = 640
N_TIMING_REPS = 5  # alternating plain/observed runs per mode
SAMPLER_INTERVAL_S = 0.05
PROFILER_INTERVAL_S = 0.02  # the serve CLI's --profile-interval-ms default
MAX_OBS_CPU_SHARE = 0.02  # observer CPU / serving CPU
SRC = Path(__file__).resolve().parents[1] / "src"


def build_serving():
    """A fitted service over a miniature dataset plus its mixed workload."""
    dataset = generate_dataset(
        SyntheticNmdConfig(
            n_ships=10,
            n_closed_avails=28,
            n_ongoing_avails=2,
            target_n_rccs=2_500,
            seed=3,
        )
    )
    splits = split_dataset(dataset)
    config = PipelineConfig(
        window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=20)
    )
    estimator = DomdEstimator(config).fit(dataset, splits.train_ids)
    service = DomdService(estimator)
    service.handle({"type": "health"})  # warm lazy feature materialisation

    rng = np.random.default_rng(7)
    avail_ids = [int(a) for a in dataset.avails["avail_id"]]
    some_day = int(np.min(np.asarray(dataset.avails["act_start"]))) + 40
    workload: list[dict] = []
    for index in range(N_REQUESTS):
        kind = index % 8
        if kind <= 4:  # the dominant production type
            picked = rng.choice(avail_ids, size=2, replace=False)
            workload.append(
                {
                    "type": "domd_query",
                    "avail_ids": [int(a) for a in picked],
                    "t_star": float(rng.choice([10.0, 40.0, 70.0, 100.0])),
                }
            )
        elif kind == 5:
            workload.append(
                {"type": "explain", "avail_id": int(rng.choice(avail_ids)), "t_star": 50.0}
            )
        elif kind == 6:
            workload.append(
                {"type": "fleet_status", "date": day_to_iso(some_day + index % 64)}
            )
        else:
            workload.append(
                {"type": "metrics", "avail_ids": [int(a) for a in splits.test_ids[:8]]}
            )
    return service, workload


def canonical_bytes(response: dict) -> bytes:
    """Encode a response with its only nondeterministic field removed.

    The provenance stamp's ``trace_id`` is a fresh correlation handle per
    request; every other byte must match with the plane on and off."""
    if isinstance(response.get("provenance"), dict):
        response = dict(response)
        provenance = dict(response["provenance"])
        provenance.pop("trace_id", None)
        response["provenance"] = provenance
    return json.dumps(response, sort_keys=True).encode()


def cpu_timed(fn, spent: list[float]):
    """``fn`` wrapped to append the calling thread's CPU seconds per call."""

    def wrapper(*args, **kwargs):
        start = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.thread_time() - start)

    return wrapper


def serve(service, workload) -> tuple[list[bytes], float, float]:
    """Serve the stream on this thread: (responses, wall s, CPU s)."""
    wall, cpu = time.perf_counter(), time.thread_time()
    responses = [canonical_bytes(service.handle(request)) for request in workload]
    return responses, time.perf_counter() - wall, time.thread_time() - cpu


def serve_observed(service, workload, tick_cpu: list[float], sample_cpu: list[float]):
    """The same stream with the sampler and the profiler on."""
    sampler = TelemetrySampler(
        service.context.metrics, interval=SAMPLER_INTERVAL_S, emit_events=False
    )
    profiler = StackProfiler(interval=PROFILER_INTERVAL_S)
    # Instance attributes shadow the methods the periodic workers bind
    # at start().
    sampler.tick = cpu_timed(sampler.tick, tick_cpu)
    profiler.sample_once = cpu_timed(profiler.sample_once, sample_cpu)
    with sampler, profiler:
        result = serve(service, workload)
    return (*result, sampler, profiler)


def measure() -> dict[str, float]:
    """Every run of the bench, in this process; returns the raw totals."""
    service, workload = build_serving()
    tick_cpu: list[float] = []
    sample_cpu: list[float] = []
    serving_cpu = 0.0
    t_plain = t_observed = float("inf")
    plain, _, _ = serve(service, workload)
    for rep in range(N_TIMING_REPS):
        # Alternate which mode runs first so host drift hits both.
        for observed in (False, True) if rep % 2 == 0 else (True, False):
            if not observed:
                responses, wall, _ = serve(service, workload)
                t_plain = min(t_plain, wall)
                assert responses == plain
                continue
            responses, wall, cpu, sampler, profiler = serve_observed(
                service, workload, tick_cpu, sample_cpu
            )
            t_observed = min(t_observed, wall)
            serving_cpu += cpu
            assert responses == plain, (
                "observability must not change a single response byte"
            )
            # The plane actually ran: the sampler filled request-rate
            # series and the profiler caught the serving thread.
            assert sampler.ticks >= 2
            assert sampler.store.latest("counter.service.requests") is not None
            assert any(
                line.startswith("MainThread;") and "service.handle" in line
                for line in profiler.collapsed()
            )
    return {
        "observer_cpu": sum(tick_cpu) + sum(sample_cpu),
        "serving_cpu": serving_cpu,
        "tick_ms": 1e3 * sum(tick_cpu) / len(tick_cpu),
        "sample_ms": 1e3 * sum(sample_cpu) / len(sample_cpu),
        "ticks": float(len(tick_cpu)),
        "samples": float(len(sample_cpu)),
        "plain": t_plain,
        "observed": t_observed,
    }


def measure_in_child() -> dict[str, float]:
    """:func:`measure` in a fresh interpreter running this file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, __file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_observability_cpu_share_within_budget(benchmark):
    stats = benchmark.pedantic(measure_in_child, rounds=1, iterations=1)
    share = stats["observer_cpu"] / stats["serving_cpu"]
    wall_delta = stats["observed"] / stats["plain"] - 1.0
    table = format_table(
        ["measure", "value"],
        [
            ["serving CPU (s, all observed runs)", f"{stats['serving_cpu']:.3f}"],
            ["observer CPU (s)", f"{stats['observer_cpu']:.4f}"],
            ["observer CPU share (budget 2%)", f"{share * 100:.2f}%"],
            [
                f"sampler tick CPU (ms, n={stats['ticks']:.0f})",
                f"{stats['tick_ms']:.3f}",
            ],
            [
                f"profiler sample CPU (ms, n={stats['samples']:.0f})",
                f"{stats['sample_ms']:.3f}",
            ],
            [f"wall plain (s, min of {N_TIMING_REPS})", f"{stats['plain']:.3f}"],
            [f"wall observed (s, min of {N_TIMING_REPS})", f"{stats['observed']:.3f}"],
            ["wall on/off (information only)", f"{wall_delta * 100:+.1f}%"],
        ],
    )
    emit_report(
        "observability_overhead",
        f"Observability overhead ({N_REQUESTS} mixed requests, one serving "
        f"thread, sampler {SAMPLER_INTERVAL_S * 1e3:.0f} ms + profiler "
        f"{PROFILER_INTERVAL_S * 1e3:.0f} ms)",
        table,
    )
    emit_json(
        "observability_overhead",
        {
            "obs.cpu_share": share,
            "obs.sampler.tick_cpu_ms": stats["tick_ms"],
            "obs.profiler.sample_cpu_ms": stats["sample_ms"],
            "serve.plain_s": stats["plain"],
            "serve.observed_s": stats["observed"],
        },
    )
    assert share <= MAX_OBS_CPU_SHARE, (
        f"sampler+profiler threads used {share * 100:.2f}% of the serving "
        f"thread's CPU (budget {MAX_OBS_CPU_SHARE * 100:.0f}%)"
    )


if __name__ == "__main__":
    print(json.dumps(measure()))

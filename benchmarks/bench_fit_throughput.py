"""Fit throughput: the presorted split search against the per-node argsort.

``GradientBoostedTrees.fit`` sorts each design column once per ensemble
and every tree node then sorts small integer keys
(:func:`repro.ml.tree.sort_columns`).  The builder it replaced, kept
as the oracle in ``tests/ml/tree_oracle.py``, argsorts every node's
float values.  This bench fits ``paper_final_config()`` on the
paper-scale dataset of each seed with both builders, alternating which
goes first, and prints the wall and CPU seconds of each window model's
fit and of the whole ``DomdEstimator.fit``.  It fails if the two model
files differ by a byte.

Run it with ``pytest benchmarks/bench_fit_throughput.py`` (seed 7, one
round) or ``python benchmarks/bench_fit_throughput.py [seed ...]``
(seeds 1-3 by default, two rounds each).
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from repro.bench import emit_report, format_table
from repro.core import DomdEstimator
from repro.core.config import paper_final_config
from repro.data import SyntheticNmdConfig, generate_dataset, split_dataset
from repro.ml.gbm import GradientBoostedTrees
from repro.persistence import save_estimator

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the tests package
from tests.ml.tree_oracle import oracle_builder  # noqa: E402

BUILDERS = ("oracle", "presorted")


@dataclass
class FitRun:
    seed: int
    builder: str
    windows: list[tuple[float, float]]  # (wall, cpu) seconds per window model
    wall: float
    cpu: float
    artefact: bytes


@contextmanager
def window_clock(times: list[tuple[float, float]]):
    """Record the wall and CPU seconds of every ensemble fit."""
    fit = GradientBoostedTrees.fit

    def timed(self, *args, **kwargs):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fit(self, *args, **kwargs)
        finally:
            times.append((time.perf_counter() - wall, time.process_time() - cpu))

    with mock.patch.object(GradientBoostedTrees, "fit", timed):
        yield


def fit_once(seed: int, builder: str, dataset, train_ids, directory: Path) -> FitRun:
    windows: list[tuple[float, float]] = []
    with oracle_builder() if builder == "oracle" else nullcontext(), window_clock(windows):
        wall, cpu = time.perf_counter(), time.process_time()
        estimator = DomdEstimator(paper_final_config()).fit(dataset, train_ids)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    path = directory / f"{seed}-{builder}.json"
    save_estimator(estimator, path)
    return FitRun(seed, builder, windows, wall, cpu, path.read_bytes())


def run(seeds: list[int], rounds: int) -> list[FitRun]:
    """Fit every seed ``rounds`` times with each builder, alternating."""
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        for seed in seeds:
            dataset = generate_dataset(SyntheticNmdConfig(seed=seed))
            train_ids = split_dataset(dataset).train_ids
            for round_ in range(rounds):
                order = BUILDERS if (seed + round_) % 2 else BUILDERS[::-1]
                for builder in order:
                    runs.append(fit_once(seed, builder, dataset, train_ids, Path(directory)))
    return runs


def report(runs: list[FitRun]) -> str:
    rows = [
        [
            run.seed,
            run.builder,
            run.wall,
            run.cpu,
            " ".join(f"{wall:.3f}" for wall, _ in run.windows),
            " ".join(f"{cpu:.3f}" for _, cpu in run.windows),
        ]
        for run in runs
    ]
    table = format_table(
        [
            "seed",
            "builder",
            "fit wall s",
            "fit cpu s",
            "wall s per window model",
            "cpu s per window model",
        ],
        rows,
    )
    median = {
        builder: statistics.median(run.cpu for run in runs if run.builder == builder)
        for builder in BUILDERS
    }
    return (
        f"{table}\n\nmedian fit cpu: oracle {median['oracle']:.3f} s, presorted "
        f"{median['presorted']:.3f} s ({median['oracle'] / median['presorted']:.2f}x)"
    )


def differing_seeds(runs: list[FitRun]) -> list[int]:
    artefacts: dict[int, set[bytes]] = {}
    for run in runs:
        artefacts.setdefault(run.seed, set()).add(run.artefact)
    return sorted(seed for seed, distinct in artefacts.items() if len(distinct) > 1)


def main(seeds: list[int], rounds: int) -> list[int]:
    """Run, print and persist the report; returns the seeds whose files differ."""
    runs = run(seeds, rounds)
    emit_report("fit_throughput", "Fit throughput: presorted vs per-node argsort", report(runs))
    return differing_seeds(runs)


def test_fit_throughput():
    assert main([7], rounds=1) == []


if __name__ == "__main__":
    if differing := main([int(seed) for seed in sys.argv[1:]] or [1, 2, 3], rounds=2):
        sys.exit(f"model files differ for seeds {differing}")
    print("model files byte-identical")

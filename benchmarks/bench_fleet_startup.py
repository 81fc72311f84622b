"""Fleet start-up: launch to ``listening`` and to the first answer.

Launches ``python -m repro serve --listen 127.0.0.1:0 --shards 2``
twice per round, once static and once with a fresh ``--wal-dir`` (the
shards then bootstrap their live stores from the dataset), from this
tree and, with ``--parent PATH``, from a second checkout, alternating
which tree goes first.  Each launch is timed from ``Popen`` to the
``listening`` line on stdout and to the answer of one ``fleet_status``
sent right after it.  Every answer must equal an in-process
``DomdService`` over the whole dataset (rows merged across the shards);
the script exits 1 if one differs.  Timings are printed, never gated.

Run it with ``python benchmarks/bench_fleet_startup.py [--parent PATH]
[--seed 7] [--rounds 4]``; a full run writes
``benchmarks/results/fleet_startup.txt``.  ``--smoke`` runs one round
on a miniature dataset and only prints.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import emit_report, format_table  # noqa: E402
from repro.core.config import PipelineConfig, paper_final_config  # noqa: E402
from repro.core.estimator import DomdEstimator  # noqa: E402
from repro.core.service import DomdService  # noqa: E402
from repro.data import (  # noqa: E402
    SyntheticNmdConfig,
    generate_dataset,
    save_dataset,
    split_dataset,
)
from repro.data.dates import day_to_iso  # noqa: E402
from repro.ml.gbm import GbmParams  # noqa: E402
from repro.persistence import save_estimator  # noqa: E402
from repro.serve.client import FrameClient  # noqa: E402

MODES = ("static", "wal")


def prepare(seed: int, smoke: bool, root: Path) -> tuple[Path, Path, dict, list]:
    """Dataset and model on disk, the probe request and its expected rows."""
    if smoke:
        config = SyntheticNmdConfig(
            n_ships=10,
            n_closed_avails=28,
            n_ongoing_avails=2,
            target_n_rccs=2_500,
            seed=seed,
        )
        pipeline = PipelineConfig(
            window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=15)
        )
    else:
        config, pipeline = SyntheticNmdConfig(seed=seed), paper_final_config()
    dataset = generate_dataset(config)
    estimator = DomdEstimator(pipeline).fit(dataset, split_dataset(dataset).train_ids)
    save_dataset(dataset, root / "data")
    save_estimator(estimator, root / "model.json")
    request = {"type": "fleet_status", "date": busiest_day(dataset)}
    expected = DomdService(estimator).handle(dict(request))
    if not expected.get("ok"):
        raise SystemExit(f"in-process fleet_status failed: {expected}")
    return root / "data", root / "model.json", request, by_avail(expected["result"])


def busiest_day(dataset: Any) -> str:
    """The ISO date with the most avails executing."""
    start = np.asarray(dataset.avails["act_start"], dtype=np.float64)
    planned = np.asarray(dataset.avails["planned_duration"], dtype=np.float64)
    days = np.arange(int(start.min()), int((start + planned).max()) + 1)
    progress = (days[:, None] - start[None, :]) / planned[None, :] * 100.0
    counts = ((progress >= 0.0) & (progress <= 100.0)).sum(axis=1)
    return day_to_iso(int(days[int(np.argmax(counts))]))


def by_avail(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda row: row["avail_id"])


def launch(tree: Path, data: Path, model: Path, wal_dir: Path | None, request: dict):
    """One fleet from ``tree``: (listening s, first answer s, answer)."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--model", str(model), "--data", str(data),
        "--listen", "127.0.0.1:0", "--shards", "2",
    ]  # fmt: skip
    if wal_dir is not None:
        argv += ["--wal-dir", str(wal_dir)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=str(model.parent),
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        port = wait_listening(proc, timeout=300.0)
        listening = time.perf_counter() - started
        with FrameClient("127.0.0.1", port, timeout=300.0) as client:
            answer = client.request(dict(request))
        first = time.perf_counter() - started
    finally:
        stop(proc)
    return listening, first, answer


def wait_listening(proc: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise RuntimeError(f"fleet not listening after {timeout:.0f} s")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"fleet exited with {proc.wait()} before listening")
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if isinstance(message, dict) and "listening" in message:
            return int(message["listening"]["port"])


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM drains the fleet; whatever is left of its group is killed."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run(args: argparse.Namespace) -> tuple[list[list[Any]], int]:
    trees = {"change": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    rows: list[list[Any]] = []
    mismatches = 0
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        data, model, request, expected = prepare(args.seed, args.smoke, root)
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
            for name in order:
                for mode in MODES:
                    wal_dir = root / f"wal-{name}-{round_}" if mode == "wal" else None
                    listening, first, answer = launch(
                        trees[name], data, model, wal_dir, request
                    )
                    same = bool(answer.get("ok")) and by_avail(answer["result"]) == expected
                    mismatches += not same
                    rows.append([name, mode, round_, listening, first, same])
                    print(
                        f"{name:<7} {mode:<7} round {round_}: listening {listening:.3f} s,"
                        f" first fleet_status {first:.3f} s, answer "
                        + ("equal" if same else "DIFFERS"),
                        flush=True,
                    )
    return rows, mismatches


def report(rows: list[list[Any]], args: argparse.Namespace) -> str:
    table = format_table(
        ["tree", "mode", "round", "listening s", "first answer s", "equal"], rows
    )
    lines = [
        f"seed {args.seed}, {args.rounds} round(s), 2 shards, "
        f"{'smoke' if args.smoke else 'paper-scale'} dataset, host {os.cpu_count()} CPUs",
        "",
        table,
        "",
    ]
    for name in dict.fromkeys(row[0] for row in rows):
        for mode in MODES:
            picked = [row for row in rows if row[0] == name and row[1] == mode]
            lines.append(
                f"median {name:<7} {mode:<7} listening "
                f"{statistics.median(r[3] for r in picked):.3f} s, first answer "
                f"{statistics.median(r[4] for r in picked):.3f} s"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="a second checkout to compare")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--smoke", action="store_true", help="one round, tiny data")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds = 1
    rows, mismatches = run(args)
    text = report(rows, args)
    if args.smoke:
        print("\n" + text)
    else:
        emit_report("fleet_startup", "Fleet start-up: launch to listening and first answer", text)
    if mismatches:
        print(f"bench_fleet_startup: {mismatches} answer(s) differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

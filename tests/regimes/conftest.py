"""Shared machinery for the cross-regime property suite.

Every regime in :data:`repro.data.regimes.REGIMES` is swept through the
same four property families (dataset invariants, index agreement,
streaming replay, learnability gate).  Datasets are expensive relative
to the assertions, so one session-scoped cache hands the same
generated (spec, dataset, header, events) tuple to every test of a
regime.

Tier-1 runs the fast subset (:data:`FAST_REGIMES`); the remaining
regimes carry ``@pytest.mark.slow`` and run under ``--runslow`` /
``REPRO_RUN_SLOW=1`` — the CI ``regime-matrix`` job.  On a property
failure the ddmin-shrunk reproducer is written to
``$REPRO_REGIME_ARTIFACTS`` (when set) so CI can upload it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.data import SyntheticNmdConfig
from repro.data.regimes import REGIMES, generate_regime_dataset, get_regime, regime_events

#: Miniature fleet every regime runs at inside the suite.  Regime
#: ``base`` overrides (sparse_fleet) still apply on top.
TEST_BASE = SyntheticNmdConfig(
    n_ships=8,
    n_closed_avails=26,
    n_ongoing_avails=2,
    target_n_rccs=1_600,
    seed=29,
)

#: Regimes exercised in tier-1; the rest are ``slow`` (full matrix).
FAST_REGIMES = ("baseline", "surge")


def regime_params() -> list:
    """All regime names, slow-marked outside the fast subset."""
    return [
        name
        if name in FAST_REGIMES
        else pytest.param(name, marks=pytest.mark.slow)
        for name in REGIMES
    ]


@pytest.fixture(scope="session")
def regime_cache():
    """Memoizing factory: name -> (spec, dataset, header, events)."""
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            spec = get_regime(name)
            dataset = generate_regime_dataset(spec, base=TEST_BASE)
            header, events = regime_events(spec, dataset)
            cache[name] = (spec, dataset, header, events)
        return cache[name]

    return get


def dump_reproducer(regime: str, suite: str, payload: object) -> str | None:
    """Persist a shrunk reproducer for CI artifact upload.

    No-op (returns None) unless ``REPRO_REGIME_ARTIFACTS`` points at a
    directory; the failure message always carries the reproducer inline
    either way.
    """
    root = os.environ.get("REPRO_REGIME_ARTIFACTS")
    if not root:
        return None
    directory = Path(root)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{regime}-{suite}.json"
    path.write_text(json.dumps(payload, indent=2, default=str), encoding="utf-8")
    return str(path)


def fail_with_reproducer(
    regime: str,
    suite: str,
    label: str,
    minimal: list,
    total: int,
    unit: str = "events",
) -> None:
    """pytest.fail with the ddmin-shrunk reproducer, artifact included.

    ``minimal`` is the shrunk list of ``unit`` (WAL events, or the avail
    ids of a batched query)."""
    artifact = dump_reproducer(
        regime, suite, {"regime": regime, "label": label, unit: minimal}
    )
    where = f"\nreproducer written to {artifact}" if artifact else ""
    pytest.fail(
        f"[{regime}] {label}\n"
        f"minimal reproducer ({len(minimal)} of {total} {unit}):{where}\n"
        f"{json.dumps(minimal, indent=2, default=str)}"
    )

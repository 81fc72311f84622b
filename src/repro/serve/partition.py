"""Ship-partitioned shard datasets: each shard's slice of the fleet.

A shard serves exactly the ships the ring assigns it: its dataset keeps
those ships' rows, their avails, and those avails' RCCs, and drops
everything else.  This is safe because the estimator's features are
strictly **per-avail** — every group id of the status-feature tensor is
keyed by (avail, rcc type, SWLIN digit), and a query predicts and fuses
each avail's tensor row independently of the other rows in its batch —
so a shard's estimate for an avail it owns is bitwise identical to the
monolith's estimate from the full dataset (pinned by the shard/monolith
differential test).

The fitted model artefact is **shared**: every shard loads the same
model file and re-extracts features for its slice only, so shard
startup cost scales with the slice, not the fleet.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import NavyMaintenanceDataset
from repro.serve.ring import ConsistentHashRing


def ships_of_shard(
    dataset: NavyMaintenanceDataset, ring: ConsistentHashRing, shard_id: int
) -> np.ndarray:
    """Ship ids of ``dataset`` the ring assigns to ``shard_id``."""
    ship_ids = np.asarray(dataset.ships["ship_id"], dtype=np.int64)
    mask = np.fromiter(
        (ring.owner_of_ship(int(s)) == shard_id for s in ship_ids),
        dtype=bool,
        count=len(ship_ids),
    )
    return ship_ids[mask]


def shard_dataset(
    dataset: NavyMaintenanceDataset,
    ring: ConsistentHashRing,
    shard_id: int,
) -> NavyMaintenanceDataset:
    """The slice of ``dataset`` that shard ``shard_id`` owns.

    Ships → their avails → those avails' RCCs; everything else is
    filtered out.  A shard that owns no ships still gets a valid (empty)
    dataset — the service layer answers its queries with ``not_found``
    semantics rather than crashing.
    """
    owned_ships = ships_of_shard(dataset, ring, shard_id)
    ship_mask = np.isin(
        np.asarray(dataset.ships["ship_id"], dtype=np.int64), owned_ships
    )
    avail_mask = np.isin(
        np.asarray(dataset.avails["ship_id"], dtype=np.int64), owned_ships
    )
    owned_avails = np.asarray(dataset.avails["avail_id"], dtype=np.int64)[
        avail_mask
    ]
    rcc_mask = np.isin(
        np.asarray(dataset.rccs["avail_id"], dtype=np.int64), owned_avails
    )
    notes = dict(dataset.notes)
    notes["shard"] = {
        "shard_id": int(shard_id),
        "shard_ids": list(ring.shard_ids),
        "vnodes": ring.vnodes,
        "n_ships": int(len(owned_ships)),
    }
    return NavyMaintenanceDataset(
        ships=dataset.ships.filter(ship_mask),
        avails=dataset.avails.filter(avail_mask),
        rccs=dataset.rccs.filter(rcc_mask),
        seed=dataset.seed,
        scaling_factor=dataset.scaling_factor,
        notes=notes,
    )


def fleet_assignment(
    dataset: NavyMaintenanceDataset, ring: ConsistentHashRing
) -> dict[int, list[int]]:
    """``{shard_id: [ship_ids...]}`` for the whole fleet (audit view)."""
    out: dict[int, list[int]] = {shard_id: [] for shard_id in ring.shard_ids}
    for ship_id in np.asarray(dataset.ships["ship_id"], dtype=np.int64):
        out[ring.owner_of_ship(int(ship_id))].append(int(ship_id))
    return out

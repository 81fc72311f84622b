"""NMD data model, synthetic generation, obfuscation, splits, io.

Public API::

    from repro.data import (
        generate_dataset, SyntheticNmdConfig, NavyMaintenanceDataset,
        Avail, Rcc, scale_rccs, obfuscate_dataset, deobfuscate_dataset,
        split_dataset, DataSplits, save_dataset, load_dataset,
    )
"""

from repro.data.dates import (
    MISSING_DATE,
    day_to_iso,
    iso_to_day,
    logical_time,
    physical_time,
)
from repro.data.continuation import generate_continuation
from repro.data.generator import SHIP_CLASSES, SyntheticNmdConfig, generate_dataset
from repro.data.lifecycle import LifecycleConfig, simulate_lifecycle
from repro.data.regimes import (
    REGIMES,
    RegimeSpec,
    generate_regime_dataset,
    get_regime,
    regime_events,
    write_regime_stream,
)
from repro.data.loader import load_dataset, save_dataset
from repro.data.obfuscation import (
    ObfuscationKey,
    deobfuscate_dataset,
    obfuscate_dataset,
)
from repro.data.scaling import scale_rccs
from repro.data.schema import (
    AVAIL_COLUMNS,
    RCC_COLUMNS,
    SHIP_COLUMNS,
    STATIC_FEATURES,
    Avail,
    LiveSnapshot,
    NavyMaintenanceDataset,
    Rcc,
)
from repro.data.splits import DataSplits, split_dataset

__all__ = [
    "MISSING_DATE",
    "day_to_iso",
    "iso_to_day",
    "logical_time",
    "physical_time",
    "SHIP_CLASSES",
    "SyntheticNmdConfig",
    "generate_dataset",
    "LifecycleConfig",
    "simulate_lifecycle",
    "REGIMES",
    "RegimeSpec",
    "generate_regime_dataset",
    "get_regime",
    "regime_events",
    "write_regime_stream",
    "generate_continuation",
    "load_dataset",
    "save_dataset",
    "ObfuscationKey",
    "obfuscate_dataset",
    "deobfuscate_dataset",
    "scale_rccs",
    "AVAIL_COLUMNS",
    "RCC_COLUMNS",
    "SHIP_COLUMNS",
    "STATIC_FEATURES",
    "Avail",
    "Rcc",
    "NavyMaintenanceDataset",
    "LiveSnapshot",
    "DataSplits",
    "split_dataset",
]

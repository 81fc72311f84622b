"""NMD data model, synthetic generation, obfuscation, splits, io.

Public API::

    from repro.data import (
        generate_dataset, SyntheticNmdConfig, NavyMaintenanceDataset,
        Avail, Rcc, scale_rccs, obfuscate_dataset, deobfuscate_dataset,
        split_dataset, DataSplits, save_dataset, load_dataset,
    )
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.data.dates": (
            "MISSING_DATE",
            "day_to_iso",
            "iso_to_day",
            "logical_time",
            "physical_time",
        ),
        "repro.data.continuation": ("generate_continuation",),
        "repro.data.generator": (
            "SHIP_CLASSES",
            "SyntheticNmdConfig",
            "generate_dataset",
        ),
        "repro.data.lifecycle": ("LifecycleConfig", "simulate_lifecycle"),
        "repro.data.regimes": (
            "REGIMES",
            "RegimeSpec",
            "generate_regime_dataset",
            "get_regime",
            "regime_events",
            "write_regime_stream",
        ),
        "repro.data.loader": ("load_dataset", "save_dataset"),
        "repro.data.obfuscation": (
            "ObfuscationKey",
            "deobfuscate_dataset",
            "obfuscate_dataset",
        ),
        "repro.data.scaling": ("scale_rccs",),
        "repro.data.schema": (
            "AVAIL_COLUMNS",
            "RCC_COLUMNS",
            "SHIP_COLUMNS",
            "STATIC_FEATURES",
            "Avail",
            "LiveSnapshot",
            "NavyMaintenanceDataset",
            "Rcc",
        ),
        "repro.data.splits": ("DataSplits", "split_dataset"),
    },
)

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

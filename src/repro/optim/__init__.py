"""The paper's software optimizations as reusable analysis/transform passes."""

from repro.optim.deferred import (
    DeferredAnalysis,
    analyze_deferred,
    apply_deferred,
    deferred_miss_saving,
)
from repro.optim.hotspots import (
    HotspotPrefetcher,
    find_hotspots,
)
from repro.optim.privatize import (
    PrivatizeRelocate,
    privatize_and_relocate,
    replica_addr,
)
from repro.optim.update_select import UpdateSelection, select_update_core

__all__ = [
    "DeferredAnalysis",
    "HotspotPrefetcher",
    "PrivatizeRelocate",
    "UpdateSelection",
    "analyze_deferred",
    "apply_deferred",
    "deferred_miss_saving",
    "find_hotspots",
    "privatize_and_relocate",
    "replica_addr",
    "select_update_core",
]

"""Experiment drivers: the runner and the regenerate-everything entry point."""

from repro.experiments.ablations import (
    ALL_STUDIES,
    AblationPoint,
    render_study,
    run_study,
)
from repro.experiments.extensions import (
    ColoringResult,
    page_coloring_study,
    page_coloring_sweep,
)
from repro.experiments.runner import ExperimentRunner, NUM_HOTSPOTS
from repro.experiments.sensitivity import Spread, render_sweep, seed_sweep

__all__ = [
    "ALL_STUDIES",
    "AblationPoint",
    "ColoringResult",
    "ExperimentRunner",
    "NUM_HOTSPOTS",
    "Spread",
    "page_coloring_study",
    "page_coloring_sweep",
    "render_sweep",
    "seed_sweep",
    "render_study",
    "run_study",
]

"""Static estimation: per-filter work, program characteristics."""

from repro.analysis.rates import DEFAULT_TRIP, TRANSCENDENTAL_COST
from repro.estimate.characteristics import (
    Characteristics,
    characteristics_table,
    characterize,
    format_table,
)
from repro.estimate.work import (
    ITEM_MOVE_COST,
    node_work,
    steady_state_work,
    work_per_firing,
)

__all__ = [
    "Characteristics",
    "characterize",
    "characteristics_table",
    "format_table",
    "work_per_firing",
    "node_work",
    "steady_state_work",
    "DEFAULT_TRIP",
    "ITEM_MOVE_COST",
    "TRANSCENDENTAL_COST",
]

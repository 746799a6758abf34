"""Linear analysis and optimization of stream programs (the paper's core).

Pipeline: :func:`extract_linear` detects linear filters from their work
functions; :mod:`~repro.linear.combination` collapses neighbouring linear
nodes; :mod:`~repro.linear.frequency` translates linear nodes into FFT
convolution; :func:`apply_selection` chooses the best per region.
"""

from repro.linear.combination import combine_pipeline, combine_pipeline_all, combine_splitjoin
from repro.linear.costmodel import (
    CostReport,
    best_block,
    compare,
    direct_flops_per_firing,
    direct_flops_per_input,
    freq_flops_per_block,
    freq_flops_per_input,
)
from repro.analysis.rates import Affine
from repro.linear.extraction import (
    ExtractionResult,
    extract_linear,
    is_stateful,
    try_extract,
)
from repro.linear.frequency import FrequencyFilter, frequency_replace
from repro.linear.linrep import LinearFilter, LinearRep, fir_rep
from repro.linear.selection import (
    OptimizationReport,
    apply_combination,
    apply_frequency,
    apply_selection,
    collapse_linear,
    subtree_cost_per_item,
)

__all__ = [
    "LinearRep",
    "LinearFilter",
    "fir_rep",
    "Affine",
    "ExtractionResult",
    "extract_linear",
    "try_extract",
    "is_stateful",
    "combine_pipeline",
    "combine_pipeline_all",
    "combine_splitjoin",
    "FrequencyFilter",
    "frequency_replace",
    "CostReport",
    "compare",
    "best_block",
    "direct_flops_per_firing",
    "direct_flops_per_input",
    "freq_flops_per_block",
    "freq_flops_per_input",
    "collapse_linear",
    "apply_combination",
    "apply_frequency",
    "apply_selection",
    "subtree_cost_per_item",
    "OptimizationReport",
]

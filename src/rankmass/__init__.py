"""Bow-tie decomposition and damping-sensitivity analysis of sparse directed
graphs under random-surfer ranking."""

from .bowtie import (BlockDecomposition, BowtieLabeling, Label, block_decomposition,
                     bowtie_labeling, strongly_connected_components)
from .errors import (AssumptionViolationError, ConvergenceError, GraphParseError,
                     GraphRangeError, StructureError)
from .escc import (CStarReport, Prop3Bounds, SpectralSummary, cstar_interval_closed_form,
                   cstar_solve, escc_mass, expected_visits, prop3_bounds,
                   pure_out_unfairness, spectral_summary)
from .experiment import ExperimentReport, ExperimentRow, run_link_experiment
from .graph import (GraphHandle, build_graph, dumps, load_edge_list, load_path, loads,
                    with_edge)
from .inscc import (DerivativeAtOne, DerivativeAtZero, InsccCurvePoint, ThreeBlockView,
                    UnimodalityReport, derivative_at_one, derivative_at_zero,
                    full_rank_vector, inscc_curve, inscc_vector, sherman_morrison_split,
                    three_block_view, unimodality_scan)
from .limits import (LaurentCheck, LimitReport, absorption_weights, aggregated_chain_limit,
                     block_stationary, laurent_check, laurent_example_2state,
                     laurent_example_5state, limit_vector)
from .pagerank import (MassBreakdown, PageRankConfig, RankVector, damping_sweep,
                       mass_breakdown, pagerank, pagerank_via_resolvent)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError", "BlockDecomposition", "BowtieLabeling", "CStarReport",
    "ConvergenceError", "DerivativeAtOne", "DerivativeAtZero", "ExperimentReport",
    "ExperimentRow", "GraphHandle", "GraphParseError", "GraphRangeError",
    "InsccCurvePoint", "Label", "LaurentCheck", "LimitReport", "MassBreakdown",
    "PageRankConfig", "Prop3Bounds", "RankVector", "SpectralSummary", "StructureError",
    "ThreeBlockView", "UnimodalityReport", "absorption_weights", "aggregated_chain_limit",
    "block_decomposition", "block_stationary", "bowtie_labeling", "build_graph",
    "cstar_interval_closed_form", "cstar_solve", "damping_sweep",
    "derivative_at_one", "derivative_at_zero", "dumps", "escc_mass",
    "expected_visits", "full_rank_vector", "inscc_curve",
    "inscc_vector", "laurent_check", "laurent_example_2state", "laurent_example_5state",
    "limit_vector", "load_edge_list", "load_path", "loads", "mass_breakdown", "pagerank",
    "pagerank_via_resolvent", "prop3_bounds", "pure_out_unfairness",
    "run_link_experiment", "sherman_morrison_split",
    "spectral_summary", "strongly_connected_components", "three_block_view",
    "unimodality_scan", "with_edge",
]

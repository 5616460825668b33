"""Deformation of polyhedral chains into skeleta of uniform complexes."""

from .chains import (
    Piece,
    PolyChain,
    normalize_chain,
    validate_chain,
)
from .complexes import Chart, GeoComplex, check_uniform
from .deform import (
    CenterSelectionError,
    FFResult,
    ff_deform,
    ff_step,
    remainder_decomposition,
    select_center,
    vanishing_threshold,
)
from .suite import run_deformation_suite
from .torus import (
    crossing_parities,
    flat_torus_complex,
    random_loop_chain,
    representative_edge_cycle,
    whole_edges_of,
)

__all__ = [
    "Chart",
    "CenterSelectionError",
    "FFResult",
    "GeoComplex",
    "Piece",
    "PolyChain",
    "check_uniform",
    "crossing_parities",
    "ff_deform",
    "ff_step",
    "flat_torus_complex",
    "normalize_chain",
    "random_loop_chain",
    "remainder_decomposition",
    "run_deformation_suite",
    "representative_edge_cycle",
    "select_center",
    "validate_chain",
    "vanishing_threshold",
    "whole_edges_of",
]

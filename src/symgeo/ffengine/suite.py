"""Randomized end-to-end exercise of the deformation engine on a torus.

Drives seeded random loops through the full collapse and accumulates the
four certificates: skeleton containment, cycle preservation, homology-class
preservation against the GF(2) oracle, and the empirical volume/track
constant.  The result is one plain check report (``symgeo.report``).

Certifying a chain costs work proportional to the chain: the GF(2) image
of the 2-boundaries is built once per complex (homology.boundary_image),
the torus certificates run as array passes over the chain's blocks
(torus.py), and the vanishing check gathers the top cofaces of the input
pieces and of the kept cells by cell position (GeoComplex.cell_arrays) and
takes every local mass at once.
"""

from __future__ import annotations

import numpy as np

from ..report import check_report
from . import homology
from .chains import PolyChain, validate_chain
from .deform import FFResult, ff_deform, remainder_decomposition, vanishing_threshold
from .complexes import GeoComplex
from .torus import (
    crossing_parities,
    random_loop_chain,
    representative_edge_cycle,
    whole_edges_of,
)


def vanishing_check(cx: GeoComplex, chain: PolyChain, result: FFResult) -> float:
    """A-posteriori form of the local-mass threshold on a finished run.

    A k-cell can survive the collapse only where the input chain carried at
    least eta local mass, with eta computed from the run's own per-cell
    volume constant.  The local mass of a kept cell is the volume of the
    input pieces whose hosts share a top cell with it.  Returns the worst
    slack (negative = violation).
    """
    eta = vanishing_threshold(cx, result.final.k, max(result.max_cell_ratio, 1.0))
    if not result.whole_cells:
        return float("inf")
    kept = cx.cell_arrays(result.final.k).tops[cx.cell_index(result.whole_cells)]
    # star[c, t]: kept cell c lies in top cell t (the last column takes the
    # -1 padding); near[c, i]: the host of piece i shares a top cell with it
    star = np.zeros((len(kept), len(cx.cells_of_dim(cx.dim)) + 1), dtype=bool)
    star[np.arange(len(kept))[:, None], kept] = True
    star[:, -1] = False
    near = np.zeros((len(kept), len(chain)), dtype=bool)
    for d, block in chain.blocks.items():
        near[:, block.index] = star[:, cx.cell_arrays(d).tops[chain.host_ids(cx, d)]].any(axis=2)
    # each mass added from 0.0 in piece order, as an explicit loop would
    # (sum() may compensate); adding the 0.0 of a far piece changes nothing
    volumes = np.hstack([np.zeros((len(kept), 1)), np.where(near, chain.volumes, 0.0)])
    masses = np.add.accumulate(volumes, axis=1)[:, -1]
    return float((masses - eta).min())


def run_deformation_suite(cx: GeoComplex, n_chains: int = 100, seed: int = 0) -> dict:
    """Deform seeded random loops and certify the engine's contracts.

    Returns the check report "deformation_suite".  Its ``max_abs_err`` is
    the largest local-mass deficit of a kept cell over the chains (0.0 when
    every kept cell clears the threshold); ``detail.n_failed`` counts the
    chains that failed a certificate and ``detail.failures`` shows the first
    five.  Raises ValueError when n_chains < 1, which would check nothing.
    """
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    image = homology.boundary_image(cx, 2)
    seeds = np.random.SeedSequence(seed).generate_state(n_chains)
    ratios = []
    failures = []
    deficit = 0.0
    for chain_seed in map(int, seeds):
        chain, winding = random_loop_chain(cx, seed=chain_seed)
        vol_in = chain.volume()
        result = ff_deform(cx, chain, seed=chain_seed)
        try:
            validate_chain(cx, result.final)
        except ValueError as exc:
            failures.append({"seed": chain_seed, "error": f"containment: {exc}"})
            continue
        if result.final.max_host_dim() > chain.k:
            failures.append({"seed": chain_seed, "error": "outside k-skeleton"})
            continue
        try:
            edges = whole_edges_of(cx, result.final)
        except ValueError as exc:
            failures.append({"seed": chain_seed, "error": f"partial edge: {exc}"})
            continue
        vec = homology.cell_vector(cx, 1, edges)
        if not homology.is_cycle(cx, 1, vec):
            failures.append({"seed": chain_seed, "error": "final chain not closed"})
            continue
        rep = homology.cell_vector(cx, 1, representative_edge_cycle(cx, winding))
        if crossing_parities(cx, result.final) != winding or not image.bounds(vec ^ rep):
            failures.append({"seed": chain_seed, "error": "homology class changed"})
            continue
        whole, rest = remainder_decomposition(cx, result)
        if len(whole) + len(rest) != len(result.final):
            failures.append({"seed": chain_seed, "error": "remainder not exhaustive"})
            continue
        slack = vanishing_check(cx, chain, result)
        deficit = max(deficit, -slack)
        if slack < 0:
            failures.append(
                {"seed": chain_seed,
                 "error": f"kept cell below local-mass threshold by {-slack:.3e}"}
            )
            continue
        ratios.append(max(result.final.volume(), result.total_track) / vol_in)
    c_empirical = float(max(ratios)) if ratios else 0.0
    return check_report(
        "deformation_suite",
        {"n_chains": n_chains, "seed": seed},
        deficit,
        not failures,
        {
            "c_empirical": c_empirical,
            "mean_ratio": float(np.mean(ratios)) if ratios else 0.0,
            "eta_at_c": vanishing_threshold(cx, 1, max(c_empirical, 1.0)),
            "n_failed": len(failures),
            "failures": failures[:5],
        },
    )

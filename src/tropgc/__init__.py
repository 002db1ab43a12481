"""Homology of weighted graph complexes and tropical moduli spaces.

Weight data in the sense of Hassett cut the simplex of marking weights into
chambers; each chamber carries a graph complex and a symmetric Delta-complex,
and nested chambers induce filtrations whose spectral sequences decompose
top-weight cohomology. Everything is computed exactly over Q.
"""

from .chambers import (ChamberCensus, ChamberSignature, DomainError,
                       DomainGapWarning, OrderResult, WallSet, WeightDatum,
                       apply_permutation, compare_signatures,
                       compare_up_to_symmetry, enumerate_chambers,
                       feasible_point, format_rational, identity_permutation,
                       is_feasible, make_floor, make_heavy_light,
                       make_minimal, parse_rational, parse_weights,
                       permute_signature, signature, signature_json, wall_set)
from .complexes import (ChainComplex, HomologyReport, build_cellular_complex,
                        build_graph_complex, homology, moduli_label, split_AB)
from .enumeration import (enumerate_stable_graphs, filtration_levels,
                          generator_basis, max_edges)
from .graphs import (CanonicalGraph, MarkedGraph, canonicalize, contract_edge,
                     is_stable)
from .linalg import RationalMatrix, kernel_basis, rank, subspace_dims
from .spectral import (DecompositionReport, FilteredComplex, PageTable,
                       align_chain, build_filtered_complex,
                       build_relative_complex, decomposition_report,
                       filtered_from_raw, infinity_table, page_dim,
                       page_table, parse_filtration_json, spectral_json)

__all__ = [
    "CanonicalGraph", "ChainComplex", "ChamberCensus", "ChamberSignature",
    "DecompositionReport", "DomainError", "DomainGapWarning",
    "FilteredComplex", "HomologyReport", "MarkedGraph", "OrderResult",
    "PageTable", "RationalMatrix", "WallSet", "WeightDatum",
    "align_chain", "apply_permutation", "build_cellular_complex",
    "build_filtered_complex", "build_graph_complex", "build_relative_complex",
    "canonicalize", "compare_signatures", "compare_up_to_symmetry",
    "contract_edge", "decomposition_report",
    "enumerate_chambers", "enumerate_stable_graphs", "feasible_point",
    "filtered_from_raw", "filtration_levels", "format_rational",
    "generator_basis", "homology", "identity_permutation",
    "infinity_table", "is_feasible", "is_stable", "kernel_basis",
    "make_floor", "make_heavy_light", "make_minimal", "max_edges",
    "moduli_label",
    "page_dim", "page_table", "parse_filtration_json", "parse_rational",
    "parse_weights", "permute_signature", "rank", "signature",
    "signature_json", "spectral_json", "split_AB", "subspace_dims",
    "wall_set",
]

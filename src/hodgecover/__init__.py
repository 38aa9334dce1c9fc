"""Spectra of simplicial Hodge Laplacians, permutation covers, and rational
filling certificates for curve-complexity bounds."""

from .bounds import (BoundEntry, BoundError, BoundReport, catalogue_ids,
                     check_dichotomy, evaluate_bound, get_entry,
                     verify_filling_chain)
from .complexes import (ComplexError, LoadReport, SimplicialComplex,
                        SparseIntMatrix, dump_complex, load_complex,
                        load_complex_report, read_complex)
from .covers import (Cover, CoverError, FacePairing, FacePairingSet, Graph,
                     PermutationCoverSpec, SpanningTree, build_cover,
                     dual_graph, graph_diameter, shortest_path_tree,
                     tree_fundamental_domain, word_sheet_action,
                     word_tile_action)
from .fillings import (EdgeCycle, FillingCertificate, FillingError,
                       cycle_from_word, free_part_coefficients, l1_filling,
                       least_norm_filling, rationally_null, scl_report)
from .homology import (betti_numbers, boundary_factors, homology_table,
                       invariant_factors, torsion_invariants, torsion_order)
from .hypgeom import (GeometryError, HypPoint, MoserConstant, SimplexMetric,
                      ball_volume, hyp_distance, kappa, minkowski_inner,
                      moser_constant, right_triangle_area, simplex_gram,
                      simplex_volume, sphere_volume)
from .spectra import (CoexactGap, SpectralError, SpectralSplit,
                      charpoly_gap_bound, coexact_gap, harmonic_projection,
                      lambda1_split, up_pencil)
from .whitney import (ComplexGeometry, InnerProduct, NormSpec, chain_dual_norm,
                      cochain_norm, norm_equivalence_constants,
                      whitney_mass_matrix, whitney_pointwise_norm)

__version__ = "0.1.0"

"""Spectra of simplicial Hodge Laplacians, permutation covers, and rational
filling certificates for curve-complexity bounds."""

from .bounds import (BoundEntry, BoundError, BoundReport, catalogue_ids,
                     evaluate_all, evaluate_bound, get_entry)
from .complexes import (ComplexError, LoadReport, SimplicialComplex,
                        SparseIntMatrix, load_complex, load_complex_report)
from .covers import (Cover, CoverError, FacePairing, FacePairingSet, Graph,
                     PermutationCoverSpec, SpanningTree, build_cover,
                     dual_graph, graph_diameter, shortest_path_tree,
                     tree_fundamental_domain)
from .fillings import (EdgeCycle, FillingCertificate, FillingError,
                       cycle_from_word, l1_filling, least_norm_filling,
                       rationally_null, scl_report)
from .homology import boundary_factors, homology_table, invariant_factors
from .hypgeom import (DomainError, GeometryError, MoserConstant, ball_volume,
                      kappa, moser_constant, sphere_volume)
from .spectra import (CoexactGap, SpectralError, SpectralSplit,
                      charpoly_gap_bound, coexact_gap, lambda1_split,
                      up_pencil)
from .whitney import (ComplexGeometry, InnerProduct,
                      norm_equivalence_constants, whitney_mass_matrix,
                      whitney_products)

__version__ = "0.1.0"

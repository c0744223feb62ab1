"""Exact-arithmetic toolkit for signed-graph nullity invariants.

Computes nullity, matching number, cycle-space dimension and balance of
signed graphs over exact integers, and mechanically verifies the relations
between them (nullity bounds, the never-attained slack value 1, the
unicyclic trichotomy, the slack-realizing block family) by exhaustive
enumeration at small orders.
"""

from .balance import BalanceResult, canonical_signature, cycle_sign, is_balanced, switch
from .errors import CapacityError, ParseError, StructureError, TheoremViolation
from .formats import (graph6_decode, graph6_encode, read_graph6, read_sgl,
                      sgl_dumps, sgl_loads, write_graph6, write_sgl)
from .generation import (CAPACITY_OVERRIDE_ENV, ENUMERATION_VERTEX_CAP,
                         automorphism_generators, canonical_form, effective_vertex_cap,
                         enumerate_connected, enumerate_signatures)
from .graphs import (ContractionTree, Cycle, Graph, SignedGraph, complete_graph,
                     connected_components, contract_cycles, cotree_edges, cycle_graph,
                     cycle_space_dim, cycles_pairwise_vertex_disjoint, delete_vertices,
                     disjoint_union, induced_subgraph, is_connected, num_components,
                     path_graph, pendant_vertices, star_graph, vertices_on_cycles)
from .linalg import (CHAR_POLY_VERTEX_CAP, SACHS_VERTEX_CAP, BasicSubgraph,
                     char_poly_exact, enumerate_basic_subgraphs, nullity,
                     rank_exact, sachs_coefficients, signed_adjacency,
                     zero_root_multiplicity)
from .matching import (BRUTE_FORCE_EDGE_CAP, MatchingSets, enumerate_maximum_matchings,
                       even_cycle_matching_equivalence, matching_number,
                       matching_sets, odd_cycle_matching_equivalence, unique_cycle)
from .theorems import (CampaignReport, FamilyParams, InvariantRecord,
                       attains_upper, classify_unicyclic, family_prediction,
                       gap_scan, generate_family, invariant_record,
                       slack_coverage, unicyclic_case)

__version__ = "0.1.0"

"""distdom: constant-factor approximation of distance-r domination and
distance-2r independence via LP rounding over augmentations derived from
vertex orderings, with exact-rational verification of the bound chain."""

from .graph import Graph, ball, distance, from_edges, parse_graph
from .ordering import Ordering, heuristic_ordering, wcol_of_ordering, weak_reach
from .augment import (augment_from_ordering, indegree_profile,
                      orientation_augmentation, verify_augmentation)
from .lp import covering_from_packing, domination_lp, independence_lp, solve
from .domination import guarantee_factor, round_dominating
from .independence import (Hypergraph, certify_2rb_independent,
                           extract_kmatching, inneighbor_hypergraph,
                           sparsify_to_independent)
from .instances import (build_h_r, canonical_ordering, clique_hypergraph,
                        covering_hard_hypergraph)
from .oracles import (OracleBudget, brute_alpha_2r, brute_alpha_2rb,
                      brute_gamma_r, brute_wcol)
from .chain import AnalyzeConfig, ChainReport, CorpusInstance, analyze, default_corpus

__version__ = "0.1.0"

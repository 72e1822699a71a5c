"""zeta-kit: degenerate-degree profiles, independence bounds, certified greedy.

The library computes the per-vertex degenerate degree (coreness) profile,
exact-rational lower bounds on maximum k-independent set sizes, and greedy
algorithms whose output sizes are certified by those bounds.  Everything is
exact; no floats touch the math.
"""
from .bounds import (ComponentLambda, GroupedBound, Inapplicable,
                     baseline_bounds, caro_wei, component_lambdas,
                     forest_z_closed_form, full_bound_report,
                     independent_cheap_set, select_dense_subset,
                     strong_bound_component, strong_bound_grouped,
                     turan_zeta, z_bound)
from .cheap_sets import (CheapSet, CheapSetSearchError, VerifyResult,
                         cheap_weight, find_1_cheap, find_2_cheap,
                         find_k_cheap_forest, verify_k_cheap)
from .degeneracy import (LayerDecomposition, Residual, ZetaProfile,
                         cheap_vertices, is_zeta_regular, layer_decomposition,
                         zeta_oracle, zeta_profile)
from .graph import (Graph, GraphInputError, build_graph, closed_neighborhood,
                    connected_components, is_forest, remove_vertices,
                    smallest_last_order)
from .greedy import (GreedyRun, TraceStep, cheap_greedy, forest_k_greedy,
                     min_greedy, one_cheap_greedy, two_cheap_greedy)
from .oracle import (GeneratorSpec, alpha_k_subset_enumeration,
                     enumerate_small_graphs, exact_alpha_k, generate,
                     is_in_family_F, layered_example_graph, example_layers)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphInputError", "build_graph", "closed_neighborhood",
    "connected_components", "is_forest", "remove_vertices",
    "smallest_last_order",
    "ZetaProfile", "LayerDecomposition", "Residual", "zeta_profile", "zeta_oracle",
    "is_zeta_regular", "cheap_vertices", "layer_decomposition",
    "Inapplicable", "ComponentLambda", "GroupedBound", "z_bound", "caro_wei",
    "turan_zeta", "baseline_bounds", "component_lambdas",
    "strong_bound_component", "strong_bound_grouped", "select_dense_subset",
    "independent_cheap_set", "forest_z_closed_form", "full_bound_report",
    "CheapSet", "CheapSetSearchError", "VerifyResult", "cheap_weight",
    "verify_k_cheap", "find_1_cheap", "find_2_cheap", "find_k_cheap_forest",
    "GreedyRun", "TraceStep", "min_greedy", "cheap_greedy", "one_cheap_greedy",
    "two_cheap_greedy", "forest_k_greedy",
    "GeneratorSpec", "generate", "exact_alpha_k", "alpha_k_subset_enumeration",
    "is_in_family_F", "enumerate_small_graphs", "layered_example_graph",
    "example_layers",
    "__version__",
]

"""gemkit: edge-colored graphs encoding PL manifolds with boundary.

Gems are properly edge-colored multigraphs whose residues count the
simplices of an associated cell complex.  The package computes their
genus and degree invariants, rewrites them by dipole moves and boundary
capping, extracts fundamental-group presentations, and mechanically
verifies the transfer identities and lower bounds tying all of these
together in dimension four.
"""

from .boundary import (
    BoundaryGraph,
    boundary_component_count,
    boundary_g,
    boundary_graph,
)
from .checks import (
    check_bound_on_gem,
    check_dehn_sommerville,
    check_omega_pairing,
    check_regularization_identities,
    check_semisimple,
    gem_complexity_relation,
    lower_bound_thm,
    partner_permutation,
)
from .core import (
    ColoredGraph,
    ResidueDecomposition,
    VertexClassification,
    ball_gem,
    classify_vertices,
    count_g,
    is_contracted,
    is_crystallization,
    order_two_gem,
    random_boundary_gem,
    random_gem,
    residues,
    validate,
)
from .invariants import (
    CyclicPermutation,
    InvariantReport,
    enumerate_cyclic_permutations,
    euler_characteristic,
    f_vector,
    gurau_degree,
    invariant_report,
    regular_genus,
    rho_table,
)
from .moves import (
    DipoleSite,
    RegularizationRecord,
    cancel_1_dipole,
    cap_boundary,
    find_1_dipoles,
    full_contraction,
    insert_1_dipole,
    regularize,
    swap_colors,
)
from .pi1 import (
    GroupPresentation,
    abelianization_rank,
    presentation,
    rank_bounds,
    tietze_simplify,
)

__version__ = "0.1.0"

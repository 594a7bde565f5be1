"""Exact combinatorics of the pinwheel stratum / coset / face correspondence.

Three families of objects over a pair (r, n), all indexed by decorated
nested chains of subsets of {1,..,n}:

* pinwheel dual graphs of boundary strata,
* right cosets of standard-generator subgroups in the group S(r, n) of
  generalized permutation matrices,
* faces of the n-dimensional r-permutohedral complex.

The library builds each family, translates between them, applies the group
action, and cross-verifies that the translations preserve dimension,
inclusion, product decompositions and the action, all in exact arithmetic.
"""

from .chains import (
    Chain,
    act_on_chain,
    chain_dimension,
    enumerate_chains,
    make_chain,
    maximal_refinements,
    refines,
)
from .cosets import (
    TCosetHandle,
    act_on_coset,
    block_product_elements,
    chain_to_coset,
    coset_block_decomposition,
    coset_elements,
    coset_subset,
    coset_to_chain,
)
from .cyclo import CycloNum, YPoint, cyclotomic_polynomial, delta, hyperplane_eval, on_hyperplane
from .faces import (
    DecoratedSubset,
    DeltaFace,
    act_on_face,
    chain_to_face_vertices,
    enumerate_vertices,
    face_dimension_bruteforce,
    face_membership,
    face_membership_product_form,
    face_nonempty_oracle,
    face_product_decomposition,
    hasse_dot,
    hyperplanes_to_chain,
    point_in_complex,
    shifted_permutohedron_contains,
    vertex_of_maximal_chain,
)
from .group import (
    GenPerm,
    act_on_tuple,
    enumerate_group,
    generate_subgroup,
    generator,
    group_order,
    identity,
    inverse,
    multiply,
)
from .strata import (
    PinwheelStratum,
    act_on_zero_dim_stratum,
    base_stratum,
    chain_to_stratum,
    contract_spoke_edges,
    dual_graph_dot,
    stratum_includes,
    stratum_product_factors,
    stratum_to_chain,
)
from .verify import (
    CapExceeded,
    Report,
    VerifyConfig,
    verify_all,
    verify_equivariance,
    verify_nonemptiness,
    verify_products,
    verify_threeway,
)

__version__ = "0.1.0"

"""Set-direct factorizations of finite groups: G = X x Y by normal subsets.

The package verifies, constructs, and exhaustively enumerates such
factorizations, cross-checking the structural characterization (central
products plus slice factorizations of the glued subgroup) against a
definition-only brute-force search on desk-scale groups.
"""

__version__ = "0.1.0"

from .catalog import catalog_group, catalog_names, cyclic_product, load_group
from .central import (
    CentralDecomposition,
    ClassCountReport,
    ZActionData,
    ZOrbit,
    class_count_report,
    class_stabilizer,
    enumerate_central_decompositions,
    is_central_product,
    semi_regular_elements,
    z_bracket,
    z_orbits,
)
from .factor import (
    DirectnessReport,
    FactorizationSystem,
    MainTheoremReport,
    SystemReport,
    TransversalResult,
    certify,
    check_factorization_system,
    construct_from_system,
    cyclic_center_factorization,
    derive_system,
    induced_decompositions,
    is_direct,
    kernel,
    normalize,
    prime_power_factorization,
    system_for_decomposition,
    transversal_factorization,
    verify_main_theorem,
)
from .groups import (
    ClassPartition,
    GroupTable,
    SetDirectFactorization,
    Subset,
    SubgroupView,
    center,
    commutator_set,
    central_product_embedding,
    conjugacy_classes,
    generated_subgroup,
    group_from_permutations,
    group_from_table,
    is_normal_subset,
    quotient_group,
    set_product,
    subgroup_view,
)
from .oracle import (
    EnumerationResult,
    SuiteReport,
    enumerate_setdirect,
    find_normal_transversal,
    property_suite,
)

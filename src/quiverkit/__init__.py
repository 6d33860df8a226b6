"""quiverkit: exact computations with bound quiver algebras.

The package builds finite-dimensional algebras from quiver presentations,
computes in their module categories (Hom, Ext, Auslander-Reiten
translation, AR-quiver fragments), checks slice/local-slice/section
axioms, and carries out one-point extensions, coextensions and relation
extensions, with an executable corpus of worked examples.
"""

from quiverkit.linalg import (
    Matrix,
    PrimeField,
    RationalField,
    field_from_name,
    kernel_basis,
    rref,
    solve,
)
from quiverkit.quiver import (
    Arrow,
    ParseError,
    Path,
    Presentation,
    Quiver,
    RelationElement,
    find_acyclic_in_mutation_class,
    is_acyclic,
    mutate,
    parse_presentation,
    quiver_isomorphism,
    serialize_presentation,
    to_dot,
)
from quiverkit.algebra import (
    BasedAlgebra,
    BuildError,
    Ideal,
    build_algebra,
    cartan_matrix,
    gabriel_quiver,
    opposite_algebra,
    quotient_by_vertex,
)
from quiverkit.repmod import (
    Module,
    ModuleMap,
    decompose,
    direct_sum,
    dual_module,
    hom_basis,
    injective,
    is_isomorphic,
    min_proj_presentation,
    module_from_json,
    module_to_json,
    projective,
    projective_cover,
    radical_of,
    simple,
    socle_of,
    top_of,
)
from quiverkit.homology import (
    ExtGroup,
    ext_dim,
    ext_group,
    global_dim,
    inj_dim,
    proj_dim,
    tau,
    tau_inv,
    transpose,
)
from quiverkit.extensions import (
    Bimodule,
    CommutationReport,
    ext2_bimodule,
    lift_projective,
    one_point_coextension,
    one_point_extension,
    relation_extension,
    verify_extension_commutes,
)
from quiverkit.arquiver import (
    ARFragment,
    ExtensionReport,
    SliceVerdict,
    check_left_section,
    check_local_slice,
    check_slice,
    extend_cluster_tilted,
    find_local_slices_through,
    knit,
    tilted_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "PrimeField", "RationalField", "field_from_name",
    "kernel_basis", "rref", "solve",
    "Arrow", "ParseError", "Path", "Presentation", "Quiver",
    "RelationElement", "find_acyclic_in_mutation_class", "is_acyclic",
    "mutate", "parse_presentation", "quiver_isomorphism",
    "serialize_presentation", "to_dot",
    "BasedAlgebra", "BuildError", "Ideal", "build_algebra",
    "cartan_matrix", "gabriel_quiver", "opposite_algebra",
    "quotient_by_vertex",
    "Module", "ModuleMap", "decompose", "direct_sum", "dual_module",
    "hom_basis", "injective", "is_isomorphic", "min_proj_presentation",
    "module_from_json", "module_to_json", "projective",
    "projective_cover", "radical_of", "simple", "socle_of", "top_of",
    "ExtGroup", "ext_dim", "ext_group", "global_dim", "inj_dim", "proj_dim",
    "tau", "tau_inv", "transpose",
    "Bimodule", "CommutationReport", "ext2_bimodule", "lift_projective",
    "one_point_coextension", "one_point_extension", "relation_extension",
    "verify_extension_commutes",
    "ARFragment", "ExtensionReport", "SliceVerdict", "check_left_section",
    "check_local_slice", "check_slice", "extend_cluster_tilted",
    "find_local_slices_through", "knit", "tilted_quotient",
]

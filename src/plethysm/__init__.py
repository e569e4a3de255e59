"""Exact partition-algebra engine for stable plethysm coefficients.

The package computes the stable values of rectangle plethysm coefficients by
the no-singleton-orbit character sum, read off one power-sum plethysm
kernel, and realises the diagrammatic module whose decomposition produces
that formula.  Brute-force fixed-point counting on set-partitions and the
explicit diagram action on small tensor powers check it in ``verify``.
"""

from .characters import (
    cayley_sylvester,
    character_value,
    generalized_plethysm,
    homogeneous_plethysm,
    pad_partition,
    parse_partition,
    partitions,
    partitions_no_ones,
    stab_permutation_character,
)
from .coefficients import (
    foulkes_equalities,
    plethysm_coefficient,
    sharpness_check,
    stable_plethysm,
    stable_table,
    weintraub_check,
)
from .diagrams import (
    AlgebraElement,
    PartitionDiagram,
    TwoParamScalar,
    act_on_set_partition,
    generator,
    identity_diagram,
    multiply_diagrams,
    p12_diagram,
    p_diagram,
    swap_diagram,
)
from .foulkes import (
    ActionMatrix,
    act,
    action_matrix,
    depth_quotient_basis,
    depth_radical_basis,
    in_depth_radical,
    layer_matrix,
    module_multiplicities,
    orbit_decomposition,
)
from .setpartitions import (
    FoulkesPair,
    SetPartition,
    bell_number,
    foulkes_pairs,
    set_partitions,
)
from .tensor import (
    block_constant_support,
    block_constant_vector,
    diagram_tensor_matrix,
    foulkes_image_rank,
    tensor_action_consistent,
    value_type,
    wreath_embed,
)

__version__ = "0.1.0"

__all__ = [
    "ActionMatrix",
    "AlgebraElement",
    "FoulkesPair",
    "PartitionDiagram",
    "SetPartition",
    "TwoParamScalar",
    "act",
    "act_on_set_partition",
    "action_matrix",
    "bell_number",
    "block_constant_support",
    "block_constant_vector",
    "cayley_sylvester",
    "character_value",
    "depth_quotient_basis",
    "depth_radical_basis",
    "diagram_tensor_matrix",
    "foulkes_equalities",
    "foulkes_image_rank",
    "foulkes_pairs",
    "generalized_plethysm",
    "generator",
    "homogeneous_plethysm",
    "identity_diagram",
    "in_depth_radical",
    "layer_matrix",
    "module_multiplicities",
    "multiply_diagrams",
    "orbit_decomposition",
    "p12_diagram",
    "p_diagram",
    "pad_partition",
    "parse_partition",
    "partitions",
    "partitions_no_ones",
    "plethysm_coefficient",
    "set_partitions",
    "sharpness_check",
    "stab_permutation_character",
    "stable_plethysm",
    "stable_table",
    "swap_diagram",
    "tensor_action_consistent",
    "value_type",
    "weintraub_check",
    "wreath_embed",
]

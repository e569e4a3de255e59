"""Exact partition-algebra engine for stable plethysm coefficients.

The package computes the stable values of rectangle plethysm coefficients by
the no-singleton-orbit character sum, read off one power-sum plethysm
kernel, and realises the diagrammatic module whose decomposition produces
that formula.  Brute-force fixed-point counting on set-partitions and the
explicit diagram action on small tensor powers check it in ``verify``.

Submodules and the names re-exported here load on first access (PEP 562),
so a command imports only what it runs: the stable queries never load the
set-partition, diagram, module, tensor or verification code.
"""

import importlib

# where each re-exported name is defined
_ORIGINS = {
    "characters": (
        "cayley_sylvester",
        "character_value",
        "generalized_plethysm",
        "homogeneous_plethysm",
        "pad_partition",
        "parse_partition",
        "partitions",
        "partitions_no_ones",
        "stab_permutation_character",
    ),
    "coefficients": (
        "plethysm_coefficient",
        "sharpness_check",
        "stable_plethysm",
        "stable_table",
        "weintraub_check",
    ),
    "diagrams": (
        "PartitionDiagram",
        "TwoParamScalar",
        "act_on_set_partition",
        "generator",
        "identity_diagram",
        "multiply_diagrams",
        "p12_diagram",
        "p_diagram",
        "swap_diagram",
    ),
    "foulkes": (
        "ActionMatrix",
        "act",
        "action_matrix",
        "depth_quotient_basis",
        "depth_radical_basis",
        "in_depth_radical",
        "layer_matrix",
        "module_multiplicities",
        "orbit_decomposition",
    ),
    "setpartitions": (
        "FoulkesPair",
        "SetPartition",
        "bell_number",
        "foulkes_pairs",
        "set_partitions",
    ),
    "tensor": (
        "block_constant_support",
        "block_constant_vector",
        "diagram_tensor_matrix",
        "foulkes_image_rank",
        "tensor_action_consistent",
        "value_type",
        "wreath_embed",
    ),
}
_MODULE_OF = {name: module for module, names in _ORIGINS.items() for name in names}
_SUBMODULES = frozenset(_ORIGINS) | {"cli", "errors", "verify"}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

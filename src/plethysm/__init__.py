"""Exact partition-algebra engine for stable plethysm coefficients.

The package computes the stable values of rectangle plethysm coefficients by
the no-singleton-orbit character sum, read off one power-sum plethysm
kernel, and realises the diagrammatic module whose decomposition produces
that formula.  Brute-force fixed-point counting on the set-partitions of
each shape, permutation diagrams acting on the depth quotient's own
basis, and the explicit diagram action on small tensor powers check it in
``verify``.

Submodules and the names re-exported here load on first access (PEP 562),
so a command imports only what it runs: the stable queries never load the
set-partition, diagram, module, tensor or verification code.
"""

import importlib

# where each re-exported name is defined: the computing entry points only
_ORIGINS = {
    "characters": ("character_value", "generalized_plethysm", "homogeneous_plethysm"),
    "coefficients": ("plethysm_coefficient", "stable_plethysm", "stable_table"),
    "diagrams": ("multiply_diagrams",),
    "foulkes": ("action_matrix", "orbit_decomposition"),
    "setpartitions": ("foulkes_pairs",),
    "tensor": ("foulkes_image_rank",),
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

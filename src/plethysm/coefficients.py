"""Stable plethysm coefficients and the classical consequences built on them.

The stable value attached to a partition lam is the sum of generalized
plethysm coefficients over all partitions of |lam| with no part 1, that is,
the multiplicity of lam in the permutation character on singleton-free
set-partitions; it equals the honest coefficient p_{(m^n), lam_[mn]}
whenever both m and n are at least |lam|.  Outside that regime the symmetric-function oracle takes over, and
queries beyond both regimes fail loudly.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import (
    Partition,
    cap,
    check_cap,
    check_factors,
    check_int,
    check_partition,
    dimension,
    homogeneous_plethysm,
    multiplicities,
    pad_partition,
    partitions,
    singleton_free_character,
    singleton_free_count,
)
from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    UnsupportedRegimeError,
)

STABLE_REGIME = "stable"
ORACLE_REGIME = "oracle"


def stable_plethysm(lam: Partition) -> int:
    """The common value of p_{(m^n), lam_[mn]} for all m, n >= |lam|."""
    lam = check_partition(lam)
    check_cap("|lam|", sum(lam), "PLETHYSM_MAX_R")
    check_cap("|lam|", sum(lam), "CHARACTER_CAP")  # before its character is built
    return multiplicities(singleton_free_character(sum(lam)), (lam,))[0]


def coefficient_regime(m: int, n: int, lam: Partition) -> str:
    """Which computation covers p_{(m^n), lam_[mn]}; raises when neither does."""
    m, n = check_factors(m, n)
    lam = check_partition(lam)
    size = sum(lam)
    try:
        pad_partition(lam, m * n)
    except MalformedPartitionError:
        # lam_[mn] is not a partition, so the coefficient is not even indexed
        raise UnsupportedRegimeError(
            f"m={m}, n={n}, lam={lam}: padded label is not a partition of {m * n}"
        ) from None
    if m >= size and n >= size:
        return STABLE_REGIME
    oracle_cap = cap("ORACLE_CAP")
    if m * n <= oracle_cap:
        return ORACLE_REGIME
    raise UnsupportedRegimeError(
        f"m={m}, n={n}, lam={lam}: need m,n >= {size} or mn <= ORACLE_CAP = {oracle_cap}"
    )


def plethysm_coefficient(m: int, n: int, lam: Partition) -> int:
    """p_{(m^n), lam_[mn]} by the stable formula or the oracle, whichever applies."""
    if coefficient_regime(m, n, lam) == STABLE_REGIME:
        return stable_plethysm(lam)
    return homogeneous_plethysm(m, n, pad_partition(check_partition(lam), m * n))


class StableTable(NamedTuple):
    """Stable coefficients for every partition of r, in reverse-lex order."""

    r: int
    rows: tuple[tuple[Partition, int], ...]


def stable_table(r: int) -> StableTable:
    r = check_int(r, "r")
    if r < 0:
        raise MalformedPartitionError(f"r={r} is negative")
    check_cap("r", r, "PLETHYSM_MAX_R")
    check_cap("|lam|", r, "CHARACTER_CAP")  # before its character is built
    labels = tuple(partitions(r))
    rows = tuple(zip(labels, multiplicities(singleton_free_character(r), labels)))
    weighted = sum(v * dimension(lam) for lam, v in rows)
    if weighted != singleton_free_count(r):  # pragma: no cover - structural guarantee
        raise InternalConsistencyError(f"dimension check failed at r={r}: {weighted}")
    return StableTable(r, rows)

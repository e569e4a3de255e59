"""Stable plethysm coefficients and the classical consequences built on them.

The stable value attached to a partition lam is the sum of generalized
plethysm coefficients over all partitions of |lam| with no part 1; it equals
the honest coefficient p_{(m^n), lam_[mn]} whenever both m and n are at least
|lam|.  Outside that regime the symmetric-function oracle takes over, and
queries beyond both regimes fail loudly.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import (
    ORACLE_CAP,
    Partition,
    cayley_sylvester,
    check_partition,
    dimension,
    generalized_plethysm,
    homogeneous_plethysm,
    max_ground_size,
    pad_partition,
    partitions,
    partitions_no_ones,
    singleton_free_count,
)
from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    ResourceCapError,
    UnsupportedRegimeError,
)

STABLE_REGIME = "stable"
ORACLE_REGIME = "oracle"


def stable_plethysm(lam: Partition) -> int:
    """The common value of p_{(m^n), lam_[mn]} for all m, n >= |lam|."""
    lam = check_partition(lam)
    limit = max_ground_size()
    if sum(lam) > limit:
        raise ResourceCapError(f"|lam|={sum(lam)} exceeds stable cap {limit} (PLETHYSM_MAX_R)")
    return sum(generalized_plethysm(mu, lam) for mu in partitions_no_ones(sum(lam)))


def coefficient_regime(m: int, n: int, lam: Partition) -> str:
    """Which computation covers p_{(m^n), lam_[mn]}; raises when neither does."""
    if m < 1 or n < 1:
        raise MalformedPartitionError(f"m={m}, n={n}: both must be positive")
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
    if m * n <= ORACLE_CAP:
        return ORACLE_REGIME
    raise UnsupportedRegimeError(
        f"m={m}, n={n}, lam={lam}: need m,n >= {size} or mn <= ORACLE_CAP = {ORACLE_CAP}"
    )


def plethysm_coefficient(m: int, n: int, lam: Partition) -> int:
    """p_{(m^n), lam_[mn]} by the stable formula or the oracle, whichever applies."""
    regime = coefficient_regime(m, n, lam)
    lam = check_partition(lam)
    if regime == STABLE_REGIME:
        return stable_plethysm(lam)
    return homogeneous_plethysm(m, n, pad_partition(lam, m * n))


class StableTable(NamedTuple):
    """Stable coefficients for every partition of r, in reverse-lex order."""

    r: int
    rows: tuple[tuple[Partition, int], ...]

    def nonzero(self) -> tuple[tuple[Partition, int], ...]:
        return tuple((k, v) for k, v in self.rows if v)


def stable_table(r: int) -> StableTable:
    if r < 0:
        raise MalformedPartitionError(f"r={r} is negative")
    limit = max_ground_size()
    if r > limit:
        raise ResourceCapError(f"r={r} exceeds stable cap {limit} (PLETHYSM_MAX_R)")
    rows = tuple((lam, stable_plethysm(lam)) for lam in partitions(r))
    table = StableTable(r, rows)
    weighted = sum(v * dimension(lam) for lam, v in rows)
    if weighted != singleton_free_count(r):
        raise InternalConsistencyError(
            f"dimension check failed at r={r}: {weighted}"
        )  # pragma: no cover - structural guarantee
    return table


def foulkes_equalities(lam: Partition, m: int, n: int, p: int, q: int) -> dict:
    """Confirm the two-sided and cross-shape equalities at a stable partition.

    All four rectangle shapes (m^n), (n^m), (p^q), (q^p) must give the same
    coefficient, namely the stable value.
    """
    lam = check_partition(lam)
    size = sum(lam)
    if min(m, n, p, q) < size:
        raise UnsupportedRegimeError(
            f"all of m,n,p,q must be at least |lam|={size}"
        )
    stable = stable_plethysm(lam)
    values = {
        f"({a}^{b})": plethysm_coefficient(a, b, lam)
        for a, b in ((m, n), (n, m), (p, q), (q, p))
    }
    return {
        "lambda": lam,
        "coefficients": values,
        "stable_value": stable,
        "all_equal": all(v == stable for v in values.values()),
    }


def weintraub_check(lam: Partition) -> bool:
    """Positivity for even partitions; always true, failure would be a bug."""
    lam = check_partition(lam)
    if any(part % 2 for part in lam):
        raise MalformedPartitionError(f"{lam} has an odd part")
    return stable_plethysm(lam) > 0


def sharpness_check(r: int) -> dict:
    """The one-row value hits the no-ones count, and drops by one just below
    the stable range."""
    if r < 3:
        raise MalformedPartitionError("sharpness statement needs r >= 3")
    no_ones = len(partitions_no_ones(r))
    stable = stable_plethysm((r,))
    below = cayley_sylvester(r, r - 1, r)
    return {
        "r": r,
        "stable_one_row": stable,
        "no_ones_count": no_ones,
        "below_range": below,
        "sharp": stable == no_ones and below == no_ones - 1,
    }

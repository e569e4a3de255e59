"""Symmetric-group characters and the power-sum kernel behind every multiplicity.

Integer partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ``()``.  Irreducible characters come from the border-strip
recursion on beta-sets.  The permutation module on set-partitions of shape mu
has Frobenius characteristic prod over distinct parts a of h_b[h_a], b the
multiplicity of a; one cached exact expansion of it in power sums gives the
permutation character, the generalized plethysm multiplicities and the
rectangle plethysm h_n[h_m].  The enumeration cap and the singleton-free
count (A000296) live here too, so the stable queries need no set-partition
code; ``setpartitions`` imports them from this module.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    ResourceCapError,
    SizeMismatchError,
)

if TYPE_CHECKING:
    from .setpartitions import SetPartition

Partition = tuple[int, ...]

ORACLE_CAP = 16
DEFAULT_MAX_GROUND_SIZE = 12


def max_ground_size() -> int:
    """Enumeration cap on r; override via the PLETHYSM_MAX_R environment variable."""
    raw = os.environ.get("PLETHYSM_MAX_R")
    if raw is None:
        return DEFAULT_MAX_GROUND_SIZE
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise MalformedPartitionError(f"PLETHYSM_MAX_R={raw!r} is not a nonnegative integer")
    return value


@lru_cache(maxsize=None)
def singleton_free_count(n: int) -> int:
    """Set-partitions of {1..n} with no singleton block (OEIS A000296)."""
    if n == 0:
        return 1
    # the block holding n has j >= 1 further elements
    return sum(comb(n - 1, j) * singleton_free_count(n - 1 - j) for j in range(1, n))


def check_partition(parts: Sequence[int]) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p < 1 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise MalformedPartitionError(f"not a partition: {parts}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; '-' or '' denotes the empty partition."""
    cleaned = text.strip()
    if cleaned in ("", "-"):
        return ()
    try:
        parts = tuple(int(t) for t in cleaned.split(","))
    except ValueError as exc:
        raise MalformedPartitionError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n in descending lexicographic order, (n) first."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    bound = n if max_part is None else min(max_part, n)
    for first in range(bound, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_no_ones(n: int) -> tuple[Partition, ...]:
    """Partitions of n with every part at least 2 (the empty one for n=0)."""
    if n < 0:
        return ()
    return tuple(lam for lam in partitions(n) if not lam or lam[-1] >= 2)


def pad_partition(lam: Partition, total: int) -> Partition:
    """Prepend a first row so the result is a partition of ``total``."""
    head = total - sum(lam)
    if lam and head < lam[0]:
        raise MalformedPartitionError(
            f"{total}-{sum(lam)}={head} is smaller than the first part {lam[0]}"
        )
    if head < 0:
        raise MalformedPartitionError(f"partition {lam} too large for total {total}")
    if head == 0:
        return lam
    return (head,) + lam


def cycle_type_centralizer(rho: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    out = 1
    for k, grp in itertools.groupby(rho):
        mult = len(list(grp))
        out *= k**mult * factorial(mult)
    return out


def class_size(rho: Partition) -> int:
    return factorial(sum(rho)) // cycle_type_centralizer(rho)


def cycle_representative(rho: Partition) -> tuple[int, ...]:
    """One-line images (1-based) of the permutation (1..rho1)(rho1+1..rho1+rho2)..."""
    starts = itertools.accumulate((0,) + rho)
    return tuple(s + (i + 1) % k + 1 for s, k in zip(starts, rho) for i in range(k))


@lru_cache(maxsize=None)
def character_value(lam: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group by border-strip removal."""
    if sum(lam) != sum(rho):
        raise SizeMismatchError(f"|{lam}| != |{rho}|")
    if not lam:
        return 1
    k, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(c - (ell - 1 - i) for i, c in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** crossings * character_value(new_lam, rest)
    return total


def dimension(lam: Partition) -> int:
    """Hook-length count of standard tableaux."""
    if not lam:
        return 1
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    out = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            out //= row - j + cols[j] - i - 1
    return out


def set_partitions_of_shape(mu: Partition) -> list[SetPartition]:
    """All set-partitions of {1..|mu|} whose block sizes are exactly mu."""
    from .setpartitions import SetPartition  # kept off the import path of the stable queries

    r = sum(mu)
    results: list[SetPartition] = []

    def rec(remaining: tuple[int, ...], sizes: tuple[int, ...], acc: list[tuple[int, ...]]):
        if not remaining:
            results.append(SetPartition.from_blocks(acc, r))
            return
        first, rest = remaining[0], remaining[1:]
        for size in sorted(set(sizes), reverse=True):
            left = list(sizes)
            left.remove(size)
            for companions in itertools.combinations(rest, size - 1):
                taken = set(companions)
                acc.append((first,) + companions)
                rec(tuple(x for x in rest if x not in taken), tuple(left), acc)
                acc.pop()

    rec(tuple(range(1, r + 1)), mu, [])
    return results


Expansion = dict[Partition, Fraction]


def _multiply(f: Expansion, g: Expansion) -> Expansion:
    """Product of two power-sum expansions; p_rho * p_sigma is p of the merged parts."""
    out: Expansion = defaultdict(Fraction)
    for rho, a in f.items():
        for sigma, b in g.items():
            out[tuple(sorted(rho + sigma, reverse=True))] += a * b
    return out


@lru_cache(maxsize=None)
def _h_plethysm_h(b: int, a: int) -> Expansion:
    """h_b[h_a] in power sums, from Newton's identity b h_b = sum_k p_k h_{b-k}.

    Plethysm by h_a is a ring map with p_k[h_a] = sum_rho p_{k rho} / z_rho,
    since p_k[p_l] = p_{kl}.
    """
    if b == 0:
        return {(): Fraction(1)}
    out: Expansion = defaultdict(Fraction)
    for k in range(1, b + 1):
        p_k_of_h_a = {
            tuple(k * part for part in rho): Fraction(1, b * cycle_type_centralizer(rho))
            for rho in partitions(a)
        }
        for gamma, c in _multiply(p_k_of_h_a, _h_plethysm_h(b - k, a)).items():
            out[gamma] += c
    return out


@lru_cache(maxsize=None)
def _shape_characteristic(mu: Partition) -> Expansion:
    """Frobenius characteristic of the shape-mu set-partition module.

    The module is induced from a product of wreath products, one per distinct
    part a of multiplicity b, so its characteristic is the product of h_b[h_a].
    """
    out: Expansion = {(): Fraction(1)}
    for a, group in itertools.groupby(mu):
        out = _multiply(out, _h_plethysm_h(len(list(group)), a))
    return out


def stab_permutation_character(mu: Partition, rho: Partition) -> int:
    """Fixed shape-mu set-partitions under a permutation of cycle type rho:
    z_rho times the coefficient of p_rho in the shape-mu characteristic."""
    mu, rho = check_partition(mu), check_partition(rho)
    if sum(mu) != sum(rho):
        raise SizeMismatchError(f"|{mu}| != |{rho}|")
    return int(_shape_characteristic(mu).get(rho, 0) * cycle_type_centralizer(rho))


def generalized_plethysm(mu: Partition, lam: Partition) -> int:
    """Multiplicity of the lam-irreducible in the shape-mu permutation module:
    the characteristic paired with s_lam, where <p_gamma, s_lam> = chi^lam(gamma)."""
    mu, lam = check_partition(mu), check_partition(lam)
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"|{mu}| != |{lam}|")
    value = sum(
        (c * character_value(lam, gamma) for gamma, c in _shape_characteristic(mu).items()),
        start=Fraction(0),
    )
    if value.denominator != 1 or value < 0:
        raise InternalConsistencyError(
            f"inner product for mu={mu}, lam={lam} is {value}, not a nonnegative integer"
        )
    return int(value)


def homogeneous_plethysm(m: int, n: int, alpha: Partition) -> int:
    """Coefficient of the alpha-Schur function in h_n composed with h_m.

    h_n[h_m] is the characteristic of the shape-(m^n) module, so this is the
    generalized plethysm multiplicity of that rectangle, up to the oracle cap.
    """
    if m < 1 or n < 1:
        raise MalformedPartitionError("m and n must be positive")
    if m * n > ORACLE_CAP:
        raise ResourceCapError(f"mn={m * n} exceeds oracle cap {ORACLE_CAP} (ORACLE_CAP)")
    alpha = check_partition(alpha)
    if sum(alpha) != m * n:
        raise SizeMismatchError(f"|alpha|={sum(alpha)} but mn={m * n}")
    return generalized_plethysm((m,) * n, alpha)


@lru_cache(maxsize=None)
def partitions_in_box_count(k: int, rows: int, cols: int) -> int:
    """Number of partitions of k fitting in a rows x cols rectangle."""
    if k == 0:
        return 1
    if k < 0 or rows <= 0 or cols <= 0:
        return 0
    # fewer than `rows` parts, or exactly `rows` parts with one column stripped
    return partitions_in_box_count(k, rows - 1, cols) + partitions_in_box_count(
        k - rows, rows, cols - 1
    )


def cayley_sylvester(m: int, n: int, r: int) -> int:
    """Two-row plethysm coefficient as a difference of box-partition counts."""
    if r > m * n:
        raise MalformedPartitionError(f"r={r} exceeds mn={m * n}")
    return partitions_in_box_count(r, m, n) - partitions_in_box_count(r - 1, m, n)

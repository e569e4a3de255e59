"""The diagrammatic Foulkes module: generator matrices, depth filtration, orbits.

The module is spanned by refining pairs of set-partitions.  A diagram acts on
a pair through two copies of the one-row concatenation action, one per
coordinate; the closed-component counts become exponents of d1 and d2.  So a
diagram sends each pair to exactly one pair times d1^t1 d2^t2, and its action
matrix is held as one image per column.  ``action_matrix`` stacks the diagram
once under each of the Bell(r) partitions of {1..r} and reads every pair's
image off those.  The filtration layers are blocks read from a built matrix
(``layer_matrix``), and verify's module checks and the tensor oracle follow
columns through the built matrices.  The depth quotient is built on its own
basis, without the pair basis (``depth_quotient_basis``); verify acts on it
with permutation diagrams through ``act_on_set_partition``, not through a
matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Mapping

from .characters import (
    Partition, check_cap, check_int, partitions_no_ones, shape_count, shown,
    singleton_free_count,
)
from .errors import InternalConsistencyError, MalformedPartitionError
from .diagrams import PartitionDiagram, act_on_set_partition, check_diagram
from .setpartitions import (
    FoulkesPair,
    SetPartition,
    check_ground_size,
    foulkes_pairs,
    pair_counts_by_depth,
    set_partitions,
)


@lru_cache(maxsize=None)
def monomial_text(t1: int, t2: int) -> str:
    """The text of the matrix entry d1^t1 d2^t2; one string per exponent pair,
    shared by every entry that prints it."""
    return f"1*d1^{t1}*d2^{t2}"


@dataclass(frozen=True)
class ActionMatrix:
    """Square matrix of monomials, held by column: column j is the image of
    basis pair j.

    A diagram sends a pair to one pair times d1^t1 d2^t2, so column j holds
    one entry, ``entries[j] = (row, t1, t2)``.  In a layer block a column
    whose image falls below the layer is zero, held as None.  Anything else
    is refused when the matrix is built: a basis of other than pairs, or
    entries other than a tuple of one None or int triple per pair, each row
    in the basis."""

    basis: tuple[FoulkesPair, ...]
    entries: tuple[tuple[int, int, int] | None, ...]

    def __post_init__(self):
        basis, entries = self.basis, self.entries
        if not (isinstance(basis, tuple) and all(map(isinstance, basis, repeat(FoulkesPair)))):
            raise MalformedPartitionError(f"not an action matrix: basis {shown(basis)}")
        size = len(basis)
        if not (isinstance(entries, tuple) and len(entries) == size):
            raise MalformedPartitionError(
                f"not an action matrix: entries {shown(entries)}, not a tuple of {size}"
            )
        for entry in entries:
            if entry is not None and not (
                isinstance(entry, tuple) and len(entry) == 3
                and all(map(isinstance, entry, repeat(int))) and 0 <= entry[0] < size
            ):
                raise MalformedPartitionError(f"not an action matrix: entry {shown(entry)}")

    @classmethod
    def _unchecked(cls, basis, entries) -> ActionMatrix:
        """A matrix of entries computed in this module, built without the
        check: checking every entry adds about 30 ms (7 %) to a cold
        ``module --r 7 --info matrices`` on a 2-CPU VM."""
        matrix = object.__new__(cls)
        vars(matrix).update(basis=basis, entries=entries)
        return matrix

    def coordinate_dump(self) -> list[tuple[int, int, str]]:
        """(row, col, text) per nonzero entry, in row-major order."""
        return sorted(
            (entry[0], j, monomial_text(*entry[1:]))
            for j, entry in enumerate(self.entries)
            if entry is not None
        )


def follow_word(matrices: Mapping[str, ActionMatrix], word: Iterable[str],
                column: int) -> tuple[int, int, int]:
    """The image (row, t1, t2) of basis pair ``column`` under the right action
    of a word: its letters act in order, each moving the column to the row of
    its image in that letter's matrix and adding the letter's exponents."""
    row, t1, t2 = column, 0, 0
    for name in word:
        row, s1, s2 = matrices[name].entries[row]
        t1, t2 = t1 + s1, t2 + s2
    return row, t1, t2


@lru_cache(maxsize=None)
def _basis_index(r: int) -> dict[FoulkesPair, int]:
    """Position of each basis pair; a plain (inner, outer) tuple finds its pair."""
    return {p: i for i, p in enumerate(foulkes_pairs(r))}


def action_matrix(d: PartitionDiagram, r: int) -> ActionMatrix:
    """Matrix of a single diagram on the full pair basis.

    The diagram is stacked once under each of the Bell(r) partitions of
    {1..r}, and each one-row image is replaced by the basis's own partition
    object with its labels, so a pair of images finds its basis pair by
    identity, looked up by its (inner, outer) tuple; the basis holds only
    refining pairs, so a hit needs no refinement check and a miss is a fault.
    """
    r = check_cap("r", check_ground_size(r), "MODULE_CAP")
    check_diagram(d)  # a diagram on other than r strands is refused by its first action
    basis = foulkes_pairs(r)
    index = _basis_index(r)
    # the depth-0 pairs (p, p) come first, one per partition: the basis's own objects
    partitions = {p.labels: p for p, _ in basis[: pair_counts_by_depth(r)[0]]}
    images = {}
    for sp in partitions.values():
        closed, image = act_on_set_partition(sp, d)
        images[sp] = closed, partitions.get(image.labels, image)
    entries = []
    for j, (inner, outer) in enumerate(basis):
        t1, inner_image = images[inner]
        t2, outer_image = images[outer]
        try:
            row = index[inner_image, outer_image]
        except KeyError:
            raise InternalConsistencyError(
                f"action of {d} on {basis[j]} left the pair basis"
            ) from None
        entries.append((row, t1, t2))
    return ActionMatrix._unchecked(basis, tuple(entries))


def layer_matrix(matrix: ActionMatrix, k: int) -> ActionMatrix:
    """The depth-k subquotient block of a built action matrix.

    The basis is sorted by depth, so layer k is one contiguous block of
    columns, placed by ``pair_counts_by_depth``.  A column whose image falls
    below depth k is zero (None), and the other images stay in the block and
    are shifted to its start.  Anything but a full rank-r matrix is refused:
    another object, a matrix of other than the rank's pair count, or a
    column held as None; the matrix's constructor has checked every entry.
    """
    if not isinstance(matrix, ActionMatrix):
        raise MalformedPartitionError(f"not an action matrix: {shown(matrix)}")
    r = matrix.basis[0].size if matrix.basis else 0
    counts = pair_counts_by_depth(r) if r else ()
    if not counts or len(matrix.entries) != sum(counts):
        raise MalformedPartitionError(
            f"not a full rank-{r} action matrix: {len(matrix.entries)} columns"
        )
    if None in matrix.entries:
        raise MalformedPartitionError(f"not a full rank-{r} action matrix: a zero column")
    k = check_int(k, "layer index")
    if not 0 <= k < r:
        raise MalformedPartitionError(f"layer index {k} out of range 0..{r - 1}")
    start = sum(counts[:k])
    stop = start + counts[k]
    entries = tuple(
        (row - start, t1, t2) if start <= row < stop else None
        for row, t1, t2 in matrix.entries[start:stop]
    )
    return ActionMatrix(matrix.basis[start:stop], entries)


def in_depth_radical(pair: FoulkesPair) -> bool:
    """Radical membership: a non-singleton inner block or a singleton outer block."""
    return pair.inner.block_count < pair.size or 1 in Counter(pair.outer.labels).values()


def depth_quotient_basis(r: int) -> tuple[FoulkesPair, ...]:
    """The pairs outside the radical, in basis order, built without the pair
    basis: only the all-singleton inner qualifies, so it is paired with each
    outer, and a stable sort by depth keeps the outers' lex order."""
    r = check_cap("r", check_ground_size(r), "PAIR_BASIS_CAP")
    inner = SetPartition.singletons(r)
    pairs = (FoulkesPair(inner, outer) for outer in set_partitions(r))
    return tuple(sorted((p for p in pairs if not in_depth_radical(p)), key=lambda p: p.depth))


def block_filling(mu: Partition) -> SetPartition:
    """The set-partition with consecutive blocks of sizes mu: {1..mu1 | ...}."""
    return SetPartition.from_keys(k for k, part in enumerate(mu) for _ in range(part))


@dataclass(frozen=True)
class DepthOrbit:
    """A symmetric-group orbit on the depth quotient basis."""

    shape: Partition
    representative: FoulkesPair
    size: int


def orbit_decomposition(r: int) -> tuple[DepthOrbit, ...]:
    """Depth-quotient basis split into orbits, one per no-ones partition of r.

    Orbit sizes are counted, not enumerated: the orbit of the shape-mu outer
    partition is every set-partition of shape mu (``shape_count``).  The
    partitions of r are walked, so r is held to the enumeration cap.
    """
    r = check_cap("r", check_ground_size(r), "PLETHYSM_MAX_R")
    orbits = []
    for mu in partitions_no_ones(r):
        rep = FoulkesPair(SetPartition.singletons(r), block_filling(mu))
        orbits.append(DepthOrbit(mu, rep, shape_count(mu)))
    if sum(o.size for o in orbits) != singleton_free_count(r):
        raise InternalConsistencyError("orbit sizes do not cover the quotient basis")
    return tuple(orbits)

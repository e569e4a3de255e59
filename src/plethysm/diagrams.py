"""The two-parameter partition algebra: diagrams, products, and the one-row action.

A diagram on r strands is a set-partition of the 2r points 1..r (northern)
and 1'..r' (southern); point k' is encoded as the integer r+k, following the
total order 1 < ... < r < 1' < ... < r'.  Multiplying two basis diagrams
stacks the first above the second; the product is (d1*d2)**closed times one
diagram, where ``closed`` counts the middle components that touch neither
outer row, so ``multiply_diagrams`` returns that count and the diagram.
The generators of a rank, p1, p12 and s_i, are one table, ``generators(r)``.

Stacking works on label strings: ``_stack`` reads two partitions' growth
strings and block counts.  The glued points identify blocks of the two strings,
and ``_glue``, a union-find over block labels (not points), merges them; it
reads only the upper string's glued labels and block count, the lower
string's glued labels and the number of lower nodes, and leaves every other
lower block its own root.  ``SetPartition.from_keys`` numbers the free
points' roots into the induced partition, and the closed components are the
block labels minus the unions minus its blocks, so no final scan is needed.
The product and the one-row action are both this one operation; verify's
exhaustive product table calls ``_glue`` once per upper diagram and lower
northern string, and reads each propagating count from the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .characters import check_cap, check_int, max_ground_size, shown
from .errors import MalformedPartitionError, SizeMismatchError
from .setpartitions import SetPartition, check_ground_size


@dataclass(frozen=True)
class PartitionDiagram:
    """A basis diagram of the partition algebra on ``size`` strands."""

    size: int
    partition: SetPartition

    def __post_init__(self):
        if not isinstance(self.size, int):
            raise MalformedPartitionError(f"strand count {shown(self.size)} is not an integer")
        if not isinstance(self.partition, SetPartition):
            raise MalformedPartitionError(f"not a set-partition: {shown(self.partition)}")
        if self.partition.size != 2 * self.size:
            raise MalformedPartitionError(
                f"diagram on {self.size} strands needs a partition of {2 * self.size} points"
            )

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], size: int) -> "PartitionDiagram":
        return cls(size, SetPartition.from_blocks(blocks, 2 * size))

    def _point(self, p: int) -> str:
        return str(p) if p <= self.size else f"{p - self.size}'"

    def __str__(self) -> str:
        return "{" + "|".join(
            ",".join(self._point(p) for p in b) for b in self.partition.blocks
        ) + "}"

    @cached_property
    def propagating_count(self) -> int:
        """Number of blocks meeting both the northern and the southern row."""
        labels = self.partition.labels
        return len(set(labels[: self.size]).intersection(labels[self.size :]))


def p_diagram(r: int, i: int = 1) -> PartitionDiagram:
    """Strand i cut into two singletons; every other strand passes through."""
    r, i = check_ground_size(r), check_int(i, "strand")
    if not 1 <= i <= r:
        raise MalformedPartitionError(f"strand {i} out of range 1..{r}")
    blocks = [[i], [r + i]]
    blocks += [[j, r + j] for j in range(1, r + 1) if j != i]
    return PartitionDiagram.from_blocks(blocks, r)


def p12_diagram(r: int) -> PartitionDiagram:
    """Strands 1 and 2 merged into a single four-point block."""
    r = check_ground_size(r)
    if r < 2:
        raise MalformedPartitionError("needs at least 2 strands")
    blocks = [[1, 2, r + 1, r + 2]]
    blocks += [[j, r + j] for j in range(3, r + 1)]
    return PartitionDiagram.from_blocks(blocks, r)


def swap_diagram(r: int, i: int) -> PartitionDiagram:
    """The transposition of strands i and i+1."""
    r, i = check_ground_size(r), check_int(i, "swap index")
    if not 1 <= i < r:
        raise MalformedPartitionError(f"swap index {i} out of range 1..{r - 1}")
    blocks = [[i, r + i + 1], [i + 1, r + i]]
    blocks += [[j, r + j] for j in range(1, r + 1) if j not in (i, i + 1)]
    return PartitionDiagram.from_blocks(blocks, r)


def generators(r: int) -> dict[str, PartitionDiagram]:
    """The rank-r generators by name, in the order ``p1``, ``p12``, ``s1`` ..
    ``s{r-1}``; r is held to ``PLETHYSM_MAX_R``."""
    r = check_cap("r", check_ground_size(r), max_ground_size(), "PLETHYSM_MAX_R")
    table = {"p1": p_diagram(r, 1)}
    if r >= 2:
        table["p12"] = p12_diagram(r)
    table.update((f"s{i}", swap_diagram(r, i)) for i in range(1, r))
    return table


def _glue(
    middle: tuple[int, ...], upper_blocks: int, top: tuple[int, ...], lower_blocks: int
) -> tuple[list[int], int]:
    """Union-find of an upper string's block labels ``middle`` at its glued
    points with a lower growth string's first labels ``top``.

    Nodes are upper's blocks 0..upper_blocks-1, then lower's block b as node
    upper_blocks + b for b < lower_blocks, which must cover every label in
    ``top``; a lower block that does not appear in ``top`` is glued to nothing
    and is its own root.  Returns (the root of every node, the number of
    unions).  A root is the smallest node of its component, so an upper
    block's root is an upper block.
    """
    shift = upper_blocks  # lower's block b is node shift + b
    nodes = shift + lower_blocks
    parent = list(range(nodes))
    unions = 0
    for a, b in zip(middle, top):
        while parent[a] != a:
            a = parent[a]
        b += shift
        while parent[b] != b:
            b = parent[b]
        if a != b:
            # the larger root goes under the smaller, so parent[x] <= x throughout
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            unions += 1
    for x in range(nodes):  # ascending, so parent[parent[x]] is already a root
        parent[x] = parent[parent[x]]
    return parent, unions


def _stack(upper: SetPartition, lower: SetPartition, glued: int) -> tuple[int, SetPartition]:
    """Glue the last ``glued`` points of ``upper`` to the first ``glued`` of ``lower``.

    Returns (components touching no free point, partition induced on the free
    points: upper's unglued points, then lower's).
    """
    top, bottom, shift = upper.labels, lower.labels, upper.block_count
    cut = len(top) - glued
    parent, unions = _glue(top[cut:], shift, bottom[:glued], lower.block_count)
    roots = list(map(parent.__getitem__, top[:cut]))
    roots += map(parent[shift:].__getitem__, bottom[glued:])
    induced = SetPartition.from_keys(roots)
    # each union merges two components; those left touch a free point or are closed
    return len(parent) - unions - induced.block_count, induced


def check_diagram(d) -> PartitionDiagram:
    """A diagram argument given from outside; anything else is refused."""
    if not isinstance(d, PartitionDiagram):
        raise MalformedPartitionError(f"not a partition diagram: {shown(d)}")
    return d


def multiply_diagrams(x: PartitionDiagram, y: PartitionDiagram) -> tuple[int, PartitionDiagram]:
    """Stack x above y; return (closed middle components, resulting diagram)."""
    if check_diagram(x).size != check_diagram(y).size:
        raise SizeMismatchError(f"strand counts differ: {x.size} vs {y.size}")
    closed, induced = _stack(x.partition, y.partition, x.size)
    return closed, PartitionDiagram(x.size, induced)


def act_on_set_partition(sp: SetPartition, d: PartitionDiagram) -> tuple[int, SetPartition]:
    """Stack a one-row partition on top of a diagram.

    Returns (closed components avoiding the southern row, induced southern
    partition); the module value is delta**closed times that partition.
    """
    if not isinstance(sp, SetPartition):
        raise MalformedPartitionError(f"not a set-partition: {shown(sp)}")
    if sp.size != check_diagram(d).size:
        raise SizeMismatchError(f"sizes differ: {sp.size} vs {d.size}")
    return _stack(sp, d.partition, sp.size)

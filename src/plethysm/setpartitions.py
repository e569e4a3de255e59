"""Canonical set-partitions of {1..r} and the fixed-depth pair poset.

A set-partition is stored as a restricted growth string: ``labels[k]`` is the
block index of element ``k+1``, blocks numbered in order of first appearance.
That numbering coincides with ordering blocks by increasing minima, so the
string is a canonical form and hashing/equality are O(r).  ``_growth_strings``
enumerates them, extending each shorter string by every label up to one past
its largest.  ``SetPartition.from_keys`` is the one relabelling of a partition
computed from others (a stacked image, an embedded diagram, a block filling),
in one pass; ``from_blocks`` validates block lists from outside and then
delegates to it.
The one scan that validates a label string also stores its block count, and
the per-pair invariants read label pairs instead of building block lists.
Refinement is one cached read per partition: a labelling is constant on
every block of p exactly when reading it at each point's first block point
(``first_point_read``) leaves it unchanged.  The hash is computed once, at
construction, because partitions and pairs are dictionary keys far more often
than they are built.

A refining pair is the tuple (inner, outer).  Its public constructor checks
refinement; ``pair_runs`` enumerates outers that are refined by construction,
one run per inner partition holding its outers filed by depth, and
``foulkes_pairs`` reads one cache, ``_pair_basis``, which keeps the pairs,
built without that check, in depth order.  Verify's ``setpartitions.pair-count``
streams the runs and re-checks them, so the largest rank it counts is never
cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .characters import check_cap, check_int, shown
from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    SizeMismatchError,
)


@dataclass(frozen=True)
class SetPartition:
    """A set-partition of {1..size} in canonical (increasing minima) form."""

    size: int
    labels: tuple[int, ...]
    block_count: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a bool reads as its int; a float equal to an int would compare equal
        if not isinstance(self.size, int):
            raise MalformedPartitionError(f"ground size {shown(self.size)} is not an integer")
        if not isinstance(self.labels, tuple):
            raise MalformedPartitionError(f"labels {shown(self.labels)} are not a tuple")
        if self.size < 0 or len(self.labels) != self.size:
            raise MalformedPartitionError(
                f"label string of length {len(self.labels)} for ground size {self.size}"
            )
        count = 0  # a growth string opens block `count` or reuses one of 0..count-1
        for v in self.labels:
            if not isinstance(v, int):
                raise MalformedPartitionError(f"label {shown(v)} is not an integer")
            if v == count:
                count += 1
            elif not 0 <= v < count:
                raise MalformedPartitionError(f"not a restricted growth string: {self.labels}")
        object.__setattr__(self, "block_count", count)
        # the value the generated __hash__ would give, so set and dict order stay
        object.__setattr__(self, "_hash", hash((self.size, self.labels)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], size: int) -> "SetPartition":
        """Canonicalize a collection of disjoint blocks covering {1..size}."""
        size = check_int(size, "ground size")
        if size < 0:
            raise MalformedPartitionError(f"ground size {size} is negative")
        seen: dict[int, int] = {}
        block_list = [sorted(check_int(x, "point") for x in b) for b in blocks]
        for bi, block in enumerate(block_list):
            if not block:
                raise MalformedPartitionError("empty block")
            for x in block:
                if not 1 <= x <= size:
                    raise MalformedPartitionError(f"element {x} outside 1..{size}")
                if x in seen:
                    raise MalformedPartitionError(f"element {x} occurs more than once")
                seen[x] = bi
        missing = size - len(seen)  # every element seen lies in 1..size
        if missing:  # so 1..len(seen) + 1 holds a missing one
            first = next(x for x in range(1, len(seen) + 2) if x not in seen)
            raise MalformedPartitionError(
                f"elements missing from partition: {missing} of 1..{size}, the first {first}"
            )
        return cls.from_keys(seen[x] for x in range(1, size + 1))

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable]) -> "SetPartition":
        """Positions k and l share a block iff their keys are equal.

        Keys are numbered by first appearance, which is the canonical block
        numbering, so this one pass builds the growth string directly.
        """
        relabel: dict[Hashable, int] = {}
        labels = tuple([relabel.setdefault(key, len(relabel)) for key in keys])
        return cls(len(labels), labels)

    @classmethod
    def singletons(cls, size: int) -> "SetPartition":
        return cls(size, tuple(range(size)))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.labels, start=1):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    @cached_property
    def first_point_read(self) -> Callable[[Sequence], tuple]:
        """Read a sequence indexed by the points at the first point of each
        point's block: it leaves the sequence unchanged exactly when the
        sequence is constant on every block."""
        labels = self.labels
        if self.size <= 1:  # itemgetter of one index returns the item, not a 1-tuple
            return itemgetter(slice(self.size))
        # a block's label first occurs at the block's first point
        return itemgetter(*map(labels.index, labels))

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise SizeMismatchError(f"ground sizes differ: {self.size} vs {other.size}")
        # other's labels are constant on each of my blocks
        labels = other.labels
        return self.first_point_read(labels) == labels

    @cached_property
    def _text(self) -> str:
        return "{" + "|".join(",".join(str(x) for x in b) for b in self.blocks) + "}"

    def __str__(self) -> str:
        return self._text  # formatted once: pairs print their shared partitions many times


def check_ground_size(size) -> int:
    """A ground-set size given from outside, which must be a positive integer."""
    size = check_int(size, "ground size")
    if size < 1:
        raise MalformedPartitionError("ground size must be positive")
    return size


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n in lexicographic order: the
    strings of length n - 1 in that order, each extended by every label from
    0 to one past its largest."""

    def grow(k: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # the strings of length k, each with its block count
        if k == 0:
            yield (), 0
            return
        for prefix, count in grow(k - 1):
            for label in range(count):
                yield prefix + (label,), count
            yield prefix + (count,), count + 1

    return (labels for labels, _ in grow(n))


def set_partitions(size: int) -> Iterator[SetPartition]:
    """All set-partitions of {1..size}, canonical, in growth-string lex order."""
    size = check_cap("r", check_ground_size(size), "PLETHYSM_MAX_R")
    check_cap("r", size, "ENUMERATION_CAP")
    for labels in _growth_strings(size):
        yield SetPartition(size, labels)


class FoulkesPair(tuple):
    """A pair (inner, outer) of set-partitions with inner refining outer.

    The pair is the tuple (inner, outer), so it hashes and compares as that
    tuple and a plain ``(inner, outer)`` finds it in a dictionary.  Its
    ``repr`` is the keyword form ``FoulkesPair(inner=..., outer=...)``.
    """

    __slots__ = ()

    def __new__(cls, inner: SetPartition, outer: SetPartition) -> "FoulkesPair":
        for sp in (inner, outer):
            if not isinstance(sp, SetPartition):
                raise MalformedPartitionError(f"not a set-partition: {shown(sp)}")
        if not inner.refines(outer):
            raise MalformedPartitionError(f"inner {inner} does not refine outer {outer}")
        return tuple.__new__(cls, (inner, outer))

    inner = property(itemgetter(0), doc="The finer partition.")
    outer = property(itemgetter(1), doc="The coarser partition.")

    def __getnewargs__(self) -> tuple[SetPartition, SetPartition]:
        return tuple(self)

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def depth(self) -> int:
        """Block-count drop from inner to outer; grades the module filtration."""
        return self.inner.block_count - self.outer.block_count

    def inner_blocks_per_outer(self) -> tuple[int, ...]:
        counts = [0] * self.outer.block_count
        for _, outer in set(zip(self.inner.labels, self.outer.labels)):
            counts[outer] += 1
        return tuple(counts)

    def in_truncation(self, m: int, n: int) -> bool:
        """True iff outer has at most n blocks, each holding at most m inner blocks."""
        if self.outer.block_count > n:
            return False
        # an outer block meets at most every inner block, even in a pair that does not refine
        return m >= self.inner.block_count or max(self.inner_blocks_per_outer()) <= m

    def __repr__(self) -> str:
        return f"FoulkesPair(inner={self.inner!r}, outer={self.outer!r})"

    def __str__(self) -> str:
        return f"{self.inner} ; {self.outer}"


def pair_runs(size: int) -> Iterator[tuple[SetPartition, list[list[SetPartition]]]]:
    """The refining pairs on {1..size} as one run per inner partition, in lex
    order: the inner partition and the outers it refines, filed by depth.  An
    inner with k blocks has k entries, entry d holding its S(k, k - d) outers
    at depth d in lex order (``_stirling_rows``).

    Each outer is a growth string over the inner blocks (a merge string), read
    back at every point; that string is already canonical, so it is looked up
    among the enumerated partitions, and every run shares one validated object
    per outer.  Ranks above ``PAIR_BASIS_CAP`` are refused before enumerating.
    """
    check_cap("r", check_ground_size(size), "PAIR_BASIS_CAP")
    partitions = {sp.labels: sp for sp in set_partitions(size)}
    # merges[k][d]: the merge strings over k blocks with k - d blocks, in lex order
    merges: list[list[list[tuple[int, ...]]]] = [[]]
    for k in range(1, size + 1):
        merges.append([[] for _ in range(k)])
        for merge in _growth_strings(k):
            merges[k][k - 1 - max(merge)].append(merge)
    outer_of = partitions.__getitem__
    try:
        for inner in partitions.values():
            # itemgetter of one index returns the item itself; one point reads label 0
            read = itemgetter(*inner.labels) if size > 1 else itemgetter(slice(size))
            strings = merges[inner.block_count]
            yield inner, [list(map(outer_of, map(read, same_depth))) for same_depth in strings]
    except KeyError as exc:
        raise InternalConsistencyError(
            f"merged labels {exc.args[0]} are not a growth string"
        ) from None


def foulkes_pairs(size: int) -> tuple[FoulkesPair, ...]:
    """All refining pairs on {1..size}, sorted by (depth, inner, outer)."""
    return _pair_basis(check_cap("r", check_ground_size(size), "PAIR_BASIS_CAP"))


@lru_cache(maxsize=None)
def _pair_basis(size: int) -> tuple[FoulkesPair, ...]:
    """The pairs of ``foulkes_pairs`` for a checked size, built without the
    constructor's check.  The runs fill the depth layers in inner order, so
    each layer, a contiguous block of the filtration, fills up sorted."""
    layers: list[list[FoulkesPair]] = [[] for _ in range(size)]
    unchecked_pair = partial(tuple.__new__, FoulkesPair)
    for inner, outers_by_depth in pair_runs(size):
        for layer, outers in zip(layers, outers_by_depth):
            layer += map(unchecked_pair, zip(repeat(inner), outers))
    return tuple(chain.from_iterable(layers))


def _stirling_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the Stirling triangle, row s holding S(s, k) for k = 0..s,
    each filled from the one before: S(s, k) = k S(s - 1, k) + S(s - 1, k - 1)."""
    rows = [(1,)]
    for s in range(1, n + 1):
        prev = rows[-1] + (0,)
        rows.append((0,) + tuple(k * prev[k] + prev[k - 1] for k in range(1, s + 1)))
    return tuple(rows)


def pair_counts_by_depth(size: int) -> tuple[int, ...]:
    """Number of refining pairs on {1..size} at each depth 0..size-1.

    An inner partition with k blocks and an outer one merging them into k - d
    blocks give S(size, k) * S(k, k - d) pairs of depth d; the total over all
    depths is OEIS A000258.
    """
    size = check_ground_size(size)
    rows = _stirling_rows(size)
    return tuple(
        sum(rows[size][k] * rows[k][k - d] for k in range(d + 1, size + 1)) for d in range(size)
    )

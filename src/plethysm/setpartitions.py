"""Canonical set-partitions of {1..r} and the fixed-depth pair poset.

A set-partition is stored as a restricted growth string: ``labels[k]`` is the
block index of element ``k+1``, blocks numbered in order of first appearance.
That numbering coincides with ordering blocks by increasing minima, so the
string is a canonical form and hashing/equality are O(r).  Internal code
builds partitions with ``SetPartition.from_keys`` (one relabel pass);
``from_blocks`` validates block lists from outside and then delegates to it.
The one scan that validates a label string also stores its block count, and
the refinement order and per-pair invariants read label pairs instead of
building block lists.  The hash is computed once, at construction, because
partitions and pairs are dictionary keys far more often than they are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Hashable, Iterable, Iterator, Sequence

# The enumeration cap and the A000296 count live in ``characters``, which the
# stable queries load without this module; they stay importable from here.
from .characters import (  # noqa: F401
    DEFAULT_MAX_GROUND_SIZE,
    max_ground_size,
    singleton_free_count,
)
from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    ResourceCapError,
    SizeMismatchError,
)


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_number(k) for k in range(n))


@dataclass(frozen=True)
class SetPartition:
    """A set-partition of {1..size} in canonical (increasing minima) form."""

    size: int
    labels: tuple[int, ...]
    block_count: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 0 or len(self.labels) != self.size:
            raise MalformedPartitionError(
                f"label string of length {len(self.labels)} for ground size {self.size}"
            )
        count = 0  # a growth string opens block `count` or reuses one of 0..count-1
        for v in self.labels:
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
        seen: dict[int, int] = {}
        block_list = [sorted(b) for b in blocks]
        for bi, block in enumerate(block_list):
            if not block:
                raise MalformedPartitionError("empty block")
            for x in block:
                if not 1 <= x <= size:
                    raise MalformedPartitionError(f"element {x} outside 1..{size}")
                if x in seen:
                    raise MalformedPartitionError(f"element {x} occurs in two blocks")
                seen[x] = bi
        if len(seen) != size:
            missing = sorted(set(range(1, size + 1)) - seen.keys())
            raise MalformedPartitionError(f"elements missing from partition: {missing}")
        return cls.from_keys(seen[x] for x in range(1, size + 1))

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable]) -> "SetPartition":
        """Positions k and l share a block iff their keys are equal.

        Keys are numbered by first appearance, which is the canonical block
        numbering, so this one pass builds the growth string directly.
        """
        relabel: dict[Hashable, int] = {}
        labels = tuple(relabel.setdefault(key, len(relabel)) for key in keys)
        return cls(len(labels), labels)

    @classmethod
    def singletons(cls, size: int) -> "SetPartition":
        return cls(size, tuple(range(size)))

    @classmethod
    def one_block(cls, size: int) -> "SetPartition":
        return cls(size, (0,) * size)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.labels, start=1):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def block_of(self, element: int) -> int:
        return self.labels[element - 1]

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise SizeMismatchError(f"ground sizes differ: {self.size} vs {other.size}")
        # each of my blocks meets exactly one of theirs
        return len(set(zip(self.labels, other.labels))) == self.block_count

    def permuted(self, perm: Sequence[int]) -> "SetPartition":
        """Apply a permutation (one-line, 1-based images) to the ground set."""
        if sorted(perm) != list(range(1, self.size + 1)):
            raise MalformedPartitionError(f"not a permutation of 1..{self.size}: {perm}")
        keys = [0] * self.size
        for x, image in enumerate(perm):
            keys[image - 1] = self.labels[x]
        return SetPartition.from_keys(keys)

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(x) for x in b) for b in self.blocks) + "}"


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n in lexicographic order."""
    if n == 0:
        yield ()
        return
    a = [0] * n
    m = [-1] + [0] * (n - 1)  # m[i] = max(a[:i])
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == m[i] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        top = max(m[i], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = top


def set_partitions(size: int, cap: int | None = None) -> Iterator[SetPartition]:
    """All set-partitions of {1..size}, canonical, in growth-string lex order."""
    if size < 1:
        raise MalformedPartitionError("ground size must be positive")
    limit = cap if cap is not None else max_ground_size()
    if size > limit:
        raise ResourceCapError(f"r={size} exceeds enumeration cap {limit} (PLETHYSM_MAX_R)")
    for labels in _growth_strings(size):
        yield SetPartition(size, labels)


@dataclass(frozen=True)
class FoulkesPair:
    """A pair (inner, outer) of set-partitions with inner refining outer."""

    inner: SetPartition
    outer: SetPartition

    def __post_init__(self):
        if not self.inner.refines(self.outer):
            raise MalformedPartitionError(
                f"inner {self.inner} does not refine outer {self.outer}"
            )

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
        return max(self.inner_blocks_per_outer()) <= m

    def coarsens(self, other: "FoulkesPair") -> bool:
        return other.inner.refines(self.inner) and other.outer.refines(self.outer)

    def __str__(self) -> str:
        return f"{self.inner} ; {self.outer}"


@lru_cache(maxsize=None)
def foulkes_pairs(size: int) -> tuple[FoulkesPair, ...]:
    """All refining pairs on {1..size}, sorted by (depth, inner, outer).

    Each outer partition is a growth string over the inner blocks, read back
    at every point; that string is already canonical, so it is looked up
    among the partitions enumerated for the inners, and every pair with that
    outer shares one validated object.  Inners and, per inner, growth strings
    come in lex order, so each depth layer fills up sorted.  The depth-major
    order keeps each filtration layer contiguous and matches the conventional
    basis layout for the small worked cases.
    """
    partitions = {sp.labels: sp for sp in set_partitions(size)}
    merges = [tuple(_growth_strings(k)) for k in range(size + 1)]  # by inner block count
    layers: list[list[FoulkesPair]] = [[] for _ in range(size)]
    for inner in partitions.values():
        for merge in merges[inner.block_count]:
            labels = tuple(map(merge.__getitem__, inner.labels))
            try:
                outer = partitions[labels]
            except KeyError:
                raise InternalConsistencyError(
                    f"merged labels {labels} are not a growth string"
                ) from None
            pair = FoulkesPair(inner, outer)
            layers[pair.depth].append(pair)
    return tuple(p for layer in layers for p in layer)


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    """Set-partitions of {1..n} into exactly k blocks."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def pair_counts_by_depth(size: int) -> tuple[int, ...]:
    """Number of refining pairs on {1..size} at each depth 0..size-1.

    An inner partition with k blocks and an outer one merging them into k - d
    blocks give S(size, k) * S(k, k - d) pairs of depth d; the total over all
    depths is OEIS A000258.
    """
    if size < 1:
        raise MalformedPartitionError("ground size must be positive")
    return tuple(
        sum(_stirling2(size, k) * _stirling2(k, k - d) for k in range(d + 1, size + 1))
        for d in range(size)
    )

"""Canonical set-partitions of {1..r} and the fixed-depth pair poset.

A set-partition is stored as a restricted growth string: ``labels[k]`` is the
block index of element ``k+1``, blocks numbered in order of first appearance.
That numbering coincides with ordering blocks by increasing minima, so the
string is a canonical form and hashing/equality are O(r).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import MalformedPartitionError, ResourceCapError, SizeMismatchError

DEFAULT_MAX_GROUND_SIZE = 12


def max_ground_size() -> int:
    """Enumeration cap on r; override via the PLETHYSM_MAX_R environment variable."""
    raw = os.environ.get("PLETHYSM_MAX_R")
    if raw is None:
        return DEFAULT_MAX_GROUND_SIZE
    try:
        return int(raw)
    except ValueError:
        raise MalformedPartitionError(f"PLETHYSM_MAX_R={raw!r} is not an integer") from None


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_number(k) for k in range(n))


@lru_cache(maxsize=None)
def singleton_free_count(n: int) -> int:
    """Set-partitions of {1..n} with no singleton block (OEIS A000296)."""
    if n == 0:
        return 1
    # the block holding n has j >= 1 further elements
    return sum(comb(n - 1, j) * singleton_free_count(n - 1 - j) for j in range(1, n))


def _is_growth_string(labels: Sequence[int]) -> bool:
    top = -1
    for v in labels:
        if v < 0 or v > top + 1:
            return False
        top = max(top, v)
    return True


@dataclass(frozen=True)
class SetPartition:
    """A set-partition of {1..size} in canonical (increasing minima) form."""

    size: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.size < 0 or len(self.labels) != self.size:
            raise MalformedPartitionError(
                f"label string of length {len(self.labels)} for ground size {self.size}"
            )
        if not _is_growth_string(self.labels):
            raise MalformedPartitionError(f"not a restricted growth string: {self.labels}")

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
        # number blocks by increasing minima == first appearance while scanning 1..size
        relabel: dict[int, int] = {}
        labels = []
        for x in range(1, size + 1):
            b = seen[x]
            if b not in relabel:
                relabel[b] = len(relabel)
            labels.append(relabel[b])
        return cls(size, tuple(labels))

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

    @property
    def block_count(self) -> int:
        return max(self.labels, default=-1) + 1

    def block_of(self, element: int) -> int:
        return self.labels[element - 1]

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise SizeMismatchError(f"ground sizes differ: {self.size} vs {other.size}")
        image: dict[int, int] = {}
        for mine, theirs in zip(self.labels, other.labels):
            if image.setdefault(mine, theirs) != theirs:
                return False
        return True

    def permuted(self, perm: Sequence[int]) -> "SetPartition":
        """Apply a permutation (one-line, 1-based images) to the ground set."""
        return SetPartition.from_blocks(
            [[perm[x - 1] for x in block] for block in self.blocks], self.size
        )

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
        raise ResourceCapError(f"r={size} exceeds enumeration cap {limit}")
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
        for block in self.inner.blocks:
            counts[self.outer.block_of(block[0])] += 1
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


def _block_subdivisions(block: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    out = []
    for labels in _growth_strings(len(block)):
        sub: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
        for x, b in zip(block, labels):
            sub[b].append(x)
        out.append(tuple(tuple(s) for s in sub))
    return out


@lru_cache(maxsize=None)
def foulkes_pairs(size: int) -> tuple[FoulkesPair, ...]:
    """All refining pairs on {1..size}, sorted by (depth, inner, outer).

    The depth-major order keeps each filtration layer contiguous and matches
    the conventional basis layout for the small worked cases.
    """
    pairs = []
    for outer in set_partitions(size):
        per_block = [_block_subdivisions(b) for b in outer.blocks]
        for choice in itertools.product(*per_block):
            inner_blocks = [b for sub in choice for b in sub]
            inner = SetPartition.from_blocks(inner_blocks, size)
            pairs.append(FoulkesPair(inner, outer))
    pairs.sort(key=lambda p: (p.depth, p.inner.labels, p.outer.labels))
    return tuple(pairs)

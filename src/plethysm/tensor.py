"""Exact Schur-Weyl checks on small tensor powers of C^(mn).

Basis vectors of the r-th tensor power are flat integers in base mn, most
significant digit first, so ``itertools.product(range(mn), repeat=r)`` lists
the basis words in flat order.  Digit c encodes the pair (i, j) with
c = (j-1)*m + (i-1), matching the subscript/superscript bookkeeping used for
value-types.  Supports and diagram matrices are read off one blockwise
enumerator of the flat indices that take one free value per block.  Vectors
and 0/1 diagram matrices are sparse dicts of Python integers; ranks are
computed by fraction-free elimination so injectivity never hinges on a float.
VECTOR_CAP bounds what a function enumerates: supports, the Gram matrix and
the whole bases that the walkers visit.  The action oracle builds nothing of
the module: it is handed the built action matrices and each letter's diagram
matrix, and follows the pairs' columns through them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product, repeat
from math import gcd, prod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .characters import MAX_DIGITS, check_cap, check_factors, check_int
from .diagrams import PartitionDiagram
from .errors import SizeMismatchError
from .setpartitions import (
    PAIR_BASIS_CAP,
    FoulkesPair,
    SetPartition,
    check_ground_size,
    foulkes_pairs,
    pair_counts_by_depth,
)

if TYPE_CHECKING:
    from .foulkes import ActionMatrix

VECTOR_CAP = 10**5

Vector = dict[int, int]  # flat index -> nonzero coefficient
RowMap = dict[int, list[int]]  # row -> columns holding a 1


def _tensor_dimension(r: int, m: int, n: int) -> int:
    """(mn)**r, refused above VECTOR_CAP once m, n and then r are checked.  A
    power too long to print is refused unbuilt, as the bound 10**MAX_DIGITS:
    it passes the bound once 2**(r * (bit length of mn - 1)) does."""
    mn, r = prod(check_factors(m, n)), check_ground_size(r)
    bound = 10**MAX_DIGITS
    dim = bound if r * (mn.bit_length() - 1) >= bound.bit_length() else mn**r
    return check_cap("tensor dimension", dim, VECTOR_CAP, "VECTOR_CAP")


def digit_to_pair(c: int, m: int) -> tuple[int, int]:
    return c % m + 1, c // m + 1


def _block_constant_flats(blocks: Iterable[tuple[int, int]]) -> list[int]:
    """Every flat index that takes one free value per block: the sums of
    value * weight over the blocks, given as (weight, number of values), with
    the last block varying fastest."""
    flats = [0]
    for weight, values in blocks:
        offsets = [v * weight for v in range(values)]
        flats = [f + o for f in flats for o in offsets]
    return flats


def diagram_tensor_matrix(d: PartitionDiagram, m: int, n: int) -> RowMap:
    """0/1 matrix of a diagram acting on the r-th tensor power of C^(mn).

    Entry (row I, column J) is 1 exactly when the indices are constant on
    every block of the diagram (rows feed the northern points, columns the
    southern ones).  One free value per block, so the support is enumerated
    blockwise as flat indices of the word IJ instead of scanning the full
    square matrix.  The blocks meeting the northern row come first in block
    order, so each row's columns come out together.
    """
    r = d.size
    mn = prod(check_factors(m, n))
    check_cap("tensor support", mn**d.partition.block_count, VECTOR_CAP, "VECTOR_CAP")
    blocks = [(sum(mn ** (2 * r - p) for p in block), mn) for block in d.partition.blocks]
    size = mn**r
    matrix: RowMap = {}
    for flat in _block_constant_flats(blocks):
        row, col = divmod(flat, size)
        matrix.setdefault(row, []).append(col)
    return matrix


def value_type(pairs: Sequence[tuple[int, int]]) -> FoulkesPair:
    """Equality pattern of a basis vector: inner by (i, j), outer by j alone."""
    return FoulkesPair(
        SetPartition.from_keys(pairs), SetPartition.from_keys(j for _, j in pairs)
    )


def block_constant_support(pair: FoulkesPair, m: int, n: int) -> list[int]:
    """Flat indices of the basis vectors with subscripts constant on inner
    blocks and superscripts constant on outer blocks, no distinctness imposed.

    One free subscript per inner block and one free superscript per outer
    block, so the support has m**inner_blocks * n**outer_blocks entries even
    when the ambient dimension is far larger.
    """
    r = pair.size
    mn = prod(check_factors(m, n))
    support = m**pair.inner.block_count * n**pair.outer.block_count
    check_cap("tensor support", support, VECTOR_CAP, "VECTOR_CAP")
    inner = [(sum(mn ** (r - p) for p in block), m) for block in pair.inner.blocks]
    outer = [(m * sum(mn ** (r - p) for p in block), n) for block in pair.outer.blocks]
    return _block_constant_flats(inner + outer)


def block_constant_vector(pair: FoulkesPair, m: int, n: int) -> Vector:
    """0/1 vector supported on ``block_constant_support``."""
    return dict.fromkeys(block_constant_support(pair, m, n), 1)


def integer_matrix_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by exact elimination.

    An entry that is not an integer is refused, not truncated, and so is a
    row whose length differs from the first row's."""
    work = [[check_int(value, "matrix entry") for value in row] for row in rows]
    ncols = len(work[0]) if work else 0
    for row in work:
        if len(row) != ncols:
            raise SizeMismatchError(f"matrix rows of lengths {ncols} and {len(row)}")
    work = [row for row in work if any(row)]
    if not work:
        return 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            vi = work[i][col]
            if not vi:
                continue
            row = [pv * a - vi * b for a, b in zip(work[i], work[rank])]
            g = gcd(*row)
            work[i] = [v // g for v in row] if g > 1 else row
        rank += 1
        if rank == len(work):
            break
    return rank


def foulkes_image_rank(r: int, m: int, n: int) -> int:
    """Rank of the map sending every refining pair to its tensor vector.

    It is the number of pairs that the truncation (m, n) keeps, so the full
    pair count exactly when m, n >= r.  A pair's vector is the sum of the
    wreath-orbit sums of the kept value types that coarsen it, a change of
    basis that is unitriangular on the kept pairs (``tensor.rank-boundary``).

    Over the rationals a 0/1 matrix V has the rank of its Gram matrix V V^T
    (V V^T x = 0 gives |V^T x|^2 = 0), whose entries are the sizes of the
    pairwise intersections of the supports: one row per pair, not one
    column per support index.
    """
    m, n = check_factors(m, n)
    check_cap("r", check_ground_size(r), PAIR_BASIS_CAP, "PAIR_BASIS_CAP")
    _tensor_dimension(r, m, n)  # the all-singletons pair's support
    check_cap("Gram matrix size", sum(pair_counts_by_depth(r)) ** 2, VECTOR_CAP, "VECTOR_CAP")
    pairs = foulkes_pairs(r)
    supports = [set(block_constant_support(p, m, n)) for p in pairs]
    return integer_matrix_rank([[len(a & b) for b in supports] for a in supports])


def support_image(support: Iterable[int], matrix: RowMap) -> Counter[int]:
    """The 0/1 vector on ``support`` times a 0/1 matrix: how often each
    column is hit from the support's rows."""
    return Counter(chain.from_iterable(map(matrix.get, support, repeat(()))))


def tensor_action_consistent(
    matrices: Mapping[str, ActionMatrix],
    tensors: Mapping[str, RowMap],
    supports: Sequence[list[int]],
    m: int,
    n: int,
    word: Sequence[str],
) -> bool:
    """Does the pair action match the tensor action along a generator word?

    ``matrices`` holds each letter's action matrix on the rank-r pair basis,
    ``tensors`` its ``diagram_tensor_matrix`` at (m, n), and ``supports``
    each basis pair's ``block_constant_support`` at (m, n), in basis order.
    Each basis pair's column is followed through the word: the pair side
    reads the one entry (row, t1, t2) of the current column, and the tensor
    side applies the letter's 0/1 matrix to the current support.  Up to the
    last prefix both sides agree, so the tensor image is the scale times the
    0/1 vector on the current pair's support; the next letter must then hit
    each support index of the next pair exactly m**t1 * n**t2 times, and
    nothing else.
    """
    for start in range(len(supports)):
        j = start
        for name in word:
            hits = support_image(supports[j], tensors[name])
            j, t1, t2 = matrices[name].entries[j]
            if hits != dict.fromkeys(supports[j], m**t1 * n**t2):
                return False
    return True


def _wreath_digit_maps(m: int, n: int) -> list[tuple[int, ...]]:
    """Generators of the wreath subgroup S_m wr S_n as maps of the digits
    c = (j-1)*m + (i-1): the swap of c and c+1 inside one factor, then the
    swap of factors j and j+1, which moves each of their digits by m."""
    digits = list(range(m * n))
    maps = []
    for c in range(m * n - 1):
        if c % m != m - 1:
            swapped = digits.copy()
            swapped[c : c + 2] = c + 1, c
            maps.append(tuple(swapped))
    for low in range(0, m * (n - 1), m):
        swapped = digits.copy()
        swapped[low : low + 2 * m] = digits[low + m : low + 2 * m] + digits[low : low + m]
        maps.append(tuple(swapped))
    return maps


def tensor_basis_orbits(r: int, m: int, n: int) -> set[frozenset[int]]:
    """Orbits of the wreath subgroup on the flat tensor basis (by BFS)."""
    _tensor_dimension(r, m, n)
    index = {word: flat for flat, word in enumerate(product(range(m * n), repeat=r))}
    gen_digit_maps = _wreath_digit_maps(m, n)
    seen: set[tuple[int, ...]] = set()
    orbits = set()
    for start in index:
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            word = queue.pop()
            for dmap in gen_digit_maps:
                nxt = tuple(dmap[c] for c in word)
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        seen |= orbit
        orbits.add(frozenset(map(index.get, orbit)))
    return orbits


def value_type_fibers(r: int, m: int, n: int) -> set[frozenset[int]]:
    """Partition of the flat tensor basis by value-type."""
    _tensor_dimension(r, m, n)
    fibers: dict[FoulkesPair, set[int]] = {}
    for flat, word in enumerate(product(range(m * n), repeat=r)):
        pairs = [digit_to_pair(c, m) for c in word]
        fibers.setdefault(value_type(pairs), set()).add(flat)
    return {frozenset(v) for v in fibers.values()}

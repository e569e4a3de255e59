"""Constructors and predicates that only the tests use.

They are written on the package's public types, so the library keeps only
what the CLI and ``verify`` call.
"""

import itertools
import re
from functools import lru_cache
from math import comb

from plethysm import characters, verify
from plethysm.characters import multiplicities, partitions
from plethysm.diagrams import PartitionDiagram, generators
from plethysm.errors import MalformedPartitionError, SizeMismatchError
from plethysm.foulkes import action_matrix
from plethysm.setpartitions import SetPartition, foulkes_pairs
from plethysm.tensor import (
    block_constant_support,
    diagram_tensor_matrix,
    digit_to_pair,
    tensor_action_consistent,
    value_type,
)


@lru_cache(maxsize=None)
def bell_number(n):
    """The number of set-partitions of {1..n}: B(n) = sum_k C(n-1, k) B(k)."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_number(k) for k in range(n))


def one_block(size):
    """The partition of {1..size} into a single block."""
    return SetPartition(size, (0,) * size)


def block_of(sp, element):
    """The index of the block holding ``element`` (1-based point)."""
    return sp.labels[element - 1]


def permuted(sp, perm):
    """Apply a permutation (one-line, 1-based images) to the ground set of sp."""
    if sorted(perm) != list(range(1, sp.size + 1)):
        raise MalformedPartitionError(f"not a permutation of 1..{sp.size}: {perm}")
    keys = [0] * sp.size
    for x, image in enumerate(perm):
        keys[image - 1] = sp.labels[x]
    return SetPartition.from_keys(keys)


def module_multiplicities(r):
    """Composition multiplicities of the rank-r module for every label of size
    <= r, from the character that verify reads on each rank's depth-quotient
    basis; the rank-0 quotient is the empty pair alone."""
    out = {(): 1}
    for k in range(1, r + 1):
        fixed = verify._quotient_character(k)
        labels = tuple(partitions(k))
        out.update(zip(labels, multiplicities(fixed, labels)))
    return out


def singleton_free_by_shapes(r):
    """The singleton-free character as the sum of the shape characters over
    the partitions of r with no part 1: one product per shape."""
    out = {}
    for mu in characters.partitions_no_ones(r):
        for rho, value in characters._shape_characteristic(mu).items():
            out[rho] = out.get(rho, 0) + value
    return out


def coarsens(p, q):
    """True iff pair p lies above pair q: both of q's partitions refine p's."""
    return q.inner.refines(p.inner) and q.outer.refines(p.outer)


def diagram_from_string(text, size):
    """Parse the textual form of a diagram, e.g. ``{1,2,1',2'|3,3'}``."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise MalformedPartitionError(f"bad diagram syntax: {text!r}")
    blocks = []
    for chunk in body[1:-1].split("|"):
        block = []
        for tok in chunk.split(","):
            tok = tok.strip()
            m = re.fullmatch(r"(\d+)(')?", tok)
            if not m:
                raise MalformedPartitionError(f"bad diagram token: {tok!r}")
            k = int(m.group(1))
            if not 1 <= k <= size:
                raise MalformedPartitionError(f"diagram token {tok!r} outside 1..{size}")
            block.append(k + size if m.group(2) else k)
        blocks.append(block)
    return PartitionDiagram.from_blocks(blocks, size)


def identity_diagram(r: int) -> PartitionDiagram:
    return PartitionDiagram.from_blocks([[i, r + i] for i in range(1, r + 1)], r)


def exponent_grid(matrix):
    """The action matrix written out: the exponents (t1, t2) of each entry
    d1^t1 d2^t2 at its (row, col), and None where the entry is 0."""
    size = len(matrix.basis)
    assert len(matrix.entries) == size, "not one entry per column"
    grid = [[None] * size for _ in range(size)]
    for j, entry in enumerate(matrix.entries):
        if entry is not None:
            i, t1, t2 = entry
            grid[i][j] = (t1, t2)
    return grid


def pair_images(matrix):
    """Each basis pair's image (t1, t2, pair) under the matrix's diagram,
    read off the one entry d1^t1 d2^t2 in that pair's column."""
    assert len(matrix.entries) == len(matrix.basis), "not one entry per column"
    return {p: (t1, t2, matrix.basis[i]) for p, (i, t1, t2) in zip(matrix.basis, matrix.entries)}


def word_consistent(r, m, n, word):
    """``tensor_action_consistent`` on freshly built rank-r action matrices,
    (m, n) diagram matrices of the word's letters and the pairs' supports."""
    letters = {name: generators(r)[name] for name in word}
    matrices = {name: action_matrix(d, r) for name, d in letters.items()}
    tensors = {name: diagram_tensor_matrix(d, m, n) for name, d in letters.items()}
    supports = [block_constant_support(p, m, n) for p in foulkes_pairs(r)]
    return tensor_action_consistent(matrices, tensors, supports, m, n, word)


def value_type_orbit_vector(pair, m, n):
    """Sum of the basis vectors of (C^(mn))^(tensor r) whose value-type is exactly ``pair``."""
    words = itertools.product(range(m * n), repeat=pair.size)
    return {
        flat: 1
        for flat, word in enumerate(words)
        if value_type([digit_to_pair(c, m) for c in word]) == pair
    }


@lru_cache(maxsize=None)
def beta_list_character(lam, rho):
    """The reference for ``characters.character_value``: the border-strip
    recursion on beta-sets held as lists, as the package computed it before
    it moved to bead bitmasks.  Each strip removal rebuilds and re-sorts the
    beta-list and strips the zero parts it leaves."""
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
        total += (-1) ** crossings * beta_list_character(new_lam, rest)
    return total

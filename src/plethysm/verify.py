"""Self-contained invariant suites behind the ``verify`` CLI command.

Each check is a small named function.  ``fast`` keeps ranks at 4 (6 for the
characters and the stable labels) and tensor dimensions at 9.  ``full`` takes
the action-matrix checks to rank 5, the set-partition checks and the depth
quotient to 6 (8 for the pair count), the characters to 8, the stable labels
to size 10 and tensor dimensions to 16.  Checks raise CheckFailure with a
message on violation and return a one-line summary on success, so a run
produces a deterministic per-check report.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import attrgetter
from typing import Callable, Iterator

from . import characters, coefficients, diagrams, foulkes, setpartitions, tensor
from .characters import Partition
from .diagrams import PartitionDiagram, generators, multiply_diagrams, p_diagram
from .errors import ResourceCapError
from .setpartitions import (
    SetPartition,
    foulkes_pairs,
    pair_counts_by_depth,
    set_partitions,
)

Labels = tuple[int, ...]


class CheckFailure(AssertionError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_diagram(rng: random.Random, r: int) -> PartitionDiagram:
    labels = [0]
    for _ in range(2 * r - 1):
        labels.append(rng.randint(0, max(labels) + 1))
    return PartitionDiagram(r, SetPartition(2 * r, tuple(labels)))


def _embed_shifted(d: PartitionDiagram) -> PartitionDiagram:
    """Reinterpret a diagram inside the next rank up with strand 1 cut: the
    cut ends 1 and 1' are singletons keyed apart from every label."""
    labels, small = d.partition.labels, d.size
    keys = (-1, *labels[:small], -2, *labels[small:])
    return PartitionDiagram(small + 1, SetPartition.from_keys(keys))


# ---------------------------------------------------------------- set partitions


def check_canonical_idempotent(full: bool) -> str:
    top = 6 if full else 4
    count = 0
    for r in range(1, top + 1):
        for sp in set_partitions(r):
            again = SetPartition.from_blocks(sp.blocks, r)
            if again != sp:
                raise CheckFailure(f"re-canonicalising changed {sp}")
            count += 1
    return f"{count} partitions stable under re-canonicalisation (r<={top})"


def check_refinement_partial_order(full: bool) -> str:
    top = 6 if full else 4
    for r in range(1, top + 1):
        parts = list(set_partitions(r))
        up = [{j for j, b in enumerate(parts) if a.refines(b)} for a in parts]
        for i, above in enumerate(up):
            if i not in above:
                raise CheckFailure(f"refines not reflexive at r={r}")
            if any(i in up[j] for j in above if j != i):
                raise CheckFailure(f"refines not antisymmetric at r={r}")
            if any(not up[j] <= above for j in above):
                raise CheckFailure(f"refines not transitive at r={r}")
    return f"partial order verified exhaustively for r<={top}"


def _truncated_pair_count(r: int, m: int, n: int) -> int:
    """Refining pairs on {1..r} whose outer has at most n blocks, each holding
    at most m inner blocks: over outer shapes mu with at most n parts, each
    counting ``shape_count(mu)`` outers, a block of s points splits into at
    most m inner blocks in sum_{k<=m} S(s, k) ways.  At m, n >= r nothing is
    cut and this is the blockwise Bell product sum."""
    at_most_m = [sum(row[: m + 1]) for row in setpartitions._stirling_rows(r)]
    return sum(
        characters.shape_count(mu) * math.prod(map(at_most_m.__getitem__, mu))
        for mu in characters.partitions(r)
        if len(mu) <= n
    )


def check_pair_count(full: bool) -> str:
    """Count the enumerated pairs by depth, and re-check that every one
    refines: ``pair_runs`` builds its outers without the constructor's check.
    A run is re-checked at once on its outers' label columns: each point's
    column must equal the column of the first point of its inner block.  The
    cached ``foulkes_pairs`` is counted by ``truncation-bounds``, at m = n = r."""
    top = 8 if full else 4
    labels_of = attrgetter("labels")
    for r in range(1, top + 1):
        expected = _truncated_pair_count(r, r, r)
        by_depth = [0] * r
        for inner, outers_by_depth in setpartitions.pair_runs(r):
            outers = list(itertools.chain.from_iterable(outers_by_depth))
            columns = tuple(zip(*map(labels_of, outers)))
            if inner.first_point_read(columns) != columns:
                outer = next(outer for outer in outers if not inner.refines(outer))
                raise CheckFailure(f"enumerated pair at r={r} does not refine: {inner} ; {outer}")
            for d, same_depth in enumerate(outers_by_depth):
                by_depth[d] += len(same_depth)
        if sum(by_depth) != expected:
            raise CheckFailure(f"pair count at r={r}: {sum(by_depth)} != {expected}")
        if tuple(by_depth) != pair_counts_by_depth(r):
            raise CheckFailure(f"depth counts at r={r}: {by_depth} != {pair_counts_by_depth(r)}")
    return f"pair counts match the blockwise Bell product sum and Stirling depth counts (r<={top})"


def check_truncation_bounds(full: bool) -> str:
    """Each bound 1 <= m, n <= r keeps the pairs the closed form counts; at
    r = 6 every (m, n) costs about ten times ranks 1..5."""
    top = 5 if full else 4
    for r in range(1, top + 1):
        pairs = foulkes_pairs(r)
        for m, n in itertools.product(range(1, r + 1), repeat=2):
            kept = sum(p.in_truncation(m, n) for p in pairs)
            expected = _truncated_pair_count(r, m, n)
            if kept != expected:
                raise CheckFailure(f"truncation m={m}, n={n} at r={r} keeps {kept}, not {expected}")
    return f"pairs kept by every truncation 1<=m,n<=r match the shape-sum count (r<={top})"


# ---------------------------------------------------------------- diagram algebra


def check_diagram_associativity(full: bool) -> str:
    rng = random.Random(20240211)
    trials = 0
    for r in range(1, 5):
        for _ in range(50):
            x, y, z = (_random_diagram(rng, r) for _ in range(3))
            # a basis product is (d1*d2)**closed times one diagram: compare both
            t_xy, xy = multiply_diagrams(x, y)
            t_left, left = multiply_diagrams(xy, z)
            t_yz, yz = multiply_diagrams(y, z)
            t_right, right = multiply_diagrams(x, yz)
            if (t_xy + t_left, left) != (t_yz + t_right, right):
                raise CheckFailure(f"associativity fails on {x}, {y}, {z}")
            trials += 1
    return f"{trials} random triples associate (r<=4)"


def _product_table(r: int) -> tuple[tuple[PartitionDiagram, ...], tuple[tuple[int, ...], ...]]:
    """Every rank-r diagram, and the propagating count of each product x*y
    (row x, column y), read by the exhaustive propagating-bound check.

    Only x's southern and y's northern labels meet in the middle row, so the
    diagrams are grouped by their northern labels and each x is glued once
    per group (``diagrams._glue``), not stacked once per y.  A propagating
    block of x*y is a component meeting x's northern and y's southern row,
    so its count is the number of roots that x's northern blocks share with
    y's southern blocks; a southern block of y that misses y's northern row
    is its own root and meets no block of x.  No product string is built.
    """
    all_diagrams = tuple(PartitionDiagram(r, sp) for sp in set_partitions(2 * r))
    glue = diagrams._glue
    # northern labels -> (column, y's southern blocks that also meet its northern row)
    groups: dict[Labels, list[tuple[int, Labels]]] = {}
    for j, y in enumerate(all_diagrams):
        top, bottom = y.partition.labels[:r], y.partition.labels[r:]
        groups.setdefault(top, []).append((j, tuple({b for b in bottom if b in top})))
    # a growth string opens its blocks in order, so top's are 0..max(top)
    glued = [(top, max(top) + 1, members) for top, members in groups.items()]
    counts = []
    for x in all_diagrams:
        labels, blocks = x.partition.labels, x.partition.block_count
        middle, north = labels[r:], set(labels[:r])
        row = [0] * len(all_diagrams)
        for top, top_blocks, members in glued:
            roots, _ = glue(middle, blocks, top, top_blocks)
            north_roots = set(map(roots.__getitem__, north))
            lower_root = roots[blocks:].__getitem__
            for j, south in members:
                row[j] = len(north_roots.intersection(map(lower_root, south)))
        counts.append(tuple(row))
    return all_diagrams, tuple(counts)


def check_propagating_monotone(full: bool) -> str:
    checked = 0
    for r in (1, 2, 3):
        all_diagrams, counts = _product_table(r)
        for x, row in zip(all_diagrams, counts):
            for y, product in zip(all_diagrams, row):
                if product > min(x.propagating_count, y.propagating_count):
                    raise CheckFailure(f"propagating count grew: {x} * {y}")
                checked += 1
    rng = random.Random(987)
    for _ in range(200):
        x, y = _random_diagram(rng, 4), _random_diagram(rng, 4)
        _, z = multiply_diagrams(x, y)
        if z.propagating_count > min(x.propagating_count, y.propagating_count):
            raise CheckFailure(f"propagating count grew: {x} * {y}")
        checked += 1
    return f"{checked} products keep the propagating bound"


def check_ideal_filtration(full: bool) -> str:
    # P_r is generated by p1, p12 and the s_i (Halverson-Ram), so a span that
    # absorbs every generator on both sides is a two-sided ideal
    for r in (2, 3):
        letters = generators(r).values()
        for sp in set_partitions(2 * r):
            x = PartitionDiagram(r, sp)
            if x.propagating_count > r - 1:
                continue
            for g in letters:
                for a, b in ((x, g), (g, x)):
                    if multiply_diagrams(a, b)[1].propagating_count > r - 1:
                        raise CheckFailure(f"ideal escaped via {a}, {b}")
    return "span of low-propagating diagrams is a two-sided ideal (r<=3)"


def check_subalgebra_truncation(full: bool) -> str:
    for r in (2, 3):
        small = [PartitionDiagram(r - 1, sp) for sp in set_partitions(2 * (r - 1))]
        for a, b in itertools.product(small, repeat=2):
            t_small, c = multiply_diagrams(a, b)
            t_big, z = multiply_diagrams(_embed_shifted(a), _embed_shifted(b))
            if t_big != t_small + 1 or z != _embed_shifted(c):
                raise CheckFailure(f"truncation mismatch at r={r}: {a} * {b}")
    return "cut-strand subalgebra reproduces the next rank down (r=2,3)"


# ---------------------------------------------------------------- foulkes module


@lru_cache(maxsize=None)
def _generator_matrices(r: int) -> dict[str, foulkes.ActionMatrix]:
    """Each rank-r generator's action matrix by name, built once per rank up to
    5 for the foulkes and tensor checks; the filtration layers are read from it."""
    return {name: foulkes.action_matrix(d, r) for name, d in generators(r).items()}


def check_action_homomorphism(full: bool) -> str:
    top = 4 if full else 3
    rng = random.Random(31337)
    words = 0
    for r in range(1, top + 1):
        letters = generators(r)
        names = tuple(letters)
        matrices = _generator_matrices(r)
        for _ in range(8):
            word = [rng.choice(names) for _ in range(rng.randint(2, 5))]
            closed, product = 0, letters[word[0]]
            for name in word[1:]:
                t, product = multiply_diagrams(product, letters[name])
                closed += t
            direct = foulkes.action_matrix(product, r).entries
            walked = [foulkes.follow_word(matrices, word, j) for j in range(len(direct))]
            if walked != [(i, t1 + closed, t2 + closed) for i, t1, t2 in direct]:
                raise CheckFailure(f"word {word} disagrees at r={r}")
            words += 1
    return f"{words} generator words match their evaluated matrices (r<={top})"


def check_depth_step(full: bool) -> str:
    top = 5 if full else 4
    for r in range(1, top + 1):
        pairs = foulkes_pairs(r)
        for name, matrix in _generator_matrices(r).items():
            for j, (i, _, _) in enumerate(matrix.entries):
                if pairs[j].depth - pairs[i].depth not in (0, 1):
                    raise CheckFailure(f"depth jumped: {pairs[j]} under {name} at r={r}")
    return f"every generator moves depth by 0 or -1 (r<={top})"


def _layer_exponents(top: int) -> Iterator[tuple[int, int, str, int, int]]:
    """(r, k, generator name, t1, t2) of each nonzero entry of each layer block
    of the rank-r generator matrices, for r <= top."""
    for r in range(1, top + 1):
        for name, matrix in _generator_matrices(r).items():
            for k in range(r):
                for _, t1, t2 in filter(None, foulkes.layer_matrix(matrix, k).entries):
                    yield r, k, name, t1, t2


def check_layer_entries(full: bool) -> str:
    top = 5 if full else 4
    allowed = {(0, 0), (1, 1)}  # the exponents (t1, t2) of 1 and d1*d2
    for r, k, name, t1, t2 in _layer_exponents(top):
        if (t1, t2) not in allowed:
            raise CheckFailure(
                f"layer entry {foulkes.monomial_text(t1, t2)} at r={r}, k={k}, generator {name}"
            )
    return f"layer entries all lie in {{0, 1, d1*d2}} (r<={top})"


def check_layer_parameter_swap(full: bool) -> str:
    top = 5 if full else 4
    for r, k, name, t1, t2 in _layer_exponents(top):
        if t1 != t2:
            raise CheckFailure(f"layer swap broke at r={r}, k={k}, {name}")
    return f"layer matrices invariant under parameter swap (r<={top})"


def check_depth_radical_closed(full: bool) -> str:
    top = 5 if full else 4
    for r in range(1, top + 1):
        pairs = foulkes_pairs(r)
        radical = list(map(foulkes.in_depth_radical, pairs))
        for name, matrix in _generator_matrices(r).items():
            for j, (i, _, _) in enumerate(matrix.entries):
                if radical[j] and not radical[i]:
                    raise CheckFailure(f"radical escaped: {pairs[j]} under {name} at r={r}")
    return f"depth radical closed under all generators (r<={top})"


def check_quotient_truncation(full: bool) -> str:
    for r in range(2, 5):
        pairs = foulkes_pairs(r)
        radical = list(map(foulkes.in_depth_radical, pairs))
        images = set()  # of the radical pairs under the cut strand p1
        for j, (i, _, _) in enumerate(_generator_matrices(r)["p1"].entries):
            if radical[j]:
                images.add(pairs[i])
            elif not radical[i]:
                raise CheckFailure(f"quotient not annihilated: {pairs[j]} at r={r}")
        split = {q for q in pairs if (1,) in q.inner.blocks and (1,) in q.outer.blocks}
        if images != split or len(split) != sum(pair_counts_by_depth(r - 1)):
            raise CheckFailure(f"radical truncation is not the next rank at r={r}")
    return "cut strand annihilates the quotient and shifts the radical down a rank"


def check_small_generator_matrices(full: bool) -> str:
    expected = {  # (row, t1, t2) of columns 0, 1, 2; every other entry is 0
        "p1": ((1, 0, 0), (1, 1, 1), (1, 1, 0)),
        "p12": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        "s1": ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
    }
    for name, want in expected.items():
        matrix = _generator_matrices(2)[name]
        if matrix.entries != want:
            raise CheckFailure(f"rank-2 matrix for {name} is off: {matrix.coordinate_dump()}")
    return "rank-2 generator matrices match their symbolic values"


def check_rank4_dimensions(full: bool) -> str:
    total = len(foulkes_pairs(4))
    radical = sum(map(foulkes.in_depth_radical, foulkes_pairs(4)))
    quotient = len(foulkes.depth_quotient_basis(4))
    orbits = {o.shape: o.size for o in foulkes.orbit_decomposition(4)}
    if (total, radical, quotient) != (60, 56, 4):
        raise CheckFailure(f"rank-4 dimensions off: {total}/{radical}/{quotient}")
    if orbits != {(4,): 1, (2, 2): 3}:
        raise CheckFailure(f"rank-4 orbits off: {orbits}")
    return "rank-4 module is 60/56/4 with orbits (4):1 and (2,2):3"


# ---------------------------------------------------------------- characters


def check_character_orthogonality(full: bool) -> str:
    top = 8 if full else 6
    for r in range(1, top + 1):
        classes = list(characters.partitions(r))
        sizes = list(map(characters.class_size, classes))
        rows = {lam: [characters.character_value(lam, rho) for rho in classes] for lam in classes}
        for lam, mu in itertools.combinations_with_replacement(classes, 2):
            inner = sum(map(math.prod, zip(sizes, rows[lam], rows[mu])))
            if inner != (factorial(r) if lam == mu else 0):
                raise CheckFailure(f"orthogonality fails for {lam}, {mu}")
    return f"first orthogonality relation holds for r<={top}"


def _image_table(sigma: tuple[int, ...]) -> list[int]:
    """The image under sigma (one-line, 1-based) of every subset of its points,
    indexed by bitmask: a subset's image is that of the subset without its
    lowest point, plus that point's image."""
    targets = [1 << (image - 1) for image in sigma]
    table = [0] * (1 << len(sigma))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | targets[low.bit_length() - 1]
    return table


def _fixed_counts(
    block_sets: list[frozenset[int]], images: dict[Partition, Callable[[int], int]]
) -> dict[Partition, int]:
    """For each cycle type, how many of the block sets (blocks as bitmasks)
    its permutation fixes.  Blocks are compared as sets of points, not as
    growth strings; since sigma is a bijection and the blocks are disjoint,
    it fixes a set of blocks iff it maps every block onto a block."""
    fixed = frozenset.issuperset  # fixed(blocks, map(image, blocks)), mapped over the sets
    return {
        rho: sum(map(fixed, block_sets, map(map, itertools.repeat(image), block_sets)))
        for rho, image in images.items()
    }


def _brute_fixed_counts(r: int) -> dict[Partition, dict[Partition, int]]:
    """For each shape mu of r, then each cycle type rho: the shape-mu
    set-partitions whose block sets a permutation of type rho permutes, by
    enumeration.  Each growth string of length r is read once as its blocks'
    bitmasks (point x is bit x - 1), filed under the shape of their popcounts;
    each rho's image table is built once and serves every shape."""
    images = {
        rho: _image_table(characters.cycle_representative(rho)).__getitem__
        for rho in characters.partitions(r)
    }
    by_shape: dict[Partition, list[frozenset[int]]] = {mu: [] for mu in characters.partitions(r)}
    points = [1 << x for x in range(r)]
    for labels in setpartitions._growth_strings(r):
        masks = [0] * (max(labels) + 1)
        for point, label in zip(points, labels):
            masks[label] |= point
        by_shape[tuple(sorted(map(int.bit_count, masks), reverse=True))].append(frozenset(masks))
    return {mu: _fixed_counts(block_sets, images) for mu, block_sets in by_shape.items()}


def check_fixed_counts(full: bool) -> str:
    top = 8 if full else 6
    for r in range(1, top + 1):
        for mu, by_rho in _brute_fixed_counts(r).items():
            character = characters._shape_characteristic(mu)
            for rho, count in by_rho.items():
                if character.get(rho, 0) != count:
                    raise CheckFailure(f"fixed-point count off for mu={mu}, rho={rho}")
    return f"permutation characters match brute-force fixed-point counts (r<={top})"


def check_permutation_module_dimension(full: bool) -> str:
    """The multiplicities weighted by dimension sum to the coset count, which
    comes from its closed form.  The enumeration of shape-mu partitions is
    still counted: ``fixed-count-identity`` compares it, at rho = (1^r), with
    the shape character."""
    top = 8 if full else 5
    for r in range(1, top + 1):
        labels = tuple(characters.partitions(r))
        for mu in labels:
            row = characters.multiplicities(characters._shape_characteristic(mu), labels)
            total = sum(map(math.prod, zip(row, map(characters.dimension, labels))))
            if total != characters.shape_count(mu):
                raise CheckFailure(f"dimension sum off for mu={mu}")
    return f"multiplicities weighted by dimension count the cosets (r<={top})"


# ---------------------------------------------------------------- coefficients


def check_oracle_vs_stable(full: bool) -> str:
    pairs = [(3, 3, 3)]
    if full:
        pairs.append((4, 4, 4))
    checked = 0
    for m, n, top in pairs:
        for size in range(top + 1):
            for lam in characters.partitions(size):
                oracle = characters.homogeneous_plethysm(
                    m, n, characters.pad_partition(lam, m * n)
                )
                if oracle != coefficients.stable_plethysm(lam):
                    raise CheckFailure(f"oracle disagrees at ({m},{n}), lam={lam}")
                checked += 1
    return f"{checked} coefficients agree between the oracle and the stable formula"


def check_two_row_consistency(full: bool) -> str:
    cap = 16 if full else 9
    checked = 0
    for r in range(1, 5):
        for m in range(r, cap + 1):
            for n in range(r, cap + 1):
                if m * n > cap:
                    continue
                if characters.cayley_sylvester(m, n, r) != coefficients.stable_plethysm((r,)):
                    raise CheckFailure(f"two-row value off at m={m}, n={n}, r={r}")
                checked += 1
    return f"{checked} box-counting values match the one-row stable coefficient"


def check_oracle_stabilization(full: bool) -> str:
    cap = 16 if full else 9
    top = 3 if full else 2
    for size in range(1, top + 1):
        for lam in characters.partitions(size):
            values = set()
            for m in range(size, cap + 1):
                for n in range(size, cap + 1):
                    if m * n > cap or m * n - size < lam[0]:
                        continue
                    values.add(
                        characters.homogeneous_plethysm(
                            m, n, characters.pad_partition(lam, m * n)
                        )
                    )
            if len(values) > 1:
                raise CheckFailure(f"oracle not constant on stable range for {lam}")
    return f"oracle constant across every stable (m,n) within cap {cap}"


def _quotient_character(r: int) -> dict[Partition, int]:
    """For each cycle type rho of S_r: the pairs of ``foulkes.depth_quotient_basis``
    fixed by the diagram of ``cycle_representative(rho)``.  A permutation keeps
    their all-singleton inner partition, so a pair counts when the one-row
    action fixes its outer."""
    outers = [p.outer for p in foulkes.depth_quotient_basis(r)]
    character = {}
    for rho in characters.partitions(r):
        strands = enumerate(characters.cycle_representative(rho), start=1)
        d = PartitionDiagram.from_blocks(([k, r + image] for k, image in strands), r)
        character[rho] = sum(diagrams.act_on_set_partition(sp, d)[1] == sp for sp in outers)
    return character


def check_module_vs_stable(full: bool) -> str:
    """Each stable value is the multiplicity of its label in the depth
    quotient, the permutation module that S_r acts on; its character is
    read on the quotient basis alone, where each permutation diagram acts."""
    top = 6 if full else 4
    for r in range(1, top + 1):
        rows = coefficients.stable_table(r).rows
        mults = characters.multiplicities(_quotient_character(r), [lam for lam, _ in rows])
        for (lam, value), mult in zip(rows, mults):
            if mult != value:
                raise CheckFailure(f"module and table disagree at r={r}, lam={lam}")
    return f"module decomposition equals the stable table (r<={top})"


def check_weintraub(full: bool) -> str:
    """Every even partition has a positive stable value."""
    top = 10 if full else 6
    count = 0
    for size in range(0, top + 1, 2):
        for lam in characters.partitions(size):
            if any(part % 2 for part in lam):
                continue
            if coefficients.stable_plethysm(lam) <= 0:
                raise CheckFailure(f"even partition {lam} has zero stable value")
            count += 1
    return f"{count} even partitions have positive stable coefficients (|lam|<={top})"


def check_sharpness(full: bool) -> str:
    """The one-row value hits the no-ones count, and drops by one just below
    the stable range, at (m, n) = (r, r - 1); the statement needs r >= 3."""
    top = 10 if full else 6
    for r in range(3, top + 1):
        no_ones = len(characters.partitions_no_ones(r))
        stable = coefficients.stable_plethysm((r,))
        below = characters.cayley_sylvester(r, r - 1, r)
        if stable != no_ones or below != no_ones - 1:
            raise CheckFailure(
                f"sharpness fails at r={r}: one-row value {stable} and {below} below the "
                f"range, against {no_ones} no-ones partitions"
            )
    return f"stability boundary is sharp for 3<=r<={top}"


# ---------------------------------------------------------------- tensor oracle


def check_tensor_multiplicativity(full: bool) -> str:
    """Compare M_x M_y with (mn)**t M_z as sparse matrices, for every pair of
    rank-2 diagrams; equal matrices agree on every basis vector."""
    m = n = 2
    r = 2
    all_diagrams = [PartitionDiagram(r, sp) for sp in set_partitions(2 * r)]
    mats = {d: tensor.diagram_tensor_matrix(d, m, n) for d in all_diagrams}
    for x, y in itertools.product(all_diagrams, repeat=2):
        t, z = multiply_diagrams(x, y)
        product = {row: tensor.support_image(cols, mats[y]) for row, cols in mats[x].items()}
        scaled = {row: dict.fromkeys(cols, (m * n) ** t) for row, cols in mats[z].items()}
        if {row: hits for row, hits in product.items() if hits} != scaled:
            raise CheckFailure(f"tensor action not multiplicative on {x}, {y}")
    return f"{len(all_diagrams) ** 2} diagram pairs multiply compatibly at mn=4"


def check_value_type_orbits(full: bool) -> str:
    top = 3 if full else 2
    cases = 0
    for r in range(1, top + 1):
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                if tensor.tensor_basis_orbits(r, m, n) != tensor.value_type_fibers(r, m, n):
                    raise CheckFailure(f"orbits differ from fibers at r={r}, m={m}, n={n}")
                cases += 1
    return f"wreath orbits coincide with value-type fibers ({cases} cases)"


def check_rank_boundary(full: bool) -> str:
    r_top, mn_top = (3, 4) if full else (2, 3)
    for r in range(1, r_top + 1):
        expected_full = sum(pair_counts_by_depth(r))
        for m in range(1, mn_top + 1):
            for n in range(1, mn_top + 1):
                rank = tensor.foulkes_image_rank(r, m, n)
                if (rank == expected_full) != (m >= r and n >= r):
                    raise CheckFailure(f"injectivity boundary off at r={r}, m={m}, n={n}")
                if rank != _truncated_pair_count(r, m, n):
                    raise CheckFailure(f"rank != truncated poset at r={r}, m={m}, n={n}")
    return f"rank hits the pair count exactly when m,n>=r (r<={r_top}, m,n<={mn_top})"


def check_tensor_homomorphism(full: bool) -> str:
    r_top = 3 if full else 2
    rng = random.Random(777)
    cases = 0
    for r in range(1, r_top + 1):
        matrices = _generator_matrices(r)
        names = tuple(matrices)
        for m, n in ((3, 3), (2, 4), (4, 2), (2, 2), (3, 2)):
            tensors = {
                name: tensor.diagram_tensor_matrix(d, m, n) for name, d in generators(r).items()
            }
            supports = [tensor.block_constant_support(p, m, n) for p in foulkes_pairs(r)]
            for name in names:
                if not tensor.tensor_action_consistent(matrices, tensors, supports, m, n, [name]):
                    raise CheckFailure(f"one-letter word {name} fails at r={r}, mn={m * n}")
                cases += 1
            word = [rng.choice(names) for _ in range(3)]
            if not tensor.tensor_action_consistent(matrices, tensors, supports, m, n, word):
                raise CheckFailure(f"word {word} fails at r={r}, mn={m * n}")
            cases += 1
    return f"pair action matches the tensor action in {cases} generator words"


def check_bimodule_spot(full: bool) -> str:
    m = n = 2
    r = 2
    # p1 p2 acts as (mn)**t M_z (tensor.multiplicativity); the scalar keeps the rank
    _, product = multiply_diagrams(p_diagram(r, 1), p_diagram(r, 2))
    matrix = tensor.diagram_tensor_matrix(product, m, n)
    images = [
        tensor.support_image(tensor.block_constant_vector(p, m, n), matrix)
        for p in foulkes_pairs(r)
    ]
    dense = [[v[c] for c in range((m * n) ** r)] for v in images]
    rank = tensor.integer_matrix_rank(dense)
    oracle = characters.homogeneous_plethysm(2, 2, (4,))
    if rank != oracle or oracle != 1:
        raise CheckFailure(f"trivial multiplicity {rank} != oracle {oracle}")
    return "trivial-label multiplicity in the tensor image matches the oracle"


CHECKS = [
    ("setpartitions.canonical-idempotent", check_canonical_idempotent),
    ("setpartitions.refinement-partial-order", check_refinement_partial_order),
    ("setpartitions.pair-count", check_pair_count),
    ("setpartitions.truncation-bounds", check_truncation_bounds),
    ("diagrams.associativity", check_diagram_associativity),
    ("diagrams.propagating-monotone", check_propagating_monotone),
    ("diagrams.ideal-filtration", check_ideal_filtration),
    ("diagrams.subalgebra-truncation", check_subalgebra_truncation),
    ("foulkes.action-homomorphism", check_action_homomorphism),
    ("foulkes.depth-step", check_depth_step),
    ("foulkes.layer-entries", check_layer_entries),
    ("foulkes.layer-parameter-swap", check_layer_parameter_swap),
    ("foulkes.depth-radical-closed", check_depth_radical_closed),
    ("foulkes.quotient-truncation", check_quotient_truncation),
    ("foulkes.rank2-generator-matrices", check_small_generator_matrices),
    ("foulkes.rank4-dimensions", check_rank4_dimensions),
    ("characters.orthogonality", check_character_orthogonality),
    ("characters.fixed-count-identity", check_fixed_counts),
    ("characters.permutation-module-dimension", check_permutation_module_dimension),
    ("coefficients.oracle-vs-stable", check_oracle_vs_stable),
    ("coefficients.two-row-consistency", check_two_row_consistency),
    ("coefficients.oracle-stabilization", check_oracle_stabilization),
    ("coefficients.module-vs-stable", check_module_vs_stable),
    ("coefficients.weintraub-positivity", check_weintraub),
    ("coefficients.sharpness", check_sharpness),
    ("tensor.multiplicativity", check_tensor_multiplicativity),
    ("tensor.value-type-orbits", check_value_type_orbits),
    ("tensor.rank-boundary", check_rank_boundary),
    ("tensor.action-homomorphism", check_tensor_homomorphism),
    ("tensor.bimodule-spot-check", check_bimodule_spot),
]


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    full = suite == "full"
    results = []
    for name, func in CHECKS:
        start = time.monotonic()
        try:
            detail = func(full)
            ok = True
        except CheckFailure as exc:
            detail = str(exc)
            ok = False
        except ResourceCapError:  # a refused size is a configuration error, not a failure
            raise
        except Exception as exc:  # a crashing check must not hide the remaining ones
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, time.monotonic() - start))
    return results

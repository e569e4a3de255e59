"""Self-contained invariant suites behind the ``verify`` CLI command.

Each check is a small named function; ``fast`` keeps ranks at 4 and tensor
dimensions at 9, ``full`` pushes ranks to 6 (8 for pure counting) and tensor
dimensions to 16.  Checks raise CheckFailure with a message on violation and
return a one-line summary on success, so a run produces a deterministic
per-check report.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from . import characters, coefficients, diagrams, foulkes, tensor
from .diagrams import (
    AlgebraElement,
    PartitionDiagram,
    generator,
    generator_names,
    multiply_diagrams,
    p_diagram,
)
from .errors import ResourceCapError
from .setpartitions import (
    SetPartition,
    bell_number,
    foulkes_pairs,
    pair_counts_by_depth,
    set_partitions,
)

GENERIC_POINT = (5, 7)  # product 35 keeps every rank here semisimple


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


def _embed_shifted(d: PartitionDiagram, r: int) -> PartitionDiagram:
    """Reinterpret a rank r-1 diagram inside rank r with strand 1 cut."""
    small = d.size
    blocks = [[1], [r + 1]]
    for block in d.partition.blocks:
        blocks.append([p + 1 if p <= small else p + r - small + 1 for p in block])
    return PartitionDiagram.from_blocks(blocks, r)


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


def check_pair_count(full: bool) -> str:
    top = 8 if full else 4
    for r in range(1, top + 1):
        expected = sum(
            math.prod(bell_number(len(b)) for b in outer.blocks)
            for outer in set_partitions(r)
        )
        pairs = foulkes_pairs(r)
        if len(pairs) != expected:
            raise CheckFailure(f"pair count at r={r}: {len(pairs)} != {expected}")
        by_depth = [0] * r
        for p in pairs:
            by_depth[p.depth] += 1
        if tuple(by_depth) != pair_counts_by_depth(r):
            raise CheckFailure(f"depth counts at r={r}: {by_depth} != {pair_counts_by_depth(r)}")
    return f"pair counts match the blockwise Bell product sum and Stirling depth counts (r<={top})"


def check_truncation_trivial_bounds(full: bool) -> str:
    top = 6 if full else 4
    for r in range(1, top + 1):
        for p in foulkes_pairs(r):
            if not p.in_truncation(r, r):
                raise CheckFailure(f"{p} rejected by bounds m=n={r}")
    return f"bounds m,n>=r never bind (r<={top})"


# ---------------------------------------------------------------- diagram algebra


def check_diagram_associativity(full: bool) -> str:
    rng = random.Random(20240211)
    trials = 0
    for r in range(1, 5):
        for _ in range(50):
            x, y, z = (_random_diagram(rng, r) for _ in range(3))
            ex, ey, ez = map(AlgebraElement.from_diagram, (x, y, z))
            if (ex * ey) * ez != ex * (ey * ez):
                raise CheckFailure(f"associativity fails on {x}, {y}, {z}")
            trials += 1
    return f"{trials} random triples associate (r<=4)"


@lru_cache(maxsize=None)
def _product_table(r: int) -> tuple[tuple[PartitionDiagram, ...], tuple[tuple[int, ...], ...]]:
    """Every rank-r diagram, and the propagating count of each product x*y
    (row x, column y), so the exhaustive product checks stack each pair once."""
    all_diagrams = tuple(PartitionDiagram(r, sp) for sp in set_partitions(2 * r, cap=2 * r))
    counts = tuple(
        tuple(multiply_diagrams(x, y)[1].propagating_count for y in all_diagrams)
        for x in all_diagrams
    )
    return all_diagrams, counts


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
    for r in (2, 3):
        all_diagrams, counts = _product_table(r)
        # every ordered product with a factor in the ideal stays in it
        for x, row in zip(all_diagrams, counts):
            for y, product in zip(all_diagrams, row):
                in_ideal = min(x.propagating_count, y.propagating_count) <= r - 1
                if in_ideal and product > r - 1:
                    raise CheckFailure(f"ideal escaped via {x}, {y}")
    return "span of low-propagating diagrams is a two-sided ideal (r<=3)"


def check_subalgebra_truncation(full: bool) -> str:
    for r in (2, 3):
        small = [
            PartitionDiagram(r - 1, sp) for sp in set_partitions(2 * (r - 1), cap=2 * r)
        ]
        for a, b in itertools.product(small, repeat=2):
            t_small, c = multiply_diagrams(a, b)
            t_big, z = multiply_diagrams(_embed_shifted(a, r), _embed_shifted(b, r))
            if t_big != t_small + 1 or z != _embed_shifted(c, r):
                raise CheckFailure(f"truncation mismatch at r={r}: {a} * {b}")
    return "cut-strand subalgebra reproduces the next rank down (r=2,3)"


# ---------------------------------------------------------------- foulkes module


def _matrix_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The integer product a b, row by row over the nonzero entries only: the
    evaluated generator matrices hold at most one nonzero entry per column."""
    width = len(b[0]) if b else 0
    b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_support[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def check_action_homomorphism(full: bool) -> str:
    d1, d2 = GENERIC_POINT
    top = 4 if full else 3
    rng = random.Random(31337)
    words = 0
    for r in range(1, top + 1):
        names = generator_names(r)
        numeric = {
            name: foulkes.action_matrix(generator(name, r), r).evaluated(d1, d2)
            for name in names
        }
        for _ in range(8):
            word = [rng.choice(names) for _ in range(rng.randint(2, 5))]
            element = AlgebraElement.from_diagram(generator(word[0], r))
            for name in word[1:]:
                element = element * AlgebraElement.from_diagram(generator(name, r))
            # right action composes in reverse order on matrices
            acc = numeric[word[0]]
            for name in word[1:]:
                acc = _matrix_product(numeric[name], acc)
            direct = [[0] * len(foulkes_pairs(r)) for _ in foulkes_pairs(r)]
            for diag, coeff in element.items():
                m = foulkes.action_matrix(diag, r).evaluated(d1, d2)
                c = coeff.evaluate(d1, d2)
                for i, row in enumerate(m):
                    for j, v in enumerate(row):
                        direct[i][j] += c * v
            if acc != direct:
                raise CheckFailure(f"word {word} disagrees at r={r}")
            words += 1
    return f"{words} generator words match their evaluated matrices (r<={top})"


def check_depth_step(full: bool) -> str:
    top = 5 if full else 4
    for r in range(1, top + 1):
        for name in generator_names(r):
            d = generator(name, r)
            for p in foulkes_pairs(r):
                _, _, image = foulkes.act(p, d)
                if p.depth - image.depth not in (0, 1):
                    raise CheckFailure(f"depth jumped: {p} under {name} at r={r}")
    return f"every generator moves depth by 0 or -1 (r<={top})"


def check_layer_entries(full: bool) -> str:
    top = 5 if full else 4
    allowed = {
        diagrams.TwoParamScalar.monomial(0, 0),
        diagrams.TwoParamScalar.monomial(1, 1),
    }
    for r in range(1, top + 1):
        for name in generator_names(r):
            d = generator(name, r)
            for k in range(r):
                for _, _, value in foulkes.layer_matrix(d, r, k).entries:
                    if value and value not in allowed:
                        raise CheckFailure(
                            f"layer entry {value} at r={r}, k={k}, generator {name}"
                        )
    return f"layer entries all lie in {{0, 1, d1*d2}} (r<={top})"


def check_layer_parameter_swap(full: bool) -> str:
    top = 5 if full else 4
    for r in range(1, top + 1):
        for name in generator_names(r):
            d = generator(name, r)
            for k in range(r):
                plain = foulkes.layer_matrix(d, r, k)
                swapped = foulkes.layer_matrix(d, r, k, swap_params=True)
                if plain.entries != swapped.entries:
                    raise CheckFailure(f"layer swap broke at r={r}, k={k}, {name}")
    return f"layer matrices invariant under parameter swap (r<={top})"


def check_depth_radical_closed(full: bool) -> str:
    top = 5 if full else 4
    for r in range(1, top + 1):
        radical = foulkes.depth_radical_basis(r)
        for name in generator_names(r):
            d = generator(name, r)
            for p in radical:
                _, _, image = foulkes.act(p, d)
                if not foulkes.in_depth_radical(image):
                    raise CheckFailure(f"radical escaped: {p} under {name} at r={r}")
    return f"depth radical closed under all generators (r<={top})"


def check_quotient_truncation(full: bool) -> str:
    for r in range(2, 5):
        cut = p_diagram(r, 1)
        for p in foulkes.depth_quotient_basis(r):
            _, _, image = foulkes.act(p, cut)
            if not foulkes.in_depth_radical(image):
                raise CheckFailure(f"quotient not annihilated: {p} at r={r}")
        images = {foulkes.act(p, cut)[2] for p in foulkes.depth_radical_basis(r)}
        split = {
            q
            for q in foulkes_pairs(r)
            if (1,) in q.inner.blocks and (1,) in q.outer.blocks
        }
        if images != split or len(split) != len(foulkes_pairs(r - 1)):
            raise CheckFailure(f"radical truncation is not the next rank at r={r}")
    return "cut strand annihilates the quotient and shifts the radical down a rank"


def check_small_generator_matrices(full: bool) -> str:
    one = diagrams.TwoParamScalar.monomial(0, 0)
    d1d2 = diagrams.TwoParamScalar.monomial(1, 1)
    d1 = diagrams.TwoParamScalar.monomial(1, 0)
    zero = diagrams.TwoParamScalar.zero()
    expected = {
        "p1": [[zero] * 3, [one, d1d2, d1], [zero] * 3],
        "p12": [[one] * 3, [zero] * 3, [zero] * 3],
        "s1": [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
    }
    for name, want in expected.items():
        got = foulkes.action_matrix(generator(name, 2), 2).dense()
        if got != want:
            raise CheckFailure(f"rank-2 matrix for {name} is off: {got}")
    return "rank-2 generator matrices match their symbolic values"


def check_rank4_dimensions(full: bool) -> str:
    total = len(foulkes_pairs(4))
    radical = len(foulkes.depth_radical_basis(4))
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
        for lam, mu in itertools.combinations_with_replacement(classes, 2):
            inner = sum(
                characters.class_size(rho)
                * characters.character_value(lam, rho)
                * characters.character_value(mu, rho)
                for rho in classes
            )
            if inner != (factorial(r) if lam == mu else 0):
                raise CheckFailure(f"orthogonality fails for {lam}, {mu}")
    return f"first orthogonality relation holds for r<={top}"


def _brute_fixed_counts(mu: characters.Partition) -> dict[characters.Partition, int]:
    """For each cycle type rho: shape-mu set-partitions whose block sets it
    permutes, by enumeration (blocks compared as sets, not growth strings)."""
    block_sets = [
        frozenset(map(frozenset, sp.blocks))
        for sp in characters.set_partitions_of_shape(mu)
    ]
    counts = {}
    for rho in characters.partitions(sum(mu)):
        sigma = (0,) + characters.cycle_representative(rho)  # indexed by 1-based points
        counts[rho] = sum(
            all(frozenset(sigma[x] for x in b) in blocks for b in blocks)
            for blocks in block_sets
        )
    return counts


def check_fixed_counts(full: bool) -> str:
    top = 8 if full else 6
    for r in range(1, top + 1):
        for mu in characters.partitions(r):
            for rho, count in _brute_fixed_counts(mu).items():
                if characters.stab_permutation_character(mu, rho) != count:
                    raise CheckFailure(f"fixed-point count off for mu={mu}, rho={rho}")
    return f"permutation characters match brute-force fixed-point counts (r<={top})"


def check_permutation_module_dimension(full: bool) -> str:
    top = 8 if full else 5
    for r in range(1, top + 1):
        for mu in characters.partitions(r):
            total = sum(
                characters.generalized_plethysm(mu, lam) * characters.dimension(lam)
                for lam in characters.partitions(r)
            )
            if total != len(characters.set_partitions_of_shape(mu)):
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


def check_module_vs_stable(full: bool) -> str:
    top = 6 if full else 4
    for r in range(1, top + 1):
        mults = foulkes.module_multiplicities(r)
        for lam, value in coefficients.stable_table(r).rows:
            if mults[lam] != value:
                raise CheckFailure(f"module and table disagree at r={r}, lam={lam}")
    return f"module decomposition equals the stable table (r<={top})"


def check_weintraub(full: bool) -> str:
    top = 10 if full else 6
    count = 0
    for size in range(0, top + 1, 2):
        for lam in characters.partitions(size):
            if any(part % 2 for part in lam):
                continue
            if not coefficients.weintraub_check(lam):
                raise CheckFailure(f"even partition {lam} has zero stable value")
            count += 1
    return f"{count} even partitions have positive stable coefficients (|lam|<={top})"


def check_sharpness(full: bool) -> str:
    top = 10 if full else 6
    for r in range(3, top + 1):
        report = coefficients.sharpness_check(r)
        if not report["sharp"]:
            raise CheckFailure(f"sharpness fails at r={r}: {report}")
    return f"stability boundary is sharp for 3<=r<={top}"


# ---------------------------------------------------------------- tensor oracle


def check_tensor_multiplicativity(full: bool) -> str:
    m = n = 2
    r = 2
    all_diagrams = [PartitionDiagram(r, sp) for sp in set_partitions(2 * r, cap=4)]
    mats = {d: tensor.diagram_tensor_matrix(d, m, n) for d in all_diagrams}
    for x, y in itertools.product(all_diagrams, repeat=2):
        t, z = multiply_diagrams(x, y)
        for e in ({row: 1} for row in range((m * n) ** r)):
            rhs = {c: (m * n) ** t * v for c, v in tensor.apply(e, mats[z]).items()}
            if tensor.apply(tensor.apply(e, mats[x]), mats[y]) != rhs:
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
        for m in range(1, mn_top + 1):
            for n in range(1, mn_top + 1):
                if (m * n) ** r > tensor.VECTOR_CAP:
                    continue
                rank = tensor.foulkes_image_rank(r, m, n)
                expected_full = len(foulkes_pairs(r))
                if (rank == expected_full) != (m >= r and n >= r):
                    raise CheckFailure(f"injectivity boundary off at r={r}, m={m}, n={n}")
                truncated = sum(1 for p in foulkes_pairs(r) if p.in_truncation(m, n))
                if rank != truncated:
                    raise CheckFailure(f"rank != truncated poset at r={r}, m={m}, n={n}")
    return f"rank hits the pair count exactly when m,n>=r (r<={r_top}, m,n<={mn_top})"


def check_tensor_homomorphism(full: bool) -> str:
    r_top = 3 if full else 2
    rng = random.Random(777)
    cases = 0
    for r in range(1, r_top + 1):
        for m, n in ((3, 3), (2, 4), (4, 2), (2, 2), (3, 2)):
            if (m * n) ** r > tensor.MATRIX_CAP:
                continue
            names = generator_names(r)
            for name in names:
                if not tensor.tensor_action_consistent(r, m, n, [name]):
                    raise CheckFailure(f"one-letter word {name} fails at r={r}, mn={m * n}")
                cases += 1
            word = [rng.choice(names) for _ in range(3)]
            if not tensor.tensor_action_consistent(r, m, n, word):
                raise CheckFailure(f"word {word} fails at r={r}, mn={m * n}")
            cases += 1
    return f"pair action matches the tensor action in {cases} generator words"


def check_bimodule_spot(full: bool) -> str:
    m = n = 2
    r = 2
    p1 = tensor.diagram_tensor_matrix(p_diagram(r, 1), m, n)
    p2 = tensor.diagram_tensor_matrix(p_diagram(r, 2), m, n)
    images = [
        tensor.apply(tensor.apply(tensor.block_constant_vector(p, m, n), p1), p2)
        for p in foulkes_pairs(r)
    ]
    dense = [[v.get(c, 0) for c in range((m * n) ** r)] for v in images]
    rank = tensor.integer_matrix_rank(dense)
    oracle = characters.homogeneous_plethysm(2, 2, (4,))
    if rank != oracle or oracle != 1:
        raise CheckFailure(f"trivial multiplicity {rank} != oracle {oracle}")
    return "trivial-label multiplicity in the tensor image matches the oracle"


CHECKS = [
    ("setpartitions.canonical-idempotent", check_canonical_idempotent),
    ("setpartitions.refinement-partial-order", check_refinement_partial_order),
    ("setpartitions.pair-count", check_pair_count),
    ("setpartitions.truncation-bounds", check_truncation_trivial_bounds),
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


def _always_fails(full: bool) -> str:
    raise CheckFailure("injected failure for exit-code testing")


def run_suite(suite: str, inject_failure: bool = False) -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    full = suite == "full"
    checks = list(CHECKS)
    if inject_failure:
        checks.append(("injected-failure", _always_fails))
    results = []
    for name, func in checks:
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

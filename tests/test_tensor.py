import itertools
import math
from collections import Counter

import pytest

from plethysm import foulkes, tensor, verify
from plethysm.characters import homogeneous_plethysm
from plethysm.diagrams import (
    PartitionDiagram,
    generators,
    multiply_diagrams,
    p12_diagram,
    p_diagram,
    swap_diagram,
)
from plethysm.errors import MalformedPartitionError, ResourceCapError, SizeMismatchError
from plethysm.setpartitions import FoulkesPair, SetPartition, foulkes_pairs, set_partitions
from plethysm.tensor import (
    VECTOR_CAP,
    block_constant_support,
    block_constant_vector,
    diagram_tensor_matrix,
    digit_to_pair,
    foulkes_image_rank,
    integer_matrix_rank,
    support_image,
    tensor_basis_orbits,
    value_type,
    value_type_fibers,
)

from helpers import (
    coarsens,
    identity_diagram,
    one_block,
    value_type_orbit_vector,
    word_consistent,
)


def pair(inner_blocks, outer_blocks, r):
    return FoulkesPair(
        SetPartition.from_blocks(inner_blocks, r),
        SetPartition.from_blocks(outer_blocks, r),
    )


class TestDiagramMatrix:
    def test_identity(self):
        for m, n, r in ((2, 1, 2), (2, 2, 1), (3, 1, 1)):
            mat = diagram_tensor_matrix(identity_diagram(r), m, n)
            assert mat == {i: [i] for i in range((m * n) ** r)}

    def test_swap_is_the_factor_exchange(self):
        mat = diagram_tensor_matrix(swap_diagram(2, 1), 2, 1)
        expected = {2 * a + b: [2 * b + a] for a in range(2) for b in range(2)}
        assert mat == expected

    def test_p1_rank1_all_ones(self):
        mat = diagram_tensor_matrix(p_diagram(1), 2, 1)
        assert mat == {0: [0, 1], 1: [0, 1]}

    def test_entries_enforce_block_constancy(self):
        mat = diagram_tensor_matrix(p12_diagram(2), 2, 2)
        words = list(itertools.product(range(4), repeat=2))
        for row, i in enumerate(words):
            for col, j in enumerate(words):
                expected = int(i[0] == i[1] == j[0] == j[1])
                assert int(col in mat.get(row, ())) == expected

    def test_multiplicative_with_loop_scalar(self):
        m = n = 2
        diagrams = [PartitionDiagram(2, sp) for sp in set_partitions(4)]
        mats = {d: diagram_tensor_matrix(d, m, n) for d in diagrams}
        for x, y in itertools.product(diagrams, repeat=2):
            t, z = multiply_diagrams(x, y)
            for row in range((m * n) ** 2):
                lhs = support_image(support_image([row], mats[x]).elements(), mats[y])
                assert lhs == dict.fromkeys(mats[z].get(row, ()), (m * n) ** t)

    def test_dimension_is_not_capped(self):
        # 9**4 rows and columns; the support, one entry per block value, is 9**4 too
        mat = diagram_tensor_matrix(identity_diagram(4), 3, 3)
        assert sum(map(len, mat.values())) == 9**4
        assert mat == {i: [i] for i in range(9**4)}

    def test_support_cap(self):
        # six singleton blocks: 4096 rows, but the support would hold 16**6
        # entries; the cap fires before any is built
        d = PartitionDiagram(3, SetPartition.singletons(6))
        with pytest.raises(ResourceCapError, match=f"tensor support={16**6} exceeds VECTOR_CAP = 100000"):
            diagram_tensor_matrix(d, 4, 4)

    def test_small_support_in_a_large_dimension_answers(self):
        # 5**6 rows, but one block: the support holds 5 entries, on the diagonal
        mat = diagram_tensor_matrix(PartitionDiagram(6, one_block(12)), 5, 1)
        assert sum(map(len, mat.values())) == 5
        assert mat == {v * (5**6 - 1) // 4: [v * (5**6 - 1) // 4] for v in range(5)}


def constant_on(sp, values):
    """Do the values (one per point, in order) take one value on each block of ``sp``?"""
    return all(len({values[p - 1] for p in block}) == 1 for block in sp.blocks)


@pytest.mark.parametrize("r, m, n", itertools.product((1, 2), repeat=3))
def test_diagram_matrix_is_a_scan_of_the_full_square(r, m, n):
    # every diagram of rank r: entry (I, J) is 1 exactly when the word IJ is
    # constant on every block; rows and columns come out in flat order
    words = list(itertools.product(range(m * n), repeat=r))
    for sp in set_partitions(2 * r):
        scan = {}
        for row, i in enumerate(words):
            for col, j in enumerate(words):
                if constant_on(sp, i + j):
                    scan.setdefault(row, []).append(col)
        assert list(diagram_tensor_matrix(PartitionDiagram(r, sp), m, n).items()) == list(
            scan.items()
        ), (r, m, n, sp)


@pytest.mark.parametrize("r, m, n", itertools.product((1, 2, 3), repeat=3))
def test_support_is_a_filter_of_every_word(r, m, n):
    # subscripts constant on the inner blocks and superscripts on the outer
    # ones; sorted lists, so a flat index listed twice would show
    words = list(enumerate(itertools.product(range(m * n), repeat=r)))
    for p in foulkes_pairs(r):
        kept = [
            flat
            for flat, word in words
            if constant_on(p.inner, [c % m for c in word])
            and constant_on(p.outer, [c // m for c in word])
        ]
        assert sorted(block_constant_support(p, m, n)) == kept, (r, m, n, p)


class TestValueType:
    def test_seven_position_example(self):
        pairs = [(2, 1), (1, 1), (1, 1), (3, 2), (2, 3), (3, 2), (3, 3)]
        vt = value_type(pairs)
        assert str(vt) == "{1|2,3|4,6|5|7} ; {1,2,3|4,6|5,7}"

    def test_constant_vector(self):
        vt = value_type([(1, 1)] * 4)
        assert vt.inner == one_block(4)
        assert vt.outer == one_block(4)

    def test_distinct_superscripts(self):
        vt = value_type([(1, 1), (1, 2), (1, 3)])
        assert vt.inner == SetPartition.singletons(3)
        assert vt.outer == SetPartition.singletons(3)

    def test_fibers_lie_in_truncation(self):
        m, n, r = 2, 2, 3
        for word in itertools.product(range(m * n), repeat=r):
            vt = value_type([digit_to_pair(c, m) for c in word])
            assert vt.in_truncation(m, n)


class TestBlockConstantVectors:
    def test_support_counts(self):
        p = pair([[1], [2]], [[1, 2]], 2)
        vec = block_constant_vector(p, 2, 2)
        assert sum(vec.values()) == 8
        assert set(vec.values()) <= {0, 1}

    def test_strict_orbit_sum(self):
        p = pair([[1], [2]], [[1, 2]], 2)
        strict = value_type_orbit_vector(p, 2, 2)
        assert sum(strict.values()) == 4

    def test_singleton_pair_gives_everything_at_rank1(self):
        p = pair([[1]], [[1]], 1)
        for m, n in ((2, 2), (3, 2)):
            assert sum(block_constant_vector(p, m, n).values()) == m * n

    def test_known_support_of_unbalanced_example(self):
        # the ambient space is 20**5-dimensional; only the support is built
        p = pair([[1, 2, 4], [3], [5]], [[1, 2, 3, 4], [5]], 5)
        support = block_constant_support(p, 4, 5)
        assert len(support) == len(set(support)) == 4**3 * 5**2

    def test_equals_sum_over_coarsenings(self):
        for r, m, n in ((2, 2, 2), (3, 2, 2), (3, 2, 3)):
            for p in foulkes_pairs(r):
                total = Counter()
                for q in foulkes_pairs(r):
                    if coarsens(q, p) or q == p:
                        total.update(value_type_orbit_vector(q, m, n))
                assert total == block_constant_vector(p, m, n)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            block_constant_vector(pair([[1]], [[1]], 1), 400, 400)


class TestRank:
    def test_rank_helper(self):
        assert integer_matrix_rank([[1, 0], [0, 1]]) == 2
        assert integer_matrix_rank([[2, 4], [1, 2]]) == 1
        assert integer_matrix_rank([[0, 0]]) == 0
        assert integer_matrix_rank([[3, 1, 2], [6, 2, 4], [1, 1, 1]]) == 2

    def test_fractional_entry_refused_not_truncated(self):
        # int() would read 0.5 as 0 and give rank 0; the true rank is 1
        with pytest.raises(MalformedPartitionError, match=r"matrix entry 0\.5 "):
            integer_matrix_rank([[0.5]])

    def test_fractional_entry_in_a_dependent_row_refused(self):
        # truncated, the second row would be [0, 1] and the rank 2; the true rank is 1
        with pytest.raises(MalformedPartitionError, match=r"matrix entry 0\.5 "):
            integer_matrix_rank([[1, 2], [0.5, 1]])

    def test_fractional_entry_in_a_one_shot_row_refused(self):
        # a row read twice would be empty the second time, and its rank 0
        with pytest.raises(MalformedPartitionError, match=r"matrix entry 0\.5 "):
            integer_matrix_rank([(x for x in [1, 0.5])])

    def test_string_entry_refused(self):
        with pytest.raises(MalformedPartitionError, match="matrix entry '1' "):
            integer_matrix_rank([["1", "2"], ["2", "4"]])

    def test_ragged_rows_refused(self):
        # the short row would be read as far as it goes, giving rank 2
        with pytest.raises(SizeMismatchError, match="lengths 2 and 1"):
            integer_matrix_rank([[0, 1], [1]])

    def test_short_row_refused_before_elimination_reads_past_it(self):
        with pytest.raises(SizeMismatchError, match="lengths 2 and 1"):
            integer_matrix_rank([[1, 2], [3]])

    def test_injective_exactly_in_range(self):
        assert foulkes_image_rank(2, 2, 2) == 3
        assert foulkes_image_rank(2, 1, 1) == 1
        assert foulkes_image_rank(3, 2, 3) == 11

    def test_boundary(self):
        for r in (1, 2, 3):
            for m in (1, 2, 3, 4):
                for n in (1, 2, 3, 4):
                    rank = foulkes_image_rank(r, m, n)
                    expected_injective = m >= r and n >= r
                    assert (rank == len(foulkes_pairs(r))) == expected_injective
                    truncated = sum(
                        1 for p in foulkes_pairs(r) if p.in_truncation(m, n)
                    )
                    assert rank == truncated


class TestActionCompatibility:
    def test_single_letters(self):
        for r in (1, 2, 3):
            for m, n in ((2, 2), (3, 3), (2, 4)):
                for name in generators(r):
                    assert word_consistent(r, m, n, [name])

    def test_longer_word(self):
        assert word_consistent(3, 3, 3, ["p12", "s2", "p1"])

    def test_rank1_scalar(self):
        assert word_consistent(1, 3, 2, ["p1"])

    def test_rank2_parameter_specialisation(self):
        # the p1 column scalars specialise to m*n and m at (2, 2)
        assert word_consistent(2, 2, 2, ["p1", "p1"])

    def test_verify_check_reads_the_built_matrices(self, monkeypatch):
        # with verify's generator matrices built, the tensor check stacks no
        # partition again and builds each letter's tensor matrix once per (r, m, n)
        for r in (1, 2, 3):
            verify._generator_matrices(r)
        stacked = []
        one_row = foulkes.act_on_set_partition
        monkeypatch.setattr(
            foulkes, "act_on_set_partition", lambda sp, d: stacked.append(sp) or one_row(sp, d)
        )
        built = []
        tensor_matrix = tensor.diagram_tensor_matrix
        monkeypatch.setattr(
            tensor,
            "diagram_tensor_matrix",
            lambda d, m, n: built.append((m, n, d)) or tensor_matrix(d, m, n),
        )
        verify.check_tensor_homomorphism(True)
        assert stacked == []
        # five (m, n) cases at each rank, with 1, 3 and 4 letters at r = 1, 2, 3
        assert len(built) == len(set(built)) == 5 * (1 + 3 + 4)

    def test_verify_check_builds_each_support_once(self, monkeypatch):
        # five (m, n) cases at each rank, with 1, 3 and 12 pairs at r = 1, 2, 3
        calls = []
        support = tensor.block_constant_support
        monkeypatch.setattr(
            tensor,
            "block_constant_support",
            lambda p, m, n: calls.append((p, m, n)) or support(p, m, n),
        )
        verify.check_tensor_homomorphism(True)
        assert len(calls) == len(set(calls)) == 5 * (1 + 3 + 12) == 80


def dense_image_rank(r, m, n):
    # reference: eliminate the pairs' 0/1 vectors over every support column
    vectors = [block_constant_vector(p, m, n) for p in foulkes_pairs(r)]
    columns = sorted(set().union(*vectors))
    return integer_matrix_rank([[v.get(c, 0) for c in columns] for v in vectors])


@pytest.mark.parametrize(
    "function, args",
    [
        (foulkes_image_rank, (2, 0, 3)),
        (foulkes_image_rank, (2, -1, 3)),
        (foulkes_image_rank, (1, -2, -2)),
        (tensor_basis_orbits, (2, -1, 2)),
        (value_type_fibers, (2, 0, 2)),
        (diagram_tensor_matrix, (generators(2)["s1"], -1, 3)),
        (block_constant_support, (pair([[1], [2]], [[1, 2]], 2), 2, 0)),
        (block_constant_vector, (pair([[1], [2]], [[1, 2]], 2), -400, -400)),
    ],
)
def test_tensor_factors_must_be_positive(function, args):
    m, n = args[-2:]
    with pytest.raises(MalformedPartitionError, match=f"m={m}, n={n}: both must be positive"):
        function(*args)


@pytest.mark.parametrize(
    "function, r",
    list(itertools.product((tensor_basis_orbits, value_type_fibers, foulkes_image_rank), (-1, 0))),
)
def test_tensor_ground_size_must_be_positive(function, r):
    # (mn)**r would be a float at r = -1 and a one-point basis at r = 0
    with pytest.raises(MalformedPartitionError, match="ground size must be positive"):
        function(r, 2, 2)


class TestOracleReferences:
    def test_gram_rank_equals_dense_elimination(self):
        for r, m, n in itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4)):
            assert (m * n) ** r <= VECTOR_CAP
            assert foulkes_image_rank(r, m, n) == dense_image_rank(r, m, n), (r, m, n)

    def test_rank_refuses_a_large_dimension(self):
        with pytest.raises(ResourceCapError, match=f"tensor dimension={16**5} exceeds VECTOR_CAP = 100000"):
            foulkes_image_rank(5, 4, 4)

    def test_rank_refuses_a_large_gram_matrix_before_enumerating(self, monkeypatch):
        # 358 pairs at r = 5 and 2,471 at r = 6: both dimensions pass the cap
        built = []
        monkeypatch.setattr(tensor, "foulkes_pairs", built.append)
        for r, m, n, pairs in ((5, 1, 1, 358), (6, 2, 3, 2471)):
            assert (m * n) ** r <= VECTOR_CAP
            message = f"Gram matrix size={pairs**2} exceeds VECTOR_CAP = 100000"
            with pytest.raises(ResourceCapError, match=message):
                foulkes_image_rank(r, m, n)
        assert built == []

    def test_rank_boundary_reads_the_closed_truncated_count(self, monkeypatch):
        exact = verify._truncated_pair_count

        def one_too_many(r, m, n):
            return exact(r, m, n) + ((r, m, n) == (2, 1, 2))

        monkeypatch.setattr(verify, "_truncated_pair_count", one_too_many)
        with pytest.raises(verify.CheckFailure, match="rank != truncated poset at r=2, m=1, n=2"):
            verify.check_rank_boundary(False)

    def test_action_oracle_catches_a_wrong_exponent(self, monkeypatch):
        exact = foulkes.act_on_set_partition
        target = generators(3)["p1"]

        def off_by_one(sp, d):
            # one closed component too many in the one-row action of p1 at r = 3
            closed, image = exact(sp, d)
            return closed + (d == target), image

        monkeypatch.setattr(foulkes, "act_on_set_partition", off_by_one)
        assert word_consistent(3, 3, 3, ["s1"])
        assert not word_consistent(3, 3, 3, ["p1"])
        with pytest.raises(verify.CheckFailure, match="one-letter word p1 fails at r=3"):
            verify.check_tensor_homomorphism(True)

    def test_multiplicativity_check_catches_a_wrong_closed_count(self, monkeypatch):
        exact = verify.multiply_diagrams
        target = (p_diagram(2, 1), p_diagram(2, 2))

        def off_by_one(x, y):
            t, z = exact(x, y)
            return t + ((x, y) == target), z

        monkeypatch.setattr(verify, "multiply_diagrams", off_by_one)
        with pytest.raises(verify.CheckFailure, match="not multiplicative"):
            verify.check_tensor_multiplicativity(False)


class TestOrbits:
    def test_orbit_fibers_match(self):
        for r, m, n in itertools.product((1, 2), repeat=3):
            assert tensor_basis_orbits(r, m, n) == value_type_fibers(r, m, n)

    def test_three_cubed(self):
        assert tensor_basis_orbits(3, 3, 3) == value_type_fibers(3, 3, 3)

    def test_digit_maps_generate_the_whole_wreath_group(self):
        # closure under composition, then (m!)^n * n! elements that each send
        # every factor's digits onto one factor's
        for m, n in itertools.product((1, 2, 3), repeat=2):
            letters = tensor._wreath_digit_maps(m, n)
            identity = tuple(range(m * n))
            group, queue = {identity}, [identity]
            while queue:
                g = queue.pop()
                for s in letters:
                    h = tuple(s[c] for c in g)
                    if h not in group:
                        group.add(h)
                        queue.append(h)
            assert len(group) == math.factorial(m) ** n * math.factorial(n), (m, n)
            factors = {frozenset(range(low, low + m)) for low in range(0, m * n, m)}
            for g in group:
                assert {frozenset(g[c] for c in f) for f in factors} == factors


def times(vector, matrix):
    # weighted row vector times 0/1 matrix, both sparse
    out = Counter()
    for row, coeff in vector.items():
        for col in matrix.get(row, ()):
            out[col] += coeff
    return out


class TestBimoduleSpotCheck:
    def test_trivial_multiplicity(self):
        m = n = 2
        p1 = diagram_tensor_matrix(p_diagram(2, 1), m, n)
        p2 = diagram_tensor_matrix(p_diagram(2, 2), m, n)
        images = [times(times(block_constant_vector(p, m, n), p1), p2) for p in foulkes_pairs(2)]
        rows = [[v[c] for c in range((m * n) ** 2)] for v in images]
        assert integer_matrix_rank(rows) == homogeneous_plethysm(2, 2, (4,)) == 1

    def test_check_catches_a_wrong_product_matrix(self, monkeypatch):
        # the identity in place of p1 p2 keeps the three pair vectors independent
        exact = verify.multiply_diagrams
        monkeypatch.setattr(
            verify, "multiply_diagrams", lambda x, y: (exact(x, y)[0], identity_diagram(x.size))
        )
        check = dict(verify.CHECKS)["tensor.bimodule-spot-check"]
        with pytest.raises(verify.CheckFailure, match="trivial multiplicity 3 != oracle 1"):
            check(False)

import random
from collections import Counter

import pytest

from plethysm import verify
from plethysm.diagrams import (
    PartitionDiagram,
    TwoParamScalar,
    act_on_set_partition,
    generator,
    generator_names,
    p12_diagram,
    p_diagram,
    swap_diagram,
)
from plethysm.errors import ResourceCapError
from plethysm.foulkes import (
    act,
    action_matrix,
    block_filling,
    depth_quotient_basis,
    depth_radical_basis,
    in_depth_radical,
    layer_matrix,
    module_multiplicities,
    orbit_decomposition,
)
from plethysm.setpartitions import (
    FoulkesPair,
    SetPartition,
    foulkes_pairs,
    set_partitions,
    singleton_free_count,
)

ONE = TwoParamScalar.monomial(0, 0)
D1 = TwoParamScalar.monomial(1, 0)
D1D2 = TwoParamScalar.monomial(1, 1)
ZERO = TwoParamScalar.zero()


def pair(inner_blocks, outer_blocks, r):
    return FoulkesPair(
        SetPartition.from_blocks(inner_blocks, r),
        SetPartition.from_blocks(outer_blocks, r),
    )


def reference_p12(p):
    # case analysis straight from the defining formulas: merge the inner
    # blocks of 1 and 2, merge the outer blocks unless already equal
    inner, outer = p.inner, p.outer
    if inner.block_of(1) == inner.block_of(2):
        return (0, 0, p)
    merged_inner = _merge(inner, 1, 2)
    if outer.block_of(1) == outer.block_of(2):
        return (0, 0, FoulkesPair(merged_inner, outer))
    return (0, 0, FoulkesPair(merged_inner, _merge(outer, 1, 2)))


def reference_p1(p):
    inner, outer = p.inner, p.outer
    inner_singleton = (1,) in inner.blocks
    outer_singleton = (1,) in outer.blocks
    if inner_singleton and outer_singleton:
        return (1, 1, p)
    if not inner_singleton:
        return (0, 0, FoulkesPair(_split_one(inner), _split_one(outer)))
    return (1, 0, FoulkesPair(inner, _split_one(outer)))


def reference_swap(p, i):
    one_line = list(range(1, p.size + 1))
    one_line[i - 1], one_line[i] = one_line[i], one_line[i - 1]
    return (0, 0, FoulkesPair(p.inner.permuted(one_line), p.outer.permuted(one_line)))


def _merge(sp, a, b):
    blocks = [list(blk) for blk in sp.blocks]
    ba, bb = sp.block_of(a), sp.block_of(b)
    blocks[ba].extend(blocks[bb])
    del blocks[bb]
    return SetPartition.from_blocks(blocks, sp.size)


def _split_one(sp):
    blocks = [[x for x in blk if x != 1] for blk in sp.blocks]
    blocks = [blk for blk in blocks if blk]
    return SetPartition.from_blocks(blocks + [[1]], sp.size)


def direct_act(p, d):
    """Both one-row actions stacked afresh, with no memo in between."""
    t1, inner = act_on_set_partition(p.inner, d)
    t2, outer = act_on_set_partition(p.outer, d)
    return t1, t2, FoulkesPair(inner, outer)


class TestAct:
    def test_matches_direct_stacking_for_generators(self):
        for r in range(1, 6):
            for name in generator_names(r):
                d = generator(name, r)
                for p in foulkes_pairs(r):
                    assert act(p, d) == direct_act(p, d)

    def test_matches_direct_stacking_for_random_diagrams(self):
        rng = random.Random(4)
        eight_points = list(set_partitions(8))
        for sp in rng.choices(eight_points, k=200):
            d = PartitionDiagram(4, sp)
            for p in foulkes_pairs(4):
                assert act(p, d) == direct_act(p, d)

    def test_rank2_worked_values(self):
        b2 = pair([[1], [2]], [[1], [2]], 2)
        b3 = pair([[1], [2]], [[1, 2]], 2)
        b1 = pair([[1, 2]], [[1, 2]], 2)
        assert act(b2, p_diagram(2)) == (1, 1, b2)
        assert act(b3, p_diagram(2)) == (1, 0, b2)
        assert act(b2, p12_diagram(2)) == (0, 0, b1)
        assert act(b1, p_diagram(2)) == (0, 0, b2)

    def test_matches_case_analysis_everywhere(self):
        for r in (2, 3, 4):
            for p in foulkes_pairs(r):
                assert act(p, p12_diagram(r)) == reference_p12(p)
                assert act(p, p_diagram(r)) == reference_p1(p)
                for i in range(1, r):
                    assert act(p, swap_diagram(r, i)) == reference_swap(p, i)

    def test_depth_step_bounded(self):
        for r in (2, 3, 4):
            for name in generator_names(r):
                d = generator(name, r)
                for p in foulkes_pairs(r):
                    _, _, image = act(p, d)
                    assert p.depth - image.depth in (0, 1)


class TestActionMatrix:
    def test_rank2_against_displayed_matrices(self):
        got_p1 = action_matrix(p_diagram(2), 2).dense()
        assert got_p1 == [
            [ZERO, ZERO, ZERO],
            [ONE, D1D2, D1],
            [ZERO, ZERO, ZERO],
        ]
        got_p12 = action_matrix(p12_diagram(2), 2).dense()
        assert got_p12 == [
            [ONE, ONE, ONE],
            [ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO],
        ]
        got_s = action_matrix(swap_diagram(2, 1), 2).dense()
        identity = [
            [ONE if i == j else ZERO for j in range(3)] for i in range(3)
        ]
        assert got_s == identity

    def test_columns_have_single_entry(self):
        for r in (1, 2, 3, 4):
            for name in generator_names(r):
                matrix = action_matrix(generator(name, r), r)
                for j in range(matrix.dim):
                    hits = [i for i, jj, v in matrix.entries if jj == j and v]
                    assert len(hits) == 1

    def test_cap(self):
        with pytest.raises(ResourceCapError, match="r=8 exceeds MODULE_CAP = 7"):
            action_matrix(p_diagram(8), 8)

    def test_verify_product_matches_the_triple_sum(self):
        rng = random.Random(2024)
        for _ in range(200):
            rows, inner, cols = (rng.randint(1, 7) for _ in range(3))
            a = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(inner)]
                 for _ in range(rows)]
            b = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(cols)]
                 for _ in range(inner)]
            expected = [
                [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
            assert verify._matrix_product(a, b) == expected


class TestLayers:
    def test_rank2_layer_restrictions(self):
        layer0 = layer_matrix(p_diagram(2), 2, 0).dense()
        assert layer0 == [[ZERO, ZERO], [ONE, D1D2]]
        layer1 = layer_matrix(p_diagram(2), 2, 1).dense()
        assert layer1 == [[ZERO]]

    def test_swaps_give_permutation_matrices(self):
        for r in (2, 3, 4):
            for i in range(1, r):
                for k in range(r):
                    matrix = layer_matrix(swap_diagram(r, i), r, k)
                    for row in matrix.dense():
                        for entry in row:
                            assert entry in (ZERO, ONE)
                    for j in range(matrix.dim):
                        col = [v for _, jj, v in matrix.entries if jj == j]
                        assert len(col) == 1 and col[0] == ONE

    def test_entries_restricted_and_swap_invariant(self):
        for r in (2, 3, 4, 5):
            for name in generator_names(r):
                d = generator(name, r)
                for k in range(r):
                    plain = layer_matrix(d, r, k)
                    for _, _, value in plain.entries:
                        assert value in (ONE, D1D2) or not value
                    assert plain.entries == layer_matrix(d, r, k, swap_params=True).entries

    def test_layer_out_of_range(self):
        with pytest.raises(ResourceCapError):
            layer_matrix(p_diagram(2), 2, 5)

    def test_cap(self):
        with pytest.raises(ResourceCapError, match="r=8 exceeds MODULE_CAP = 7"):
            layer_matrix(p_diagram(8), 8, 0)


class TestDepthRadical:
    def test_examples(self):
        assert in_depth_radical(pair([[1, 2]], [[1, 2]], 2))
        assert not in_depth_radical(
            pair([[1], [2], [3], [4]], [[1, 2], [3, 4]], 4)
        )

    def test_matches_block_definition(self):
        for r in range(1, 6):
            for p in foulkes_pairs(r):
                expected = any(len(b) > 1 for b in p.inner.blocks) or any(
                    len(b) == 1 for b in p.outer.blocks
                )
                assert in_depth_radical(p) == expected

    def test_rank4_counts(self):
        flags = [in_depth_radical(p) for p in foulkes_pairs(4)]
        assert sum(flags) == 56
        assert len(flags) - sum(flags) == 4

    def test_quotient_basis_shape(self):
        for r in (2, 3, 4, 5):
            for p in depth_quotient_basis(r):
                assert p.inner == SetPartition.singletons(r)
                assert all(len(b) >= 2 for b in p.outer.blocks)

    def test_quotient_sizes(self):
        assert len(depth_quotient_basis(2)) == 1
        assert len(depth_quotient_basis(3)) == 1
        assert len(depth_quotient_basis(4)) == 4

    def test_quotient_basis_matches_filtered_pairs(self):
        for r in range(1, 8):
            expected = tuple(p for p in foulkes_pairs(r) if not in_depth_radical(p))
            assert depth_quotient_basis(r) == expected

    def test_closed_form_quotient_count(self):
        for r in range(1, 8):
            assert singleton_free_count(r) == len(depth_quotient_basis(r))

    def test_radical_closed_under_generators(self):
        for r in (2, 3, 4, 5):
            for name in generator_names(r):
                d = generator(name, r)
                for p in depth_radical_basis(r):
                    assert in_depth_radical(act(p, d)[2])


class TestOrbits:
    def test_rank4(self):
        orbits = {o.shape: o for o in orbit_decomposition(4)}
        assert set(orbits) == {(4,), (2, 2)}
        assert orbits[(4,)].size == 1
        assert orbits[(2, 2)].size == 3
        assert orbits[(2, 2)].representative.outer == SetPartition.from_blocks(
            [[1, 2], [3, 4]], 4
        )

    def test_small_ranks(self):
        assert [o.shape for o in orbit_decomposition(2)] == [(2,)]
        assert [o.shape for o in orbit_decomposition(3)] == [(3,)]

    def test_sizes_cover_quotient(self):
        for r in (2, 3, 4, 5, 6):
            total = sum(o.size for o in orbit_decomposition(r))
            assert total == len(depth_quotient_basis(r))

    def test_closed_form_sizes_match_enumeration(self):
        for r in range(1, 8):
            shapes = Counter(
                tuple(sorted(map(len, p.outer.blocks), reverse=True))
                for p in depth_quotient_basis(r)
            )
            assert {o.shape: o.size for o in orbit_decomposition(r)} == shapes

    def test_block_filling(self):
        assert str(block_filling((3, 2))) == "{1,2,3|4,5}"


class TestModuleMultiplicities:
    def test_rank1(self):
        assert module_multiplicities(1) == {(): 1, (1,): 0}

    def test_rank2(self):
        mults = module_multiplicities(2)
        assert mults[(2,)] == 1
        assert mults[()] == 1
        assert mults[(1,)] == 0
        assert mults[(1, 1)] == 0

    def test_rank4(self):
        mults = module_multiplicities(4)
        nonzero = {k: v for k, v in mults.items() if v}
        assert nonzero == {(): 1, (2,): 1, (3,): 1, (4,): 2, (2, 2): 1}

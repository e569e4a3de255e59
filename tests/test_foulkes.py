import random
import re
from collections import Counter

import pytest

from plethysm import foulkes, verify
from plethysm.characters import singleton_free_count
from plethysm.diagrams import (
    PartitionDiagram,
    act_on_set_partition,
    generators,
    p12_diagram,
    p_diagram,
    swap_diagram,
)
from plethysm.errors import InternalConsistencyError, MalformedPartitionError, ResourceCapError
from plethysm.foulkes import (
    action_matrix,
    block_filling,
    depth_quotient_basis,
    follow_word,
    in_depth_radical,
    layer_matrix,
    orbit_decomposition,
)
from plethysm.setpartitions import FoulkesPair, SetPartition, foulkes_pairs, set_partitions

from helpers import (
    block_of,
    exponent_grid,
    module_multiplicities,
    one_block,
    pair_images,
    permuted,
)

# an entry d1^t1 d2^t2 as its exponents (t1, t2); a zero entry is absent
ONE = (0, 0)
D1 = (1, 0)
D1D2 = (1, 1)
ZERO = None


def pair(inner_blocks, outer_blocks, r):
    return FoulkesPair(
        SetPartition.from_blocks(inner_blocks, r),
        SetPartition.from_blocks(outer_blocks, r),
    )


def reference_p12(p):
    # case analysis straight from the defining formulas: merge the inner
    # blocks of 1 and 2, merge the outer blocks unless already equal
    inner, outer = p.inner, p.outer
    if block_of(inner, 1) == block_of(inner, 2):
        return (0, 0, p)
    merged_inner = _merge(inner, 1, 2)
    if block_of(outer, 1) == block_of(outer, 2):
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
    return (0, 0, FoulkesPair(permuted(p.inner, one_line), permuted(p.outer, one_line)))


def _merge(sp, a, b):
    blocks = [list(blk) for blk in sp.blocks]
    ba, bb = block_of(sp, a), block_of(sp, b)
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
    # the action is read off the action matrices' columns
    def test_matches_direct_stacking_for_generators(self):
        for r in range(1, 6):
            for d in generators(r).values():
                images = pair_images(action_matrix(d, r))
                for p in foulkes_pairs(r):
                    assert images[p] == direct_act(p, d)

    def test_matches_direct_stacking_for_random_diagrams(self):
        rng = random.Random(4)
        eight_points = list(set_partitions(8))
        for sp in rng.choices(eight_points, k=200):
            d = PartitionDiagram(4, sp)
            images = pair_images(action_matrix(d, 4))
            for p in foulkes_pairs(4):
                assert images[p] == direct_act(p, d)

    def test_rank2_worked_values(self):
        b2 = pair([[1], [2]], [[1], [2]], 2)
        b3 = pair([[1], [2]], [[1, 2]], 2)
        b1 = pair([[1, 2]], [[1, 2]], 2)
        p1 = pair_images(action_matrix(p_diagram(2), 2))
        p12 = pair_images(action_matrix(p12_diagram(2), 2))
        assert p1[b2] == (1, 1, b2)
        assert p1[b3] == (1, 0, b2)
        assert p12[b2] == (0, 0, b1)
        assert p1[b1] == (0, 0, b2)

    def test_matches_case_analysis_everywhere(self):
        for r in (2, 3, 4):
            p12 = pair_images(action_matrix(p12_diagram(r), r))
            p1 = pair_images(action_matrix(p_diagram(r), r))
            swaps = {i: pair_images(action_matrix(swap_diagram(r, i), r)) for i in range(1, r)}
            for p in foulkes_pairs(r):
                assert p12[p] == reference_p12(p)
                assert p1[p] == reference_p1(p)
                for i in range(1, r):
                    assert swaps[i][p] == reference_swap(p, i)

    def test_depth_step_bounded(self):
        for r in (2, 3, 4):
            for d in generators(r).values():
                images = pair_images(action_matrix(d, r))
                for p in foulkes_pairs(r):
                    _, _, image = images[p]
                    assert p.depth - image.depth in (0, 1)

    def test_depth_step_check_catches_a_jump(self, monkeypatch):
        def to_singletons(sp, d):
            # every pair goes to (singletons ; singletons), a basis pair of depth 0
            return 0, SetPartition.singletons(sp.size)

        monkeypatch.setattr(foulkes, "act_on_set_partition", to_singletons)
        message = "depth jumped: {1|2|3} ; {1,2,3} under p1 at r=3"
        with pytest.raises(verify.CheckFailure, match=re.escape(message)):
            verify.check_depth_step(False)


class TestActionMatrix:
    def test_rank2_against_displayed_matrices(self):
        got_p1 = exponent_grid(action_matrix(p_diagram(2), 2))
        assert got_p1 == [
            [ZERO, ZERO, ZERO],
            [ONE, D1D2, D1],
            [ZERO, ZERO, ZERO],
        ]
        got_p12 = exponent_grid(action_matrix(p12_diagram(2), 2))
        assert got_p12 == [
            [ONE, ONE, ONE],
            [ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO],
        ]
        got_s = exponent_grid(action_matrix(swap_diagram(2, 1), 2))
        identity = [
            [ONE if i == j else ZERO for j in range(3)] for i in range(3)
        ]
        assert got_s == identity

    def test_columns_have_single_entry(self):
        for r in (1, 2, 3, 4):
            for d in generators(r).values():
                matrix = action_matrix(d, r)
                assert len(matrix.entries) == len(matrix.basis)
                assert None not in matrix.entries

    def test_cap(self):
        with pytest.raises(ResourceCapError, match="r=8 exceeds MODULE_CAP = 7"):
            action_matrix(p_diagram(8), 8)

    def test_coordinate_dump_and_column_entries(self):
        matrix = action_matrix(p_diagram(2), 2)
        assert matrix.coordinate_dump() == [
            (1, 0, "1*d1^0*d2^0"),
            (1, 1, "1*d1^1*d2^1"),
            (1, 2, "1*d1^1*d2^0"),
        ]
        assert matrix.entries == ((1, 0, 0), (1, 1, 1), (1, 1, 0))

    def test_follow_word_acts_on_the_right(self):
        # rank 2: p1 sends every column to row 1 and p12 every column to row 0,
        # so a word's last letter names the row, and exponents add up on the way
        matrices = {name: action_matrix(d, 2) for name, d in generators(2).items()}

        def walked(word):
            return [follow_word(matrices, word, j) for j in range(3)]

        assert walked([]) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert walked(["p1", "p12"]) == [(0, 0, 0), (0, 1, 1), (0, 1, 0)]
        assert walked(["p12", "p1"]) == [(1, 0, 0)] * 3

    def test_stacks_each_partition_once(self, monkeypatch):
        stacked = []
        one_row = foulkes.act_on_set_partition

        def counted(sp, d):
            stacked.append(sp)
            return one_row(sp, d)

        monkeypatch.setattr(foulkes, "act_on_set_partition", counted)
        for r, bell in zip(range(1, 6), (1, 2, 5, 15, 52)):
            for d in generators(r).values():
                stacked.clear()
                action_matrix(d, r)
                assert len(stacked) == bell
                assert set(stacked) == set(set_partitions(r))

    def test_images_find_their_basis_pairs_by_identity(self, monkeypatch):
        compared = []
        equal = SetPartition.__eq__
        monkeypatch.setattr(SetPartition, "__eq__", lambda a, b: compared.append(a) or equal(a, b))
        for d in generators(5).values():
            action_matrix(d, 5)
        assert compared == []

    def test_image_outside_the_basis_is_a_fault(self, monkeypatch):
        def coarsen_singletons(sp, d):
            # singletons go to one block and anything else to singletons, so
            # the pair (singletons ; one block) lands on a non-refining image
            if sp.block_count == sp.size:
                return 0, one_block(sp.size)
            return 0, SetPartition.singletons(sp.size)

        monkeypatch.setattr(foulkes, "act_on_set_partition", coarsen_singletons)
        with pytest.raises(InternalConsistencyError, match="left the pair basis"):
            action_matrix(p_diagram(2), 2)

    def test_homomorphism_check_catches_an_extra_closed_component(self, monkeypatch):
        product = verify.multiply_diagrams

        def one_too_many(x, y):
            closed, z = product(x, y)
            return closed + 1, z

        monkeypatch.setattr(verify, "multiply_diagrams", one_too_many)
        with pytest.raises(verify.CheckFailure, match="disagrees"):
            verify.check_action_homomorphism(False)

    def test_homomorphism_check_catches_a_wrong_row(self):
        # s1 fixes every rank-2 pair; send column 1 to row 2 with its exponents kept
        matrices = verify._generator_matrices(2)
        s1 = matrices["s1"]
        assert s1.entries[1] == (1, 0, 0)
        entries = list(s1.entries)
        entries[1] = (2, 0, 0)
        matrices["s1"] = foulkes.ActionMatrix(s1.basis, tuple(entries))
        with pytest.raises(verify.CheckFailure, match="disagrees at r=2"):
            verify.check_action_homomorphism(False)


class TestLayers:
    def test_rank2_layer_restrictions(self):
        layer0 = exponent_grid(layer_matrix(action_matrix(p_diagram(2), 2), 0))
        assert layer0 == [[ZERO, ZERO], [ONE, D1D2]]
        layer1 = exponent_grid(layer_matrix(action_matrix(p_diagram(2), 2), 1))
        assert layer1 == [[ZERO]]

    def test_swaps_give_permutation_matrices(self):
        for r in (2, 3, 4):
            for i in range(1, r):
                for k in range(r):
                    matrix = layer_matrix(action_matrix(swap_diagram(r, i), r), k)
                    for row in exponent_grid(matrix):
                        for entry in row:
                            assert entry in (ZERO, ONE)
                    for entry in matrix.entries:
                        assert entry is not None and entry[1:] == ONE

    def test_entries_restricted_and_swap_invariant(self):
        for r in (2, 3, 4, 5):
            for d in generators(r).values():
                for k in range(r):
                    plain = layer_matrix(action_matrix(d, r), k)
                    for _, t1, t2 in filter(None, plain.entries):
                        assert (t1, t2) in (ONE, D1D2)
                    swapped = tuple(e and (e[0], e[2], e[1]) for e in plain.entries)
                    assert plain.entries == swapped

    def test_matches_the_per_layer_action(self):
        # reference: each depth-k pair's image in the full action matrix, kept
        # when it stays at depth k
        for r in range(1, 6):
            for d in generators(r).values():
                for k in range(r):
                    layer = tuple(p for p in foulkes_pairs(r) if p.depth == k)
                    index = {p: i for i, p in enumerate(layer)}
                    images = pair_images(action_matrix(d, r))
                    expected = []
                    for p in layer:
                        t1, t2, image = images[p]
                        expected.append((index[image], t1, t2) if image.depth == k else None)
                    got = layer_matrix(action_matrix(d, r), k)
                    assert got.basis == layer
                    assert list(got.entries) == expected

    def test_image_outside_the_basis_is_a_fault(self, monkeypatch):
        # the only depth-1 pair, (singletons ; one block), maps to (one block ; singletons)
        def swap_extremes(sp, d):
            if sp.block_count == sp.size:
                return 0, one_block(sp.size)
            return 0, SetPartition.singletons(sp.size)

        monkeypatch.setattr(foulkes, "act_on_set_partition", swap_extremes)
        with pytest.raises(InternalConsistencyError, match="left the pair basis"):
            layer_matrix(action_matrix(p_diagram(2), 2), 1)

    def test_checks_catch_an_extra_inner_closed_component(self, monkeypatch):
        one_row = foulkes.act_on_set_partition

        def one_more_inner_loop(sp, d):
            # the singleton partition refines every other, so it is an inner
            # coordinate, and an outer one only in (singletons ; singletons)
            closed, image = one_row(sp, d)
            return closed + (sp.block_count == sp.size), image

        monkeypatch.setattr(foulkes, "act_on_set_partition", one_more_inner_loop)
        # at r = 1 the one pair is (singletons ; singletons), and p1 closes a loop in each
        message = "layer entry 1*d1^2*d2^2 at r=1, k=0, generator p1"
        with pytest.raises(verify.CheckFailure, match=re.escape(message)):
            verify.check_layer_entries(False)
        # s1 fixes (singletons ; one block), now with the entry d1
        with pytest.raises(verify.CheckFailure, match="layer swap broke at r=2, k=1, s1"):
            verify.check_layer_parameter_swap(False)
        # the rank-2 check names the whole matrix in the same text form
        message = "rank-2 matrix for p1 is off: [(1, 0, '1*d1^0*d2^0'), (1, 1, '1*d1^2*d2^2')"
        with pytest.raises(verify.CheckFailure, match=re.escape(message)):
            verify.check_small_generator_matrices(False)

    def test_repeated_layers_compare_no_partitions(self, monkeypatch):
        # images are interned to the basis's own partitions, so building the
        # matrices and their layers again compares no partitions field by field
        def build_all():
            for d in generators(5).values():
                matrix = action_matrix(d, 5)
                for k in range(5):
                    layer_matrix(matrix, k)

        build_all()
        exact = SetPartition.__eq__
        calls = []

        def counting(self, other):
            calls.append(1)
            return exact(self, other)

        monkeypatch.setattr(SetPartition, "__eq__", counting)
        build_all()
        assert calls == []

    def test_layer_checks_stack_nothing_after_the_matrices(self, monkeypatch):
        # verify builds each generator matrix once per rank and reads every
        # layer from it, so the layer checks stack no partition again
        stacked = []
        one_row = foulkes.act_on_set_partition

        def counted(sp, d):
            stacked.append(sp)
            return one_row(sp, d)

        monkeypatch.setattr(foulkes, "act_on_set_partition", counted)
        for r in range(1, 6):
            verify._generator_matrices(r)
        built = len(stacked)
        # Bell(r) stackings for each of the generators p1, p12 and s1..s{r-1}
        assert built == 1 * 1 + 2 * 3 + 5 * 4 + 15 * 5 + 52 * 6
        verify.check_layer_entries(True)
        verify.check_layer_parameter_swap(True)
        assert len(stacked) == built

    def test_layer_out_of_range(self):
        # a bad layer index is malformed input (exit 1), not a resource cap
        for k in (5, -1):
            message = rf"layer index {k} out of range 0\.\.1"
            with pytest.raises(MalformedPartitionError, match=message):
                layer_matrix(action_matrix(p_diagram(2), 2), k)

    def test_cap(self):
        with pytest.raises(ResourceCapError, match="r=8 exceeds MODULE_CAP = 7"):
            layer_matrix(action_matrix(p_diagram(8), 8), 0)

    def test_refuses_anything_but_a_full_matrix(self):
        # a layer of a layer would be cut at the full matrix's offsets
        layer = layer_matrix(action_matrix(generators(3)["s1"], 3), 1)
        for matrix, r, columns in ((layer, 3, 6), (foulkes.ActionMatrix((), ()), 0, 0)):
            message = f"^not a full rank-{r} action matrix: {columns} columns$"
            with pytest.raises(MalformedPartitionError, match=message):
                layer_matrix(matrix, 0)

    @pytest.mark.parametrize("matrix", ["abc", None], ids=["string", "None"])
    def test_refuses_another_object(self, matrix):
        with pytest.raises(MalformedPartitionError, match=f"^not an action matrix: {matrix!r}$"):
            layer_matrix(matrix, 0)

    def test_refuses_a_basis_of_other_than_pairs(self):
        matrix = foulkes.ActionMatrix((1, 2, 3), ((0, 0, 0),) * 3)
        with pytest.raises(MalformedPartitionError, match="^not a full rank-0 action matrix"):
            layer_matrix(matrix, 0)

    def test_refuses_a_zero_column(self):
        matrix = foulkes.ActionMatrix(foulkes_pairs(2), (None,) * 3)
        message = "^not a full rank-2 action matrix: a zero column$"
        with pytest.raises(MalformedPartitionError, match=message):
            layer_matrix(matrix, 0)


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
        # the reference filters the whole pair basis: the same pairs in the same order
        for r in range(1, 9):
            expected = tuple(p for p in foulkes_pairs(r) if not in_depth_radical(p))
            assert depth_quotient_basis(r) == expected
            assert all(type(p) is FoulkesPair for p in depth_quotient_basis(r))

    def test_quotient_basis_refuses_the_pair_cap_then_the_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "5")
        with pytest.raises(ResourceCapError, match=r"^r=10 exceeds PAIR_BASIS_CAP = 9$"):
            depth_quotient_basis(10)
        with pytest.raises(ResourceCapError, match=r"^r=7 exceeds PLETHYSM_MAX_R = 5$"):
            depth_quotient_basis(7)

    def test_closed_form_quotient_count(self):
        for r in range(1, 8):
            assert singleton_free_count(r) == len(depth_quotient_basis(r))

    def test_radical_closed_under_generators(self):
        for r in (2, 3, 4, 5):
            for d in generators(r).values():
                images = pair_images(action_matrix(d, r))
                for p in filter(in_depth_radical, foulkes_pairs(r)):
                    assert in_depth_radical(images[p][2])

    @staticmethod
    def _merge_all_but_singletons(sp, d):
        # singletons stay and anything else goes to one block, so every image
        # is a refining pair: (singletons ; q) goes to (singletons ; one block)
        if sp.block_count == sp.size:
            return 0, sp
        return 0, one_block(sp.size)

    def test_radical_check_catches_an_escape(self, monkeypatch):
        monkeypatch.setattr(foulkes, "act_on_set_partition", self._merge_all_but_singletons)
        message = "radical escaped: {1|2|3} ; {1,2|3} under p1 at r=3"
        with pytest.raises(verify.CheckFailure, match=re.escape(message)):
            verify.check_depth_radical_closed(False)

    def test_truncation_check_catches_a_surviving_quotient_pair(self, monkeypatch):
        monkeypatch.setattr(foulkes, "act_on_set_partition", self._merge_all_but_singletons)
        message = "quotient not annihilated: {1|2} ; {1,2} at r=2"
        with pytest.raises(verify.CheckFailure, match=re.escape(message)):
            verify.check_quotient_truncation(False)


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

    def test_walk_is_held_to_the_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "3")
        assert [o.shape for o in orbit_decomposition(3)] == [(3,)]
        walked = []
        monkeypatch.setattr(foulkes, "partitions_no_ones", walked.append)
        message = "r=4 exceeds PLETHYSM_MAX_R = 3"
        with pytest.raises(ResourceCapError, match=message):
            orbit_decomposition(4)
        assert walked == []

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

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethysm.errors import MalformedPartitionError, ResourceCapError, SizeMismatchError
from plethysm.setpartitions import (
    FoulkesPair,
    SetPartition,
    bell_number,
    foulkes_pairs,
    pair_counts_by_depth,
    set_partitions,
)


def brute_bell(n):
    # independent recurrence: B(n+1) = sum C(n,k) B(k)
    table = [1]
    for m in range(1, n + 1):
        total = 0
        binom = 1
        for k in range(m):
            total += binom * table[k]
            binom = binom * (m - 1 - k) // (k + 1)
        table.append(total)
    return table[n]


@st.composite
def growth_strings(draw, max_size=7):
    n = draw(st.integers(min_value=1, max_value=max_size))
    labels = [0]
    for _ in range(n - 1):
        labels.append(draw(st.integers(0, max(labels) + 1)))
    return SetPartition(n, tuple(labels))


@st.composite
def refining_pairs(draw, max_size=6):
    inner = draw(growth_strings(max_size))
    groups = [draw(st.integers(0, k)) for k in range(inner.block_count)]
    outer_blocks = {}
    for block, g in zip(inner.blocks, groups):
        outer_blocks.setdefault(g, []).extend(block)
    outer = SetPartition.from_blocks(outer_blocks.values(), inner.size)
    return FoulkesPair(inner, outer)


class TestCanonicalize:
    def test_sorts_by_minima(self):
        sp = SetPartition.from_blocks([[3], [1, 2, 4]], 4)
        assert sp.blocks == ((1, 2, 4), (3,))

    def test_singletons_fixed(self):
        sp = SetPartition.singletons(5)
        assert SetPartition.from_blocks(sp.blocks, 5) == sp

    def test_nine_point_example(self):
        sp = SetPartition.from_blocks([[5, 7, 8], [6, 9], [1, 2, 4], [3]], 9)
        assert str(sp) == "{1,2,4|3|5,7,8|6,9}"
        assert sp.block_count == 4

    def test_overlap_rejected(self):
        with pytest.raises(MalformedPartitionError):
            SetPartition.from_blocks([[1, 2], [2, 3]], 3)

    def test_missing_rejected(self):
        with pytest.raises(MalformedPartitionError):
            SetPartition.from_blocks([[1, 2]], 3)

    def test_bad_growth_string_rejected(self):
        for size, labels in [(3, (0, 2, 1)), (1, (1,)), (2, (0, -1)), (3, (0, 0, 2)), (2, (0,))]:
            with pytest.raises(MalformedPartitionError):
                SetPartition(size, labels)

    @given(growth_strings())
    def test_idempotent(self, sp):
        assert SetPartition.from_blocks(sp.blocks, sp.size) == sp

    @given(growth_strings(), st.randoms(use_true_random=False))
    def test_block_order_irrelevant(self, sp, rng):
        blocks = [list(b) for b in sp.blocks]
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
        assert SetPartition.from_blocks(blocks, sp.size) == sp


    @given(st.lists(st.integers(0, 5), max_size=9))
    def test_from_keys_matches_blocks(self, keys):
        blocks = {}
        for pos, key in enumerate(keys, start=1):
            blocks.setdefault(key, []).append(pos)
        expected = SetPartition.from_blocks(blocks.values(), len(keys))
        assert SetPartition.from_keys(keys) == expected

    def test_permuted_matches_blocks(self):
        for r in range(1, 5):
            for sp in set_partitions(r):
                for perm in itertools.permutations(range(1, r + 1)):
                    mapped = [[perm[x - 1] for x in block] for block in sp.blocks]
                    assert sp.permuted(perm) == SetPartition.from_blocks(mapped, r)
        for bad in ([1, 1, 2], [1, 2], [0, 1, 2], [1, 2, 4]):
            with pytest.raises(MalformedPartitionError):
                SetPartition.singletons(3).permuted(bad)


class TestStoredBlockCount:
    """The validating scan stores the block count; the predicates built on it
    match their definitions in terms of blocks."""

    def test_block_count_is_number_of_blocks(self):
        for r in range(1, 6):
            for sp in set_partitions(r):
                assert sp.block_count == len(sp.blocks)
        assert SetPartition(0, ()).block_count == 0

    def test_refines_matches_block_containment(self):
        for r in range(1, 6):
            parts = list(set_partitions(r))
            for a, b in itertools.product(parts, repeat=2):
                contained = all(
                    any(set(block) <= set(big) for big in b.blocks) for block in a.blocks
                )
                assert a.refines(b) == contained

    def test_inner_blocks_per_outer_matches_blocks(self):
        for r in range(1, 6):
            for pair in foulkes_pairs(r):
                counts = [0] * pair.outer.block_count
                for block in pair.inner.blocks:
                    counts[pair.outer.block_of(block[0])] += 1
                assert pair.inner_blocks_per_outer() == tuple(counts)

    def test_repr_equality_and_hash_ignore_the_count(self):
        assert repr(SetPartition.singletons(2)) == "SetPartition(size=2, labels=(0, 1))"
        a, b = SetPartition(3, (0, 1, 0)), SetPartition(3, (0, 1, 0))
        object.__setattr__(b, "block_count", 7)
        assert a == b and hash(a) == hash(b)

    def test_stored_hash_is_the_hash_of_size_and_labels(self):
        for r in range(5):
            for sp in set_partitions(r) if r else [SetPartition(0, ())]:
                assert hash(sp) == hash((sp.size, sp.labels))
                again = SetPartition.from_blocks(sp.blocks, r)
                assert again == sp and again is not sp and hash(again) == hash(sp)


class TestRefines:
    def test_singletons_refine_everything(self):
        for r in range(1, 6):
            fine = SetPartition.singletons(r)
            for sp in set_partitions(r):
                assert fine.refines(sp)

    def test_one_block_refines_only_itself(self):
        coarse = SetPartition.one_block(4)
        assert not coarse.refines(SetPartition.singletons(4))
        assert coarse.refines(coarse)

    def test_nine_point_example(self):
        fine = SetPartition.from_blocks([[1, 2, 4], [3], [5, 7, 8], [6, 9]], 9)
        coarse = SetPartition.from_blocks([[1, 2, 3, 4], [5, 6, 7, 8, 9]], 9)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            SetPartition.singletons(3).refines(SetPartition.singletons(4))

    def test_partial_order_exhaustive_small(self):
        for r in (1, 2, 3, 4):
            parts = list(set_partitions(r))
            for a in parts:
                assert a.refines(a)
            for a, b in itertools.permutations(parts, 2):
                if a.refines(b) and b.refines(a):
                    assert a == b
            for a, b, c in itertools.product(parts, repeat=3):
                if a.refines(b) and b.refines(c):
                    assert a.refines(c)

    @given(refining_pairs())
    def test_generated_pairs_refine(self, pair):
        assert pair.inner.refines(pair.outer)


class TestEnumeration:
    def test_counts_match_bell(self):
        for r in range(1, 9):
            assert bell_number(r) == brute_bell(r)
        assert len(list(set_partitions(1))) == 1
        assert len(list(set_partitions(3))) == 5
        assert len(list(set_partitions(4))) == 15

    def test_no_duplicates_and_canonical(self):
        for r in range(1, 7):
            seen = list(set_partitions(r))
            assert len(set(seen)) == len(seen) == bell_number(r)

    def test_lex_order(self):
        labels = [sp.labels for sp in set_partitions(4)]
        assert labels == sorted(labels)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            list(set_partitions(13))

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "2")
        with pytest.raises(ResourceCapError):
            list(set_partitions(3))

    def test_cap_message_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "2")
        message = r"r=3 exceeds enumeration cap 2 \(PLETHYSM_MAX_R\)"
        with pytest.raises(ResourceCapError, match=message):
            list(set_partitions(3))

    def test_non_integer_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "abc")
        with pytest.raises(MalformedPartitionError, match="PLETHYSM_MAX_R"):
            list(set_partitions(3))


class TestFoulkesPoset:
    def test_counts(self):
        assert len(foulkes_pairs(2)) == 3
        assert len(foulkes_pairs(3)) == 12
        assert len(foulkes_pairs(4)) == 60

    def test_double_count(self):
        # independent count: sum over outer partitions of the Bell product
        for r in range(1, 8):
            expected = 0
            for outer in set_partitions(r):
                prod = 1
                for block in outer.blocks:
                    prod *= brute_bell(len(block))
                expected += prod
            assert len(foulkes_pairs(r)) == expected

    def test_all_refine_and_unique(self):
        for r in range(1, 6):
            pairs = foulkes_pairs(r)
            assert len(set(pairs)) == len(pairs)
            for p in pairs:
                assert p.inner.refines(p.outer)

    def test_depth_major_order(self):
        for r in range(1, 6):
            depths = [p.depth for p in foulkes_pairs(r)]
            assert depths == sorted(depths)

    def test_equals_filtered_square(self):
        for r in range(1, 6):
            parts = list(set_partitions(r))
            expected = sorted(
                (FoulkesPair(a, b) for a in parts for b in parts if a.refines(b)),
                key=lambda p: (p.depth, p.inner.labels, p.outer.labels),
            )
            assert foulkes_pairs(r) == tuple(expected)

    def test_depth_counts(self):
        for r in range(1, 8):
            by_depth = [0] * r
            for p in foulkes_pairs(r):
                by_depth[p.depth] += 1
            assert pair_counts_by_depth(r) == tuple(by_depth)
        a000258 = [1, 3, 12, 60, 358, 2471, 19302, 167894, 1606137]
        assert [sum(pair_counts_by_depth(r)) for r in range(1, 10)] == a000258
        with pytest.raises(MalformedPartitionError):
            pair_counts_by_depth(0)

    def test_non_refining_rejected(self):
        with pytest.raises(MalformedPartitionError):
            FoulkesPair(SetPartition.one_block(3), SetPartition.singletons(3))

    def test_outers_are_shared_enumerated_partitions(self):
        for r in range(1, 7):
            parts = set(set_partitions(r))
            outers = [p.outer for p in foulkes_pairs(r)]
            assert all(outer in parts for outer in outers)
            # one object per outer partition, shared by every pair that uses it
            assert len({id(outer) for outer in outers}) == bell_number(r)


class TestTruncation:
    def test_three_singletons_in_one_block_needs_m_three(self):
        pair = FoulkesPair(SetPartition.singletons(3), SetPartition.one_block(3))
        assert not pair.in_truncation(2, 3)
        assert pair.in_truncation(3, 3)

    def test_outer_width_needs_n(self):
        pair = FoulkesPair(SetPartition.singletons(3), SetPartition.singletons(3))
        assert not pair.in_truncation(3, 2)
        assert pair.in_truncation(3, 3)

    def test_exactly_one_rejected_in_each_rank3_case(self):
        pairs = foulkes_pairs(3)
        assert sum(not p.in_truncation(2, 3) for p in pairs) == 1
        assert sum(not p.in_truncation(3, 2) for p in pairs) == 1

    def test_bounds_above_rank_never_bind(self):
        for r in range(1, 6):
            for p in foulkes_pairs(r):
                assert p.in_truncation(r, r)


class TestDepth:
    def test_equal_pair_depth_zero(self):
        sp = SetPartition.from_blocks([[1, 2], [3]], 3)
        assert FoulkesPair(sp, sp).depth == 0

    def test_nine_point_example_depth_two(self):
        fine = SetPartition.from_blocks([[1, 2, 4], [3], [5, 7, 8], [6, 9]], 9)
        coarse = SetPartition.from_blocks([[1, 2, 3, 4], [5, 6, 7, 8, 9]], 9)
        assert FoulkesPair(fine, coarse).depth == 2

    def test_singletons_over_one_block(self):
        pair = FoulkesPair(SetPartition.singletons(4), SetPartition.one_block(4))
        assert pair.depth == 3

    @given(refining_pairs())
    def test_depth_nonnegative(self, pair):
        assert pair.depth >= 0
        assert pair.depth == pair.inner.block_count - pair.outer.block_count

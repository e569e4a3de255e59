import itertools
import math
import pickle
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plethysm
from plethysm import foulkes, setpartitions, verify
from plethysm.errors import MalformedPartitionError, ResourceCapError, SizeMismatchError
from plethysm.setpartitions import (
    FoulkesPair,
    SetPartition,
    foulkes_pairs,
    pair_counts_by_depth,
    set_partitions,
)

from helpers import bell_number, block_of, one_block, permuted


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


@dataclass(frozen=True)
class DataclassPair:
    """The former frozen-dataclass form of a pair, whose values pairs keep."""

    inner: SetPartition
    outer: SetPartition


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

    @pytest.mark.parametrize("blocks", [[[1, 1], [2]], [[1], [1, 2]]])
    def test_repeated_point_is_named_in_one_block_or_two(self, blocks):
        with pytest.raises(MalformedPartitionError) as refused:
            SetPartition.from_blocks(blocks, 2)
        assert str(refused.value) == "element 1 occurs more than once"

    def test_missing_rejected(self):
        with pytest.raises(MalformedPartitionError):
            SetPartition.from_blocks([[1, 2]], 3)

    def test_missing_elements_are_counted_not_listed(self):
        # listing them cost 0.55 s and 116 MB at size 10**6
        cases = (([[1, 2]], 3, 1, 3), ([[2], [4]], 5, 3, 1), ([], 10**9, 10**9, 1))
        for blocks, size, count, first in cases:
            with pytest.raises(MalformedPartitionError) as refused:
                SetPartition.from_blocks(blocks, size)
            assert str(refused.value) == (
                f"elements missing from partition: {count} of 1..{size}, the first {first}"
            )
        assert SetPartition.from_blocks([], 0) == SetPartition(0, ())

    @pytest.mark.parametrize("blocks", [[], [[1]]])
    def test_negative_size_is_named(self, blocks):
        with pytest.raises(MalformedPartitionError, match="ground size -1 is negative"):
            SetPartition.from_blocks(blocks, -1)
        assert SetPartition.from_blocks([], 0) == SetPartition(0, ())

    @pytest.mark.parametrize(
        "blocks, point",
        [([[1, 1.5]], "1.5"), ([[1], [2.0]], "2.0"), ([["1", 2]], "'1'")],
    )
    def test_non_integer_point_rejected(self, blocks, point):
        # these used to raise a bare KeyError, pass silently, or raise TypeError
        with pytest.raises(MalformedPartitionError, match=f"point {re.escape(point)} is not"):
            SetPartition.from_blocks(blocks, 2)

    def test_bad_growth_string_rejected(self):
        for size, labels in [(3, (0, 2, 1)), (1, (1,)), (2, (0, -1)), (3, (0, 0, 2)), (2, (0,))]:
            with pytest.raises(MalformedPartitionError):
                SetPartition(size, labels)

    def test_float_labels_rejected(self):
        # (0.0, 1.0) compared equal to (0, 1) and then broke .blocks with a bare TypeError
        with pytest.raises(MalformedPartitionError, match=r"^label 0\.0 is not an integer$"):
            SetPartition(2, (0.0, 1.0))

    def test_float_size_rejected(self):
        with pytest.raises(MalformedPartitionError, match=r"^ground size 2\.0 is not an integer$"):
            SetPartition(2.0, (0, 1))

    def test_list_of_labels_rejected(self):
        # a list used to raise TypeError from the hash
        with pytest.raises(MalformedPartitionError, match=r"^labels \[0, 1\] are not a tuple$"):
            SetPartition(2, [0, 1])

    def test_bools_read_as_ints(self):
        assert SetPartition(True, (False,)) == SetPartition(1, (0,))
        assert SetPartition(2, (False, True)).blocks == ((1,), (2,))

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
                    assert permuted(sp, perm) == SetPartition.from_blocks(mapped, r)
        for bad in ([1, 1, 2], [1, 2], [0, 1, 2], [1, 2, 4]):
            with pytest.raises(MalformedPartitionError):
                permuted(SetPartition.singletons(3), bad)


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
                    counts[block_of(pair.outer, block[0])] += 1
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
        coarse = one_block(4)
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

    def test_verify_label_read_matches_refines(self):
        # refines and verify's pair re-check both read labels at first points
        for r in range(0, 7):
            parts = list(set_partitions(r)) if r else [SetPartition(0, ())]
            block_sets = {sp: [set(block) for block in sp.blocks] for sp in parts}
            for inner in parts:
                read = inner.first_point_read
                for outer in parts:
                    contained = all(
                        any(block <= big for big in block_sets[outer])
                        for block in block_sets[inner]
                    )
                    assert inner.refines(outer) == contained
                    assert (read(outer.labels) == outer.labels) == contained

    @given(refining_pairs())
    def test_generated_pairs_refine(self, pair):
        assert pair.inner.refines(pair.outer)


def is_growth_string(labels):
    """Each label is at most one past the largest before it, the first 0."""
    top = -1
    for label in labels:
        if not 0 <= label <= top + 1:
            return False
        top = max(top, label)
    return True


class TestEnumeration:
    @pytest.mark.parametrize("n", range(11))
    def test_growth_strings_are_bell_many_in_increasing_order(self, n):
        strings = list(setpartitions._growth_strings(n))
        assert len(strings) == bell_number(n)
        assert all(map(is_growth_string, strings))
        assert all(a < b for a, b in zip(strings, strings[1:]))

    @pytest.mark.parametrize("n", range(7))
    def test_growth_strings_filter_every_word(self, n):
        words = itertools.product(range(n), repeat=n)
        assert list(setpartitions._growth_strings(n)) == list(filter(is_growth_string, words))

    @pytest.mark.parametrize("r", [1, 4, 7])
    def test_one_enumerator_call_per_set_partitions(self, monkeypatch, r):
        # the enumerator must not re-enter its module-level name, so a patch
        # over it (as verify's fixed-count test makes) sees each call once
        calls = []
        exact = setpartitions._growth_strings

        def counted(n):
            calls.append(n)
            return exact(n)

        monkeypatch.setattr(setpartitions, "_growth_strings", counted)
        assert len(list(set_partitions(r))) == bell_number(r)
        assert calls == [r]

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
        message = "r=3 exceeds PLETHYSM_MAX_R = 2"
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

    def test_cached_basis_is_capped_before_enumerating(self, monkeypatch):
        # r = 10 would hold 16,733,779 pairs; the root re-exports refuse it
        # without starting the enumeration
        runs = []
        monkeypatch.setattr(setpartitions, "pair_runs", runs.append)
        message = "r=10 exceeds PAIR_BASIS_CAP = 9"
        with pytest.raises(ResourceCapError, match=message):
            plethysm.foulkes_pairs(10)
        with pytest.raises(ResourceCapError, match=message):
            plethysm.foulkes_image_rank(10, 1, 1)
        assert runs == []

    @pytest.mark.parametrize("r", [10, 11])
    def test_streamed_runs_are_capped_before_enumerating(self, monkeypatch, r):
        # pair_runs(11) used to build all 678,570 partitions (5 s, 336 MB) first
        enumerated = []
        monkeypatch.setattr(setpartitions, "set_partitions", enumerated.append)
        monkeypatch.setattr(setpartitions, "_growth_strings", enumerated.append)
        with pytest.raises(ResourceCapError, match=f"r={r} exceeds PAIR_BASIS_CAP = 9"):
            next(setpartitions.pair_runs(r))
        assert enumerated == []

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

    def test_depth_counts_fill_the_stirling_triangle_without_recursion(self):
        n = 600
        row = [1]  # the Bell triangle: each row starts with the last entry of the one before
        for _ in range(n - 1):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
        counts = pair_counts_by_depth(n)  # deeper than the default recursion limit
        # depth 0 pairs each partition with itself; depth n - 1 is singletons ; one block
        assert len(counts) == n and counts[0] == row[-1] and counts[-1] == 1

    def test_non_refining_rejected(self):
        with pytest.raises(MalformedPartitionError):
            FoulkesPair(one_block(3), SetPartition.singletons(3))

    def test_sizes_must_match(self):
        with pytest.raises(SizeMismatchError):
            FoulkesPair(SetPartition.singletons(2), one_block(3))

    def test_non_partition_inner_rejected(self):
        with pytest.raises(MalformedPartitionError, match="^not a set-partition: 1$"):
            FoulkesPair(1, 2)

    def test_non_partition_outer_rejected(self):
        with pytest.raises(MalformedPartitionError, match="^not a set-partition: 'x'$"):
            FoulkesPair(SetPartition.singletons(2), "x")

    def test_values_of_the_dataclass_form(self):
        for r in range(1, 5):
            pairs = foulkes_pairs(r)
            for p in pairs:
                old = DataclassPair(p.inner, p.outer)
                assert repr(p) == repr(old).replace("DataclassPair", "FoulkesPair", 1)
                assert str(p) == f"{p.inner} ; {p.outer}"
                assert hash(p) == hash(old) == hash((p.inner, p.outer))
                checked = FoulkesPair(p.inner, p.outer)
                assert checked == p and hash(checked) == hash(p)
                assert p.depth == old.inner.block_count - old.outer.block_count
            assert len(set(pairs)) == len(pairs)  # distinct pairs are unequal

    def test_verify_rechecks_every_enumerated_pair(self, monkeypatch):
        good = SetPartition(3, (0, 0, 1))  # {1,2|3}
        runs = setpartitions.pair_runs
        bad_outer = {sp.labels: sp for sp in set_partitions(3)}[(0, 1, 0)]  # {1,3|2}

        def one_non_refining(r):
            # the same depth, not refining, unchecked as the enumeration's outers are
            for inner, outers_by_depth in runs(r):
                yield inner, [
                    [bad_outer if (inner, o) == (good, good) else o for o in outers]
                    for outers in outers_by_depth
                ]

        # both verify's stream and the cached enumeration read the runs; the
        # caches built on the enumeration are emptied before and after
        caches = (setpartitions._pair_basis, foulkes._basis_index)
        monkeypatch.setattr(setpartitions, "pair_runs", one_non_refining)
        for cache in caches:
            cache.cache_clear()
        try:
            assert (good, bad_outer) in foulkes_pairs(3)
            results = {r.name: r for r in verify.run_suite("fast")}
        finally:
            for cache in caches:
                cache.cache_clear()
        assert list(results) == [name for name, _ in verify.CHECKS]  # all 30 still run
        pair_count = results["setpartitions.pair-count"]
        assert not pair_count.ok and "r=3 does not refine" in pair_count.detail
        # the module's basis holds the bad pair in place of ({1,2|3} ; {1,2|3}),
        # so every check that reads the r = 3 action matrices finds an image
        # outside the basis; the bad pair lies outside the depth quotient,
        # which coefficients.module-vs-stable reads on its own basis
        failed = {name: r.detail for name, r in results.items() if not r.ok}
        for name in (
            "foulkes.action-homomorphism",
            "foulkes.depth-step",
            "foulkes.layer-entries",
            "foulkes.layer-parameter-swap",
            "foulkes.depth-radical-closed",
            "foulkes.quotient-truncation",
        ):
            assert failed.pop(name).endswith("left the pair basis")
        # the bad pair's outer block {1,3} meets two inner blocks, where each
        # block of the pair it replaces meets one, so the bound m = 1 drops it
        truncation = failed.pop("setpartitions.truncation-bounds")
        assert truncation.startswith("truncation m=1, n=2 at r=3 keeps"), truncation
        assert set(failed) == {"setpartitions.pair-count"}

    @pytest.mark.parametrize(
        "inner, planted, outer",
        [
            # the run's depth-0 outer, at r = 3
            ((0, 0, 1), (0, 0, 1), (0, 1, 0)),
            # the run's last outer (one block), at the rank only ``full`` reaches
            ((0, 0, 1, 2, 3, 4, 5, 6), (0,) * 8, (0, 1, 0, 0, 0, 0, 0, 0)),
        ],
    )
    def test_pair_count_names_the_planted_pair(self, monkeypatch, inner, planted, outer):
        r = len(inner)
        runs = setpartitions.pair_runs
        inner, planted, outer = (SetPartition(r, labels) for labels in (inner, planted, outer))

        def one_non_refining(size):
            for run_inner, outers_by_depth in runs(size):
                if run_inner == inner:
                    outers_by_depth = [
                        [outer if o == planted else o for o in outers] for outers in outers_by_depth
                    ]
                yield run_inner, outers_by_depth

        # the ranks below r are cached already, or rebuilt from unchanged runs
        monkeypatch.setattr(setpartitions, "pair_runs", one_non_refining)
        with pytest.raises(verify.CheckFailure) as failure:
            verify.check_pair_count(True)
        assert str(failure.value) == f"enumerated pair at r={r} does not refine: {inner} ; {outer}"
        assert str(failure.value).endswith(
            {3: "{1,2|3} ; {1,3|2}", 8: "{1,2|3|4|5|6|7|8} ; {1,3,4,5,6,7,8|2}"}[r]
        )

    def test_pair_count_enumerates_the_top_rank_once(self, monkeypatch):
        calls = Counter()
        enumerate_partitions = setpartitions.set_partitions
        built = []
        cached_pairs = verify.foulkes_pairs

        def counted(size):
            calls[size] += 1
            return enumerate_partitions(size)

        def recorded(size):
            built.append(size)
            return cached_pairs(size)

        monkeypatch.setattr(setpartitions, "set_partitions", counted)
        monkeypatch.setattr(verify, "set_partitions", counted)
        monkeypatch.setattr(verify, "foulkes_pairs", recorded)
        verify.check_pair_count(True)
        # the streamed runs; the Bell total is read from shapes
        assert calls[8] == calls[7] == 1
        # the cached pairs are counted by truncation-bounds, not here
        assert built == []

    def test_truncation_bounds_counts_the_cached_basis(self, monkeypatch):
        basis = setpartitions._pair_basis
        dropped = basis(3)[-1]  # ({1|2|3} ; {1,2,3}), the one depth-2 pair

        def one_missing(size):
            return basis(size)[:-1] if size == 3 else basis(size)

        # the pair index is built on the cached basis; it is emptied before and after
        monkeypatch.setattr(setpartitions, "_pair_basis", one_missing)
        foulkes._basis_index.cache_clear()
        try:
            results = {r.name: r for r in verify.run_suite("fast")}
        finally:
            foulkes._basis_index.cache_clear()
        assert str(dropped) == "{1|2|3} ; {1,2,3}"
        # the bound m = 3, n = 1 is the first that keeps the dropped pair
        truncation = results["setpartitions.truncation-bounds"]
        assert not truncation.ok
        assert truncation.detail == "truncation m=3, n=1 at r=3 keeps 4, not 5"
        # the pair count streams the runs and reads no cached basis
        assert results["setpartitions.pair-count"].ok

    def test_shape_grouped_bell_total_matches_the_enumerated_outers(self):
        for r in range(1, 10):
            by_outer = sum(
                math.prod(bell_number(len(block)) for block in outer.blocks)
                for outer in set_partitions(r)
            )
            assert verify._truncated_pair_count(r, r, r) == by_outer == sum(pair_counts_by_depth(r))

    def test_truncated_pair_count_matches_the_pairs_each_bound_keeps(self):
        for r in range(1, 7):
            pairs = foulkes_pairs(r)
            # up to 4 at every rank: tensor.rank-boundary reads 1 <= m, n <= 4 at r <= 3
            for m, n in itertools.product(range(1, max(r + 2, 5)), repeat=2):
                kept = sum(p.in_truncation(m, n) for p in pairs)
                assert verify._truncated_pair_count(r, m, n) == kept, (r, m, n)
            # past r no bound binds
            for m, n in itertools.product((r, r + 1), repeat=2):
                assert verify._truncated_pair_count(r, m, n) == len(pairs)

    def test_foulkes_pairs_concatenates_the_runs_by_depth(self):
        for r in range(1, 9):
            runs = list(setpartitions.pair_runs(r))
            by_depth = [
                (inner, outer)
                for d in range(r)
                for inner, outers_by_depth in runs
                for outer in itertools.chain.from_iterable(outers_by_depth)
                if inner.block_count - outer.block_count == d
            ]
            assert foulkes_pairs(r) == tuple(by_depth)
            # one run per inner in lex order, entry d its S(k, k - d) outers at depth d, sorted
            inners = [inner for inner, _ in runs]
            assert [sp.labels for sp in inners] == [sp.labels for sp in set_partitions(r)]
            for inner, outers_by_depth in runs:
                k = inner.block_count
                assert len(outers_by_depth) == k
                for d, outers in enumerate(outers_by_depth):
                    assert len(outers) == setpartitions._stirling_rows(k)[k][k - d]
                    assert all(k - outer.block_count == d for outer in outers)
                    assert [o.labels for o in outers] == sorted(o.labels for o in outers)
            # the outers are the enumerated partition objects, the inners themselves
            enumerated = {id(sp) for sp in inners}
            assert all(
                id(outer) in enumerated
                for _, outers_by_depth in runs
                for outer in itertools.chain.from_iterable(outers_by_depth)
            )
            # and the cached pairs share one object per partition in the same way
            pairs = foulkes_pairs(r)
            assert {id(p[1]) for p in pairs} <= {id(p[0]) for p in pairs}
        setpartitions._pair_basis.cache_clear()  # r = 8 is not kept for the other tests

    def test_pickle_round_trip(self):
        for p in foulkes_pairs(3):
            again = pickle.loads(pickle.dumps(p))
            assert type(again) is FoulkesPair and again == p

    def test_outers_are_shared_enumerated_partitions(self):
        for r in range(1, 7):
            parts = set(set_partitions(r))
            outers = [p.outer for p in foulkes_pairs(r)]
            assert all(outer in parts for outer in outers)
            # one object per outer partition, shared by every pair that uses it
            assert len({id(outer) for outer in outers}) == bell_number(r)


class TestTruncation:
    def test_three_singletons_in_one_block_needs_m_three(self):
        pair = FoulkesPair(SetPartition.singletons(3), one_block(3))
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
        pair = FoulkesPair(SetPartition.singletons(4), one_block(4))
        assert pair.depth == 3

    @given(refining_pairs())
    def test_depth_nonnegative(self, pair):
        assert pair.depth >= 0
        assert pair.depth == pair.inner.block_count - pair.outer.block_count

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethysm import diagrams, verify
from plethysm.diagrams import (
    PartitionDiagram,
    act_on_set_partition,
    generators,
    multiply_diagrams,
    p12_diagram,
    p_diagram,
    swap_diagram,
)
from plethysm.errors import MalformedPartitionError, SizeMismatchError
from plethysm.setpartitions import SetPartition, set_partitions

from helpers import diagram_from_string, identity_diagram, one_block


@st.composite
def partitions_of_size(draw, n):
    labels = [0]
    for _ in range(n - 1):
        labels.append(draw(st.integers(0, max(labels) + 1)))
    return SetPartition(n, tuple(labels))


@st.composite
def diagrams_of_size(draw, r):
    return PartitionDiagram(r, draw(partitions_of_size(2 * r)))


def all_diagrams(r):
    return [PartitionDiagram(r, sp) for sp in set_partitions(2 * r)]


def point_components(n, blocks):
    """Component id of each of the points 0..n-1 once every block is joined."""
    comp = list(range(n))
    for block in blocks:
        ids = {comp[p] for p in block}
        target = min(ids)
        comp = [target if c in ids else c for c in comp]
    return comp


def stack_points(blocks, n, free):
    """Closed components and the blocks induced on the free points (numbered 1..)."""
    comp = point_components(n, blocks)
    induced = {}
    for k, p in enumerate(free, start=1):
        induced.setdefault(comp[p], []).append(k)
    return len(set(comp)) - len(induced), list(induced.values())


def reference_product(x, y):
    """x's points on levels 0 and 1, y's on levels 1 and 2, one node per point."""
    r = x.size
    blocks = [[p - 1 for p in b] for b in x.partition.blocks]
    blocks += [[p - 1 + r for p in b] for b in y.partition.blocks]
    closed, induced = stack_points(blocks, 3 * r, [*range(r), *range(2 * r, 3 * r)])
    return closed, PartitionDiagram.from_blocks(induced, r)


def reference_action(sp, d):
    """sp's points on the northern row of d, one node per point."""
    r = sp.size
    blocks = [[p - 1 for p in b] for b in sp.blocks + d.partition.blocks]
    closed, induced = stack_points(blocks, 2 * r, range(r, 2 * r))
    return closed, SetPartition.from_blocks(induced, r)


class TestGenerators:
    def test_p1_rank1(self):
        assert str(p_diagram(1)) == "{1|1'}"

    def test_p12_rank2(self):
        assert p12_diagram(2).partition.blocks == ((1, 2, 3, 4),)

    def test_swap_rank3(self):
        d = swap_diagram(3, 1)
        assert str(d) == "{1,2'|2,1'|3,3'}"

    def test_dispatch(self):
        assert generators(3)["p1"] == p_diagram(3)
        assert generators(3)["p12"] == p12_diagram(3)
        assert generators(3)["s2"] == swap_diagram(3, 2)
        assert tuple(generators(3)) == ("p1", "p12", "s1", "s2")

    def test_index_bounds(self):
        with pytest.raises(MalformedPartitionError):
            swap_diagram(3, 3)
        with pytest.raises(MalformedPartitionError):
            p12_diagram(1)

    def test_p_diagram_reads_its_rank_as_a_ground_size(self):
        with pytest.raises(MalformedPartitionError, match=r"^ground size 2\.0 is not an integer$"):
            p_diagram(2.0, 1)
        with pytest.raises(MalformedPartitionError, match=r"^strand 1\.0 is not an integer$"):
            p_diagram(2, 1.0)

    def test_p12_diagram_reads_its_rank_as_a_ground_size(self):
        with pytest.raises(MalformedPartitionError, match=r"^ground size 2\.5 is not an integer$"):
            p12_diagram(2.5)

    def test_swap_diagram_reads_its_rank_as_a_ground_size(self):
        with pytest.raises(MalformedPartitionError, match="^ground size 'a' is not an integer$"):
            swap_diagram("a", 1)
        with pytest.raises(MalformedPartitionError, match="^swap index 'b' is not an integer$"):
            swap_diagram(2, "b")

    def test_string_roundtrip(self):
        for d in all_diagrams(2):
            assert diagram_from_string(str(d), 2) == d

    @pytest.mark.parametrize(
        "text, token", [("{2|1}", "'2'"), ("{1|2'}", '"2\'"'), ("{0|1'}", "'0'")]
    )
    def test_string_token_out_of_range(self, text, token):
        # "{2|1}" on one strand used to read northern point 2 as 1'
        with pytest.raises(MalformedPartitionError, match=f"diagram token {token} outside 1..1"):
            diagram_from_string(text, 1)

    @pytest.mark.parametrize(
        "r, message",
        [
            (2.5, "ground size 2.5 is not an integer"),
            ("3", "ground size '3' is not an integer"),
            ([2], "ground size [2] is not an integer"),
            (0, "ground size must be positive"),
        ],
    )
    def test_rank_is_read_as_a_ground_size(self, r, message):
        with pytest.raises(MalformedPartitionError) as refused:
            generators(r)
        assert str(refused.value) == message


class TestConstructor:
    def test_float_strand_count_rejected(self):
        # PartitionDiagram(1.0, ...) used to print {1,1.0'} and break multiply_diagrams
        one_block_of_two = SetPartition(2, (0, 0))
        with pytest.raises(MalformedPartitionError, match=r"^strand count 1\.0 is not an integer$"):
            PartitionDiagram(1.0, one_block_of_two)

    def test_non_partition_rejected(self):
        # a string used to raise AttributeError
        with pytest.raises(MalformedPartitionError, match=r"^not a set-partition: 'ab'$"):
            PartitionDiagram(1, "ab")

    def test_bool_strand_count_reads_as_an_int(self):
        d = PartitionDiagram(True, SetPartition(2, (0, 0)))
        assert d == PartitionDiagram(1, SetPartition(2, (0, 0)))
        assert multiply_diagrams(d, d) == (0, d)


class TestMultiply:
    def test_identity_neutral(self):
        for r in (1, 2, 3):
            e = identity_diagram(r)
            assert multiply_diagrams(e, e) == (0, e)
            for d in all_diagrams(r)[:20]:
                assert multiply_diagrams(d, e) == (0, d)
                assert multiply_diagrams(e, d) == (0, d)

    def test_p1_squared_closes_a_loop(self):
        for r in (1, 2, 3):
            p1 = p_diagram(r)
            assert multiply_diagrams(p1, p1) == (1, p1)

    def test_transposition_squares_to_identity(self):
        assert multiply_diagrams(swap_diagram(2, 1), swap_diagram(2, 1)) == (
            0,
            identity_diagram(2),
        )

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            multiply_diagrams(identity_diagram(2), identity_diagram(3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associativity_random(self, data):
        r = data.draw(st.integers(1, 3))
        x = data.draw(diagrams_of_size(r))
        y = data.draw(diagrams_of_size(r))
        z = data.draw(diagrams_of_size(r))
        # each side is (d1*d2)**closed times one diagram
        t_xy, xy = multiply_diagrams(x, y)
        t_left, left = multiply_diagrams(xy, z)
        t_yz, yz = multiply_diagrams(y, z)
        t_right, right = multiply_diagrams(x, yz)
        assert (t_xy + t_left, left) == (t_yz + t_right, right)

    def test_propagating_never_grows_exhaustive_rank2(self):
        for x, y in itertools.product(all_diagrams(2), repeat=2):
            _, z = multiply_diagrams(x, y)
            assert z.propagating_count <= min(x.propagating_count, y.propagating_count)


class TestStackingAgainstPoints:
    def test_exhaustive_small(self):
        for r in (1, 2):
            diagrams = all_diagrams(r)
            for x, y in itertools.product(diagrams, repeat=2):
                assert multiply_diagrams(x, y) == reference_product(x, y)
            for sp in set_partitions(r):
                for d in diagrams:
                    assert act_on_set_partition(sp, d) == reference_action(sp, d)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random(self, data):
        r = data.draw(st.integers(1, 5))
        x, y = data.draw(diagrams_of_size(r)), data.draw(diagrams_of_size(r))
        sp = data.draw(partitions_of_size(r))
        assert multiply_diagrams(x, y) == reference_product(x, y)
        assert act_on_set_partition(sp, x) == reference_action(sp, x)


class TestPropagating:
    def test_against_blocks(self):
        for r in (1, 2, 3):
            for d in all_diagrams(r):
                crossing = sum(b[0] <= r < b[-1] for b in d.partition.blocks)
                assert d.propagating_count == crossing

    def test_identity(self):
        for r in (1, 3, 5):
            assert identity_diagram(r).propagating_count == r

    def test_eight_point_example(self):
        d = diagram_from_string(
            "{1,2,4,2',5'|3|5,6,7,3',4',6',7'|8,8'|1'}", 8
        )
        assert d.propagating_count == 3

    def test_p1_rank2(self):
        assert p_diagram(2).propagating_count == 1


class TestOneRowAction:
    def test_singletons_under_p1(self):
        sp = SetPartition.singletons(2)
        assert act_on_set_partition(sp, p_diagram(2)) == (1, SetPartition.singletons(2))

    def test_block_under_p1(self):
        sp = one_block(2)
        assert act_on_set_partition(sp, p_diagram(2)) == (0, SetPartition.singletons(2))

    def test_identity_fixes_everything(self):
        for r in (1, 2, 3, 4):
            for sp in set_partitions(r):
                assert act_on_set_partition(sp, identity_diagram(r)) == (0, sp)

    def test_swap_relabels(self):
        sp = SetPartition.from_blocks([[1, 2], [3]], 3)
        _, image = act_on_set_partition(sp, swap_diagram(3, 2))
        assert image == SetPartition.from_blocks([[1, 3], [2]], 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            act_on_set_partition(SetPartition.singletons(2), identity_diagram(3))

    def test_refuses_a_non_partition(self):
        with pytest.raises(MalformedPartitionError, match="^not a set-partition: 1$"):
            act_on_set_partition(1, identity_diagram(1))

    def test_refuses_a_non_diagram(self):
        with pytest.raises(MalformedPartitionError, match="^not a partition diagram: 1$"):
            act_on_set_partition(SetPartition.singletons(1), 1)


class TestAlgebraElement:
    """Basis relations: a product of two diagrams is (d1*d2)**closed times one diagram."""

    def test_identity_element(self):
        e = identity_diagram(2)
        assert multiply_diagrams(e, e) == (0, e)

    def test_p1_squared_scalar(self):
        p1 = p_diagram(2)
        assert multiply_diagrams(p1, p1) == (1, p1)

    def test_p12_absorbs_the_swap(self):
        p12 = p12_diagram(2)
        assert multiply_diagrams(p12, swap_diagram(2, 1)) == (0, p12)


class TestStoredHash:
    def test_equals_the_generated_value(self):
        for r in (1, 2):
            for d in all_diagrams(r):
                assert hash(d) == hash((d.size, d.partition))

    def test_equal_diagrams_hash_equal(self):
        for r in (1, 2, 3):
            for d in all_diagrams(r):
                again = diagram_from_string(str(d), r)
                assert again == d and again is not d and hash(again) == hash(d)
        assert hash(identity_diagram(2)) == hash(diagram_from_string("{1,1'|2,2'}", 2))
        assert repr(identity_diagram(1)) == (
            "PartitionDiagram(size=1, partition=SetPartition(size=2, labels=(0, 0)))"
        )


class TestProductTableChecks:
    def test_ideal_filtration_alone(self):
        assert "two-sided ideal" in verify.check_ideal_filtration(True)

    def test_table_matches_the_diagram_product_exhaustively(self):
        # the full product, relabel included, against the table's root counts
        for r in (1, 2, 3):
            table_diagrams, counts = verify._product_table(r)
            assert list(table_diagrams) == all_diagrams(r)
            for x, row in zip(table_diagrams, counts):
                for y, count in zip(table_diagrams, row):
                    assert count == multiply_diagrams(x, y)[1].propagating_count

    def test_associativity_check_catches_an_unbalanced_count(self, monkeypatch):
        product = verify.multiply_diagrams

        def left_weighted(x, y):
            closed, z = product(x, y)
            return closed + x.propagating_count, z

        monkeypatch.setattr(verify, "multiply_diagrams", left_weighted)
        with pytest.raises(verify.CheckFailure, match="associativity fails"):
            verify.check_diagram_associativity(False)

    def test_escaping_product_fails_both_checks(self, monkeypatch):
        # p1 has 2 < 3 propagating blocks, so p1 * identity lies in the ideal
        x, y = p_diagram(3).partition, identity_diagram(3).partition
        glue = diagrams._glue
        middle, top = x.labels[3:], y.labels[:3]

        def escaping(upper_middle, upper_blocks, lower_top, lower_blocks):
            key = (upper_middle, upper_blocks, lower_top, lower_blocks)
            if key == (middle, x.block_count, top, 3):
                # each of the identity's strands joins one of p1's northern blocks
                return [0, 1, 2, 3, 0, 1, 2], 3
            return glue(upper_middle, upper_blocks, lower_top, lower_blocks)

        # the table glues label strings through the module attribute
        monkeypatch.setattr(diagrams, "_glue", escaping)
        table_diagrams, counts = verify._product_table(3)
        assert counts[table_diagrams.index(p_diagram(3))][
            table_diagrams.index(identity_diagram(3))
        ] == 3
        with pytest.raises(verify.CheckFailure, match="ideal escaped"):
            verify.check_ideal_filtration(True)
        with pytest.raises(verify.CheckFailure, match="propagating count grew"):
            verify.check_propagating_monotone(True)

    def test_ideal_check_reads_the_diagram_product(self, monkeypatch):
        # a product that lifts a low-propagating factor to a permutation
        product = verify.multiply_diagrams

        def escaping(x, y):
            closed, z = product(x, y)
            if min(x.propagating_count, y.propagating_count) < x.size:
                return closed, identity_diagram(x.size)
            return closed, z

        monkeypatch.setattr(verify, "multiply_diagrams", escaping)
        with pytest.raises(verify.CheckFailure, match="ideal escaped"):
            verify.check_ideal_filtration(True)

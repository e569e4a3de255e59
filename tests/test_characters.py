import itertools
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethysm import characters, setpartitions, verify
from plethysm.characters import (
    CHARACTER_CAP,
    cayley_sylvester,
    character_value,
    check_partition,
    class_size,
    cycle_representative,
    dimension,
    format_partition,
    generalized_plethysm,
    homogeneous_plethysm,
    multiplicities,
    pad_partition,
    parse_partition,
    box_partition_counts,
    partitions,
    partitions_no_ones,
    set_partitions_of_shape,
    shape_count,
    singleton_free_character,
    singleton_free_count,
)
from plethysm.errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    ResourceCapError,
    SizeMismatchError,
)
from plethysm.setpartitions import SetPartition, set_partitions

from helpers import beta_list_character, permuted, singleton_free_by_shapes


def syt_count(lam):
    # independent oracle: count standard tableaux by removing corners
    if sum(lam) == 0:
        return 1
    total = 0
    for i in range(len(lam)):
        if lam[i] and (i == len(lam) - 1 or lam[i] > lam[i + 1]):
            smaller = list(lam)
            smaller[i] -= 1
            while smaller and smaller[-1] == 0:
                smaller.pop()
            total += syt_count(tuple(smaller))
    return total


def cycle_type(perm):
    # perm maps 0-based index -> 0-based image
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def permutation_with_cycle_type(rho):
    perm = []
    start = 0
    for k in rho:
        perm.extend([start + (i + 1) % k for i in range(k)])
        start += k
    return perm


def slow_fixed_count(mu, rho):
    # independent slow path: enumerate everything, filter by shape, count fixed
    r = sum(mu)
    sigma = permutation_with_cycle_type(rho)
    one_line = [sigma[i] + 1 for i in range(r)]
    count = 0
    for sp in set_partitions(r):
        if tuple(sorted((len(b) for b in sp.blocks), reverse=True)) != mu:
            continue
        if permuted(sp, one_line) == sp:
            count += 1
    return count


class TestPartitionBasics:
    def test_revlex_order(self):
        assert list(partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts(self):
        assert len(list(partitions(8))) == 22
        assert len(list(partitions(0))) == 1

    def test_no_ones(self):
        assert partitions_no_ones(1) == ()
        assert partitions_no_ones(4) == ((4,), (2, 2))
        assert partitions_no_ones(8) == (
            (8,),
            (6, 2),
            (5, 3),
            (4, 4),
            (4, 2, 2),
            (3, 3, 2),
            (2, 2, 2, 2),
        )
        assert partitions_no_ones(0) == ((),)

    def test_parse_and_format(self):
        assert parse_partition("4,2,2") == (4, 2, 2)
        assert parse_partition("-") == ()
        assert parse_partition("") == ()
        assert format_partition((4, 2)) == "4,2"
        assert format_partition(()) == "-"
        with pytest.raises(MalformedPartitionError):
            parse_partition("2,4")
        with pytest.raises(MalformedPartitionError):
            parse_partition("a,b")
        with pytest.raises(MalformedPartitionError):
            check_partition((3, 0))

    def test_class_sizes_sum_to_group_order(self):
        for r in range(1, 9):
            assert sum(class_size(rho) for rho in partitions(r)) == factorial(r)


class TestPadding:
    def test_examples(self):
        assert pad_partition((4,), 16) == (12, 4)
        assert pad_partition((), 5) == (5,)

    def test_first_row_violation(self):
        with pytest.raises(MalformedPartitionError):
            pad_partition((4, 2), 7)

    def test_tight_case(self):
        assert pad_partition((3,), 6) == (3, 3)


class TestCharacterValues:
    def test_trivial_character(self):
        for r in range(1, 7):
            for rho in partitions(r):
                assert character_value((r,), rho) == 1

    def test_sign_character(self):
        assert character_value((1, 1, 1, 1), (2, 1, 1)) == -1
        for rho in partitions(5):
            expected = (-1) ** (5 - len(rho))
            assert character_value((1,) * 5, rho) == expected

    def test_dimension_against_tableau_count(self):
        for r in range(1, 8):
            for lam in partitions(r):
                count = syt_count(lam)
                assert character_value(lam, (1,) * r) == count
                assert dimension(lam) == count

    def test_two_two_identity(self):
        assert character_value((2, 2), (1, 1, 1, 1)) == 2

    def test_orthogonality_small(self):
        for r in range(1, 6):
            for lam, mu in itertools.product(partitions(r), repeat=2):
                total = sum(
                    class_size(rho)
                    * character_value(lam, rho)
                    * character_value(mu, rho)
                    for rho in partitions(r)
                )
                assert total == (factorial(r) if lam == mu else 0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            character_value((2,), (1, 1, 1))

    def test_size_is_capped_before_the_bead_bitmask(self):
        # uncapped, 1 << 10**600 raised OverflowError and 10**5 one-cycles RecursionError
        for lam, rho in (((10**600,), (10**600,)), ((10**5,), (1,) * 10**5), ((51,), (51,))):
            with pytest.raises(ResourceCapError, match="exceeds CHARACTER_CAP = 50$"):
                character_value(lam, rho)
        assert character_value((CHARACTER_CAP,), (1,) * CHARACTER_CAP) == 1
        assert CHARACTER_CAP >= characters.ORACLE_CAP  # the oracle pairs at |lam| = mn

    def test_bead_kernel_matches_the_beta_list_reference(self):
        # orthogonality alone cannot see a relabelling of the irreducibles
        for r in range(11):
            classes = list(partitions(r))
            for lam in classes:
                values = [character_value(lam, rho) for rho in classes]
                assert values == [beta_list_character(lam, rho) for rho in classes], lam


class TestShapeEnumeration:
    def test_counts(self):
        assert len(set_partitions_of_shape((2, 2))) == 3
        assert len(set_partitions_of_shape((2, 1, 1))) == 6
        assert len(set_partitions_of_shape((4,))) == 1

    def test_shapes_partition_the_bell_count(self):
        for r in range(1, 7):
            total = sum(len(set_partitions_of_shape(mu)) for mu in partitions(r))
            assert total == len(list(set_partitions(r)))

    def test_enumerated_shapes_match_the_partitions_of_each_shape(self):
        # reference: every set-partition of r, sorted by the shape of its blocks
        for r in range(0, 9):
            by_shape = {}
            for sp in set_partitions(r) if r else [SetPartition(0, ())]:
                shape = tuple(sorted(map(len, sp.blocks), reverse=True))
                by_shape.setdefault(shape, set()).add(sp)
            for mu in partitions(r):
                enumerated = set_partitions_of_shape(mu)
                assert set(enumerated) == by_shape[mu] and len(enumerated) == len(by_shape[mu])

    def test_closed_form_count_matches_enumeration(self):
        for r in range(1, 8):
            for mu in partitions(r):
                assert shape_count(mu) == len(set_partitions_of_shape(mu))


class TestStabCharacter:
    """The shape character at rho counts the shape-mu set-partitions that a
    permutation of cycle type rho fixes; a class it misses reads 0."""

    def test_examples(self):
        assert characters._shape_characteristic((2, 2)).get((1, 1, 1, 1), 0) == 3
        assert characters._shape_characteristic((2, 2)).get((2, 1, 1), 0) == 1
        for rho in partitions(5):
            assert characters._shape_characteristic((5,)).get(rho, 0) == 1
        assert characters._shape_characteristic(()) == {(): 1}

    def test_against_slow_filtering(self):
        for r in range(1, 7):
            for mu in partitions(r):
                chi = characters._shape_characteristic(mu)
                for rho in partitions(r):
                    assert chi.get(rho, 0) == slow_fixed_count(mu, rho)

    def test_size_mismatch(self):
        # every cycle type in the character has the shape's size
        chi = characters._shape_characteristic((2, 2))
        assert set(map(sum, chi)) == {4} and chi.get((3,), 0) == 0

    def test_a_rectangle_reads_the_memoized_factor(self):
        for mu in ((3,), (2, 2), (1, 1, 1), (4, 4, 4)):
            a, b = mu[0], len(mu)
            assert characters._shape_characteristic(mu) is characters._plethystic_exp(a, a, a * b)


def frozenset_fixed_count(mu, rho):
    # the blocks of each shape-mu partition as a frozenset of frozensets
    sigma = (0,) + cycle_representative(rho)  # indexed by 1-based points
    count = 0
    for sp in set_partitions_of_shape(mu):
        blocks = frozenset(map(frozenset, sp.blocks))
        count += all(frozenset(sigma[x] for x in b) in blocks for b in blocks)
    return count


class TestVerifyFixedCounts:
    def test_bitmask_counts_match_the_frozenset_reference(self):
        for r in range(1, 8):
            counts = verify._brute_fixed_counts(r)
            assert list(counts) == list(partitions(r))
            for mu, by_rho in counts.items():
                assert list(by_rho) == list(partitions(r))
                for rho, count in by_rho.items():
                    assert count == frozenset_fixed_count(mu, rho), (mu, rho)

    def test_check_catches_one_wrong_value(self, monkeypatch):
        exact = characters._shape_characteristic

        def off_by_one(mu):
            chi = dict(exact(mu))
            if mu == (3, 2):
                chi[2, 2, 1] += 1
            return chi

        monkeypatch.setattr(characters, "_shape_characteristic", off_by_one)
        message = r"mu=\(3, 2\), rho=\(2, 2, 1\)"
        with pytest.raises(verify.CheckFailure, match=message):
            verify.check_fixed_counts(False)

    def test_check_reads_the_growth_strings(self, monkeypatch):
        # without {1,2|3,4}, the oracle counts 2 shape-(2, 2) partitions fixed
        # by rho = (2, 2) where the kernel counts 3
        exact = setpartitions._growth_strings

        def drop_one(r):
            return (labels for labels in exact(r) if labels != (0, 0, 1, 1))

        monkeypatch.setattr(setpartitions, "_growth_strings", drop_one)
        with pytest.raises(verify.CheckFailure, match=r"mu=\(2, 2\)"):
            verify.check_fixed_counts(False)

    def test_check_reads_each_shape_character_once(self, monkeypatch):
        calls = Counter()
        exact = characters._shape_characteristic

        def counted(mu):
            calls[mu] += 1
            return exact(mu)

        monkeypatch.setattr(characters, "_shape_characteristic", counted)
        verify.check_fixed_counts(True)
        assert calls == Counter(mu for r in range(1, 9) for mu in partitions(r))


class TestGeneralizedPlethysm:
    def test_two_row_inductions_of_rank8(self):
        assert generalized_plethysm((6, 2), (6, 2)) == 1
        assert generalized_plethysm((6, 2), (7, 1)) == 1
        assert generalized_plethysm((6, 2), (8,)) == 1
        assert generalized_plethysm((6, 2), (5, 3)) == 0

    def test_wreath_square(self):
        assert generalized_plethysm((4, 4), (7, 1)) == 0
        assert generalized_plethysm((4, 4), (4, 4)) == 1
        assert generalized_plethysm((4, 4), (8,)) == 1

    def test_four_twos(self):
        assert generalized_plethysm((2, 2, 2, 2), (2, 2, 2, 2)) == 1

    def test_empty(self):
        assert generalized_plethysm((), ()) == 1

    def test_dimension_sum(self):
        for r in range(1, 7):
            for mu in partitions(r):
                total = sum(
                    generalized_plethysm(mu, lam) * dimension(lam)
                    for lam in partitions(r)
                )
                assert total == len(set_partitions_of_shape(mu))


class TestMultiplicity:
    def test_irreducible_characters_pair_to_a_kronecker_delta(self):
        for r in range(7):
            for mu in partitions(r):
                chi = {rho: character_value(mu, rho) for rho in partitions(r)}
                for lam in partitions(r):
                    assert multiplicities(chi, (lam,)) == [int(lam == mu)]

    def test_non_character_is_a_fault(self):
        with pytest.raises(InternalConsistencyError):
            multiplicities({(1, 1): 1}, ((2,),))  # pairs to 1/2
        with pytest.raises(InternalConsistencyError):
            multiplicities({(1, 1): -2}, ((2,),))  # pairs to -1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_sum_of_irreducibles_pairs_to_its_coefficients(self, data):
        # the character sum_mu c_mu chi^mu, read from the beta-list reference
        labels = list(partitions(data.draw(st.integers(0, 7), label="r")))
        c = data.draw(st.lists(st.integers(0, 5), min_size=len(labels), max_size=len(labels)))
        chi = {
            rho: sum(k * beta_list_character(mu, rho) for k, mu in zip(c, labels))
            for rho in labels
        }
        assert multiplicities(chi, labels) == c

    def test_a_label_of_another_size_is_refused(self):
        # a trie walk alone would pair the smaller label to 0
        chi = singleton_free_character(4)
        for labels in (((2, 1),), ((4,), (5,)), ((),)):
            with pytest.raises(SizeMismatchError, match=r"^\|\(.*\)\| != \|\(2, 2\)\|$"):
                multiplicities(chi, labels)
        assert multiplicities({}, ((1,),)) == [0]  # the singleton-free character of S_1


class TestSingletonFreeCharacter:
    def test_matches_the_modules_own_action_on_the_depth_quotient(self):
        for r in range(9):
            chi = singleton_free_character(r)
            # verify's reader starts at rank 1; the rank-0 quotient is the empty pair
            fixed = verify._quotient_character(r) if r else {(): 1}
            for rho in partitions(r):
                assert chi.get(rho, 0) == fixed[rho]

    def test_degree_is_the_singleton_free_count(self):
        for r in range(13):
            assert singleton_free_character(r).get((1,) * r, 0) == singleton_free_count(r)

    def test_matches_the_sum_over_shapes(self):
        for r in range(15):
            assert singleton_free_character(r) == singleton_free_by_shapes(r), r

    def test_cached_characters_are_plain_dicts(self):
        # a defaultdict read would write a 0 into the process-wide cache
        with pytest.raises(KeyError):
            singleton_free_character(1)[(1,)]
        assert singleton_free_character(1) == {}
        for chi in (singleton_free_character(6), characters._shape_characteristic((2, 2))):
            assert type(chi) is dict


class TestPlethysticExp:
    RANGES = ((1, 1), (2, 2), (3, 3), (1, 3), (3, 5), (1, 20), (2, 20), (4, 20))

    def test_identity_value_counts_the_set_partitions(self):
        for low, high in self.RANGES:
            for d in range(21):
                count = sum(
                    shape_count(mu) for mu in partitions(d) if all(low <= p <= high for p in mu)
                )
                assert characters._plethystic_exp(low, high, d).get((1,) * d, 0) == count

    def test_newton_remainder_names_the_degree(self, monkeypatch):
        def unweighted(f, g):
            # the merged cycle types without their binomial weights
            out = {}
            for rho, a in f.items():
                for sigma, b in g.items():
                    gamma = tuple(sorted(rho + sigma, reverse=True))
                    out[gamma] = out.get(gamma, 0) + a * b
            return out

        monkeypatch.setattr(characters, "_multiply", unweighted)
        characters._plethystic_exp.cache_clear()
        try:
            # below degree 4 every product is by {(): 1}, whose weight is 1
            with pytest.raises(InternalConsistencyError, match=r"in degree 4 leaves \d+/4 at"):
                singleton_free_character(4)
        finally:
            characters._plethystic_exp.cache_clear()


class TestOracle:
    S4_TABLE = {
        # classes ordered (1,1,1,1), (2,1,1), (2,2), (3,1), (4)
        (4,): (1, 1, 1, 1, 1),
        (3, 1): (3, 1, -1, 0, -1),
        (2, 2): (2, 0, 2, -1, 0),
        (2, 1, 1): (3, -1, -1, 0, 1),
        (1, 1, 1, 1): (1, -1, 1, 1, -1),
    }
    CLASS_ORDER = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]

    def brute_force_induced_multiplicity(self, alpha):
        # decompose the permutation module on the three 2+2 splittings of
        # {0,1,2,3} by summing over all 24 group elements with a hand-checked
        # character table
        splittings = [
            frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
        ]
        total = 0
        for perm in itertools.permutations(range(4)):
            fixed = sum(
                1
                for s in splittings
                if frozenset(frozenset(perm[x] for x in block) for block in s) == s
            )
            column = self.CLASS_ORDER.index(cycle_type(perm))
            total += fixed * self.S4_TABLE[alpha][column]
        assert total % 24 == 0
        return total // 24

    def test_square_of_two_against_brute_force(self):
        for alpha in partitions(4):
            assert homogeneous_plethysm(2, 2, alpha) == (
                self.brute_force_induced_multiplicity(alpha)
            )

    def test_known_square_values(self):
        assert homogeneous_plethysm(2, 2, (2, 2)) == 1
        assert homogeneous_plethysm(2, 2, (3, 1)) == 0
        assert homogeneous_plethysm(2, 2, (4,)) == 1

    def test_trivial_inner(self):
        for n in range(1, 6):
            for alpha in partitions(n):
                expected = 1 if alpha == (n,) else 0
                assert homogeneous_plethysm(1, n, alpha) == expected

    def test_three_cubed(self):
        assert homogeneous_plethysm(3, 3, (6, 3)) == 1

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            homogeneous_plethysm(5, 4, (20,))

    def test_cap_message_names_the_constant(self):
        with pytest.raises(ResourceCapError, match="mn=20 exceeds ORACLE_CAP = 16"):
            homogeneous_plethysm(5, 4, (20,))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            homogeneous_plethysm(2, 2, (3,))


class TestCayleySylvester:
    def test_examples(self):
        assert cayley_sylvester(2, 2, 2) == 1
        assert cayley_sylvester(5, 5, 5) == 2
        assert cayley_sylvester(5, 4, 5) == 1

    def test_box_counts_against_filtering(self):
        for rows in range(1, 6):
            for cols in range(1, 6):
                counts = box_partition_counts(rows, cols, rows * cols)
                for k in range(0, rows * cols + 1):
                    brute = sum(
                        1
                        for lam in partitions(k)
                        if len(lam) <= rows and (not lam or lam[0] <= cols)
                    )
                    assert counts[k] == brute

    def test_box_clipped_at_r_gives_the_full_box_difference(self):
        for m in range(1, 6):
            for n in range(1, 6):
                counts = [0] + box_partition_counts(m, n, m * n)
                assert [cayley_sylvester(m, n, r) for r in range(m * n + 1)] == [
                    b - a for a, b in zip(counts, counts[1:])
                ]
        # a memoized recursion kept 15.3 M box counts, 1.8 GB, for this one value
        assert cayley_sylvester(100, 100, 5000) > 0
        # Hermite reciprocity: h_n[h_m] and h_m[h_n] agree, from different boxes
        assert cayley_sylvester(30, 70, 700) == cayley_sylvester(70, 30, 700)

    def test_out_of_range(self):
        with pytest.raises(MalformedPartitionError):
            cayley_sylvester(2, 2, 5)

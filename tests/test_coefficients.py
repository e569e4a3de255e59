from math import factorial

import pytest

from plethysm import characters, coefficients, diagrams, foulkes, verify
from plethysm.characters import (
    cayley_sylvester,
    homogeneous_plethysm,
    pad_partition,
    partitions,
    partitions_no_ones,
)
from plethysm.coefficients import (
    ORACLE_REGIME,
    STABLE_REGIME,
    coefficient_regime,
    plethysm_coefficient,
    stable_plethysm,
    stable_table,
)
from plethysm.errors import (
    MalformedPartitionError,
    ResourceCapError,
    UnsupportedRegimeError,
)
from plethysm.foulkes import depth_quotient_basis
from plethysm.setpartitions import SetPartition

from helpers import beta_list_character, module_multiplicities

RANK8_VALUES = {
    (8,): 7,
    (7, 1): 4,
    (6, 2): 8,
    (5, 3): 3,
    (5, 2, 1): 2,
    (4, 4): 4,
    (4, 3, 1): 1,
    (4, 2, 2): 3,
    (2, 2, 2, 2): 1,
}


class TestStableValues:
    def test_rank4(self):
        assert stable_plethysm((4,)) == 2
        assert stable_plethysm((2, 2)) == 1
        assert stable_plethysm((3, 1)) == 0
        assert stable_plethysm((2, 1, 1)) == 0
        assert stable_plethysm((1, 1, 1, 1)) == 0

    def test_rank8(self):
        for lam in partitions(8):
            assert stable_plethysm(lam) == RANK8_VALUES.get(lam, 0)

    def test_single_box(self):
        assert stable_plethysm((1,)) == 0

    def test_empty(self):
        assert stable_plethysm(()) == 1

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            stable_plethysm((13,))

    def test_cap_message_names_the_variable(self, monkeypatch):
        monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
        message = r"\|lam\|=13 exceeds PLETHYSM_MAX_R = 12"
        with pytest.raises(ResourceCapError, match=message):
            stable_plethysm((13,))

    def test_a_raised_enumeration_cap_stops_at_the_character_cap(self, monkeypatch):
        # refused before the singleton-free character of degree 51 is built,
        # which ran for more than 20 s
        monkeypatch.setenv("PLETHYSM_MAX_R", "60")
        for call in (lambda: stable_plethysm((51,)), lambda: stable_table(51)):
            with pytest.raises(ResourceCapError, match=r"^\|lam\|=51 exceeds CHARACTER_CAP = 50$"):
                call()

    def test_accepts_sequences(self):
        assert stable_plethysm([2, 2]) == 1

    def test_non_integral_parts_refused(self):
        # truncating with int() would read these as (2), (4, 2) and (2)
        with pytest.raises(MalformedPartitionError, match=r"\(2\.7,\)"):
            stable_plethysm((2.7,))
        with pytest.raises(MalformedPartitionError, match="'4', '2'"):
            stable_plethysm(["4", "2"])
        with pytest.raises(MalformedPartitionError, match=r"\(2\.5,\)"):
            plethysm_coefficient(3, 3, (2.5,))

    def test_matches_the_per_shape_sum(self):
        for size in range(11):
            for lam in partitions(size):
                expected = sum(
                    characters.generalized_plethysm(mu, lam)
                    for mu in characters.partitions_no_ones(size)
                )
                assert stable_plethysm(lam) == expected


class TestCoefficient:
    def test_ten_by_ten(self):
        assert plethysm_coefficient(10, 10, (4, 4, 2)) == 6

    def test_large_rectangle(self):
        assert plethysm_coefficient(8, 240, (6, 2)) == 8

    def test_oracle_regime(self):
        assert coefficient_regime(2, 3, (3,)) == ORACLE_REGIME
        assert plethysm_coefficient(2, 3, (3,)) == homogeneous_plethysm(2, 3, (3, 3))

    def test_stable_regime_preferred(self):
        assert coefficient_regime(2, 2, (2,)) == STABLE_REGIME
        assert plethysm_coefficient(2, 2, (2,)) == 1

    def test_regimes_agree_where_both_apply(self):
        for m, n in ((2, 2), (3, 3), (2, 4), (4, 2), (2, 8), (4, 4)):
            for size in range(min(m, n) + 1):
                for lam in partitions(size):
                    if m * n - size < (lam[0] if lam else 0):
                        continue
                    oracle = homogeneous_plethysm(m, n, pad_partition(lam, m * n))
                    assert plethysm_coefficient(m, n, lam) == oracle

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            coefficient_regime(3, 2, (4, 4))
        with pytest.raises(UnsupportedRegimeError):
            coefficient_regime(5, 4, (5, 4, 3, 2, 1))

    def test_nonpositive_rectangle_rejected(self):
        for m, n in ((0, 0), (0, 3), (3, 0), (-1, 2)):
            with pytest.raises(MalformedPartitionError):
                coefficient_regime(m, n, ())

    def test_invalid_padding_in_stable_range(self):
        # m = n = 1 with lam = (1): both bounds hold but (0, 1) is no partition
        with pytest.raises(UnsupportedRegimeError):
            coefficient_regime(1, 1, (1,))


class TestStableTable:
    def test_rank4_rows(self):
        table = stable_table(4)
        assert dict(table.rows) == {
            (4,): 2,
            (3, 1): 0,
            (2, 2): 1,
            (2, 1, 1): 0,
            (1, 1, 1, 1): 0,
        }

    def test_rank2(self):
        assert dict(stable_table(2).rows) == {(2,): 1, (1, 1): 0}

    def test_rank0(self):
        assert stable_table(0).rows == (((), 1),)

    def test_matches_the_beta_list_pairing(self, monkeypatch):
        # one walk pairs every label; the reference pairs each (lam, rho) apart
        monkeypatch.setenv("PLETHYSM_MAX_R", "14")
        for r in range(15):
            chi = characters.singleton_free_character(r)
            rows = stable_table(r).rows
            assert [lam for lam, _ in rows] == list(partitions(r))
            for lam, value in rows:
                total = sum(
                    characters.class_size(rho) * count * beta_list_character(lam, rho)
                    for rho, count in chi.items()
                )
                assert total == value * factorial(r), (r, lam)

    def test_cap_message_names_the_variable(self, monkeypatch):
        monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
        message = "r=13 exceeds PLETHYSM_MAX_R = 12"
        with pytest.raises(ResourceCapError, match=message):
            stable_table(13)

    def test_negative_rank_rejected(self):
        with pytest.raises(MalformedPartitionError):
            stable_table(-1)

    def test_rank8_nonzero(self):
        assert {lam: value for lam, value in stable_table(8).rows if value} == RANK8_VALUES

    def test_rows_in_revlex_order(self):
        table = stable_table(6)
        assert [lam for lam, _ in table.rows] == list(partitions(6))

    def test_matches_module_decomposition(self):
        for r in range(1, 7):
            mults = module_multiplicities(r)
            for lam, value in stable_table(r).rows:
                assert mults[lam] == value

    def test_module_check_catches_a_wrong_kernel(self, monkeypatch):
        # (3,1) has the dimension of (4) + (2,2), so stable_table's own
        # A000296 check passes; only the module's own decomposition disagrees.
        # The rank-4 singleton-free character gets the (3,1) irreducible in
        # place of the (2,2) shape's character; the (4) shape keeps its own
        real = characters._plethystic_exp

        def wrong(low, high, d):
            if (low, high, d) == (2, 4, 4):
                one_block = real(4, 4, 4)
                return {
                    rho: one_block.get(rho, 0) + characters.character_value((3, 1), rho)
                    for rho in partitions(4)
                }
            return real(low, high, d)

        monkeypatch.setattr(characters, "_plethystic_exp", wrong)
        try:
            with pytest.raises(verify.CheckFailure, match="r=4"):
                verify.check_module_vs_stable(False)
        finally:
            real.cache_clear()  # degrees cached while the wrong one was planted

    def test_module_check_catches_a_dropped_quotient_pair(self, monkeypatch):
        # the rank-4 quotient pair whose outer is one block is dropped into the
        # radical; the three (2,2) pairs left still form an orbit, so the count
        # is a character and only its pairing with (4) is off
        real = foulkes.in_depth_radical
        one_block = SetPartition(4, (0, 0, 0, 0))
        monkeypatch.setattr(foulkes, "in_depth_radical", lambda p: p.outer == one_block or real(p))
        with pytest.raises(verify.CheckFailure, match=r"r=4, lam=\(4,\)"):
            verify.check_module_vs_stable(False)

    def test_module_check_reads_the_one_row_action(self, monkeypatch):
        # a planted one-row action that fixes every outer changes the character
        # the check reads: at r = 4 every class fixes the 4 quotient pairs
        monkeypatch.setattr(diagrams, "act_on_set_partition", lambda sp, d: (0, sp))
        with pytest.raises(verify.CheckFailure, match="r=4"):
            verify.check_module_vs_stable(False)

    def test_weighted_dimension_sum(self):
        # validated inside the builder; spot check the rank-4 number here
        from plethysm.characters import dimension

        table = stable_table(4)
        weighted = sum(v * dimension(lam) for lam, v in table.rows)
        assert weighted == len(depth_quotient_basis(4)) == 4


def asked_for(monkeypatch, module, name):
    """Record the arguments of every call to module.name, which still answers."""
    real, calls = getattr(module, name), []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestWeintraub:
    def test_examples(self):
        assert stable_plethysm((2, 2)) > 0
        assert stable_plethysm((4, 2, 2)) > 0
        assert stable_plethysm((2, 2, 2, 2)) > 0

    def test_all_even_partitions_up_to_ten(self):
        assert verify.check_weintraub(True) == (
            "19 even partitions have positive stable coefficients (|lam|<=10)"
        )
        for size in range(0, 11, 2):
            for lam in partitions(size):
                if all(part % 2 == 0 for part in lam):
                    assert stable_plethysm(lam) > 0

    def test_odd_part_rejected(self, monkeypatch):
        # the check asks only the even partitions: (3, 1) is not a Weintraub case
        calls = asked_for(monkeypatch, coefficients, "stable_plethysm")
        verify.check_weintraub(False)
        assert ((3, 1),) not in calls
        assert calls and all(part % 2 == 0 for (lam,) in calls for part in lam)

    def test_zero_value_fails_the_check(self, monkeypatch):
        real = coefficients.stable_plethysm
        monkeypatch.setattr(
            coefficients, "stable_plethysm", lambda lam: 0 if lam == (4, 2) else real(lam)
        )
        with pytest.raises(verify.CheckFailure, match=r"\(4, 2\) has zero stable value"):
            verify.check_weintraub(False)


class TestSharpness:
    def test_rank3(self):
        assert stable_plethysm((3,)) == 1 == len(partitions_no_ones(3))
        assert cayley_sylvester(3, 2, 3) == 0
        assert verify.check_sharpness(False) == "stability boundary is sharp for 3<=r<=6"

    def test_rank4(self):
        assert (stable_plethysm((4,)), cayley_sylvester(4, 3, 4)) == (2, 1)

    def test_rank8(self):
        assert (stable_plethysm((8,)), cayley_sylvester(8, 7, 8)) == (7, 6)
        assert verify.check_sharpness(True) == "stability boundary is sharp for 3<=r<=10"

    def test_small_rank_rejected(self, monkeypatch):
        # the statement needs r >= 3, and the check starts there
        calls = asked_for(monkeypatch, characters, "cayley_sylvester")
        verify.check_sharpness(False)
        assert [r for _, _, r in calls] == [3, 4, 5, 6]

    def test_value_below_the_range_fails_the_check(self, monkeypatch):
        real = characters.cayley_sylvester
        monkeypatch.setattr(
            characters, "cayley_sylvester", lambda m, n, r: real(m, n, r) + (r == 8)
        )
        with pytest.raises(verify.CheckFailure, match="sharpness fails at r=8"):
            verify.check_sharpness(True)

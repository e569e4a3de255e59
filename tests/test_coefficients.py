import pytest

from plethysm import characters, verify
from plethysm.characters import homogeneous_plethysm, pad_partition, partitions
from plethysm.coefficients import (
    ORACLE_REGIME,
    STABLE_REGIME,
    coefficient_regime,
    plethysm_coefficient,
    sharpness_check,
    stable_plethysm,
    stable_table,
    weintraub_check,
)
from plethysm.errors import (
    MalformedPartitionError,
    ResourceCapError,
    UnsupportedRegimeError,
)
from plethysm.foulkes import depth_quotient_basis, module_multiplicities

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
        message = r"\|lam\|=13 exceeds stable cap 12 \(PLETHYSM_MAX_R\)"
        with pytest.raises(ResourceCapError, match=message):
            stable_plethysm((13,))

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

    def test_cap_message_names_the_variable(self, monkeypatch):
        monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
        message = r"r=13 exceeds stable cap 12 \(PLETHYSM_MAX_R\)"
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
        # A000296 check passes; only the module's own decomposition disagrees
        real = characters._shape_characteristic

        def wrong(mu):
            if mu == (2, 2):
                return {rho: characters.character_value((3, 1), rho) for rho in partitions(4)}
            return real(mu)

        monkeypatch.setattr(characters, "_shape_characteristic", wrong)
        characters.singleton_free_character.cache_clear()
        try:
            with pytest.raises(verify.CheckFailure, match="r=4"):
                verify.check_module_vs_stable(False)
        finally:
            characters.singleton_free_character.cache_clear()

    def test_weighted_dimension_sum(self):
        # validated inside the builder; spot check the rank-4 number here
        from plethysm.characters import dimension

        table = stable_table(4)
        weighted = sum(v * dimension(lam) for lam, v in table.rows)
        assert weighted == len(depth_quotient_basis(4)) == 4


class TestWeintraub:
    def test_examples(self):
        assert weintraub_check((2, 2))
        assert weintraub_check((4, 2, 2))
        assert weintraub_check((2, 2, 2, 2))

    def test_all_even_partitions_up_to_ten(self):
        for size in range(0, 11, 2):
            for lam in partitions(size):
                if all(part % 2 == 0 for part in lam):
                    assert weintraub_check(lam)

    def test_odd_part_rejected(self):
        with pytest.raises(MalformedPartitionError):
            weintraub_check((3, 1))


class TestSharpness:
    def test_rank3(self):
        report = sharpness_check(3)
        assert report["stable_one_row"] == 1
        assert report["below_range"] == 0
        assert report["sharp"]

    def test_rank4(self):
        report = sharpness_check(4)
        assert (report["stable_one_row"], report["below_range"]) == (2, 1)

    def test_rank8(self):
        report = sharpness_check(8)
        assert (report["stable_one_row"], report["below_range"]) == (7, 6)

    def test_small_rank_rejected(self):
        with pytest.raises(MalformedPartitionError):
            sharpness_check(2)

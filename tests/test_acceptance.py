"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; every expected number here is pinned exactly.
"""

import itertools
import time

from plethysm.characters import (
    cayley_sylvester,
    generalized_plethysm,
    homogeneous_plethysm,
    pad_partition,
    partitions,
    partitions_no_ones,
)
from plethysm.coefficients import (
    STABLE_REGIME,
    coefficient_regime,
    plethysm_coefficient,
    stable_plethysm,
    stable_table,
)
from plethysm.diagrams import generators
from plethysm.foulkes import (
    action_matrix,
    depth_quotient_basis,
    in_depth_radical,
    layer_matrix,
    orbit_decomposition,
)
from plethysm.setpartitions import foulkes_pairs
from plethysm.tensor import foulkes_image_rank
from plethysm.verify import (
    check_character_orthogonality,
    check_depth_radical_closed,
    check_diagram_associativity,
    check_propagating_monotone,
    check_sharpness,
    check_weintraub,
)

from helpers import exponent_grid, word_consistent

# an entry d1^t1 d2^t2 as its exponents (t1, t2); a zero entry is absent
ONE = (0, 0)
D1 = (1, 0)
D1D2 = (1, 1)
ZERO = None


def report(number, started, detail, limit=None):
    elapsed = time.monotonic() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_01_rank4_table():
    started = time.monotonic()
    table = dict(stable_table(4).rows)
    assert table == {
        (4,): 2,
        (3, 1): 0,
        (2, 2): 1,
        (2, 1, 1): 0,
        (1, 1, 1, 1): 0,
    }
    report(1, started, "rank-4 stable table is (4):2, (2,2):1, zeros elsewhere", limit=1.0)


def test_criterion_02_rank8_table():
    started = time.monotonic()
    table = dict(stable_table(8).rows)
    expected_nonzero = {
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
    for lam, value in table.items():
        assert value == expected_nonzero.get(lam, 0), lam
    report(2, started, "rank-8 stable table reproduces all nine nonzero values", limit=30.0)


def test_criterion_03_ten_by_ten_coefficient():
    started = time.monotonic()
    assert coefficient_regime(10, 10, (4, 4, 2)) == STABLE_REGIME
    assert plethysm_coefficient(10, 10, (4, 4, 2)) == 6
    report(3, started, "p for the 10x10 rectangle at (4,4,2) equals 6 by the stable formula", limit=30.0)


def test_criterion_04_rank8_inductions():
    started = time.monotonic()
    expected = {
        (8,): {(8,): 1},
        (6, 2): {(6, 2): 1, (7, 1): 1, (8,): 1},
        (5, 3): {(5, 3): 1, (6, 2): 1, (7, 1): 1, (8,): 1},
        (4, 4): {(4, 4): 1, (6, 2): 1, (8,): 1},
        (4, 2, 2): {
            (4, 2, 2): 1,
            (4, 4): 1,
            (5, 2, 1): 1,
            (5, 3): 1,
            (6, 2): 2,
            (7, 1): 1,
            (8,): 1,
        },
        (3, 3, 2): {
            (4, 2, 2): 1,
            (4, 3, 1): 1,
            (4, 4): 1,
            (5, 2, 1): 1,
            (5, 3): 1,
            (6, 2): 2,
            (7, 1): 1,
            (8,): 1,
        },
        (2, 2, 2, 2): {
            (2, 2, 2, 2): 1,
            (4, 2, 2): 1,
            (4, 4): 1,
            (6, 2): 1,
            (8,): 1,
        },
    }
    for mu, decomposition in expected.items():
        for lam in partitions(8):
            assert generalized_plethysm(mu, lam) == decomposition.get(lam, 0), (mu, lam)
    report(4, started, "all listed rank-8 permutation modules decompose coefficient-by-coefficient", limit=10.0)


def test_criterion_05_rank2_matrices():
    started = time.monotonic()
    assert exponent_grid(action_matrix(generators(2)["p1"], 2)) == [
        [ZERO, ZERO, ZERO],
        [ONE, D1D2, D1],
        [ZERO, ZERO, ZERO],
    ]
    assert exponent_grid(action_matrix(generators(2)["p12"], 2)) == [
        [ONE, ONE, ONE],
        [ZERO, ZERO, ZERO],
        [ZERO, ZERO, ZERO],
    ]
    assert exponent_grid(action_matrix(generators(2)["s1"], 2)) == [
        [ONE, ZERO, ZERO],
        [ZERO, ONE, ZERO],
        [ZERO, ZERO, ONE],
    ]
    report(5, started, "rank-2 generator matrices match the displayed symbolic matrices")


def test_criterion_06_rank4_dimensions_and_orbits():
    started = time.monotonic()
    assert len(foulkes_pairs(4)) == 60
    assert sum(map(in_depth_radical, foulkes_pairs(4))) == 56
    assert len(depth_quotient_basis(4)) == 4
    orbits = {o.shape: o.size for o in orbit_decomposition(4)}
    assert orbits == {(2, 2): 3, (4,): 1}
    report(6, started, "rank-4 module splits 60 = 56 + 4 with orbits (2,2):3 and (4):1")


def test_criterion_07_filtration_layers():
    started = time.monotonic()
    for r in range(1, 6):
        for d in generators(r).values():
            matrix = action_matrix(d, r)
            for k in range(r):
                plain = layer_matrix(matrix, k)
                for _, t1, t2 in filter(None, plain.entries):
                    assert (t1, t2) in (ONE, D1D2)
                swapped = tuple(e and (e[0], e[2], e[1]) for e in plain.entries)
                assert plain.entries == swapped
    report(7, started, "layer entries lie in {0, 1, d1*d2} and survive the parameter swap (r<=5)")


def test_criterion_08_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for m, n, top in ((4, 4, 4), (3, 3, 3)):
        for size in range(top + 1):
            for lam in partitions(size):
                oracle = homogeneous_plethysm(m, n, pad_partition(lam, m * n))
                assert oracle == plethysm_coefficient(m, n, lam), (m, n, lam)
                checked += 1
    report(8, started, f"{checked} oracle values equal their stable counterparts", limit=120.0)


def test_criterion_09_sharpness():
    started = time.monotonic()
    for r in range(3, 11):
        assert stable_plethysm((r,)) == len(partitions_no_ones(r))
        assert cayley_sylvester(r, r - 1, r) == len(partitions_no_ones(r)) - 1
    check_sharpness(True)
    report(9, started, "one-row values are sharp for 3 <= r <= 10")


def test_criterion_10_tensor_checks():
    started = time.monotonic()
    for r in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                rank = foulkes_image_rank(r, m, n)
                assert (rank == len(foulkes_pairs(r))) == (m >= r and n >= r)
    for r in (1, 2, 3):
        for m, n in itertools.product(range(1, 10), repeat=2):
            if m * n > 9:
                continue
            for name in generators(r):
                assert word_consistent(r, m, n, [name]), (r, m, n, name)
    report(10, started, "tensor rank boundary and the action identity hold on all stated cases", limit=120.0)


def test_criterion_11_weintraub():
    started = time.monotonic()
    count = 0
    for size in range(0, 11, 2):
        for lam in partitions(size):
            if all(part % 2 == 0 for part in lam):
                assert stable_plethysm(lam) > 0, lam
                count += 1
    check_weintraub(True)
    report(11, started, f"{count} even partitions up to size 10 have positive stable values")


def test_criterion_12_property_suites():
    started = time.monotonic()
    check_diagram_associativity(True)
    check_propagating_monotone(True)
    check_character_orthogonality(True)
    check_depth_radical_closed(True)
    report(12, started, "associativity, propagating bound, orthogonality, radical closure all pass")

"""The argument contract of the 11 root exports.

Every integer argument is read through ``operator.index``, so a bool is its
int and a float or a string is refused; every partition argument through
``characters.check_partition``.  Both readers refuse an integer of more than
``MAX_DIGITS`` digits, so every message can print what it names.  Malformed
input, and operands of different sizes, raise a ``PlethysmError`` subclass:
never a return value and never another exception type.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plethysm
from plethysm.characters import MAX_DIGITS, cayley_sylvester, partitions
from plethysm.coefficients import coefficient_regime
from plethysm.diagrams import PartitionDiagram, generators
from plethysm.errors import MalformedPartitionError, PlethysmError, ResourceCapError
from plethysm.foulkes import action_matrix, layer_matrix
from plethysm.setpartitions import SetPartition, set_partitions
from plethysm.tensor import tensor_basis_orbits

not_integers = st.one_of(
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers(0, 3)),
    st.lists(st.integers(0, 3)),  # unhashable, so a cache in front of the check raises TypeError
)
too_long = st.sampled_from([10**5000, -(10**5000)])  # past Python's 4300-digit str limit
not_positive = st.one_of(not_integers, st.integers(max_value=0), too_long)
negative = st.one_of(not_integers, st.integers(max_value=-1), too_long)
small_positive = st.integers(1, 3)

small_partitions = st.sampled_from([lam for r in range(5) for lam in partitions(r)])
not_partitions = st.one_of(
    st.lists(st.integers(1, 4), min_size=2)
    .filter(lambda p: any(a < b for a, b in zip(p, p[1:])))
    .map(tuple),  # such as (1, 2)
    st.lists(st.integers(-2, 4), min_size=1).filter(lambda p: min(p) < 1).map(tuple),  # (3, 0)
    st.lists(st.one_of(st.integers(1, 3), st.floats()), min_size=1)
    .filter(lambda p: any(isinstance(x, float) for x in p))
    .map(tuple),  # (2, 1.0)
    st.just((10**5000,)),
    st.floats(),
    st.integers(),
    too_long,
    st.text(max_size=3),
    st.none(),
)


def _unequal(strategy):
    """Two draws from ``strategy`` whose sizes differ."""
    return st.tuples(strategy, strategy).filter(lambda ab: sum(ab[0]) != sum(ab[1]))


def _one_bad(good, bad):
    """Argument tuples with exactly one position drawn from ``bad``."""
    return st.one_of(
        *(
            st.tuples(*(bad[i] if i == k else good[i] for i in range(len(good))))
            for k in range(len(good))
        )
    )


def _diagram(r):
    return PartitionDiagram(r, SetPartition.singletons(2 * r))


small_diagrams = st.integers(1, 3).map(_diagram)
not_diagrams = st.one_of(
    not_integers, st.integers(), too_long, st.just(SetPartition.singletons(2))
)
unequal_diagrams = st.tuples(small_diagrams, small_diagrams).filter(
    lambda xy: xy[0].size != xy[1].size
)

# export name -> argument tuples, each malformed in at least one place
MALFORMED = {
    "character_value": st.one_of(
        _one_bad((small_partitions, small_partitions), (not_partitions, not_partitions)),
        _unequal(small_partitions),
    ),
    "generalized_plethysm": st.one_of(
        _one_bad((small_partitions, small_partitions), (not_partitions, not_partitions)),
        _unequal(small_partitions),
    ),
    "homogeneous_plethysm": st.one_of(
        _one_bad(
            (small_positive, small_positive, small_partitions),
            (not_positive, not_positive, not_partitions),
        ),
        st.tuples(small_positive, small_positive, small_partitions).filter(
            lambda a: sum(a[2]) != a[0] * a[1]
        ),
    ),
    "plethysm_coefficient": st.one_of(
        _one_bad(
            (small_positive, small_positive, small_partitions),
            (not_positive, not_positive, not_partitions),
        ),
        # lam too large for the rectangle: the padded label is not a partition
        st.tuples(st.just(1), st.just(1), small_partitions.filter(lambda lam: sum(lam) > 1)),
    ),
    "stable_plethysm": st.tuples(not_partitions),
    "stable_table": st.tuples(negative),
    "foulkes_pairs": st.tuples(not_positive),
    "orbit_decomposition": st.tuples(not_positive),
    "foulkes_image_rank": _one_bad(
        (small_positive, small_positive, small_positive), (not_positive, not_positive, not_positive)
    ),
    "action_matrix": st.one_of(
        _one_bad((st.just(generators(2)["s1"]), st.just(2)), (not_diagrams, not_positive)),
        st.tuples(small_diagrams, small_positive).filter(lambda a: a[0].size != a[1]),
    ),
    "multiply_diagrams": st.one_of(
        _one_bad((small_diagrams, small_diagrams), (not_diagrams, not_diagrams)),
        unequal_diagrams,
    ),
}


def test_the_contract_covers_every_root_export():
    assert sorted(MALFORMED) == plethysm.__all__


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(MALFORMED)).flatmap(lambda f: st.tuples(st.just(f), MALFORMED[f])))
@example(("character_value", ((1, 2), (3,))))
@example(("character_value", ((2, 1), (4, -1))))
@example(("character_value", ((3, 0), (3,))))
@example(("character_value", ((2, 1), (2, 1.0))))
@example(("stable_table", (2.0,)))
@example(("foulkes_pairs", (2.0,)))
@example(("foulkes_pairs", ([2],)))
@example(("orbit_decomposition", (2.0,)))
@example(("foulkes_image_rank", (2, 2.0, 2)))
@example(("character_value", ((10**5000,), (10**5000,))))
@example(("stable_table", (10**5000,)))
@example(("multiply_diagrams", (10**5000, 10**5000)))
def test_every_root_export_refuses_malformed_input(call):
    name, args = call
    with pytest.raises(PlethysmError):
        getattr(plethysm, name)(*args)


def test_a_cached_value_does_not_answer_an_equal_float():
    # 2.0 == 2 and hashes alike, so a cache in front of the check would answer it
    assert plethysm.character_value((2, 1), (2, 1)) == 0
    with pytest.raises(MalformedPartitionError, match=r"not a partition: \(2, 1\.0\)"):
        plethysm.character_value((2, 1), (2, 1.0))
    assert len(plethysm.foulkes_pairs(2)) == 3
    with pytest.raises(MalformedPartitionError, match=r"ground size 2\.0 is not an integer"):
        plethysm.foulkes_pairs(2.0)


def test_a_bool_reads_as_its_int():
    assert plethysm.stable_table(True) == plethysm.stable_table(1)
    assert type(plethysm.stable_table(True).r) is int
    assert plethysm.stable_plethysm((2, True)) == plethysm.stable_plethysm((2, 1))
    assert plethysm.plethysm_coefficient(True, 3, (1,)) == plethysm.plethysm_coefficient(1, 3, (1,))


def test_helpers_below_the_exports_read_integers_through_check_int():
    matrix = action_matrix(generators(2)["s1"], 2)
    for call in (
        lambda: layer_matrix(matrix, 0.5),
        lambda: cayley_sylvester(2, 2, 1.5),
        lambda: SetPartition.from_blocks([[1], [2]], 2.0),
    ):
        with pytest.raises(MalformedPartitionError, match="is not an integer"):
            call()
    # the sides are read as check_factors reads them, and a negative rank is refused
    for args, message in (
        ((2, 2, -1), r"r=-1 is negative"),
        ((0, 0, 0), r"m=0, n=0: both must be positive"),
        ((-1, 2, 1), r"m=-1, n=2: both must be positive"),
    ):
        with pytest.raises(MalformedPartitionError, match=message):
            cayley_sylvester(*args)


BIG = 10**5000  # too long for str() under Python's default limit of 4300 digits
TOO_LONG = {
    "stable_table(big)": lambda: plethysm.stable_table(BIG),
    "stable_table(-big)": lambda: plethysm.stable_table(-BIG),
    "stable_plethysm": lambda: plethysm.stable_plethysm((BIG,)),
    "homogeneous_plethysm": lambda: plethysm.homogeneous_plethysm(BIG, 2, (1,)),
    "plethysm_coefficient": lambda: plethysm.plethysm_coefficient(-BIG, 2, (1,)),
    "coefficient_regime": lambda: coefficient_regime(2, 2, (BIG,)),
    "character_value": lambda: plethysm.character_value((BIG,), (BIG,)),
    "generalized_plethysm": lambda: plethysm.generalized_plethysm(BIG, (1,)),
    "foulkes_pairs": lambda: plethysm.foulkes_pairs(BIG),
    "foulkes_pairs([big])": lambda: plethysm.foulkes_pairs([BIG]),
    "orbit_decomposition": lambda: plethysm.orbit_decomposition(BIG),
    "set_partitions": lambda: next(set_partitions(BIG)),
    "action_matrix": lambda: plethysm.action_matrix(generators(1)["p1"], BIG),
    "multiply_diagrams": lambda: plethysm.multiply_diagrams(BIG, [BIG]),
    "foulkes_image_rank(2, big, 2)": lambda: plethysm.foulkes_image_rank(2, BIG, 2),
    "foulkes_image_rank(big, 2, 2)": lambda: plethysm.foulkes_image_rank(BIG, 2, 2),
    "from_blocks": lambda: SetPartition.from_blocks([], -BIG),
    "cayley_sylvester(2, 2, big)": lambda: cayley_sylvester(2, 2, BIG),
    "cayley_sylvester(2, 2, -big)": lambda: cayley_sylvester(2, 2, -BIG),
    "layer_matrix": lambda: layer_matrix(action_matrix(generators(2)["s1"], 2), BIG),
    "tensor_basis_orbits": lambda: tensor_basis_orbits(10**4, 2, 3),
}


@pytest.mark.parametrize("call", TOO_LONG.values(), ids=TOO_LONG)
def test_an_integer_too_long_to_print_is_refused_in_a_message_that_prints(call):
    with pytest.raises(PlethysmError) as refused:
        call()
    assert len(str(refused.value)) < 100


def test_the_digit_bound_is_inclusive():
    # 640 digits, the least int-to-str limit Python accepts, are read and printed
    most = 10**MAX_DIGITS - 1
    with pytest.raises(ResourceCapError, match=f"^r={most} exceeds PLETHYSM_MAX_R"):
        plethysm.stable_table(most)
    with pytest.raises(ResourceCapError, match=f"^[|]lam[|]={most} exceeds PLETHYSM_MAX_R"):
        plethysm.stable_plethysm((most,))
    with pytest.raises(MalformedPartitionError, match="^r has more than 640 digits$"):
        plethysm.stable_table(-most - 1)
    with pytest.raises(MalformedPartitionError, match="^not a partition: a part has more than 640"):
        plethysm.stable_plethysm((most + 1,))

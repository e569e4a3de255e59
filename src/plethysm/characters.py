"""Symmetric-group characters and the power-sum kernel behind every multiplicity.

Integer partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ``()``.  Every character is an integer class function, a
dict from cycle type to value.  One border-strip walk on bead bitmasks pairs a
class function with every irreducible character of a label set; every
multiplicity in the package goes through ``multiplicities``, which walks it.  One
Newton recursion builds every permutation character on set-partitions: the
plethystic exponential for block sizes in a range.  Sizes 2..r give the
singleton-free character that the stable values pair with; one size a gives
h_b[h_a], and their product over the distinct parts of mu the shape-mu
character behind the generalized plethysm multiplicities and the rectangle
plethysm h_n[h_m].
The table of every resource cap and the singleton-free count (A000296) live
here too, so the stable queries need no set-partition code; the module code
imports them from here.
"""

from __future__ import annotations

import itertools
import operator
import os
from functools import lru_cache, reduce
from math import comb, factorial, prod
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import (
    InternalConsistencyError,
    MalformedPartitionError,
    ResourceCapError,
    SizeMismatchError,
)

if TYPE_CHECKING:
    from .setpartitions import SetPartition

Partition = tuple[int, ...]
ClassFunction = dict[Partition, int]

# every resource cap: name -> (default, the environment variable that
# overrides it, or None); ``cap`` reads a limit and ``check_cap`` refuses by name
CAPS: dict[str, tuple[int, str | None]] = {
    "PLETHYSM_MAX_R": (12, "PLETHYSM_MAX_R"),
    # _growth_strings nests one generator frame per point, so whatever
    # PLETHYSM_MAX_R says, set_partitions stays well below the interpreter's
    # recursion limit of 1000; Bell(100) is about 4.8e115, so no such enumeration
    # could finish, and its first partition comes in well under a millisecond
    "ENUMERATION_CAP": (100, None),
    "MODULE_CAP": (7, None),
    # foulkes_pairs(9) holds 1,606,137 pairs (2.7 s, 148 MB peak, cold); r = 10
    # would hold 16,733,779 (A000258), so the cached basis stops at 9
    "PAIR_BASIS_CAP": (9, None),
    "ORACLE_CAP": (16, None),
    # the border-strip walk at rho = (1^n) visits every partition inside lam; the
    # heaviest found at |lam| = 50, (13,9,6,5,4,3,2,2,2,1,1,1,1), takes 0.37 s and
    # 21 MB cold on a 2-CPU VM
    "CHARACTER_CAP": (50, None),
    "VECTOR_CAP": (10**5, None),
}
# 640 digits is the least limit Python lets int-to-str conversion have, so
# every integer that the readers accept can be printed in a message
MAX_DIGITS = 640
_DIGIT_BOUND = 10**MAX_DIGITS


def cap(name: str) -> int:
    """The named cap's limit: its default, unless its environment variable is set."""
    default, variable = CAPS[name]
    raw = os.environ.get(variable) if variable else None
    if raw is None:
        return default
    try:
        value = parse_int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise MalformedPartitionError(f"{variable}={raw!r} is not a nonnegative integer")
    return value


def singleton_free_count(n: int) -> int:
    """Set-partitions of {1..n} with no singleton block (OEIS A000296)."""
    counts = [1]
    for s in range(1, n + 1):
        # the block holding s has j >= 1 further elements
        counts.append(sum(comb(s - 1, j) * counts[s - 1 - j] for j in range(1, s)))
    return counts[n] if n >= 0 else 0


def parse_int(text: str) -> int:
    """ASCII digits after an optional '-': every integer a user types.  ``int``
    alone also reads '_', '+', spaces and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def shown(value, form=repr) -> str:
    """The value as ``form`` writes it in a message, unless it holds an
    integer too long to print."""
    try:
        return form(value)
    except ValueError:
        return "<a value holding an integer too long to print>"


def check_int(value, what: str) -> int:
    """An integer read through ``operator.index`` (a bool is its int); a float
    is refused, and so is an integer of more than MAX_DIGITS digits."""
    try:
        value = operator.index(value)
    except TypeError:
        raise MalformedPartitionError(f"{what} {shown(value)} is not an integer") from None
    if abs(value) >= _DIGIT_BOUND:
        raise MalformedPartitionError(f"{what} has more than {MAX_DIGITS} digits")
    return value


def check_factors(m, n) -> tuple[int, int]:
    """The rectangle's sides m and n, which must both be positive integers."""
    m, n = check_int(m, "m"), check_int(n, "n")
    if m < 1 or n < 1:
        raise MalformedPartitionError(f"m={m}, n={n}: both must be positive")
    return m, n


def check_cap(what: str, value: int, name: str) -> int:
    """The value, or the one refusal of every resource cap, naming the value
    and the cap; a value too long to print is named by its length."""
    limit = cap(name)
    if value > limit:
        size = f" of more than {MAX_DIGITS} digits" if value >= _DIGIT_BOUND else f"={value}"
        raise ResourceCapError(f"{what}{size} exceeds {name} = {limit}")
    return value


def check_partition(parts: Sequence[int]) -> Partition:
    """The parts as a tuple of ints; a non-integral part or a string is
    refused, and so is a part of more than MAX_DIGITS digits."""
    try:
        lam = tuple(map(operator.index, parts))
    except TypeError:
        raise MalformedPartitionError(f"not a partition: {shown(parts, str)}") from None
    if any(abs(part) >= _DIGIT_BOUND for part in lam):
        raise MalformedPartitionError(f"not a partition: a part has more than {MAX_DIGITS} digits")
    if isinstance(parts, str) or (lam and lam[-1] < 1) or any(map(operator.lt, lam, lam[1:])):
        raise MalformedPartitionError(f"not a partition: {parts}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts; '-' or '' denotes the empty partition."""
    cleaned = text.strip()
    if cleaned in ("", "-"):
        return ()
    try:
        parts = tuple(map(parse_int, cleaned.split(",")))
    except ValueError as exc:
        raise MalformedPartitionError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n in descending lexicographic order, (n) first."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    bound = n if max_part is None else min(max_part, n)
    for first in range(bound, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_no_ones(n: int) -> tuple[Partition, ...]:
    """Partitions of n with every part at least 2 (the empty one for n=0)."""
    return tuple(lam for lam in partitions(n) if not lam or lam[-1] >= 2)


def pad_partition(lam: Partition, total: int) -> Partition:
    """Prepend a first row so the result is a partition of ``total``."""
    head = total - sum(lam)
    if lam and head < lam[0]:
        raise MalformedPartitionError(
            f"{total}-{sum(lam)}={head} is smaller than the first part {lam[0]}"
        )
    if head < 0:
        raise MalformedPartitionError(f"partition {lam} too large for total {total}")
    if head == 0:
        return lam
    return (head,) + lam


@lru_cache(maxsize=None)
def cycle_type_centralizer(rho: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    out = 1
    for k, grp in itertools.groupby(rho):
        mult = len(list(grp))
        out *= k**mult * factorial(mult)
    return out


def class_size(rho: Partition) -> int:
    return factorial(sum(rho)) // cycle_type_centralizer(rho)


def cycle_representative(rho: Partition) -> tuple[int, ...]:
    """One-line images (1-based) of the permutation (1..rho1)(rho1+1..rho1+rho2)..."""
    starts = itertools.accumulate((0,) + rho)
    return tuple(s + (i + 1) % k + 1 for s, k in zip(starts, rho) for i in range(k))


def character_value(lam: Partition, rho: Partition) -> int:
    """Irreducible character chi^lam at cycle type rho (Murnaghan–Nakayama),
    checked on every call, then walked as the one-class function {rho: 1}."""
    lam, rho = check_partition(lam), check_partition(rho)
    if sum(lam) != sum(rho):
        raise SizeMismatchError(f"|{lam}| != |{rho}|")
    check_cap("|lam|", sum(lam), "CHARACTER_CAP")
    return _pairings({rho: 1}, (lam,))[0]


def _pairings(weights: ClassFunction, labels: Sequence[Partition]) -> list[int]:
    """sum_rho weights[rho] chi^lam(rho) for each label lam.  The cycle types form
    a trie of their parts, each node [weight of the cycle type ending there,
    {part k: child}, memo by bead set]; the memos serve every label and end with
    the call.  A node's value at a bead bitmask is its weight if no bead is left,
    plus its children's values where a k-strip moves a bead from b to an empty
    b - k, signed by the parity of the beads strictly between; beads at 0, 1,
    ... are zero parts, shifted out."""
    root: list = [0, {}, {}]
    for rho, weight in weights.items():
        reduce(lambda node, k: node[1].setdefault(k, [0, {}, {}]), rho, root)[0] += weight

    def value(beads: int, node: list) -> int:
        weight, children, memo = node
        if beads in memo:
            return memo[beads]
        total = 0 if beads else weight
        for k, child in children.items():
            movable = beads & ~(beads << k) & -(1 << k)  # a bead at b >= k and none at b - k
            while movable:
                bead = movable & -movable
                movable ^= bead
                hole = bead >> k
                moved = beads ^ bead ^ hole
                part = value(moved >> (moved ^ (moved + 1)).bit_length() - 1, child)
                total += -part if (beads & (bead - hole)).bit_count() & 1 else part
        memo[beads] = total
        return total

    # part i is a bead at lam[i] + len(lam) - 1 - i; the last part sits above 0
    beads = (sum(1 << (part + len(lam) - 1 - i) for i, part in enumerate(lam)) for lam in labels)
    return [value(bits, root) for bits in beads]


def dimension(lam: Partition) -> int:
    """Standard tableaux by the hook-length formula, written on the beta-set
    b_i = lam_i + len(lam) - 1 - i: |lam|! prod_{i<j} (b_i - b_j) / prod_i b_i!."""
    beta = [part + len(lam) - 1 - i for i, part in enumerate(lam)]
    gaps = prod(a - b for a, b in itertools.combinations(beta, 2))
    return factorial(sum(lam)) * gaps // prod(map(factorial, beta))


def shape_count(mu: Partition) -> int:
    """Set-partitions of {1..|mu|} whose block sizes are exactly mu.

    |mu|! over the order of one such partition's stabilizer,
    prod_i mu_i! * prod_j m_j!, where m_j parts of mu equal j.
    """
    stabilizer = 1
    for part, group in itertools.groupby(mu):
        mult = len(list(group))
        stabilizer *= factorial(part) ** mult * factorial(mult)
    return factorial(sum(mu)) // stabilizer


def set_partitions_of_shape(mu: Partition) -> list[SetPartition]:
    """All set-partitions of {1..|mu|} whose block sizes are exactly mu, in
    growth-string order; the empty partition alone for mu = ()."""
    from .setpartitions import SetPartition, set_partitions  # off the stable queries' path

    mu = check_partition(mu)
    if not mu:
        return [SetPartition(0, ())]
    return [
        sp
        for sp in set_partitions(sum(mu))
        if tuple(sorted(map(len, sp.blocks), reverse=True)) == mu
    ]


def _multiply(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Induction product of two class functions (the product of their
    characteristics): p_rho * p_sigma is p of the merged cycle type gamma, and
    z_gamma / (z_rho z_sigma) is a product of binomials, so an integer."""
    out: ClassFunction = {}
    for rho, a in f.items():
        for sigma, b in g.items():
            gamma = tuple(sorted(rho + sigma, reverse=True))
            weight = cycle_type_centralizer(gamma) // (
                cycle_type_centralizer(rho) * cycle_type_centralizer(sigma)
            )
            out[gamma] = out.get(gamma, 0) + weight * a * b
    return out


@lru_cache(maxsize=None)
def _power_sum_of_h(k: int, a: int) -> ClassFunction:
    """Character of p_k[h_a] = sum_rho p_{k rho} / z_rho, since p_k[p_l] =
    p_{kl}; as z_{k rho} = k^len(rho) z_rho, it is k^len(rho) at k rho."""
    return {tuple(k * part for part in rho): k ** len(rho) for rho in partitions(a)}


@lru_cache(maxsize=None)
def _plethystic_exp(low: int, high: int, d: int) -> ClassFunction:
    """Permutation character F_d of S_d on the set-partitions of {1..d} with
    every block size in low..high: the species E o (E_low + ... + E_high), so
    the degree-d part of exp(sum_k p_k[h_low + ... + h_high] / k).  Newton's
    identity reads d F_d = sum_j (j Phi_j) F_{d-j}, j Phi_j = sum_{ka=j} a p_k[h_a]."""
    if d == 0:
        return {(): 1}
    out: ClassFunction = {}
    for a in range(low, high + 1):
        for k in range(1, d // a + 1):
            rest = _plethystic_exp(low, min(high, d - k * a), d - k * a)
            for gamma, value in _multiply(_power_sum_of_h(k, a), rest).items():
                out[gamma] = out.get(gamma, 0) + a * value
    for gamma, value in out.items():
        out[gamma], remainder = divmod(value, d)
        if remainder:
            raise InternalConsistencyError(
                f"Newton's identity in degree {d} leaves {value}/{d} at {gamma}"
            )
    return out


def _shape_characteristic(mu: Partition) -> ClassFunction:
    """Permutation character of the shape-mu set-partition module.

    The module is induced from a product of wreath products, one per distinct
    part a of multiplicity b, so its characteristic is the product of h_b[h_a].
    The product starts from the first factor, so a rectangle's character is
    the memoized h_b[h_a] itself.
    """
    factors = [_plethystic_exp(a, a, a * len(list(group))) for a, group in itertools.groupby(mu)]
    return reduce(_multiply, factors or [{(): 1}])


def singleton_free_character(r: int) -> ClassFunction:
    """Permutation character of S_r on the singleton-free set-partitions of {1..r}."""
    return _plethystic_exp(2, r, r)


def multiplicities(chi: ClassFunction, labels: Sequence[Partition]) -> list[int]:
    """Multiplicity of each label's irreducible in the character chi of S_r, r
    the size of chi's first cycle type and of every label: sum over cycle types
    of class size * chi * chi^lam, divided by r!, all labels in one walk."""
    for lam, rho in itertools.product(labels, itertools.islice(chi, 1)):
        if sum(lam) != sum(rho):
            raise SizeMismatchError(f"|{lam}| != |{rho}|")
    totals = _pairings({rho: class_size(rho) * value for rho, value in chi.items()}, labels)
    for lam, total in zip(labels, totals):
        if total < 0 or total % factorial(sum(lam)):
            raise InternalConsistencyError(
                f"pairing with chi^{lam} is {total}/{sum(lam)}!, not a nonnegative integer"
            )
    return [total // factorial(sum(lam)) for lam, total in zip(labels, totals)]


def generalized_plethysm(mu: Partition, lam: Partition) -> int:
    """Multiplicity of the lam-irreducible in the shape-mu permutation module."""
    mu, lam = check_partition(mu), check_partition(lam)
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"|{mu}| != |{lam}|")
    check_cap("|mu|", sum(mu), "ORACLE_CAP")
    return multiplicities(_shape_characteristic(mu), (lam,))[0]


def homogeneous_plethysm(m: int, n: int, alpha: Partition) -> int:
    """Coefficient of the alpha-Schur function in h_n composed with h_m.

    h_n[h_m] is the characteristic of the shape-(m^n) module, so this is the
    generalized plethysm multiplicity of that rectangle, up to the oracle cap.
    """
    m, n = check_factors(m, n)
    check_cap("mn", m * n, "ORACLE_CAP")
    alpha = check_partition(alpha)
    if sum(alpha) != m * n:
        raise SizeMismatchError(f"|alpha|={sum(alpha)} but mn={m * n}")
    return generalized_plethysm((m,) * n, alpha)


def box_partition_counts(rows: int, cols: int, top: int) -> list[int]:
    """Partitions of k = 0..top fitting in a rows x cols rectangle: the Gaussian
    binomial prod_{i<=rows} (1 - q^(cols+i)) / (1 - q^i), truncated at degree top."""
    counts = [1] + [0] * top
    for i in range(1, rows + 1):
        for k in range(top, cols + i - 1, -1):  # times 1 - q^(cols+i)
            counts[k] -= counts[k - cols - i]
        for k in range(i, top + 1):  # over 1 - q^i
            counts[k] += counts[k - i]
    return counts


def cayley_sylvester(m: int, n: int, r: int) -> int:
    """Two-row plethysm coefficient as a difference of box-partition counts."""
    (m, n), r = check_factors(m, n), check_int(r, "r")
    if r < 0:
        raise MalformedPartitionError(f"r={r} is negative")
    if r > m * n:
        raise MalformedPartitionError(f"r={r} exceeds mn={m * n}")
    # a partition of at most r has at most r parts, each at most r
    below, at = ([0] + box_partition_counts(min(m, r), min(n, r), r))[-2:]
    return at - below

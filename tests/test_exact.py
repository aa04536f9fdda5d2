from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvectors import (
    GENERATOR_NAME,
    RATIONAL_HEIGHT_BOUND,
    DenseMatrix,
    FieldSpec,
    is_prime,
    mix,
    rank,
    sample_scalars,
)
from hvectors import exact
from hvectors.exact import (
    _NUMPY_SAFE_MODULUS,
    _RATIONAL_PRIME_START,
    _LIMB_PANEL_WIDTH,
    _PANEL_WIDTH,
    _SPLIT_COLUMNS,
    _add_shoup_products,
    _eliminate_panel,
    _float_exact,
    _high_words,
    _matmul_mod_p,
    _rank_mod_p,
    _reduction_budget,
    _shoup_quotients,
)
from oracles import (WIDE_PRIMES, fraction_rank, modular_rank,
                     splitmix_scalars, splitmix_stream, weighted_sums)

GF = FieldSpec(32003)
QQ = FieldSpec(0)


def test_is_prime() -> None:
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(32003)
    assert is_prime(1009) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(32001)


# The smallest strong pseudoprime to the first 12 prime bases, and its
# two prime factors.
PSI_12 = 318_665_857_834_031_151_167_461


def test_is_prime_rejects_psi_12() -> None:
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert is_prime(399_165_290_221) and is_prime(798_330_580_441)
    assert not is_prime(PSI_12)
    # Refused as composite, not as too large: the primality check comes first.
    with pytest.raises(ValueError, match="0 or a prime"):
        FieldSpec(PSI_12)
    assert is_prime(2**89 - 1) and is_prime(2**64 + 13)


def test_field_spec_validation() -> None:
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(32003)
    FieldSpec(WIDE_PRIMES[-1])
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-5)
    with pytest.raises(ValueError):
        FieldSpec(32001)
    # bool is an int subclass: False would build QQ, True fail as 1.
    for inexact in (7.0, np.int64(32003), "7", Fraction(7), False, True):
        with pytest.raises(TypeError, match="characteristic must be an int"):
            FieldSpec(inexact)


def test_field_normalize() -> None:
    gf7 = FieldSpec(7)
    assert gf7.normalize(10) == 3
    assert gf7.normalize(-1) == 6
    assert gf7.normalize(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert QQ.normalize(3) == Fraction(3)
    assert type(QQ.normalize(Fraction(6, 2))) is int
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        gf7.normalize(Fraction(1, 7))
    # Inexact input is refused, never rounded or parsed.
    for field, value in ((gf7, 0.5), (gf7, 2.9), (gf7, "3"), (QQ, 0.1),
                         (QQ, "3"), (GF, np.float64(1.0))):
        with pytest.raises(TypeError):
            field.normalize(value)
    with pytest.raises(TypeError):
        rank(DenseMatrix.from_rows(gf7, [[0.5, 0.5], [1, 1]]))


@pytest.mark.parametrize("field", [FieldSpec(7), GF, QQ,
                                   FieldSpec(3_037_000_493),
                                   FieldSpec(2**61 - 1)])
def test_field_axioms_on_samples(field: FieldSpec) -> None:
    """Ring axioms on three samples, and inverses on those that are
    nonzero: over GF(p) a sample may be zero.  Products are the field's
    (`FieldSpec.multiply`); sums are of Python integers or fractions,
    reduced by `FieldSpec.normalize` (`FieldSpec.array`)."""
    a = field.array(sample_scalars(field, 3, seed=99))
    b, c = np.roll(a, 1), np.roll(a, 2)

    def add(x, y):
        return field.array([u + v for u, v in zip(x.tolist(), y.tolist())])

    def mul(x, y):
        return field.multiply(x, field.multiplier(y))

    assert np.array_equal(add(a, b), add(b, a))
    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    p = field.characteristic
    units = a[a != 0]
    inverse = field.array([pow(v, -1, p) if p else Fraction(1, v)
                           for v in units.tolist()])
    assert np.array_equal(mul(units, inverse), field.array([1] * len(units)))
    assert np.array_equal(add(a, mul(a, field.array([-1] * 3))),
                          np.zeros(3, dtype=field.dtype))
    assert a.dtype == field.dtype


def test_rank_examples() -> None:
    identity = DenseMatrix.from_rows(GF, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(identity) == 3
    assert rank(DenseMatrix.from_rows(QQ, [[0, 0], [0, 0], [0, 0]])) == 0
    gf2 = FieldSpec(2)
    assert rank(DenseMatrix.from_rows(gf2, [[1, 1], [1, 1]])) == 1
    assert rank(DenseMatrix(GF, ())) == 0
    for field in (GF, QQ):
        with pytest.raises(ValueError):
            DenseMatrix.from_rows(field, [[1, 2], [3]])
    assert DenseMatrix.from_rows(GF, [[1, 2]]) == DenseMatrix.from_rows(
        GF, [[32004, 2]])
    assert DenseMatrix.from_rows(GF, [[1, 2]]) != DenseMatrix.from_rows(
        QQ, [[1, 2]])


def test_rank_rational_entries() -> None:
    m = DenseMatrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)], [1, 2]])
    assert rank(m) == 2
    m2 = DenseMatrix.from_rows(QQ, [[Fraction(1, 2), 1], [1, 2]])
    assert rank(m2) == 1


def test_rank_huge_prime_fallback() -> None:
    big = FieldSpec(2**61 - 1)
    m = DenseMatrix.from_rows(big, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2


def test_rank_bounded_by_shape() -> None:
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        entries = [[rng.randint(0, 32002) for _ in range(cols)]
                   for _ in range(rows)]
        assert rank(DenseMatrix.from_rows(GF, entries)) <= min(rows, cols)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_permutation(seed: int, extra: int) -> None:
    rng = random.Random(seed)
    rows = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(4 + extra)]
    base = rank(DenseMatrix.from_rows(GF, rows))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(DenseMatrix.from_rows(GF, shuffled)) == base
    assert rank(DenseMatrix.from_rows(QQ, shuffled)) == rank(
        DenseMatrix.from_rows(QQ, rows)
    )


def test_rank_char0_agrees_with_gf32003() -> None:
    rng = random.Random(17)
    agree = 0
    for _ in range(100):
        rows = [[rng.randint(-(2**16), 2**16) for _ in range(10)]
                for _ in range(10)]
        if rank(DenseMatrix.from_rows(QQ, rows)) == rank(
                DenseMatrix.from_rows(GF, rows)):
            agree += 1
    assert agree >= 99


def test_rational_rank_hadamard_stop_on_singular_matrices() -> None:
    rng = random.Random(23)
    for _ in range(150):
        inner = rng.randint(1, 4)
        left = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(6)]
        right = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(inner)]
        product = [
            [sum(left[i][k] * right[k][j] for k in range(inner))
             for j in range(7)]
            for i in range(6)
        ]
        expected = fraction_rank(product)
        assert rank(DenseMatrix.from_rows(QQ, product)) == expected
        assert expected <= inner


def test_rational_rank_survives_unlucky_prime(monkeypatch) -> None:
    """The first prime tried divides an entry, so the rank comes from the
    next one; the first prime leaves the int64 elimination a budget of at
    least 8 updates between reductions."""
    first = next(q for q in range(_RATIONAL_PRIME_START, 2, -1) if is_prime(q))
    assert _reduction_budget(first) >= 8
    primes = []

    def recording(a, p):
        primes.append(p)
        return _rank_mod_p(a, p)

    monkeypatch.setattr(exact, "_rank_mod_p", recording)
    # Determinant `first`: rank 1 modulo the first prime, 2 modulo the next.
    assert rank(DenseMatrix.from_rows(QQ, [[first + 1, 1], [1, 1]])) == 2
    assert primes[0] == first and len(primes) == 2
    assert rank(DenseMatrix.from_rows(QQ, [[first, 0], [0, 1]])) == 2
    assert rank(DenseMatrix.from_rows(QQ, [[first, 0], [0, 0]])) == 1
    assert rank(DenseMatrix.from_rows(QQ, [[first * first, 1], [0, 1]])) == 2


def test_rank_cap_proves_rational_rank_from_one_prime(monkeypatch) -> None:
    """A rank-3 product of 6x3 and 3x7 integer matrices with 100-bit
    entries: the Hadamard bound needs many primes, a cap of 3 one."""
    rng = random.Random(5)
    left = [[rng.getrandbits(100) - 2**99 for _ in range(3)] for _ in range(6)]
    right = [[rng.getrandbits(100) - 2**99 for _ in range(7)] for _ in range(3)]
    product = [[sum(left[i][k] * right[k][j] for k in range(3))
                for j in range(7)] for i in range(6)]
    matrix = DenseMatrix.from_rows(QQ, product)
    primes = []

    def recording(a, p):
        primes.append(p)
        return _rank_mod_p(a, p)

    monkeypatch.setattr(exact, "_rank_mod_p", recording)
    assert rank(matrix) == 3
    assert len(primes) > 10
    primes.clear()
    assert rank(matrix, cap=3) == 3
    assert len(primes) == 1
    primes.clear()
    assert rank(matrix, cap=5) == 3
    assert len(primes) > 10


@pytest.mark.parametrize("field", [FieldSpec(2), GF, FieldSpec(2**61 - 1),
                                   FieldSpec(WIDE_PRIMES[-1]), QQ])
def test_rank_above_its_cap_raises(field: FieldSpec) -> None:
    """A cap below the rank is a wrong proof, never a smaller rank, also
    for a matrix of unit rows only; a cap at or above the rank changes
    nothing."""
    rows = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    expected = fraction_rank(rows) if field == QQ else modular_rank(
        rows, field.characteristic)
    matrix = DenseMatrix.from_rows(field, rows)
    for cap in (expected, expected + 1, None):
        assert rank(matrix, cap=cap) == expected
    for cap in (expected - 1, 0):
        with pytest.raises(ArithmeticError, match="exceeds its proved cap"):
            rank(matrix, cap=cap)
    units = DenseMatrix.from_rows(field, [[1, 0, 0], [0, 0, 1]])
    assert rank(units, cap=2) == 2
    with pytest.raises(ArithmeticError):
        rank(units, cap=1)


@pytest.mark.parametrize("field", [FieldSpec(1_000_003), FieldSpec(2**61 - 1),
                                   QQ],
                         ids=["int64", "uint64", "QQ"])
def test_rank_leaves_its_input_unchanged(field: FieldSpec) -> None:
    """The elimination runs in place on the nonzero rows, so it must get a
    copy of them even when no row is zero; the matrix is tall, so over
    GF(1000003) the copy is transposed."""
    rows = [[2, 3, 5, 7], [1, 4, 1, 5], [9, 2, 6, 5], [3, 1, 4, 1],
            [2, 7, 1, 8]]
    matrix = DenseMatrix.from_rows(field, rows)
    before = matrix.entries.copy()
    assert rank(matrix) == _oracle_rank(field, rows)
    assert np.array_equal(matrix.entries, before)


def test_rank_ignores_zero_and_duplicate_rows() -> None:
    rows = [[3, Fraction(1, 2), 0], [1, 1, 1]]
    padded = [[0, 0, 0], rows[0], rows[0], [0, 0, 0], rows[1], rows[0]]
    for field in (QQ, GF, FieldSpec(2**61 - 1)):
        assert rank(DenseMatrix.from_rows(field, padded)) == rank(
            DenseMatrix.from_rows(field, rows)) == 2


_small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.lists(st.lists(_small_rationals, min_size=cols,
                                   max_size=cols),
                          min_size=1, max_size=6)))
@settings(max_examples=80, deadline=None)
def test_rational_rank_matches_fraction_rank(rows) -> None:
    assert rank(DenseMatrix.from_rows(QQ, rows)) == fraction_rank(rows)


@pytest.mark.parametrize("p", [2**61 - 1])
def test_big_prime_rank_matches_modular_oracle(p: int) -> None:
    field = FieldSpec(p)
    rng = random.Random(p)
    for _ in range(40):
        inner = rng.randint(1, 5)
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(7)]
        right = [[rng.randrange(p) for _ in range(6)] for _ in range(inner)]
        product = [
            [sum(left[i][k] * right[k][j] for k in range(inner)) % p
             for j in range(6)]
            for i in range(7)
        ]
        product[rng.randrange(7)] = [0] * 6
        assert rank(DenseMatrix.from_rows(field, product)) == modular_rank(
            product, p)


def test_rational_rank_of_multi_limb_entries() -> None:
    rng = random.Random(41)
    for _ in range(30):
        inner = rng.randint(1, 4)
        left = [[rng.randint(-2**70, 2**70) for _ in range(inner)]
                for _ in range(5)]
        right = [[rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 120))
                  for _ in range(6)] for _ in range(inner)]
        product = [
            [sum(left[i][k] * right[k][j] for k in range(inner))
             for j in range(6)]
            for i in range(5)
        ]
        assert rank(DenseMatrix.from_rows(QQ, product)) == fraction_rank(
            product)


def test_reduction_budget_keeps_int64_path_reducing() -> None:
    assert _reduction_budget(_NUMPY_SAFE_MODULUS) >= 1
    assert [_reduction_budget(p) for p in
            (3_037_000_493, 2**31 - 1, 1_749_999_991)] == [1, 2, 3]
    assert _reduction_budget(1_000_003) == 9_223_335


@pytest.mark.parametrize("p", [3_037_000_493, 2**31 - 1, 1_749_999_991, 32003])
def test_delayed_reduction_matches_modular_oracle(p: int) -> None:
    """Entries at or near p - 1 make every update add a product close to
    (p - 1)**2, so a block left unreduced one update past the budget
    overflows int64; the low-rank products with zero entries put zero
    multipliers below pivots and zero top entries in columns."""
    rng = random.Random(p)
    cases = [[[p - 1] * 9 for _ in range(9)]]
    for size in (2, 5, 9, 12):
        cases.append([[p - 1 - rng.randrange(4) for _ in range(size)]
                      for _ in range(size)])
    for _ in range(12):
        inner = rng.randint(1, 6)
        left = [[rng.choice((0, p - 1, rng.randrange(p)))
                 for _ in range(inner)] for _ in range(10)]
        right = [[rng.choice((0, p - 1, p - 2)) for _ in range(8)]
                 for _ in range(inner)]
        cases.append([
            [sum(left[i][k] * right[k][j] for k in range(inner)) % p
             for j in range(8)]
            for i in range(10)
        ])
    for rows in cases:
        expected = modular_rank(rows, p)
        assert _rank_mod_p(np.array(rows, dtype=np.int64), p) == expected
        assert rank(DenseMatrix.from_rows(FieldSpec(p), rows)) == expected


# Each pivot updates every row below it, zero multipliers included, and
# searches its column only when the top entry is zero.
_UPDATE_PATH_CASES = (
    # Zero on top of column 0: row 2 is swapped up.
    [[0, 1, 2], [0, 0, 3], [4, 5, 6]],
    # Zero on top of column 1 only after the first update, while that
    # update is pending: row 2 is swapped up.
    [[1, 1, 1], [1, 1, 2], [0, 1, 0]],
    # Zero multipliers below the pivot in columns 0 and 1.
    [[1, 2, 3, 4], [0, 5, 6, 7], [2, 4, 6, 9], [0, 0, 0, 1]],
    # All-zero columns first, between and last.
    [[0, 1, 0, 2, 0], [0, 3, 0, 1, 0], [0, 4, 0, 3, 0]],
    # A column that becomes zero below the pivot (dependent rows).
    [[1, 2, 3], [2, 4, 7], [3, 6, 10], [0, 0, 0]],
    [[0, 0], [0, 0]],
)


@pytest.mark.parametrize("p", [32003, 3_037_000_493, 2**61 - 1])
def test_rank_mod_p_single_update_path(p: int) -> None:
    """Entries of 0, 1 and p - 1 in low-rank products make zero top
    entries, zero multipliers and columns that vanish once reduced; at
    3 037 000 493 every step reduces the block (budget 1), at 2**61 - 1 the
    elimination runs in uint64."""
    rng = random.Random(p)
    cases = [[[v % p for v in row] for row in rows]
             for rows in _UPDATE_PATH_CASES]
    for _ in range(30):
        inner = rng.randint(1, 4)
        cols = rng.randint(1, 7)
        left = [[rng.choice((0, 0, 1, p - 1, rng.randrange(p)))
                 for _ in range(inner)] for _ in range(rng.randint(1, 8))]
        right = [[rng.choice((0, 0, 1, p - 1)) for _ in range(cols)]
                 for _ in range(inner)]
        cases.append([
            [sum(row[k] * right[k][j] for k in range(inner)) % p
             for j in range(cols)]
            for row in left
        ])
    dtype = FieldSpec(p).dtype
    for rows in cases:
        assert _rank_mod_p(np.array(rows, dtype=dtype), p) == modular_rank(
            rows, p)


# The largest prime whose int64 panels of `_PANEL_WIDTH` columns are exact
# in float64, and the next prime, which keeps a single panel.
_LAST_PANEL_PRIME = 23_726_561
_NEXT_PRIME = 23_726_569


def test_panel_width_is_the_widest_the_float64_bound_admits() -> None:
    assert _PANEL_WIDTH == 16
    assert _float_exact(_PANEL_WIDTH, _LAST_PANEL_PRIME)
    assert not _float_exact(_PANEL_WIDTH + 1, _LAST_PANEL_PRIME)
    assert not _float_exact(_PANEL_WIDTH, _NEXT_PRIME)
    assert is_prime(_LAST_PANEL_PRIME) and is_prime(_NEXT_PRIME)
    assert not any(is_prime(q) for q in
                   range(_LAST_PANEL_PRIME + 1, _NEXT_PRIME))


@pytest.mark.parametrize("p, dtype, cols, widths", [
    (_LAST_PANEL_PRIME, np.int64, 105, [16, 16, 16, 57]),
    (2, np.int64, _SPLIT_COLUMNS + 1, [16, _SPLIT_COLUMNS - 15]),
    (2, np.int64, _SPLIT_COLUMNS, [_SPLIT_COLUMNS]),
    (_NEXT_PRIME, np.int64, 105, [32, 32, 41]),
    (2**31 - 1, np.int64, 105, [32, 32, 41]),
    (2**61 - 1, np.uint64, 105, [32, 32, 41]),
    (2**61 - 1, np.uint64, 2 * _LIMB_PANEL_WIDTH + 1, [32, 32, 1]),
    (3_037_000_507, np.uint64, 2 * _LIMB_PANEL_WIDTH, [32, 32]),
])
def test_panels_split_off_below_the_float64_bound(monkeypatch, p, dtype,
                                                  cols, widths) -> None:
    """int64 matrices split off panels of 16 columns while more than
    `_SPLIT_COLUMNS` remain, for primes the float64 bound admits; above
    it, and in uint64, panels of `_LIMB_PANEL_WIDTH` columns are split
    while more than that many remain.  The 60-row transpose of each
    matrix has the same rank: it is transposed back, on a copy that leaves
    it unchanged, and split the same way."""
    seen = []

    def spy(a, width, p, trailing=None):
        seen.append(width)
        return _eliminate_panel(a, width, p, trailing)

    monkeypatch.setattr(exact, "_eliminate_panel", spy)
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(cols)] for _ in range(60)]
    expected = modular_rank(rows, p)
    assert _rank_mod_p(np.array(rows, dtype=dtype), p) == expected
    assert seen == widths
    seen.clear()
    tall = np.array(rows, dtype=dtype).T.copy()
    before = tall.copy()
    assert _rank_mod_p(tall, p) == expected
    assert seen == widths
    assert np.array_equal(tall, before)


def test_panel_update_is_exact_at_the_largest_admitted_prime() -> None:
    """Identity pivots over rows of p - 2, and dependent rows twice their
    sum: each trailing entry of a dependent row gets 16 products
    (p - 2)**2 from a panel, odd and summing to just below 2**53.  One
    more term would round in float64 and leave the dependent rows
    nonzero."""
    p, pivots, cols = _LAST_PANEL_PRIME, 32, 100
    tail = [p - 2] * (cols - pivots)
    rows = [[int(j == i) for j in range(pivots)] + tail
            for i in range(pivots)]
    rows += [[2] * pivots + [2 * pivots * (p - 2) % p] * (cols - pivots)
             for _ in range(4)]
    assert modular_rank(rows, p) == pivots
    assert _rank_mod_p(np.array(rows, dtype=np.int64), p) == pivots


def _swapping_rows(rng: random.Random, p: int, pivots: int, rows: int,
                   cols: int) -> list[list[int]]:
    """``pivots`` echelon rows with random lead columns, the first leading
    in column 0, and random combinations of their later half, all but the
    first shuffled and then added to random multiples of the first.  Past
    the first pivot, most columns hold a zero at the top and an entry
    further down, so rows swap after the panel's earlier pivots have
    recorded their multipliers; the dependent rows vanish only if every
    swap carries its row's multipliers and trailing part along."""
    leads = [0, *sorted(rng.sample(range(1, cols), pivots - 1))]
    echelon = [[0] * lead + [rng.randrange(1, p)]
               + [rng.choice((0, p - 1, rng.randrange(p)))
                  for _ in range(cols - lead - 1)] for lead in leads]
    combos = []
    for _ in range(rows - pivots):
        weights = [rng.randrange(p) for _ in echelon[pivots // 2:]]
        combos.append([sum(w * row[j] for w, row in
                           zip(weights, echelon[pivots // 2:])) % p
                       for j in range(cols)])
    first, rest = echelon[0], echelon[1:] + combos
    rng.shuffle(rest)
    out = [first]
    for row in rest:
        scale = rng.randrange(p)
        out.append([(v + scale * f) % p for v, f in zip(row, first)])
    return out


@pytest.mark.parametrize("p", [2, 101, 1_000_003, _LAST_PANEL_PRIME])
def test_panel_elimination_matches_modular_oracle(p: int) -> None:
    """Matrices of 90 to 130 columns, so two or more panels are split off
    before the last: all-(p - 1) blocks, with and without zeros, make
    every product as large as it can be; low-rank products of 0, 1,
    p - 1 and p - 2 have ranks below, across and beyond a panel; and
    `_swapping_rows` swaps rows after earlier pivots of the same panel.
    Each case is ranked transposed too, as a tall matrix, which is
    transposed back on a copy."""
    rng = random.Random(p)
    cases = [[[p - 1] * 100 for _ in range(20)],
             [[rng.choice((0, p - 1)) for _ in range(110)]
              for _ in range(40)]]
    for inner in (3, 20, 35):
        cols = rng.randint(90, 130)
        left = [[rng.choice((0, 1, p - 1, rng.randrange(p)))
                 for _ in range(inner)] for _ in range(40)]
        right = [[rng.choice((0, 1, p - 1, p - 2, rng.randrange(p)))
                  for _ in range(cols)] for _ in range(inner)]
        cases.append([[sum(row[k] * right[k][j] for k in range(inner)) % p
                       for j in range(cols)] for row in left])
    for pivots, rows in ((10, 30), (25, 45)):
        cases.append(_swapping_rows(rng, p, pivots, rows,
                                    rng.randint(90, 130)))
    for rows in cases:
        expected = modular_rank(rows, p)
        for matrix in (rows, [list(col) for col in zip(*rows)]):
            assert _rank_mod_p(np.array(matrix, dtype=np.int64),
                               p) == expected
            assert rank(DenseMatrix.from_rows(FieldSpec(p),
                                              matrix)) == expected


# The primes on each side of each bound: the float64 panels' (23 726 561),
# int64's (3 037 000 499; the next prime is held in uint64), and the
# largest prime a field admits.
_BOUND_PRIMES = [_LAST_PANEL_PRIME, _NEXT_PRIME, 3_037_000_493,
                 3_037_000_507, 2**61 - 1, 9_223_372_036_854_775_783]


def _edgy_rows(rng: random.Random, p: int, rows: int,
               cols: int) -> list[list[int]]:
    return [[rng.choice((0, 1, p - 2, p - 1, rng.randrange(p)))
             for _ in range(cols)] for _ in range(rows)]


@given(st.sampled_from(_BOUND_PRIMES), st.integers(1, 4),
       st.integers(1, 110), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32))
@settings(max_examples=120, deadline=None)
def test_matmul_mod_p_matches_weighted_sums(p, m, k, n, accumulate,
                                            seed) -> None:
    """`_matmul_mod_p` against Python integers, with entries of 0, 1,
    p - 2 and p - 1, and inner dimensions past two products of limbs (32
    at 2**31 - 1, 22 at 3 037 000 493, 51 above 2**32), into an
    accumulator or a new array of the field's dtype."""
    rng = random.Random(seed)
    x, y = _edgy_rows(rng, p, m, k), _edgy_rows(rng, p, k, n)
    acc = _edgy_rows(rng, p, m, n) if accumulate else [[0] * n] * m
    dtype = FieldSpec(p).dtype
    into = np.array(acc, dtype=dtype) if accumulate else None
    got = _matmul_mod_p(np.array(x, dtype=dtype), np.array(y, dtype=dtype),
                        p, into)
    assert got.dtype == dtype
    assert got.tolist() == [[(a + v) % p for a, v in zip(row, sums)]
                            for row, sums in zip(acc, weighted_sums(x, y, p))]
    if accumulate:
        assert into.tolist() == got.tolist()


@pytest.mark.parametrize("p, terms", [(2**31 - 1, 32), (3_037_000_493, 22),
                                      (3_037_000_507, 22), (2**61 - 1, 51),
                                      (9_223_372_036_854_775_783, 51)])
def test_limb_product_is_exact_at_the_largest_admitted_inner_dimension(
        p: int, terms: int) -> None:
    """Entries of p - 1 at the largest inner dimension one float64 product
    of limbs admits, and at one more, which is cut into two products.
    Below 2**32 each of the limbs' products is of a residue by a 16-bit
    limb; above, of a 32-bit half by a 13-bit limb."""
    wide = p >= 2**32
    bits = 13 if wide else 16
    limbs = -(-(p - 1).bit_length() // bits)
    bound = limbs * ((2**32 if wide else p) - 1) * (2**bits - 1)
    assert terms * bound < 2**53 <= (terms + 1) * bound
    dtype = FieldSpec(p).dtype
    for k in (terms, terms + 1):
        x, y = [[p - 1] * k] * 3, [[p - 1] * 4] * k
        got = _matmul_mod_p(np.array(x, dtype=dtype),
                            np.array(y, dtype=dtype), p)
        assert got.tolist() == weighted_sums(x, y, p)


@given(st.sampled_from(_BOUND_PRIMES), st.integers(2, 45),
       st.integers(33, 110), st.integers(1, 45), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_panel_ranks_match_modular_oracle_at_the_bounds(p, rows, cols, inner,
                                                        seed) -> None:
    """Low-rank products of 0, 1, p - 2 and p - 1, wide enough to split
    panels on either side of each bound, ranked upright and transposed."""
    rng = random.Random(seed)
    left, right = _edgy_rows(rng, p, rows, inner), _edgy_rows(rng, p, inner,
                                                             cols)
    matrix = [[v % p for v in row] for row in weighted_sums(left, right, 0)]
    expected = modular_rank(matrix, p)
    dtype = FieldSpec(p).dtype
    assert _rank_mod_p(np.array(matrix, dtype=dtype), p) == expected
    assert _rank_mod_p(np.array(matrix, dtype=dtype).T.copy(), p) == expected


@pytest.mark.parametrize("budget", [1, 2])
def test_panel_updates_reduce_at_a_cut_budget(monkeypatch, budget) -> None:
    """At panel primes the budget is at least 16 384 updates, so no
    matrix of the suite's size reaches it.  Cut to 1 or 2, each panel's
    product finds more updates pending than that, and the rows below are
    reduced before it is added; inside each panel the block is reduced
    after every pivot or two.  Low-rank products of more than 72 columns,
    wide and tall, must still rank as the oracle does."""
    monkeypatch.setattr(exact, "_reduction_budget", lambda p: budget)
    p = 1_000_003
    rng = random.Random(budget)
    for rows, cols, inner in ((40, 120, 25), (60, 100, 45), (130, 90, 30),
                              (20, 150, 20)):
        left = _edgy_rows(rng, p, rows, inner)
        right = _edgy_rows(rng, p, inner, cols)
        matrix = [[v % p for v in row]
                  for row in weighted_sums(left, right, 0)]
        expected = modular_rank(matrix, p)
        assert _rank_mod_p(np.array(matrix, dtype=np.int64), p) == expected


def test_field_dtype_by_prime() -> None:
    """`FieldSpec.dtype` is the one table of how a scalar is held, from
    the sampled witness to the eliminated matrix: Python integers hold
    only rationals, as no prime at or above 2**63 is a characteristic."""
    last_word_prime = 3_037_000_493
    assert not any(is_prime(q) for q in
                   range(last_word_prime + 1, _NUMPY_SAFE_MODULUS + 1))
    assert FieldSpec(last_word_prime).dtype is np.int64
    assert [FieldSpec(p).dtype for p in WIDE_PRIMES] == [np.uint64] * 4
    assert QQ.dtype is object
    for p in (9_223_372_036_854_775_837, 2**89 - 1):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            FieldSpec(p)


def test_high_words_of_extreme_products() -> None:
    """Products whose middle 64-bit word carries into the high word, and
    products of the largest words."""
    rng = random.Random(64)
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63,
             2**64 - 2**32, 2**64 - 1]
    xs = edges + [rng.getrandbits(64) for _ in range(40)]
    ys = edges + [rng.getrandbits(64) for _ in range(40)]
    high = _high_words(np.array(xs, dtype=np.uint64)[:, None],
                       np.array(ys, dtype=np.uint64))
    assert high.tolist() == [[x * y >> 64 for y in ys] for x in xs]


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_shoup_quotients_match_python_integers(p: int) -> None:
    """Residues at 0, 1, p/2 and p - 1 and random ones; at 2**62 - 57 and
    at the last prime some of them need the quotient's last correction."""
    rng = random.Random(p)
    w = [0, 1, 2, p // 2, p // 2 + 1, p - 2, p - 1] + [
        rng.randrange(p) for _ in range(200)]
    quotients = _shoup_quotients(np.array(w, dtype=np.uint64), p)
    assert quotients.dtype == np.uint64
    assert quotients.tolist() == [(v << 64) // p for v in w]


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_shoup_update_is_exact_and_reduced(p: int) -> None:
    """Residues at 0, 1, p/2 and p - 1 make the precomputed-quotient
    product land on either side of p and the sum reach 2p - 2."""
    rng = random.Random(p)
    edges = [0, 1, 2, p // 2, p // 2 + 1, p - 2, p - 1]
    column = edges + [rng.randrange(p) for _ in range(20)]
    lead = edges + [rng.randrange(p) for _ in range(20)]
    block = [[rng.choice(edges + [rng.randrange(p)]) for _ in lead]
             for _ in column]
    for scale in (1, p - 1, rng.randrange(p)):
        a = np.array(block, dtype=np.uint64)
        _add_shoup_products(a, np.array(column, dtype=np.uint64),
                            np.array(lead, dtype=np.uint64), scale, p)
        assert a.tolist() == [
            [(b + x * (scale * v % p)) % p for b, v in zip(row, lead)]
            for row, x in zip(block, column)
        ]


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_wide_prime_rank_matches_modular_oracle(p: int) -> None:
    """All-(p - 1) blocks make every product and sum as large as it can
    be; the update-path cases force swaps and zero multipliers; low-rank
    products of 0, 1, p - 1 and p - 2 have columns that vanish only if
    every update is reduced exactly."""
    rng = random.Random(p)
    cases = [[[p - 1] * 9 for _ in range(9)],
             [[p - 1 - rng.randrange(4) for _ in range(12)]
              for _ in range(12)]]
    cases += [[[v % p for v in row] for row in rows]
              for rows in _UPDATE_PATH_CASES]
    for _ in range(40):
        inner = rng.randint(1, 5)
        left = [[rng.choice((0, 0, 1, p - 1, rng.randrange(p)))
                 for _ in range(inner)] for _ in range(rng.randint(1, 10))]
        right = [[rng.choice((0, 1, p - 1, p - 2, rng.randrange(p)))
                  for _ in range(8)] for _ in range(inner)]
        cases.append([
            [sum(row[k] * right[k][j] for k in range(inner)) % p
             for j in range(8)]
            for row in left
        ])
    field = FieldSpec(p)
    for rows in cases:
        expected = modular_rank(rows, p)
        assert _rank_mod_p(np.array(rows, dtype=field.dtype), p) == expected
        assert rank(DenseMatrix.from_rows(field, rows)) == expected


_unit_row_fields = (QQ, FieldSpec(101), FieldSpec(2**61 - 1))


def _oracle_rank(field: FieldSpec, rows) -> int:
    if field.is_modular:
        return modular_rank(rows, field.characteristic)
    return fraction_rank(rows)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rank_of_unit_duplicate_and_zero_rows(data) -> None:
    """Unit rows, repeated or not, rows on the units' columns only and
    zero rows, mixed with arbitrary rows, rank as the oracles do."""
    cols = data.draw(st.integers(min_value=1, max_value=6))
    small = st.integers(min_value=-4, max_value=4)
    rows = data.draw(st.lists(st.lists(small, min_size=cols, max_size=cols),
                              max_size=5))
    units = data.draw(st.lists(st.tuples(st.integers(0, cols - 1),
                                         st.integers(1, 9), st.booleans()),
                               min_size=1, max_size=4))
    for col, value, duplicated in units:
        unit = [0] * cols
        unit[col] = value
        rows += [unit] * (1 + duplicated)
    pinned = sorted({col for col, _, _ in units})
    covered = data.draw(st.lists(st.lists(small, min_size=len(pinned),
                                          max_size=len(pinned)), max_size=2))
    for values in covered:
        row = [0] * cols
        for col, value in zip(pinned, values):
            row[col] = value
        rows.append(row)
    rows += [[0] * cols] * data.draw(st.integers(0, 2))
    rows = data.draw(st.permutations(rows))
    for field in _unit_row_fields:
        assert rank(DenseMatrix.from_rows(field, rows)) == _oracle_rank(
            field, rows)


def test_rank_of_empty_and_all_unit_row_matrices() -> None:
    units = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 0, 0],
             [3, 0, 0, 0]]
    for field in _unit_row_fields:
        assert rank(DenseMatrix(field, ())) == 0
        for shape in ((0, 3), (3, 0)):
            empty = np.zeros(shape, dtype=field.dtype)
            assert rank(DenseMatrix(field, empty)) == 0
        assert rank(DenseMatrix.from_rows(field, units)) == 2
        identity = np.eye(5, dtype=np.int64).tolist()
        assert rank(DenseMatrix.from_rows(field, identity)) == 5


def test_sample_scalars_deterministic() -> None:
    a = sample_scalars(GF, 6, seed=31337)
    b = sample_scalars(GF, 6, seed=31337)
    assert a == b
    assert sample_scalars(GF, 6, seed=31338) != a
    assert sample_scalars(GF, 0, seed=1) == []
    with pytest.raises(ValueError):
        sample_scalars(GF, -1, seed=1)


def test_sample_scalars_modular_residues() -> None:
    """Over GF(p) every residue is drawn, zero included."""
    values = sample_scalars(FieldSpec(7), 500, seed=4)
    assert set(values) == set(range(7))
    assert set(sample_scalars(FieldSpec(2), 20, seed=9)) == {0, 1}


def test_sample_scalars_single_word_stream() -> None:
    """Each scalar is one accepted splitmix64 word."""
    for p in (2, 2**61 - 1, WIDE_PRIMES[-1]):
        limit = 2**64 - 2**64 % p
        stream = splitmix_stream(7)
        expected = []
        while len(expected) < 50:
            draw = next(stream)
            if draw < limit:
                expected.append(draw % p)
        assert sample_scalars(FieldSpec(p), 50, seed=7) == expected


@pytest.mark.parametrize("p", [0, 2, 3, 17, 65537, 32003, 2**61 - 1,
                               6148914691236517223, WIDE_PRIMES[-1]])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_sample_scalars_match_word_by_word_stream(p: int, seed: int) -> None:
    """The batched draw equals the stream drawn one splitmix64 word at a
    time: rationals, GF(2) (every 64-bit draw accepted), Fermat primes,
    word and big primes, the first prime above 2**64 / 3 (a third of all
    draws rejected) and the last prime below 2**63."""
    for count in (0, 1, 5, 300):
        assert sample_scalars(FieldSpec(p), count, seed) == splitmix_scalars(
            p, count, seed)


def test_sample_scalars_rational_height() -> None:
    values = sample_scalars(QQ, 500, seed=12)
    assert all(v.denominator == 1 for v in values)
    assert all(1 <= abs(v) <= RATIONAL_HEIGHT_BOUND for v in values)
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


def test_generator_name_and_stream() -> None:
    assert GENERATOR_NAME == "splitmix64"
    first = exact._stream_words(0, 0, 3).tolist()
    assert exact._stream_words(0, 0, 3).tolist() == first
    assert first == list(islice(splitmix_stream(0), 3))
    assert all(0 <= v < 2**64 for v in first)


def test_mix_is_deterministic_and_spreads() -> None:
    assert mix(42, 0) == mix(42, 0)
    derived = {mix(42, k) for k in range(64)}
    assert len(derived) == 64
    with pytest.raises(ValueError):
        mix(42, -1)

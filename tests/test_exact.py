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
    _LIMB_SHORT_ROWS,
    _PANEL_WIDTH,
    _QQ_TRIAL_PRIME,
    _SPLIT_ROWS,
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
        return field.multiply(x, y)

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
    # Denominators are cleared row by row; an integer row is kept as it is.
    integer = [3, -7]
    cleared = exact._integer_rows([[Fraction(1, 2), Fraction(-1, 3)], integer])
    assert cleared == [[3, -2], [3, -7]] and cleared[1] is integer


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

    def recording(a, p, profile=None):
        primes.append(p)
        return _rank_mod_p(a, p, profile)

    monkeypatch.setattr(exact, "_rank_mod_p", recording)
    # Determinant `first`: rank 1 modulo the first prime, 2 modulo the next.
    assert rank(DenseMatrix.from_rows(QQ, [[first + 1, 1], [1, 1]])) == 2
    assert primes[0] == first and len(primes) == 2
    assert rank(DenseMatrix.from_rows(QQ, [[first, 0], [0, 1]])) == 2
    assert rank(DenseMatrix.from_rows(QQ, [[first, 0], [0, 0]])) == 1
    assert rank(DenseMatrix.from_rows(QQ, [[first * first, 1], [0, 1]])) == 2


def test_rational_rank_cap_is_only_a_check(monkeypatch) -> None:
    """A rank-3 product of 6x3 and 3x7 integer matrices with 100-bit
    entries: the Hadamard bound needs many primes, and a cap shortens no
    proof over QQ, as in every field it only checks the rank: a cap of 3
    takes as many primes as none, and a cap of 2 raises."""
    rng = random.Random(5)
    left = [[rng.getrandbits(100) - 2**99 for _ in range(3)] for _ in range(6)]
    right = [[rng.getrandbits(100) - 2**99 for _ in range(7)] for _ in range(3)]
    product = [[sum(left[i][k] * right[k][j] for k in range(3))
                for j in range(7)] for i in range(6)]
    matrix = DenseMatrix.from_rows(QQ, product)
    primes = []

    def recording(a, p, profile=None):
        primes.append(p)
        return _rank_mod_p(a, p, profile)

    monkeypatch.setattr(exact, "_rank_mod_p", recording)
    assert rank(matrix) == 3
    uncapped = list(primes)
    assert len(uncapped) > 10
    primes.clear()
    assert rank(matrix, cap=3) == 3
    assert primes == uncapped
    with pytest.raises(ArithmeticError, match="exceeds its proved cap 2"):
        rank(matrix, cap=2)


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
def test_rank_leaves_its_input_unchanged(monkeypatch,
                                        field: FieldSpec) -> None:
    """With no zero row, `rank` hands the entries over as they are, and
    the elimination runs in place on a copy of its own, laid out long
    side first: the tall matrix is copied as it is, its wide transpose
    transposed back.  Neither is changed."""
    name = "_rank_mod_p" if field.is_modular else "_rank_rational"
    original, handed = getattr(exact, name), []

    def spy(entries, *args):
        handed.append(entries)
        return original(entries, *args)

    monkeypatch.setattr(exact, name, spy)
    rows = [[2, 3, 5, 7], [1, 4, 1, 5], [9, 2, 6, 5], [3, 1, 4, 1],
            [2, 7, 1, 8]]
    for given in (rows, [list(col) for col in zip(*rows)]):
        matrix = DenseMatrix.from_rows(field, given)
        before = matrix.entries.copy()
        assert rank(matrix) == _oracle_rank(field, given)
        assert np.array_equal(matrix.entries, before)
        assert handed.pop() is matrix.entries


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
# in float64, where QQ trials run, and the next prime, whose panels' updates
# are products of limbs.
_LAST_PANEL_PRIME = _QQ_TRIAL_PRIME
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
    (2, np.int64, _SPLIT_ROWS + 1, [16, _SPLIT_ROWS - 15]),
    (2, np.int64, _SPLIT_ROWS, [_SPLIT_ROWS]),
    (_NEXT_PRIME, np.int64, 105, [16, 16, 16, 16, 41]),
    (2**31 - 1, np.int64, 105, [16, 16, 16, 16, 41]),
    (2**61 - 1, np.uint64, 105, [16, 16, 16, 16, 41]),
    (2**61 - 1, np.uint64, 4 * _PANEL_WIDTH + 1, [16, 16, 16, 16, 1]),
    (3_037_000_507, np.uint64, 4 * _PANEL_WIDTH, [16, 16, 16, 16]),
    (2**61 - 1, np.uint64, _LIMB_SHORT_ROWS - 1, [16, 16, 16, 16, 135]),
    (2**61 - 1, np.uint64, _LIMB_SHORT_ROWS, [32, 32, 136]),
    (2**31 - 1, np.int64, _LIMB_SHORT_ROWS - 1, [16, 16, 16, 16, 135]),
    (2**31 - 1, np.int64, _LIMB_SHORT_ROWS, [32, 32, 136]),
])
def test_panels_split_off_below_the_float64_bound(monkeypatch, p, dtype,
                                                  cols, widths) -> None:
    """int64 matrices split off panels of 16 of their long side's
    vectors, here columns, while more than `_SPLIT_ROWS` remain, for
    primes the float64 bound admits; above it, and in uint64, panels of
    16 while the long side is under `_LIMB_SHORT_ROWS`, else of
    `_LIMB_PANEL_WIDTH`, are split while more than that many remain.  A
    panel that reaches the last column ends the splitting.  Each 60-row
    matrix is copied transposed, its long side first, and its transpose,
    which has the same rank, is copied as it is and split the same way;
    neither argument is changed."""
    seen = []

    def spy(a, width, p, walked, trailing=None):
        seen.append(width)
        return _eliminate_panel(a, width, p, walked, trailing)

    monkeypatch.setattr(exact, "_eliminate_panel", spy)
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(cols)] for _ in range(60)]
    expected = modular_rank(rows, p)
    wide = np.array(rows, dtype=dtype)
    assert _rank_mod_p(wide, p) == expected
    assert seen == widths
    assert wide.tolist() == rows
    seen.clear()
    tall = wide.T.copy()
    assert _rank_mod_p(tall, p) == expected
    assert seen == widths
    assert np.array_equal(tall, wide.T)


def _walked_rows(rng: random.Random, p: int, width: int) -> list[list[int]]:
    """110 rows of 40 residues, rank-deficient, in the layout
    `_rank_mod_p` walks (long side first), for panels of ``width`` rows.
    Row 0 is zero in column 0, so the first panel's first step swaps
    columns; the rest of that panel holds combinations of 5 rows
    supported on columns 0-4 and zero rows, so it finds 5 pivots and then
    rows with nothing left (one ``argmax`` each).  Row ``width``, the next
    panel's first, is zero on columns 0-5: zero at its pivot column
    whatever the first panel swapped, so it swaps columns of the trailing
    block too.  The other rows combine 12 random rows."""
    def edgy() -> int:
        return rng.choice((1, p - 1, p - 2, rng.randrange(p)))

    def combine(basis: list[list[int]]) -> list[int]:
        weights = [rng.choice((0, 1, p - 1, rng.randrange(p)))
                   for _ in basis]
        return [sum(w * row[j] for w, row in zip(weights, basis)) % p
                for j in range(40)]

    head = [[0] + [edgy() for _ in range(4)] + [0] * 35]
    head += [[int(i == j) * edgy() for j in range(40)] for i in range(5)]
    panel = head + [combine(head) if rng.random() < 0.5 else [0] * 40
                    for _ in range(width - 6)]
    basis = [[edgy() for _ in range(40)] for _ in range(12)]
    rest = [combine(basis) for _ in range(110 - width - 1)]
    return panel + [[0] * 6 + [edgy() for _ in range(34)]] + rest


@pytest.mark.parametrize("p, dtype", [(_LAST_PANEL_PRIME, np.int64),
                                      (_NEXT_PRIME, np.int64),
                                      (2**31 - 1, np.int64),
                                      (2**61 - 1, np.uint64)])
def test_long_side_first_swaps_and_skips_inside_panels(p, dtype) -> None:
    """Rank-deficient matrices, as given (tall, eliminated as they are)
    and transposed (wide, copied back long side first), against the
    oracle: a panel's first row zero at its pivot column swaps columns of
    the trailing block, and rows left zero inside a panel are skipped.
    Neither argument is changed.  At 2**31 - 1 an int64 block is reduced
    every 2 updates, so the first panel's 5 pivots leave its tracking rows
    one update unreduced, which the product of limbs must not be given."""
    short = _float_exact(_PANEL_WIDTH, p) or 110 < _LIMB_SHORT_ROWS
    width = _PANEL_WIDTH if short else _LIMB_PANEL_WIDTH
    rng = random.Random(p)
    for _ in range(3):
        rows = _walked_rows(rng, p, width)
        expected = modular_rank(rows, p)
        assert expected < 40
        for matrix in (rows, [list(col) for col in zip(*rows)]):
            given = np.array(matrix, dtype=dtype)
            assert _rank_mod_p(given, p) == expected
            assert given.tolist() == matrix


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
    copied as it is, while the wide one is copied transposed: both
    eliminate the same layout."""
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


# Every arithmetic path of the elimination: int64 with delayed reduction
# (panels of one float64 product), int64 with products of limbs, uint64,
# and QQ through its first prime, an int64 limb path.
_PATHS = pytest.mark.parametrize(
    "p", [2, 1_000_003, _NEXT_PRIME, 2**31 - 1, 2**61 - 1, 0],
    ids=["int64-delayed-2", "int64-delayed", "int64-limbs", "int64-limbs-31",
         "uint64", "QQ"])


def _profile_columns(rng: random.Random, p: int, rows: int,
                     cols: int, pivots: int) -> list[list[int]]:
    """A matrix whose columns at ``pivots`` random positions are random and
    every other one is zero or a combination of up to 3 before it, so that
    the columns outside the span of those before them spread over every
    panel of the elimination; its last row is zero."""
    fresh = set(rng.sample(range(cols), pivots))
    columns = []
    for t in range(cols):
        if t in fresh or not columns:
            column = [rng.randrange(p) if p else rng.randint(-9, 9)
                      for _ in range(rows - 1)]
        elif rng.random() < 0.2:
            column = [0] * (rows - 1)
        else:
            basis = rng.sample(columns, min(3, len(columns)))
            weights = [rng.choice((1, p - 1, rng.randrange(p))) if p
                       else rng.randint(-3, 3) for _ in basis]
            column = [sum(w * c[i] for w, c in zip(weights, basis))
                      for i in range(rows - 1)]
            if p:
                column = [v % p for v in column]
        columns.append(column)
    return [list(row) for row in zip(*columns)] + [[0] * cols]


@_PATHS
@pytest.mark.parametrize("cols", [_SPLIT_ROWS - 1, _SPLIT_ROWS + 1,
                                  _LIMB_SHORT_ROWS - 1, _LIMB_SHORT_ROWS + 1])
def test_pivot_marks_count_the_rank_of_every_prefix(p: int, cols: int) -> None:
    """`rank` sets ``profile`` to the column and the row rank profiles, on
    every elimination path and with the long side on both sides of
    `_SPLIT_ROWS` and `_LIMB_SHORT_ROWS`: the entries of either below k
    are the rank of the first k columns or rows over GF(p), and over QQ at
    most it.  The count is constant between entries, and a prefix's rank
    never falls and rises by at most one per column or row, so the
    prefixes that end just before and just after each entry cover every
    prefix.  Rank 6 leaves rows without a pivot; rank 9, every row but the
    zero one, ends the walk before its last column.

    The 10 x cols matrix is wide, so the elimination walks its columns and
    reads its rows back from the pivot columns of its copy; its transpose
    is tall, so the elimination walks its rows and reads its columns back.
    The same columns, as the rows of a square matrix times a 10 x cols
    matrix of full row rank, which keeps the rank of every set of them,
    are read back from the pivot columns of a long side: over GF(2) its
    rows are often zero at the next row but not at a later one, so a pivot
    search that did not keep the columns left in order, such as a swap to
    the front, would read other rows."""
    field = FieldSpec(p)
    rng = random.Random(p + cols)
    for pivots in (6, 12):
        matrix = _profile_columns(rng, p, 10, cols, pivots)
        transpose = [list(column) for column in zip(*matrix)]
        right = [[rng.randrange(p) if p else rng.randint(-9, 9)
                  for _ in range(cols)] for _ in range(10)]
        assert _oracle_rank(field, right) == 10
        square = [[sum(a * b for a, b in zip(column, other))
                   for other in zip(*right)] for column in transpose]
        if p:
            square = [[v % p for v in row] for row in square]
        oracles = {}

        def prefix_rank(rows, k):
            if (id(rows), k) not in oracles:
                oracles[id(rows), k] = _oracle_rank(field, rows[:k])
            return oracles[id(rows), k]

        found = _oracle_rank(field, matrix)
        for entries, sides in ((matrix, (transpose, matrix)),
                               (transpose, (matrix, transpose)),
                               (square, (None, transpose))):
            dense = DenseMatrix.from_rows(field, entries)
            profile = []
            assert rank(dense, profile=profile) == rank(dense) == found
            assert dense.entries.tolist() == entries
            assert len(profile) == 2
            for picked, rows in zip(profile, sides):
                assert picked == sorted(set(picked))
                assert len(picked) == found if p else len(picked) <= found
                if rows is None:
                    continue
                for k in sorted({0, len(rows), *picked,
                                 *(t + 1 for t in picked)}):
                    count = sum(t < k for t in picked)
                    oracle = prefix_rank(rows, k)
                    assert count == oracle if p else count <= oracle


def test_pivot_marks_of_degenerate_matrices() -> None:
    """Over QQ the profiles come from the first prime alone, which makes a
    column vanish here, so they undercount the prefix it ends; a matrix of
    zero rows has two empty profiles, and a zero row is in neither, while
    the row profile counts the other rows by their place in the matrix,
    wide or tall."""
    first = next(q for q in range(_RATIONAL_PRIME_START, 2, -1)
                 if is_prime(q))
    matrix = DenseMatrix.from_rows(QQ, [[first, 0, 1], [0, 1, 1]])
    profile = []
    assert rank(matrix, profile=profile) == 2
    assert profile == [[1, 2], [0, 1]]
    for field in (GF, QQ):
        profile = [[0], [0]]
        assert rank(DenseMatrix.from_rows(field, [[0, 0, 0]] * 2),
                    profile=profile) == 0
        assert profile == [[], []]
        wide = [[0, 0, 0], [0, 2, 0], [0, 0, 0], [0, 4, 1]]
        assert rank(DenseMatrix.from_rows(field, wide), profile=profile) == 2
        assert profile == [[1, 2], [1, 3]]
        tall = [[0, 0], [1, 2], [0, 0], [2, 4], [3, 5]]
        assert rank(DenseMatrix.from_rows(field, tall), profile=profile) == 2
        assert profile == [[0, 1], [1, 4]]


def _tail_rows(rng: random.Random, p: int, rows: int,
               dependent: set) -> tuple[list[list[int]], list[int]]:
    """A rows x (rows - 1) matrix and its column rank profile.  Its rows
    at ``dependent`` (never row 0) combine up to 3 of the rows before
    them, and the others are the rows of an echelon form E, each plus
    multiples of up to 2 of E's rows before it, so they are its row rank
    profile.  E is reduced, with 1 at random pivot columns, its column
    rank profile, which the matrix shares, as its rows span E's.  Every
    determinant that proves this is 1, so over QQ the ranks and profiles
    are the same modulo every prime."""
    cols = rows - 1
    pivots = sorted(rng.sample(range(cols), rows - len(dependent)))

    def scalar() -> int:
        return rng.choice((1, p - 1, rng.randrange(1, p))) if p else \
            rng.choice((-3, -2, -1, 1, 2, 3))

    def combine(picked: list[list[int]]) -> list[int]:
        weights = [scalar() for _ in picked]
        row = [sum(w * v[j] for w, v in zip(weights, picked))
               for j in range(cols)]
        return [v % p for v in row] if p else row

    echelon = []
    for lead in pivots:
        row = [int(j == lead) if j <= lead or j in pivots
               else rng.choice((0, scalar())) for j in range(cols)]
        echelon.append(row)
    matrix, kept = [], []
    for i in range(rows):
        if i in dependent:
            matrix.append(combine(rng.sample(kept, min(3, len(kept)))))
            continue
        t = len(kept)
        extra = combine([echelon[s] for s in rng.sample(range(t), min(2, t))])
        kept.append([(a + b) % p if p else a + b
                     for a, b in zip(echelon[t], extra)])
        matrix.append(kept[-1])
    return matrix, pivots


def _tail_cases(p: int):
    """For long sides on both sides of `_SPLIT_ROWS`: rows past the rank
    all dependent, at the end of the in-place block; and a dependent row
    before the block's last pivot row.  Each yields the matrix, its rank
    and its row and column rank profiles."""
    rng = random.Random(p)
    for rows in (_SPLIT_ROWS - 1, _SPLIT_ROWS + 7):
        for dependent in (set(range(rows - 5, rows)),
                          {rows - 6, rows - 2, rows - 1}):
            matrix, pivots = _tail_rows(rng, p, rows, dependent)
            kept = [i for i in range(rows) if i not in dependent]
            yield matrix, len(kept), kept, pivots


@_PATHS
def test_dependent_rows_in_the_in_place_block(p: int) -> None:
    """Rank and both profiles match the construction, tall (walked as
    given) and wide (walked transposed), whether the rows below the first
    row without a pivot are all dependent or not.  The in-place block is,
    with panels of one float64 product, all of the copy at 71 rows and the
    63 rows left after one panel at 79; with products of limbs, the 7 or
    15 rows left after four panels."""
    field = FieldSpec(p)
    for matrix, found, rows, columns in _tail_cases(p):
        transpose = [list(column) for column in zip(*matrix)]
        for entries, expected in ((matrix, [columns, rows]),
                                  (transpose, [rows, columns])):
            profile = []
            assert rank(DenseMatrix.from_rows(field, entries),
                        profile=profile) == found
            assert profile == expected


@pytest.mark.parametrize("p, budget", [(2**31 - 1, None),
                                       (3_037_000_493, None),
                                       (1_000_003, 1), (1_000_003, 2),
                                       (1_000_003, 3)])
def test_no_entry_of_an_eliminated_block_wraps(monkeypatch, p,
                                               budget) -> None:
    """Each pivot updates whole rows, so the columns left of it, never read
    again, take products too: after every panel and in-place block, each
    entry, those columns included, is at most (p - 1) + budget * (p - 1)**2
    and nonnegative.  The own budgets of 2**31 - 1 and 3 037 000 493 are 2
    and 1; at 1 000 003 the budget is cut to 1, 2 and 3, so the panels of
    one float64 product are reduced inside too, and at 3 a block can end
    with two updates pending, which the pivot row's left columns, had they
    been left unreduced, would have pushed past the bound."""
    if budget is not None:
        monkeypatch.setattr(exact, "_reduction_budget", lambda p: budget)
    top = (p - 1) + exact._reduction_budget(p) * (p - 1) ** 2
    blocks = []

    def spy(a, width, p, walked, trailing=None):
        found = _eliminate_panel(a, width, p, walked, trailing)
        blocks.append(a.shape)
        assert a.dtype == np.int64
        assert not a.size or 0 <= int(a.min()) and int(a.max()) <= top
        return found

    monkeypatch.setattr(exact, "_eliminate_panel", spy)
    rng = random.Random(p)
    cases = [matrix for matrix, *_ in _tail_cases(p)]
    for rows, cols, inner in ((40, 120, 25), (130, 90, 60)):
        left = _edgy_rows(rng, p, rows, inner)
        right = _edgy_rows(rng, p, inner, cols)
        cases.append([[v % p for v in row]
                      for row in weighted_sums(left, right, 0)])
    for matrix in cases:
        expected = modular_rank(matrix, p)
        for entries in (matrix, [list(column) for column in zip(*matrix)]):
            assert _rank_mod_p(np.array(entries, dtype=np.int64),
                               p) == expected
    assert len(blocks) > 2 * len(cases)


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
    block = [[rng.choice(edges + [rng.randrange(p)]) for _ in column]
             for _ in lead]
    for scale in (1, p - 1, rng.randrange(p)):
        a = np.array(block, dtype=np.uint64)
        _add_shoup_products(a, np.array(column, dtype=np.uint64),
                            np.array(lead, dtype=np.uint64), scale, p)
        assert a.tolist() == [
            [(b + (scale * v % p) * x) % p for b, x in zip(row, column)]
            for row, v in zip(block, lead)
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

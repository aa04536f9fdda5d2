from __future__ import annotations

import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hvectors import (
    KIND_CODIM5_EVEN,
    KIND_CODIM5_ODD,
    KIND_SOCLE_DEGREE,
    DenseMatrix,
    FieldSpec,
    Form,
    codim5_family,
    codim5_generators,
    compress_level,
    contraction_matrix,
    family_target,
    hilbert_function,
    is_prime,
    mix,
    monomials,
    rank,
    sample_scalars,
    socle_degree_family,
    sweep_characteristics,
    verify_construction,
)
from hvectors import inverse_systems
from hvectors import exact
from hvectors.exact import _NUMPY_SAFE_MODULUS
from hvectors.families import KIND_PARITIES, family
from oracles import (WIDE_PRIMES, contract, descending_monomials,
                     fraction_rank, modular_rank, ones, power_coefficients,
                     terms, truncation, weighted_sums)

GF = FieldSpec(32003)
QQ = FieldSpec(0)


def _random_form(num_vars: int, degree: int, field: FieldSpec, seed: int) -> Form:
    count = len(monomials(num_vars, degree))
    return Form.from_coefficients(
        num_vars, degree, field, sample_scalars(field, count, seed)
    )


def _contract_form(operator, form: Form) -> Form:
    """The per-term oracle applied to a form, read back through
    ``terms``/``from_terms``."""
    degree = form.degree - sum(operator)
    return Form.from_terms(form.num_vars, degree, form.field,
                           contract(operator, dict(terms(form))))


def _power(field: FieldSpec, linear: list, power: int) -> Form:
    """The contraction power of a linear form, by the Python-integer
    oracle."""
    coeffs = power_coefficients(linear, power, field.characteristic)
    return Form.from_coefficients(len(linear), power, field, coeffs)


def _combination(weights: list, forms: list[Form]) -> Form:
    """The weighted sum of forms of one shape, by the Python-integer
    oracle."""
    f = forms[0]
    rows = [g.coeffs.tolist() for g in forms]
    [coeffs] = weighted_sums([weights], rows, f.field.characteristic)
    return Form.from_coefficients(f.num_vars, f.degree, f.field, coeffs)


def _chart_sample_count(d: int, parity: str) -> int:
    """Scalars a codimension-5 trial draws: the s of each general point,
    the t of every point, then two weights per point."""
    n_general, n_line = inverse_systems._codim5_counts(d, parity)
    return n_general + 3 * (n_general + n_line)


def _chart_witness(d: int, parity: str, field: FieldSpec,
                   samples: list) -> tuple[Form, Form]:
    """Both generators of a codimension-5 trial that draws ``samples``, by
    the Python-integer oracle: the weighted sums of the contraction powers
    of its general points (1 : s : t) and its line points (1 : 0 : t)."""
    n_general, n_line = inverse_systems._codim5_counts(d, parity)
    power = inverse_systems._codim5_power(d, parity)
    count = n_general + n_line
    points = list(zip(samples[:n_general] + [0] * n_line,
                      samples[n_general:n_general + count]))
    powers = {(s, t): _power(field, [1, s, t], power)
              for s, t in set(points)}
    forms = [powers[point] for point in points]
    weights = samples[n_general + count:]
    return (_combination(weights[:count], forms),
            _combination(weights[count:], forms))


def _drawn_generators(d: int, parity: str, field: FieldSpec,
                      samples: list) -> tuple[Form, Form]:
    """`codim5_generators` with ``samples`` in place of its sampled
    scalars."""
    def draw(sample_field, count, seed):
        assert (sample_field, count) == (field, len(samples))
        return samples

    with mock.patch.object(inverse_systems, "sample_scalars", draw):
        return codim5_generators(d, parity, field, seed=0)


def test_monomials_order_and_count() -> None:
    """`monomials` lists the rows of `_exponents`, the one exponent table:
    the oracle's enumeration, held in a read-only column-major array."""
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 0) == ((0, 0, 0),)
    for r, d in ((2, 5), (3, 7), (4, 4), (12, 2)):
        listing = monomials(r, d)
        assert len(listing) == comb(r - 1 + d, d)
        assert all(sum(m) == d for m in listing)
        assert list(listing) == sorted(listing, reverse=True)
    for n in range(1, 7):
        for d in range(11):
            order = descending_monomials(n, d)
            assert monomials(n, d) == order
            exps = inverse_systems._exponents(n, d)
            assert exps.tolist() == [list(m) for m in order]
            assert exps.flags.f_contiguous and not exps.flags.writeable
    # Many variables, low degree: the sum of the 12 squares contracts to
    # every linear form, and y0*y1 adds one quadric.
    squares = {tuple(2 * (v == k) for v in range(12)): 1 for k in range(12)}
    forms = [Form.from_terms(12, 2, GF, squares),
             Form.from_terms(12, 2, GF, {(1, 1) + (0,) * 10: 1})]
    assert terms(forms[0]) == sorted(squares.items(), reverse=True)
    assert hilbert_function(forms).entries == (1, 12, 2)


def test_positions_by_formula_follow_the_monomial_order() -> None:
    """`_positions` computes an index in closed form from suffix sums of
    exponents; it must equal the position in the oracle's enumeration, of
    each monomial and, broadcast over operators x columns as
    `contraction_matrix` calls it, of each product, for every split of
    the degree."""
    for n in range(1, 7):
        for degree in range(11):
            order = descending_monomials(n, degree)
            index = {m: k for k, m in enumerate(order)}
            exps = np.array(monomials(n, degree)).reshape(-1, n)
            assert inverse_systems._positions(
                n, degree, exps).tolist() == list(range(len(order)))
            for low in range(degree + 1):
                ops = inverse_systems._exponents(n, degree - low)
                cols = inverse_systems._exponents(n, low)
                assert inverse_systems._positions(
                    n, degree, ops[:, None], cols[None]).tolist() == [
                    [index[tuple(a + b for a, b in zip(op, col))]
                     for col in descending_monomials(n, low)]
                    for op in descending_monomials(n, degree - low)]


def test_form_construction_and_lookup() -> None:
    f = Form.from_terms(3, 2, GF, {(1, 1, 0): 5, (0, 0, 2): 1})
    assert f.coeffs.tolist() == [0, 5, 0, 0, 0, 1]
    assert terms(f) == [((1, 1, 0), 5), ((0, 0, 2), 1)]
    assert not f.is_zero()
    assert Form.from_coefficients(3, 2, GF, [0] * 6).is_zero()
    assert Form.from_terms(3, 2, GF, {}).is_zero()
    for bad in ({(1, 0, 0): 1}, {(3, -1, 0): 1}, {(1, 1): 1},
                {(1, 1, 0, 0): 1}):
        with pytest.raises(ValueError):
            Form.from_terms(3, 2, GF, bad)
    with pytest.raises(ValueError):
        Form(3, 2, GF, (1, 2, 3))
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        Form(2, -1, GF, ())
    with pytest.raises(ValueError, match="num_vars must be positive"):
        Form(0, 2, GF, ())


@pytest.mark.parametrize("field", [FieldSpec(5), FieldSpec(2**61 - 1)])
def test_form_takes_its_coefficients_reduced(field: FieldSpec) -> None:
    """Over GF(p) the constructor takes an integer array of residues:
    floats are refused, not truncated, and an entry outside [0, p) is
    refused with a pointer to `Form.from_coefficients`, which reduces it,
    so forms always compare by their residues."""
    p = field.characteristic
    assert Form(3, 1, field, np.array([p - 1, 0, 1], dtype=field.dtype)) == \
        Form.from_coefficients(3, 1, field, [-1, p, 1])
    for bad in ([2.5, 1, 0], [1.0, 1, 0], [Fraction(1, 2), 1, 0],
                ["1", 1, 0]):
        with pytest.raises(TypeError):
            Form(3, 1, field, bad)
    for bad in ([-1, 7, 0], [0, p, 0], [0, 0, 2**63 - 1]):
        with pytest.raises(ValueError, match="Form.from_coefficients"):
            Form(3, 1, field, bad)


def test_form_over_qq_takes_exact_rationals() -> None:
    """Over QQ the coefficients must be exact rationals; over GF(p) a
    coefficient that is not a residue raises in the constructor, not inside
    a rank."""
    form = Form(3, 1, QQ, [Fraction(1, 2), -3, np.int64(2)])
    assert form == Form.from_coefficients(3, 1, QQ, [Fraction(1, 2), -3, 2])
    for bad in ([2.5, 1, 0], ["1", 1, 0]):
        with pytest.raises(TypeError):
            Form(3, 1, QQ, bad)
    with pytest.raises(ValueError, match="Form.from_coefficients"):
        hilbert_function([Form(3, 2, FieldSpec(3), [3, 0, 0, 0, 0, 1])])


def test_contract_examples() -> None:
    assert contract((1, 0, 0), {(2, 1, 0): 1}) == {(1, 1, 0): 1}
    assert contract((1, 0, 0), {(0, 3, 0): 1}) == {}
    mixed = Form.from_terms(2, 2, GF, {(1, 1): 1, (2, 0): 1})
    result = _contract_form((1, 1), mixed)
    assert result.degree == 0
    assert terms(result) == [((0, 0), 1)]


def test_contract_validation() -> None:
    f = {(1, 1): 1}
    with pytest.raises(ValueError):
        contract((1, 1, 0), f)
    with pytest.raises(ValueError):
        contract((2, 1), f)
    with pytest.raises(ValueError):
        contract((-1, 0), f)


def test_contract_is_bilinear() -> None:
    rng = random.Random(77)
    for trial in range(25):
        f = _random_form(3, 4, GF, seed=1000 + trial)
        g = _random_form(3, 4, GF, seed=2000 + trial)
        op = rng.choice(monomials(3, rng.randint(0, 4)))
        combined = _contract_form(op, _combination([1, 1], [f, g]))
        separate = _combination(
            [1, 1], [_contract_form(op, f), _contract_form(op, g)])
        assert combined == separate
        scalar = rng.randint(2, 32002)
        scaled = _contract_form(op, _combination([scalar], [f]))
        assert scaled == _combination([scalar], [_contract_form(op, f)])


def test_contraction_matrix_shapes() -> None:
    # Every operator of degree 2 gets a row; only x^2 divides x^3, so the
    # five other rows are zero.
    cubed = Form.from_terms(3, 3, GF, {(3, 0, 0): 1})
    m = contraction_matrix([cubed], 1)
    assert (m.rows, m.cols) == (6, 3)
    assert m.entries.tolist() == [[1, 0, 0]] + [[0, 0, 0]] * 5
    assert rank(m) == 1
    f = _random_form(3, 4, GF, seed=5)
    top = contraction_matrix([f], 4)
    assert (top.rows, top.cols) == (1, 15)
    assert rank(top) == 1
    pair = [_random_form(3, 6, GF, seed=6), _random_form(3, 6, GF, seed=7)]
    for i in range(7):
        m = contraction_matrix(pair, i)
        assert m.rows == 2 * comb(6 - i + 2, 2)
        assert m.cols == comb(i + 2, 2)


def test_contraction_matrix_validation() -> None:
    f = _random_form(3, 4, GF, seed=8)
    with pytest.raises(ValueError):
        contraction_matrix([], 2)
    with pytest.raises(ValueError):
        contraction_matrix([f], 5)
    with pytest.raises(ValueError):
        contraction_matrix([f, _random_form(3, 3, GF, seed=9)], 2)
    with pytest.raises(ValueError):
        contraction_matrix([f, _random_form(3, 4, QQ, seed=9)], 2)


def test_contraction_matrix_memory_follows_the_matrix() -> None:
    """A form of degree 8 in 8 variables has 6435 terms and its degree-4
    matrix 330 x 330 int64 entries (0.83 MiB); building it must not
    allocate anything near (P+1)**(n-1) int64 cells per generator
    (4.8 million, 36 MiB)."""
    f = _random_form(8, 8, GF, seed=10)
    tracemalloc.start()
    try:
        matrix = contraction_matrix([f], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (matrix.rows, matrix.cols) == (330, 330)
    assert peak < 8 * 2**20


@st.composite
def _generators_and_degree(draw):
    field = draw(st.sampled_from([FieldSpec(101), FieldSpec(2**61 - 1), QQ]))
    num_vars = draw(st.integers(1, 4))
    form_degree = draw(st.integers(0, 4))
    size = len(monomials(num_vars, form_degree))
    scalar = (st.integers(-(2**64), 2**64) if field.is_modular
              else st.fractions(max_denominator=30))
    coefficients = st.lists(st.one_of(st.just(0), scalar),
                            min_size=size, max_size=size)
    generators = [
        Form.from_coefficients(num_vars, form_degree, field, draw(coefficients))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return generators, draw(st.integers(0, form_degree))


@given(_generators_and_degree())
@settings(max_examples=120, deadline=None)
def test_contraction_matrix_agrees_with_contract(case) -> None:
    """The matrix is the oracle's full matrix, one row per (operator,
    generator), operator-major, and its rank is the full matrix's."""
    generators, degree = case
    field = generators[0].field
    num_vars, form_degree = generators[0].num_vars, generators[0].degree
    full = [[contract(op, dict(terms(g))).get(c, 0)
             for c in descending_monomials(num_vars, degree)]
            for op in descending_monomials(num_vars, form_degree - degree)
            for g in generators]
    matrix = contraction_matrix(generators, degree)
    assert matrix.entries.tolist() == full
    expected_rank = (modular_rank(full, field.characteristic)
                     if field.is_modular else fraction_rank(full))
    assert rank(matrix) == expected_rank
    assert matrix.cols == len(monomials(num_vars, degree))


def test_storage_order_puts_every_prefix_bound_first() -> None:
    """The prefix bounds of `_hilbert_ranks` are read in storage order: the
    first C(d-h+n-1, n-1) rows of `_exponents(n, d)` have a0 >= h and the
    rest a0 < h, and `contraction_matrix` is operator-major, row k*g + j
    contracting form j of g by operator k, so the rows whose operator has
    b0 >= h come first too."""
    for n in range(1, 6):
        for d in range(9):
            a0 = inverse_systems._exponents(n, d)[:, 0].tolist()
            for h in range(d + 1):
                count = comb(d - h + n - 1, n - 1)
                assert min(a0[:count]) >= h
                assert all(a < h for a in a0[count:])
    forms = [_random_form(3, 5, GF, seed=seed) for seed in (11, 12, 13)]
    for degree in range(6):
        matrix = contraction_matrix(forms, degree).entries.tolist()
        for k, op in enumerate(monomials(3, 5 - degree)):
            for j, form in enumerate(forms):
                assert matrix[k * len(forms) + j] == _contract_form(
                    op, form).coeffs.tolist()


def test_witness_matrices_equal_a_lookup_oracle() -> None:
    """Every degree of real witnesses, thm-r of powers 23 (d=12 even) and
    32 (d=16 odd) and thm-e e=22, over a word prime, a uint64 prime and
    the prime QQ trials run in, equals the entry-by-entry lookup of
    operator x column among each generator's terms, operator-major."""
    fields = [FieldSpec(p) for p in (1_000_003, 2**61 - 1, 23_726_561)]
    for kind, parameter in ((KIND_CODIM5_EVEN, 12), (KIND_CODIM5_ODD, 16),
                            (KIND_SOCLE_DEGREE, 22)):
        witnesses = [inverse_systems._trial_generators(
            kind, parameter, field, mix(0, 0)) for field in fields]
        form_degree = witnesses[0][0].degree
        for degree in range(form_degree + 1):
            products = [
                [tuple(a + b for a, b in zip(op, col))
                 for col in descending_monomials(3, degree)]
                for op in descending_monomials(3, form_degree - degree)]
            for generators in witnesses:
                lookups = [dict(terms(g)) for g in generators]
                expected = [[coeffs.get(m, 0) for m in row]
                            for row in products for coeffs in lookups]
                matrix = contraction_matrix(generators, degree)
                assert matrix.entries.tolist() == expected


def test_word_prime_overflow_boundary() -> None:
    """At the largest int64-safe prime, every array path equals plain
    Python integer arithmetic: power tables, weighted sums, a witness whose
    points, weights and sums take the boundary residues, and its contraction
    matrices and ranks."""
    p = 3_037_000_493
    assert p <= _NUMPY_SAFE_MODULUS
    assert not any(is_prime(q) for q in range(p + 1, _NUMPY_SAFE_MODULUS + 1))
    field = FieldSpec(p)
    assert field.dtype is np.int64
    top = p - 1
    residues = [top, top - 1, 0, 1, *sample_scalars(field, 3, seed=8)]
    tables = inverse_systems.contraction_power(
        np.array(residues, dtype=np.int64), 40, field)
    assert tables.T.tolist() == [[pow(x, j, p) for j in range(41)]
                                 for x in residues]
    weight_lists = [[top] * 3, [top, 1, top - 1]]
    rows = tables[:, :3].T
    sums = inverse_systems.linear_combination(
        np.array(weight_lists, dtype=np.int64), rows, field)
    assert sums.tolist() == weighted_sums(weight_lists, rows.tolist(), p)
    samples = [residues[k % len(residues)]
               for k in range(_chart_sample_count(10, "odd"))]
    generators = _drawn_generators(10, "odd", field, samples)
    assert generators == _chart_witness(10, "odd", field, samples)
    lookups = [dict(terms(g)) for g in generators]
    for degree in (0, 1, 12, 17, 18, 19, 20):
        matrix = contraction_matrix(generators, degree)
        reference = [
            [row.get(c, 0) for c in descending_monomials(3, degree)]
            for row in (contract(op, lookup)
                        for op in descending_monomials(3, 20 - degree)
                        for lookup in lookups)
        ]
        assert matrix.entries.tolist() == reference
        assert rank(matrix) == modular_rank(reference, p)
    rows = [[top] * 4, [top, 1, top, top - 1], [1, top, top - 1, top]]
    assert rank(DenseMatrix.from_rows(field, rows)) == modular_rank(rows, p) == 3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_witness_arithmetic_matches_python_integers(data) -> None:
    """Over the uint64 range, a codimension-5 witness equals plain
    Python-integer arithmetic on its points and weights; residues 0, 1,
    p - 2 and p - 1 make products and sums as large as they can be.  The
    samples repeat a drawn pool, so points repeat too."""
    p = data.draw(st.sampled_from(WIDE_PRIMES))
    field = FieldSpec(p)
    residue = st.one_of(st.sampled_from((0, 1, p - 2, p - 1)),
                        st.integers(0, p - 1))
    parity = data.draw(st.sampled_from(["odd", "even"]))
    pool = data.draw(st.lists(residue, min_size=1, max_size=12))
    samples = [pool[k % len(pool)]
               for k in range(_chart_sample_count(10, parity))]
    assert _drawn_generators(10, parity, field, samples) == _chart_witness(
        10, parity, field, samples)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_contraction_power_matches_python_pow(data) -> None:
    """The doubled power tables, one per power on the first axis, equal
    Python's ``pow``, 0**0 = 1 included, at the largest int64-safe prime
    and across the uint64 range, where residues 0, 1, p - 2 and p - 1 make
    every product as large as it can be."""
    p = data.draw(st.sampled_from((3_037_000_493, *WIDE_PRIMES)))
    field = FieldSpec(p)
    residue = st.one_of(st.sampled_from((0, 1, p - 2, p - 1)),
                        st.integers(0, p - 1))
    width = data.draw(st.integers(1, 4))
    scalars = data.draw(st.lists(st.lists(residue, min_size=width,
                                          max_size=width),
                                 min_size=1, max_size=3))
    power = data.draw(st.integers(0, 45))
    tables = inverse_systems.contraction_power(
        np.array(scalars, dtype=field.dtype), power, field)
    assert tables.dtype == field.dtype
    assert tables.tolist() == [[[pow(x, j, p) for x in row]
                                for row in scalars] for j in range(power + 1)]


@pytest.mark.parametrize("p", [2, 1_000_003, 7_598_543, 7_598_593,
                               2**31 - 1])
def test_int64_weighted_sums_match_python_integers(p: int) -> None:
    """156 rows, as many as thm-r d=16 combines: one float64 product up to
    7 598 543, the largest prime where 156 products of residues sum
    exactly below 2**53, and products of limbs from the next prime on
    (`exact._matmul_mod_p`).  Columns and weights of p - 1 and p - 2 make
    every product and sum as large as it can be; the weights p - 2 give
    odd sums in the first two columns (155 odd products and an even one),
    which round in float64 above 2**53."""
    rng = random.Random(p)
    count, cols = 156, 12
    rows = [[p - 2, p - 1] + [rng.choice((0, 1, p - 2, p - 1,
                                          rng.randrange(p)))
                              for _ in range(cols - 2)]
            for _ in range(count)]
    rows[0][:2] = [p - 1, p - 2]
    weights = [[p - 1] * count, [p - 2] * count,
               [rng.randrange(p) for _ in range(count)]]
    assert inverse_systems.linear_combination(
        np.array(weights, dtype=np.int64), np.array(rows, dtype=np.int64),
        FieldSpec(p)).tolist() == weighted_sums(weights, rows, p)


def test_uint64_fields_keep_uint64_arrays(monkeypatch) -> None:
    """From the sampled witness to the matrix ranked, a field held in
    uint64 builds uint64 arrays only; numpy 1.24's value-based casting
    would turn uint64 mixed with a signed scalar into float64."""
    uint64 = np.dtype(np.uint64)
    for p in WIDE_PRIMES:
        field = FieldSpec(p)
        linears = [Form.from_coefficients(3, 1, field, [p - 1, 1, p - 2]),
                   _random_form(3, 1, field, seed=p)]
        odd = codim5_generators(10, "odd", field, seed=1)
        binary = truncation(3, 2, 5, field)
        sparse = Form.from_terms(3, 2, field, {(2, 0, 0): -1, (0, 1, 1): 3})
        for form in (*linears, *odd, *binary, sparse):
            assert form.coeffs.dtype == uint64
        assert contraction_matrix(list(odd), 12).entries.dtype == uint64
        powers = inverse_systems.contraction_power(
            np.stack([f.coeffs for f in linears]), 4, field)
        assert powers.dtype == uint64
        assert inverse_systems.linear_combination(
            field.array([p - 1, 2, 1])[None], powers[:, 0].T,
            field).dtype == uint64
        samples = np.array([[p - 1, 1, 0], [2, p - 2, 1]], dtype=np.uint64)
        tables = inverse_systems.contraction_power(samples, 5, field)
        assert tables.dtype == uint64
        assert inverse_systems.linear_combination(
            samples, tables[:, 1].T, field).dtype == uint64
    ranked = []

    def spy(matrix, cap=None, profile=None):
        ranked.append(matrix.entries.dtype)
        return rank(matrix, cap, profile)

    monkeypatch.setattr(inverse_systems, "rank", spy)
    for kind, parameter in ((KIND_CODIM5_EVEN, 10), (KIND_SOCLE_DEGREE, 8)):
        verify_construction(kind, parameter, FieldSpec(2**61 - 1), trials=1)
    assert set(ranked) == {uint64}


def test_hilbert_function_examples() -> None:
    cubed = Form.from_terms(3, 3, GF, {(3, 0, 0): 1})
    assert hilbert_function([cubed]).entries == (1, 1, 1, 1)
    pair = [
        Form.from_terms(2, 2, GF, {(2, 0): 1}),
        Form.from_terms(2, 2, GF, {(1, 1): 1}),
    ]
    assert hilbert_function(pair).entries == (1, 2, 2)
    quartic = _random_form(3, 4, GF, seed=99)
    assert hilbert_function([quartic]).entries == (1, 3, 6, 3, 1)
    assert hilbert_function([quartic]).entries == compress_level(None, 3, 4).entries


def test_hilbert_function_rejects_zero_module() -> None:
    with pytest.raises(ValueError, match="no nonzero generator"):
        hilbert_function([Form.from_coefficients(3, 2, GF, [0] * 6)])
    with pytest.raises(ValueError, match="generator list is empty"):
        hilbert_function([])


def _per_degree_ranks(generators) -> tuple[int, ...]:
    return tuple(rank(contraction_matrix(generators, i))
                 for i in range(generators[0].degree + 1))


@st.composite
def _walk_generators(draw, fields=(FieldSpec(2), FieldSpec(101), GF, QQ)):
    """1-4 forms in 2-4 variables, mixing kinds on which one end of the
    walk fails: monomials, a repeated or a zero form next to nonzero ones,
    and low-rank sums of a few powers of linear forms."""
    field = draw(st.sampled_from(fields))
    num_vars = draw(st.integers(2, 4))
    degree = draw(st.integers(1, 5))
    size = len(monomials(num_vars, degree))
    small = st.integers(-3, 3)
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["dense", "monomial", "powers", "zero", "repeat"]))
        if kind == "dense":
            coeffs = draw(st.lists(small, min_size=size, max_size=size))
            forms.append(Form.from_coefficients(num_vars, degree, field, coeffs))
        elif kind == "monomial":
            mono = draw(st.sampled_from(monomials(num_vars, degree)))
            forms.append(Form.from_terms(num_vars, degree, field, {mono: 1}))
        elif kind == "powers":
            linears = [draw(st.lists(small, min_size=num_vars,
                                     max_size=num_vars))
                       for _ in range(draw(st.integers(1, 3)))]
            weights = draw(st.lists(small, min_size=len(linears),
                                    max_size=len(linears)))
            forms.append(_combination(
                weights, [_power(field, c, degree) for c in linears]))
        elif kind == "zero":
            forms.append(Form.from_coefficients(num_vars, degree, field,
                                                [0] * size))
        else:
            forms.append(forms[-1] if forms else Form.from_terms(
                num_vars, degree, field, {monomials(num_vars, degree)[0]: 1}))
    assume(not all(f.is_zero() for f in forms))
    return forms


@given(_walk_generators())
@settings(max_examples=150, deadline=None)
def test_walk_ranks_equal_every_degree_rank(generators) -> None:
    """The ranks the walk proves from a neighbour are the ranks of the
    contraction matrices, degree by degree."""
    assert hilbert_function(generators).entries == _per_degree_ranks(
        generators)


@pytest.mark.parametrize("field", [FieldSpec(2), FieldSpec(3), FieldSpec(101),
                                   GF, QQ])
def test_walk_modulo_truncation_equals_every_degree_rank(field) -> None:
    """Relative walk: thm-e trials rank modulo the binary truncation, whose
    columns are pinned; small characteristics make the ends fail."""
    for e in range(6, 13):
        known = truncation(3, 2, e - 1, field)
        assert inverse_systems._monomial_counts(2, e - 1) == list(
            _per_degree_ranks(known))
        for seed in (0, 7):
            report = verify_construction(KIND_SOCLE_DEGREE, e, field,
                                         seed=seed, trials=2)
            assert report.per_trial == tuple(
                _per_degree_ranks(known + inverse_systems._trial_generators(
                    KIND_SOCLE_DEGREE, e, field, trial_seed))
                for trial_seed in report.trial_seeds)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_truncation_ranks_are_the_contracted_forms_ranks_one_degree_down(
        data) -> None:
    """Forms of degree s in n variables next to the truncation T of the
    first n-1 variables: T's degree i is spanned by the C(i+n-2, n-2) unit
    vectors of its columns, and contraction has no multinomial factors, so
    every degree i >= 1 has rank C(i+n-2, n-2) plus the walk's rank of the
    forms contracted by the last variable in degree i-1."""
    field = data.draw(st.sampled_from(
        [FieldSpec(2), FieldSpec(3), FieldSpec(101), QQ]))
    n = data.draw(st.integers(2, 5))
    degree = data.draw(st.integers(1, 6 if n < 5 else 4))
    size = len(monomials(n, degree))
    coefficients = st.lists(st.one_of(st.just(0), st.integers(-3, 3)),
                            min_size=size, max_size=size)
    forms = [Form.from_coefficients(n, degree, field, data.draw(coefficients))
             for _ in range(data.draw(st.integers(1, 3)))]
    last = (0,) * (n - 1) + (1,)
    ranks, _ = inverse_systems._hilbert_ranks(
        [_contract_form(last, f) for f in forms])
    assert _per_degree_ranks(truncation(n, n - 1, degree, field) + forms) == (
        1, *(comb(i + n - 2, n - 2) + r for i, r in enumerate(ranks, 1)))


def _contracted_ranks(ranks) -> tuple[int, ...]:
    """A thm-e trial's ranks less the truncation's i+1 monomials in each
    degree i >= 1: the ranks of its form contracted by the third variable,
    one degree down."""
    return tuple(r - i for i, r in enumerate(ranks[1:], 2))


def test_rank_caps_equal_the_family_targets() -> None:
    """The caps come from the witnesses' spans, the targets from the
    families' tables: two derivations that agree in every degree."""
    for d in range(10, 21):
        for kind in (KIND_CODIM5_ODD, KIND_CODIM5_EVEN):
            assert inverse_systems._rank_caps(kind, d) == family_target(
                kind, d).entries
    for e in range(6, 41):
        assert inverse_systems._rank_caps(KIND_SOCLE_DEGREE, e) == \
            family_target(KIND_SOCLE_DEGREE, e).entries


def _witness_scalars(field: FieldSpec, count: int, mode: str,
                     seed: int) -> list[int]:
    if mode == "ones":
        return [1] * count
    if mode == "sampled":
        return sample_scalars(field, count, seed)
    # Zeros and few distinct values make degenerate witnesses.
    rng = random.Random(seed)
    return [rng.choice((0, 1, 2, field.characteristic - 1))
            for _ in range(count)]


def _band_walk(generators, ranks) -> set[int]:
    """The degrees the walk without column-prefix bounds ranks, given the
    module's ranks: the generic crossover, then every degree below it
    down to the first full one and above it up to the first free one."""
    n, s, g = generators[0].num_vars, generators[0].degree, len(generators)
    full = inverse_systems._monomial_counts(n, s)
    free = [g * full[s - i] for i in range(s + 1)]
    low = high = next((i for i in range(s + 1) if full[i] >= free[i]), s)
    band = {low}
    while low > 0 and ranks[low] < full[low]:
        low -= 1
        band.add(low)
    while high < s and ranks[high] < free[high]:
        high += 1
        band.add(high)
    return band


@given(st.sampled_from([KIND_CODIM5_ODD, KIND_CODIM5_EVEN, KIND_SOCLE_DEGREE]),
       st.integers(3, 12), st.sampled_from([2, 3, 101]),
       st.sampled_from(["ones", "sampled", "degenerate"]),
       st.integers(0, 2**32))
@example(KIND_CODIM5_ODD, 10, 2, "ones", 0)
@example(KIND_CODIM5_EVEN, 10, 2, "ones", 0)
@example(KIND_SOCLE_DEGREE, 12, 2, "ones", 0)
@settings(max_examples=80, deadline=None)
def test_exact_rank_never_exceeds_its_cap(kind, parameter, p, mode,
                                          seed) -> None:
    """Witnesses built as the trials build them (codimension 5 by the
    oracle, which `codim5_generators` matches below, so also below d = 10),
    but from any scalars and in fields too small for a Schwartz-Zippel
    bound to reach below 1 (GF(2) with every scalar 1 among them): no
    degree's rank exceeds its cap.  The walk a trial runs gives every
    degree's rank, also where the column-prefix bounds fall short of the
    caps and lower degrees are ranked, and it ranks no degree the walk
    without them would not."""
    field = FieldSpec(p)
    parity = KIND_PARITIES[kind]
    if parity is None:
        e = max(parameter, 6)
        form = Form.from_coefficients(3, e - 1, field, _witness_scalars(
            field, comb(e + 1, 2), mode, seed))
        forms = truncation(3, 2, e - 1, field) + [form]
        generators = [_contract_form((0, 0, 1), form)]
        caps = inverse_systems._rank_caps(kind, e)
    else:
        d = min(parameter, 10)
        values = _witness_scalars(field, _chart_sample_count(d, parity),
                                  mode, seed)
        forms = list(_chart_witness(d, parity, field, values))
        generators = forms
        caps = inverse_systems._rank_caps(kind, d)
    ranks = _per_degree_ranks(forms)
    assert all(r <= c for r, c in zip(ranks, caps)), (ranks, caps)
    assert tuple(rank(contraction_matrix(forms, i), caps[i])
                 for i in range(len(caps))) == ranks
    if parity is None:
        caps, ranks = _contracted_ranks(caps), _contracted_ranks(ranks)
    walked, seconds = inverse_systems._hilbert_ranks(generators, caps)
    assert walked == ranks
    assert {i for i, s in enumerate(seconds) if s} <= _band_walk(
        generators, ranks)


def test_walk_ranks_only_the_band(monkeypatch) -> None:
    """A generic thm-e trial ranks its contracted form's crossover degree
    alone, one below its own, and proves the one below it for odd e from
    that elimination's column-prefix ranks; a codim-5 trial ranks the last
    degree of its plateau alone, and proves every lower degree from its
    column-prefix ranks and the free degree above it from its row-prefix
    ranks."""
    ranked = []
    build = inverse_systems.contraction_matrix

    def record(generators, degree):
        ranked.append(degree)
        return build(generators, degree)

    monkeypatch.setattr(inverse_systems, "contraction_matrix", record)
    for e in range(6, 13):
        ranked.clear()
        report = verify_construction(KIND_SOCLE_DEGREE, e, GF, trials=1)
        assert report.verdict == "match"
        assert ranked == ([e // 2 - 1] if e % 2 == 0 else [e // 2])
        assert [i for i, s in enumerate(report.degree_seconds) if s] == [
            d + 1 for d in ranked]
    for kind, degree in ((KIND_CODIM5_ODD, 13), (KIND_CODIM5_EVEN, 12)):
        ranked.clear()
        report = verify_construction(kind, 10, FieldSpec(1_000_003), trials=1)
        assert report.verdict == "match"
        assert ranked == [degree]


def test_every_trial_ranks_one_degree(monkeypatch) -> None:
    """Every thm-r trial for d = 10..20 in both parities over GF(1000003)
    ranks one degree, the last of its largest cap, whose row- and
    column-prefix ranks prove every other degree; every thm-e trial for
    e = 6..22 ranks its crossover degree alone, one degree down on its
    contracted form, as without row bounds, since its largest cap is
    free."""
    calls = []
    build = inverse_systems.contraction_matrix

    def record(generators, degree):
        calls.append((id(generators), degree))
        return build(generators, degree)

    monkeypatch.setattr(inverse_systems, "contraction_matrix", record)
    field = FieldSpec(1_000_003)
    runs = [(kind, d) for d in range(10, 21)
            for kind in (KIND_CODIM5_ODD, KIND_CODIM5_EVEN)]
    for kind, parameter in runs + [(KIND_SOCLE_DEGREE, e)
                                   for e in range(6, 23)]:
        calls.clear()
        report = verify_construction(kind, parameter, field, seed=0)
        assert report.verdict == "match"
        caps = inverse_systems._rank_caps(kind, parameter)
        start = max(range(len(caps)), key=lambda i: (caps[i], i))
        if kind == KIND_SOCLE_DEGREE:
            assert start == (parameter + parameter % 2) // 2
            start -= 1
        trials = {}
        for trial, degree in calls:
            trials.setdefault(trial, []).append(degree)
        assert len(trials) == len(report.per_trial)
        assert all(degrees == [start] for degrees in trials.values())


@pytest.mark.parametrize("kind, parameters, characteristics", [
    (KIND_CODIM5_ODD, (10, 11, 14), (13, 23, 1_000_003, 0)),
    (KIND_CODIM5_EVEN, (10, 13), (13, 101, 2**61 - 1)),
    (KIND_SOCLE_DEGREE, (6, 9, 12, 15), (2, 3, 32003, 0)),
])
def test_no_trial_ranks_a_degree_the_band_walk_would_not(
        monkeypatch, kind, parameters, characteristics) -> None:
    """A recorder on the matrix builds: every trial ranks each degree at
    most once, and only degrees the walk without column-prefix bounds
    ranks (`_band_walk`), in fields where the bounds settle every lower
    degree and in small ones where they fall short."""
    calls = []
    build = inverse_systems.contraction_matrix

    def record(generators, degree):
        calls.append((generators, degree))
        return build(generators, degree)

    monkeypatch.setattr(inverse_systems, "contraction_matrix", record)
    for parameter in parameters:
        for characteristic in characteristics:
            for seed in (0, 1):
                calls.clear()
                report = verify_construction(
                    kind, parameter, FieldSpec(characteristic), seed, 3)
                trials = {}
                for generators, degree in calls:
                    trials.setdefault(id(generators),
                                      (generators, []))[1].append(degree)
                assert len(trials) == len(report.per_trial)
                for (generators, degrees), ranks in zip(
                        trials.values(), report.per_trial):
                    if kind == KIND_SOCLE_DEGREE:
                        ranks = _contracted_ranks(ranks)
                    assert len(set(degrees)) == len(degrees)
                    assert set(degrees) <= _band_walk(generators, ranks)


def test_a_prefix_bound_above_its_cap_raises() -> None:
    """Three fourth powers of linear forms with nonzero x coordinates:
    degree 2's columns divisible by x have rank 3, a bound on degree 1
    that a cap of 2 there contradicts, as a rank above its cap does."""
    field = FieldSpec(101)
    form = _combination([1, 1, 1], [_power(field, c, 4) for c in
                                    ([1, 1, 1], [1, 2, 3], [2, 1, 5])])
    assert _per_degree_ranks([form]) == (1, 3, 3, 3, 1)
    assert inverse_systems._hilbert_ranks([form])[0] == (1, 3, 3, 3, 1)
    with pytest.raises(ArithmeticError, match="above its proved cap 2"):
        inverse_systems._hilbert_ranks([form], (1, 2, 6, 3, 1))


def test_a_row_prefix_bound_above_its_cap_raises() -> None:
    """The same three fourth powers: degree 2, the last of the largest
    cap, is ranked, and its row rank profile read; the rows whose operator
    x divides have rank 3, the columns of degree 3 they map to, a bound
    that proves degree 3 at a cap of 3 and contradicts a cap of 2, as a
    rank above its cap does."""
    field = FieldSpec(101)
    form = _combination([1, 1, 1], [_power(field, c, 4) for c in
                                    ([1, 1, 1], [1, 2, 3], [2, 1, 5])])
    ranks, seconds = inverse_systems._hilbert_ranks([form], (1, 3, 4, 3, 1))
    assert ranks == (1, 3, 3, 3, 1)
    assert [i for i, s in enumerate(seconds) if s] == [2]
    with pytest.raises(ArithmeticError,
                       match="degree 3 has rank at least 3, above its "
                             "proved cap 2"):
        inverse_systems._hilbert_ranks([form], (1, 3, 3, 2, 1))


def test_thm_e_ranks_its_form_on_the_columns_outside_the_truncation(
        monkeypatch) -> None:
    """In degree i a thm-e trial ranks only its sampled form's C(e+1-i, 2)
    operator rows, on the C(i+2, 2) - (i+1) = C(i+1, 2) columns the
    truncation does not hold: the matrix of its form contracted by the
    third variable, of degree e-2, in degree i-1."""
    built, shapes = [], []
    build = inverse_systems.contraction_matrix

    def record_build(generators, degree):
        built.append(([g.degree for g in generators], degree))
        return build(generators, degree)

    def record_rank(matrix, cap=None, profile=None):
        shapes.append((matrix.rows, matrix.cols))
        return rank(matrix, cap, profile)

    monkeypatch.setattr(inverse_systems, "contraction_matrix", record_build)
    monkeypatch.setattr(inverse_systems, "rank", record_rank)
    for e in (6, 7, 12, 13):
        for field in (GF, QQ):
            built.clear()
            shapes.clear()
            report = verify_construction(KIND_SOCLE_DEGREE, e, field, trials=1)
            assert report.verdict == "match"
            assert built
            assert all(degrees == [e - 2] for degrees, _ in built)
            degrees = [degree + 1 for _, degree in built]
            assert shapes == [(comb(e + 1 - i, 2), comb(i + 1, 2))
                              for i in degrees]


def test_single_form_hilbert_is_symmetric_and_compressed() -> None:
    cases = [(r, e) for r in (2, 3, 4) for e in (3, 5, 7)]
    for k, (r, e) in enumerate(cases):
        h = hilbert_function([_random_form(r, e, GF, seed=400 + k)])
        assert h.entries == tuple(reversed(h.entries))
        assert h.entries == compress_level(None, r, e).entries


def test_hilbert_upper_bounds() -> None:
    gens = [_random_form(3, 5, GF, seed=21), _random_form(3, 5, GF, seed=22)]
    h = hilbert_function(gens)
    for i, value in enumerate(h.entries):
        assert value <= min(comb(2 + i, i), 2 * comb(2 + 5 - i, 5 - i))


def test_hilbert_monotone_under_generators() -> None:
    for seed in range(5):
        base = [_random_form(3, 4, GF, seed=500 + seed)]
        larger = base + [_random_form(3, 4, GF, seed=600 + seed)]
        small = hilbert_function(base)
        big = hilbert_function(larger)
        assert all(a <= b for a, b in zip(small.entries, big.entries))


def test_contraction_power_acts_coefficientwise() -> None:
    """The power of a point (1 : s : t) read from its power tables, s^a1
    t^a2 at x^a as `codim5_generators` reads them, is the oracle's
    contraction power, and x0 x1 sends the fifth power to s times the
    cube."""
    s, t = sample_scalars(GF, 2, seed=77)

    def power_form(power: int) -> Form:
        s_powers, t_powers = inverse_systems.contraction_power(
            GF.array([s, t]), power, GF).T.tolist()
        return Form.from_coefficients(3, power, GF, [
            s_powers[a1] * t_powers[a2] for _, a1, a2 in monomials(3, power)])

    fifth, cube = power_form(5), power_form(3)
    assert fifth == _power(GF, [1, s, t], 5)
    lowered = _contract_form((1, 1, 0), fifth)
    expected = Form(3, 3, GF, inverse_systems.linear_combination(
        GF.array([s])[None], cube.coeffs[None], GF)[0])
    assert lowered == expected


@pytest.mark.parametrize("field", [FieldSpec(2), FieldSpec(3), FieldSpec(101),
                                   FieldSpec(1_000_003),
                                   FieldSpec(2**61 - 1), QQ], ids=str)
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_codim5_generators_combine_their_powers(field, parity) -> None:
    """Each generator is the linear combination, with its sampled weights,
    of the contraction powers of its sampled points (1 : s : t) and
    (1 : 0 : t).  Small fields make s = 0, t = 0 and repeated points
    common."""
    d, seed = 10, mix(0, 0)
    samples = sample_scalars(field, _chart_sample_count(d, parity), seed)
    expected = _chart_witness(d, parity, field, samples)
    assert codim5_generators(d, parity, field, seed) == expected


def test_codim5_generators_call_the_module_witness_arithmetic(
        monkeypatch) -> None:
    """`codim5_generators` looks `contraction_power` and
    `linear_combination` up in the module when it runs, once each, so a
    wrapper set there (as the benchmark's tracer sets one) sees every
    witness it builds."""
    expected = codim5_generators(10, "odd", GF, seed=3)
    calls = []

    def spy(name):
        original = getattr(inverse_systems, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for name in ("contraction_power", "linear_combination"):
        monkeypatch.setattr(inverse_systems, name, spy(name))
    assert codim5_generators(10, "odd", GF, seed=3) == expected
    assert calls == ["contraction_power", "linear_combination"]


def test_codim5_generators_contract() -> None:
    f1, f2 = codim5_generators(10, "odd", GF, seed=3)
    assert f1.degree == 2 * 10 and f2.degree == 2 * 10
    g1, g2 = codim5_generators(10, "odd", GF, seed=3)
    assert g1 == f1 and g2 == f2
    e1, _ = codim5_generators(10, "even", GF, seed=3)
    assert e1.degree == 19
    with pytest.raises(ValueError):
        codim5_generators(9, "odd", GF, seed=1)


def test_verify_socle_degree_family() -> None:
    report = verify_construction(KIND_SOCLE_DEGREE, 6, GF, seed=5, trials=3)
    assert report.verdict == "match"
    assert report.target == socle_degree_family(6).level.entries
    assert report.best == report.target
    assert report.trials == 3
    assert len(report.per_trial) == 1
    assert len(report.trial_seeds) == 1
    assert report.generator == "splitmix64"


def test_verify_stops_at_the_first_trial_that_reaches_every_cap(
        monkeypatch) -> None:
    """A trial whose ranks reach every cap proves the vector, so no later
    trial runs; a trial short of a cap in any degree lets the next one
    run, and witnesses that never reach them run every trial."""
    for kind, parameter, field in ((KIND_SOCLE_DEGREE, 9, GF),
                                   (KIND_CODIM5_ODD, 10, FieldSpec(1_000_003)),
                                   (KIND_CODIM5_EVEN, 11, FieldSpec(1_000_003)),
                                   (KIND_SOCLE_DEGREE, 7, QQ)):
        report = verify_construction(kind, parameter, field, seed=2, trials=4)
        assert report.verdict == "match"
        assert report.trials == 4
        assert report.trial_seeds == (mix(2, 0),)
        assert report.per_trial == (inverse_systems._rank_caps(kind,
                                                                parameter),)
    caps = inverse_systems._rank_caps(KIND_SOCLE_DEGREE, 6)
    report = verify_construction(KIND_SOCLE_DEGREE, 6, FieldSpec(3), seed=0,
                                 trials=5)
    assert report.verdict == "match"
    assert report.trial_seeds == tuple(mix(0, t) for t in range(2))
    assert [ranks == caps for ranks in report.per_trial] == [False, True]
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    for field, verdict in ((GF, "mismatch"), (FieldSpec(2), "inconclusive")):
        report = verify_construction(KIND_SOCLE_DEGREE, 6, field, seed=0,
                                     trials=5)
        assert report.verdict == verdict
        assert len(report.per_trial) == len(report.trial_seeds) == 5


def test_verify_stops_once_the_trials_reach_every_cap_between_them(
        monkeypatch) -> None:
    """Two trials, each short of the cap in a degree the other reaches,
    leave the entrywise best at every cap: the run stops there with a
    match, and no third trial runs."""
    caps = inverse_systems._rank_caps(KIND_SOCLE_DEGREE, 6)
    trials = [tuple(c - (i == short) for i, c in enumerate(caps))
              for short in (2, 3)]
    ran = []

    def complementary(generators, caps=()):
        ran.append(trials[len(ran)])
        return _contracted_ranks(ran[-1]), [0.0] * len(caps)

    monkeypatch.setattr(inverse_systems, "_hilbert_ranks", complementary)
    report = verify_construction(KIND_SOCLE_DEGREE, 6, GF, seed=0, trials=5)
    assert report.verdict == "match"
    assert report.per_trial == tuple(trials)
    assert report.trial_seeds == (mix(0, 0), mix(0, 1))
    assert report.best == caps == report.target


def test_verify_derives_each_trial_seed_as_it_runs(monkeypatch) -> None:
    """Only the trials that run derive a seed: a run that stops at its
    first trial derives one, however many trials it may take."""
    calls = []

    def spy(seed, index):
        calls.append(index)
        return mix(seed, index)

    monkeypatch.setattr(inverse_systems, "mix", spy)
    for field, trials in ((GF, 10**6), (FieldSpec(3), 5), (FieldSpec(2), 5)):
        calls.clear()
        report = verify_construction(KIND_SOCLE_DEGREE, 6, field, trials=trials)
        assert len(calls) == len(report.trial_seeds)
        assert report.trial_seeds == tuple(mix(0, t) for t in calls)
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    calls.clear()
    verify_construction(KIND_SOCLE_DEGREE, 6, FieldSpec(2), trials=5)
    assert calls == [0, 1, 2, 3, 4]


def test_verify_is_deterministic() -> None:
    a = verify_construction(KIND_SOCLE_DEGREE, 7, GF, seed=42, trials=2)
    b = verify_construction(KIND_SOCLE_DEGREE, 7, GF, seed=42, trials=2)
    assert a.to_json_dict() == b.to_json_dict()
    c = verify_construction(KIND_SOCLE_DEGREE, 7, GF, seed=43, trials=2)
    assert c.trial_seeds != a.trial_seeds


def test_verify_states_the_schwartz_zippel_bound(monkeypatch) -> None:
    """Trials that miss a cap state the least (cap_i*k/p)**trials over
    the short degrees i, with k the degree of an entry in the samples, as
    (n/d)**trials: exact, and short at any number of trials.
    With every sample 1, thm-e e=6 is short in degrees 2-4 (caps 6, 10,
    8; k = 1), and thm-r d=10 odd in degrees 1-20, the top one of cap 2
    as its two generators coincide (k = 20+1).  Over QQ, whose trials run
    in GF(23726561), a miss bounds nothing: the run is inconclusive."""
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    report = verify_construction(KIND_SOCLE_DEGREE, 6, QQ, trials=5)
    assert report.verdict == "inconclusive"
    assert report.detail == (
        "degrees 2, 3, 4 short of their caps in all 5 trials; ranks in "
        "GF(23726561) are proved lower bounds over QQ")
    for kind, parameter, field, trials, bound in (
            (KIND_SOCLE_DEGREE, 6, GF, 3, Fraction(6, 32003) ** 3),
            (KIND_SOCLE_DEGREE, 6, GF, 1000, Fraction(6, 32003) ** 1000),
            (KIND_CODIM5_ODD, 10, GF, 2, Fraction(2 * 21, 32003) ** 2),
            (KIND_CODIM5_ODD, 10, FieldSpec(43), 3, Fraction(42, 43) ** 3)):
        report = verify_construction(kind, parameter, field, trials=trials)
        assert report.verdict == "mismatch"
        stated = report.detail.split(" at most (")[1]
        assert stated.endswith(f"**{trials} likely if the target holds")
        base = Fraction(stated.split(")")[0])
        assert base ** trials == bound
    report = verify_construction(KIND_CODIM5_ODD, 10, FieldSpec(41),
                                 trials=3)
    assert report.verdict == "inconclusive"
    assert report.detail == (
        f"degrees {', '.join(map(str, range(1, 21)))} short of their caps "
        "in all 3 trials; GF(41) is too small to bound a miss")


def test_verify_over_qq_ranks_its_trials_in_gf_23726561(monkeypatch) -> None:
    """Over QQ every trial runs in GF(23 726 561), the largest prime whose
    16-row panels are exact in float64: each matrix ranked is int64 over
    that field, the rational rank never runs, and the report keeps
    characteristic 0 but otherwise equals the one over GF(23726561)."""
    q = FieldSpec(23_726_561)
    ranked = []

    def spy(matrix, cap=None, profile=None):
        ranked.append((matrix.field, matrix.entries.dtype))
        return rank(matrix, cap, profile)

    def refuse(entries):
        raise AssertionError("a verification ranked over QQ")

    monkeypatch.setattr(inverse_systems, "rank", spy)
    monkeypatch.setattr(exact, "_rank_rational", refuse)
    for kind, parameter in ((KIND_SOCLE_DEGREE, 6), (KIND_SOCLE_DEGREE, 7),
                            (KIND_CODIM5_ODD, 10), (KIND_CODIM5_EVEN, 10)):
        ranked.clear()
        rational = verify_construction(kind, parameter, QQ, trials=1)
        assert ranked and set(ranked) == {(q, np.dtype(np.int64))}
        assert rational.characteristic == 0
        assert rational.verdict == "match"
        modular = verify_construction(kind, parameter, q, trials=1)
        assert rational.to_json_dict() == {**modular.to_json_dict(),
                                           "characteristic": 0}


def test_verify_validates_parameters() -> None:
    for kind, below in ((KIND_SOCLE_DEGREE, 5), (KIND_CODIM5_ODD, 9),
                        (KIND_CODIM5_EVEN, 9)):
        with pytest.raises(ValueError):
            verify_construction(kind, below, GF)
    with pytest.raises(ValueError):
        verify_construction(KIND_SOCLE_DEGREE, 6, GF, trials=0)
    for query in (family, family_target):
        with pytest.raises(ValueError, match="unknown kind"):
            query("unknown", 6)


def test_seeds_outside_64_bits_are_refused(monkeypatch) -> None:
    """Seeds are refused, not wrapped modulo 2**64, so that a report's seed
    is the one its trials derive from, also where no scalar is drawn; a
    verification refuses one before it samples."""
    sampled = []

    def spy(field, count, seed):
        sampled.append(seed)
        return sample_scalars(field, count, seed)

    monkeypatch.setattr(inverse_systems, "sample_scalars", spy)
    for seed, reason in ((-1, "seed must be nonnegative"),
                         (2**64, r"seed must be below 2\*\*64")):
        for refuse in (lambda: mix(seed, 0),
                       lambda: sample_scalars(GF, 3, seed),
                       lambda: sample_scalars(QQ, 3, seed),
                       lambda: sample_scalars(FieldSpec(101), 0, seed),
                       lambda: sample_scalars(QQ, 0, seed),
                       lambda: verify_construction(KIND_SOCLE_DEGREE, 6, GF,
                                                   seed=seed, trials=1),
                       lambda: verify_construction(KIND_CODIM5_ODD, 10, GF,
                                                   seed=seed, trials=1)):
            with pytest.raises(ValueError, match=reason):
                refuse()
    assert sampled == []
    with pytest.raises(TypeError):
        mix(1.5, 0)
    for seed in (0, 2**64 - 1):
        assert 0 <= mix(seed, 0) < 2**64
        assert len(sample_scalars(GF, 3, seed)) == 3
        report = verify_construction(KIND_SOCLE_DEGREE, 6, GF, seed=seed,
                                     trials=1)
        assert report.seed == seed
        assert report.trial_seeds == (mix(seed, 0),)
    assert len(sampled) == 2


def test_verify_codim5_targets() -> None:
    assert family_target(KIND_CODIM5_ODD, 10) == codim5_family(10, "odd").level
    assert family_target(KIND_CODIM5_EVEN, 12) == codim5_family(12, "even").level
    for kind, parameter in ((KIND_SOCLE_DEGREE, 6), (KIND_CODIM5_ODD, 10),
                            (KIND_CODIM5_EVEN, 12)):
        member = family(kind, parameter)
        assert member.kind == kind
        assert member.level == family_target(kind, parameter)


# First 16 hex digits of the SHA-256 of repr([coefficients of each
# generator]) for the first trial at seed 0: the golden reports pin only
# the ranks these witnesses reach, so a change in sampling or in building
# the generators that keeps every rank would pass them unseen.
WITNESS_DIGESTS = {
    (KIND_SOCLE_DEGREE, 6, 32003): "f747631c18a750c2",
    (KIND_SOCLE_DEGREE, 6, 2**61 - 1): "3b00dd426826795d",
    (KIND_SOCLE_DEGREE, 6, 0): "1e8e96ffe629e8dc",
    (KIND_CODIM5_ODD, 10, 32003): "2c3dd40e0ac364b8",
    (KIND_CODIM5_ODD, 10, 2**61 - 1): "c0d8589d3e6391e1",
    (KIND_CODIM5_ODD, 10, 0): "5d6fc9dc56eae2c3",
    (KIND_CODIM5_EVEN, 10, 32003): "bb47c8f5520f11f5",
    (KIND_CODIM5_EVEN, 10, 2**61 - 1): "7db6bc63be5c7f2e",
    (KIND_CODIM5_EVEN, 10, 0): "6f2a1e6a4c114090",
}


@pytest.mark.parametrize("kind, parameter, characteristic",
                         list(WITNESS_DIGESTS),
                         ids=[f"{k}-{n}-{p}" for k, n, p in WITNESS_DIGESTS])
def test_trial_witnesses_are_pinned(kind, parameter, characteristic) -> None:
    generators = inverse_systems._trial_generators(
        kind, parameter, FieldSpec(characteristic), mix(0, 0))
    text = repr([f.coeffs.tolist() for f in generators])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == WITNESS_DIGESTS[kind, parameter, characteristic]


def test_rational_rank_on_codim5_plateau_within_budget() -> None:
    """The odd d=10 plateau over QQ: entries of up to about 420 bits (w
    s^a1 t^a2 at x^a, about 300 at the median) and a rank below both
    dimensions, so only the Hadamard bound can stop the primes (about 850
    of them).  Budget: 60 s."""
    generators = inverse_systems._trial_generators(KIND_CODIM5_ODD, 10, QQ,
                                                   mix(0, 0))
    matrix = contraction_matrix(generators, 12)
    assert (matrix.rows, matrix.cols) == (90, 91)
    start = time.perf_counter()
    found = rank(matrix)
    elapsed = time.perf_counter() - start
    assert found == family_target(KIND_CODIM5_ODD, 10).entries[12] == 68
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_sweep_contract() -> None:
    reports = sweep_characteristics(KIND_SOCLE_DEGREE, 6, [101, 32003],
                                    seed=9, trials=1)
    assert [r.characteristic for r in reports] == [101, 32003]
    assert all(r.verdict == "match" for r in reports)
    with pytest.raises(ValueError):
        sweep_characteristics(KIND_SOCLE_DEGREE, 6, [], seed=1, trials=1)


def test_sweep_duplicates_give_equal_reports() -> None:
    reports = sweep_characteristics(KIND_SOCLE_DEGREE, 6, [101, 101],
                                    seed=9, trials=1)
    assert reports[0].to_json_dict() == reports[1].to_json_dict()
    assert [r.status for r in reports] == ["ok", "ok"]


@pytest.mark.parametrize("characteristics", [[101, 15], [15, 101]])
def test_sweep_refuses_an_invalid_characteristic_before_any_trial(
        monkeypatch, characteristics) -> None:
    """Every characteristic is checked before the first verification, so
    one that is not 0 or a prime raises wherever it stands in the list,
    and no trial runs."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return verify_construction(*args, **kwargs)

    monkeypatch.setattr(inverse_systems, "verify_construction", spy)
    with pytest.raises(ValueError, match="0 or a prime, got 15"):
        sweep_characteristics(KIND_SOCLE_DEGREE, 6, characteristics,
                              seed=9, trials=1)
    assert calls == []


def test_sweep_propagates_errors_from_verification(monkeypatch) -> None:
    """A ValueError from inside a verification is not swallowed."""
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(inverse_systems, "_hilbert_ranks", broken)
    with pytest.raises(ValueError, match="injected"):
        sweep_characteristics(KIND_SOCLE_DEGREE, 6, [101], seed=9, trials=1)


def test_sweep_propagates_programming_errors(monkeypatch) -> None:
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(inverse_systems, "verify_construction", broken)
    with pytest.raises(TypeError, match="injected"):
        sweep_characteristics(KIND_SOCLE_DEGREE, 6, [101, 32003],
                              seed=9, trials=1)

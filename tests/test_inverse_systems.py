from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from math import comb

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


def test_monomials_order_and_count() -> None:
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 0) == ((0, 0, 0),)
    for r, d in ((2, 5), (3, 7), (4, 4)):
        listing = monomials(r, d)
        assert len(listing) == comb(r - 1 + d, d)
        assert all(sum(m) == d for m in listing)
        assert list(listing) == sorted(listing, reverse=True)


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
    """The matrix is the oracle's full matrix, one row per (generator,
    operator), generator-major, and its rank is the full matrix's."""
    generators, degree = case
    field = generators[0].field
    num_vars, form_degree = generators[0].num_vars, generators[0].degree
    full = [[contract(op, dict(terms(g))).get(c, 0)
             for c in descending_monomials(num_vars, degree)]
            for g in generators
            for op in descending_monomials(num_vars, form_degree - degree)]
    matrix = contraction_matrix(generators, degree)
    assert matrix.entries.tolist() == full
    expected_rank = (modular_rank(full, field.characteristic)
                     if field.is_modular else fraction_rank(full))
    assert rank(matrix) == expected_rank
    assert matrix.cols == len(monomials(num_vars, degree))


def test_word_prime_overflow_boundary() -> None:
    """At the largest int64-safe prime, every array path equals plain
    Python integer arithmetic on the same forms."""
    p = 3_037_000_493
    assert p <= _NUMPY_SAFE_MODULUS
    assert not any(is_prime(q) for q in range(p + 1, _NUMPY_SAFE_MODULUS + 1))
    field = FieldSpec(p)
    assert field.dtype is np.int64
    top = p - 1
    linears = [[top, top, top], [top, top - 1, 1],
               sample_scalars(field, 3, seed=8)]
    power = 6
    powers = inverse_systems.contraction_power(
        np.array(linears, dtype=np.int64), power, field)
    assert powers.tolist() == [power_coefficients(c, power, p)
                               for c in linears]
    weight_lists = [[top] * 3, [top, 1, top - 1]]
    sums = inverse_systems.linear_combination(
        np.array(weight_lists, dtype=np.int64), powers, field)
    assert sums.tolist() == weighted_sums(weight_lists, powers.tolist(), p)
    generators = [Form(3, power, field, row) for row in sums]
    for degree in range(power + 1):
        matrix = contraction_matrix(generators, degree)
        reference = [
            [contract(op, dict(terms(g))).get(c, 0)
             for c in descending_monomials(3, degree)]
            for g in generators
            for op in descending_monomials(3, power - degree)
        ]
        assert matrix.entries.tolist() == reference
        assert rank(matrix) == modular_rank(reference, p)
    rows = [[top] * 4, [top, 1, top, top - 1], [1, top, top - 1, top]]
    assert rank(DenseMatrix.from_rows(field, rows)) == modular_rank(rows, p) == 3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_witness_arithmetic_matches_python_integers(data) -> None:
    """Over the uint64 range, contraction powers and linear combinations
    equal plain Python-integer arithmetic; residues 0, 1, p - 2 and p - 1
    make products and sums as large as they can be."""
    p = data.draw(st.sampled_from(WIDE_PRIMES))
    field = FieldSpec(p)
    residue = st.one_of(st.sampled_from((0, 1, p - 2, p - 1)),
                        st.integers(0, p - 1))
    count = data.draw(st.integers(1, 4))
    power = data.draw(st.integers(1, 6))
    linears = data.draw(st.lists(st.lists(residue, min_size=3, max_size=3),
                                 min_size=count, max_size=count))
    weights = data.draw(st.lists(
        st.lists(residue, min_size=count, max_size=count),
        min_size=1, max_size=3))
    powers = [power_coefficients(linear, power, p) for linear in linears]
    tables = inverse_systems.contraction_power(
        np.array(linears, dtype=np.uint64), power, field)
    assert tables.tolist() == powers
    sums = inverse_systems.linear_combination(
        np.array(weights, dtype=np.uint64), tables, field)
    assert sums.tolist() == weighted_sums(weights, powers, p)


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
            field.array([p - 1, 2])[None], powers, field).dtype == uint64
        samples = np.array([[p - 1, 1, 0], [2, p - 2, 1]], dtype=np.uint64)
        tables = inverse_systems.contraction_power(samples, 5, field)
        assert tables.dtype == uint64
        assert inverse_systems.linear_combination(
            samples[:, :2], tables, field).dtype == uint64
    ranked = []

    def spy(matrix, cap=None):
        ranked.append(matrix.entries.dtype)
        return rank(matrix, cap)

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
def test_walk_modulo_pinned_monomials_equals_every_degree_rank(data) -> None:
    """With the monomials of the first ``shared`` variables pinned, the walk
    gives the ranks of the oracle's truncation forms plus the generators,
    degree by degree."""
    generators = data.draw(_walk_generators(
        (FieldSpec(2), FieldSpec(3), FieldSpec(101), QQ)))
    num_vars, degree, field = (generators[0].num_vars, generators[0].degree,
                               generators[0].field)
    shared = data.draw(st.integers(1, num_vars))
    ranks, _ = inverse_systems._hilbert_ranks(generators, shared)
    assert ranks == _per_degree_ranks(
        truncation(num_vars, shared, degree, field) + generators)


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
    """Witnesses built as the trials build them, but from any scalars and
    in fields too small for a Schwartz-Zippel bound to reach below 1
    (GF(2) with every scalar 1 among them): no degree's rank exceeds its
    cap."""
    field = FieldSpec(p)
    parity = KIND_PARITIES[kind]
    if parity is None:
        e = max(parameter, 6)
        form = Form.from_coefficients(3, e - 1, field, _witness_scalars(
            field, comb(e + 1, 2), mode, seed))
        forms = truncation(3, 2, e - 1, field) + [form]
        caps = inverse_systems._rank_caps(kind, e)
    else:
        d = min(parameter, 10)
        n_general, n_line = inverse_systems._codim5_counts(d, parity)
        power = inverse_systems._codim5_power(d, parity)
        count = n_general + n_line
        values = _witness_scalars(field, 3 * n_general + 2 * n_line
                                  + 2 * count, mode, seed)
        coords = [values[3 * k:3 * k + 3] for k in range(n_general)] + [
            [0, *values[3 * n_general + 2 * k:3 * n_general + 2 * k + 2]]
            for k in range(n_line)]
        powers = inverse_systems.contraction_power(
            np.array(coords, dtype=field.dtype), power, field)
        weights = np.array(values[len(values) - 2 * count:],
                           dtype=field.dtype).reshape(2, count)
        forms = [Form(3, power, field, row) for row in
                 inverse_systems.linear_combination(weights, powers, field)]
        caps = inverse_systems._rank_caps(kind, d)
    ranks = _per_degree_ranks(forms)
    assert all(r <= c for r, c in zip(ranks, caps)), (ranks, caps)
    assert tuple(rank(contraction_matrix(forms, i), caps[i])
                 for i in range(len(caps))) == ranks


def test_walk_ranks_only_the_band(monkeypatch) -> None:
    """A generic thm-e trial ranks its crossover degree alone (even e) or
    with the one below it (odd e); a codim-5 trial ranks the band from d
    to the first degree where its two generators have no syzygy."""
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
        assert ranked == ([e // 2] if e % 2 == 0 else [e // 2 + 1, e // 2])
        assert [i for i, s in enumerate(report.degree_seconds) if s] == sorted(
            ranked)
    ranked.clear()
    report = verify_construction(KIND_CODIM5_ODD, 10, FieldSpec(1_000_003),
                                 trials=1)
    assert report.verdict == "match"
    assert ranked == [12, 11, 10, 13, 14]


def test_thm_e_ranks_its_form_on_the_columns_outside_the_truncation(
        monkeypatch) -> None:
    """In degree i a thm-e trial ranks only its sampled form's C(e+1-i, 2)
    operator rows, on the C(i+2, 2) - (i+1) columns the truncation does
    not pin."""
    degrees, shapes = [], []
    build = inverse_systems.contraction_matrix

    def record_build(generators, degree):
        degrees.append(degree)
        return build(generators, degree)

    def record_rank(matrix, cap=None):
        shapes.append((matrix.rows, matrix.cols))
        return rank(matrix, cap)

    monkeypatch.setattr(inverse_systems, "contraction_matrix", record_build)
    monkeypatch.setattr(inverse_systems, "rank", record_rank)
    for e in (6, 7, 12, 13):
        for field in (GF, QQ):
            degrees.clear()
            shapes.clear()
            report = verify_construction(KIND_SOCLE_DEGREE, e, field, trials=1)
            assert report.verdict == "match"
            assert degrees
            assert shapes == [(comb(e + 1 - i, 2), comb(i + 2, 2) - (i + 1))
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
    linear = GF.array(sample_scalars(GF, 3, seed=77))
    fifth, cube = (inverse_systems.contraction_power(linear[None], power, GF)
                   for power in (5, 3))
    assert fifth.shape == (1, len(monomials(3, 5)))
    c1, c2, _ = linear.tolist()
    lowered = _contract_form((1, 1, 0), Form(3, 5, GF, fifth[0]))
    expected = Form(3, 3, GF, inverse_systems.linear_combination(
        GF.array([c1 * c2 % 32003])[None], cube, GF)[0])
    assert lowered == expected


@pytest.mark.parametrize("field", [FieldSpec(1_000_003),
                                   FieldSpec(2**61 - 1), QQ], ids=str)
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_codim5_generators_combine_their_powers(field, parity) -> None:
    """Each generator is the linear combination, with its sampled weights,
    of the contraction powers of its own sampled linear forms."""
    d, seed = 10, mix(0, 0)
    n_general, n_line = inverse_systems._codim5_counts(d, parity)
    power = 2 * d if parity == "odd" else 2 * d - 1
    count = n_general + n_line
    samples = sample_scalars(field, 3 * n_general + 2 * n_line + 2 * count,
                             seed)
    coefficients = [samples[3 * k:3 * k + 3] for k in range(n_general)] + [
        [0, *samples[3 * n_general + 2 * k:3 * n_general + 2 * k + 2]]
        for k in range(n_line)]
    powers = [_power(field, c, power) for c in coefficients]
    weights = samples[-2 * count:]
    expected = (_combination(weights[:count], powers),
                _combination(weights[count:], powers))
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
    """Trials that miss a cap state the least (cap_i*k/|S|)**trials over
    the short degrees i, with k the degree of an entry in the samples, as
    (n/d)**trials: exact, and short at any number of trials.
    With every sample 1, thm-e e=6 is short in degrees 2-4 (caps 6, 10,
    8; k = 1), and thm-r d=10 odd in degrees 1-20, the top one of cap 2
    as its two generators coincide (k = 20+1)."""
    monkeypatch.setattr(inverse_systems, "sample_scalars", ones)
    for kind, parameter, field, trials, bound in (
            (KIND_SOCLE_DEGREE, 6, QQ, 5, Fraction(6, 2**21) ** 5),
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
    (KIND_CODIM5_ODD, 10, 32003): "c67dfae1bad7b29b",
    (KIND_CODIM5_ODD, 10, 2**61 - 1): "cdd218a05f5cbbb4",
    (KIND_CODIM5_ODD, 10, 0): "e23c2bf749b54780",
    (KIND_CODIM5_EVEN, 10, 32003): "9a898b4352431b90",
    (KIND_CODIM5_EVEN, 10, 2**61 - 1): "82e99facb9619ded",
    (KIND_CODIM5_EVEN, 10, 0): "51c45aa13f38fdcb",
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
    """The odd d=10 plateau over QQ: entries of about 420 bits and a rank
    below both dimensions, so only the Hadamard bound can stop the primes
    (about 900 of them).  Budget: 60 s."""
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

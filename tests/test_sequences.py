from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from hvectors import (
    HVector,
    Violation,
    binomial_expansion,
    differentiability_violation,
    first_difference,
    first_half,
    is_differentiable,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    is_unimodal,
    macaulay_bound,
    o_sequence_violation,
    si_violation,
    symmetry_violation,
    unimodality_violation,
)

EXAMPLE_SMALL = HVector((1, 10, 14, 20, 14, 10, 1))
EXAMPLE_LARGE = HVector(
    (1, 5, 12, 22, 35, 51, 70, 92, 113, 122, 132,
     122, 113, 92, 70, 51, 35, 22, 12, 5, 1)
)


def test_hvector_validation() -> None:
    with pytest.raises(ValueError):
        HVector(())
    with pytest.raises(ValueError):
        HVector((2, 3))
    with pytest.raises(ValueError):
        HVector((1, 0, 2))
    with pytest.raises(ValueError):
        HVector((1, -3))


def test_hvector_takes_only_integer_entries() -> None:
    """Entries are taken with `operator.index`, so numpy integers pass
    and floats, strings and bools are refused, not coerced."""
    h = HVector((np.int64(1), np.uint8(3), 6))
    assert h.entries == (1, 3, 6)
    assert all(type(v) is int for v in h)
    for bad in ((1, 2.7, "3"), (1, 2.0), (1, "3"), (1, True), (True, 2),
                (1, np.True_), (1, np.float64(3))):
        with pytest.raises(TypeError):
            HVector(bad)


def test_hvector_accessors() -> None:
    h = HVector((1, 3, 6))
    assert h.socle_degree == 2
    assert h.codimension == 3
    assert len(h) == 3
    assert list(h) == [1, 3, 6]
    assert str(h) == "1,3,6"
    with pytest.raises(ValueError):
        HVector((1,)).codimension


def test_binomial_expansion_examples() -> None:
    assert binomial_expansion(6, 2).terms == ((4, 2),)
    assert binomial_expansion(4, 2).terms == ((3, 2), (1, 1))
    for i in (1, 2, 5, 9):
        assert binomial_expansion(1, i).terms == ((i, i),)


def test_binomial_expansion_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        binomial_expansion(0, 2)
    with pytest.raises(ValueError):
        binomial_expansion(5, 0)
    with pytest.raises(ValueError):
        binomial_expansion(-3, 1)


@given(st.integers(min_value=1, max_value=200_000),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_binomial_expansion_reconstructs_and_descends(n: int, i: int) -> None:
    expansion = binomial_expansion(n, i)
    assert expansion.value() == n
    tops = [m for m, _ in expansion.terms]
    bottoms = [k for _, k in expansion.terms]
    assert all(a > b for a, b in zip(tops, tops[1:]))
    assert all(m >= k for m, k in expansion.terms)
    assert bottoms[0] == i and bottoms[-1] >= 1


def test_binomial_expansion_reconstruction_sweep() -> None:
    # Spec range: every n up to 10000 for every index up to 10.
    for i in range(1, 11):
        for n in range(1, 10_001):
            assert binomial_expansion(n, i).value() == n


def test_macaulay_bound_examples() -> None:
    assert macaulay_bound(3, 1) == 6
    assert macaulay_bound(4, 2) == 5
    assert macaulay_bound(9, 9) == 9


def test_macaulay_bound_monotone_in_n() -> None:
    for i in range(1, 7):
        values = [macaulay_bound(n, i) for n in range(1, 1001)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_macaulay_bound_at_least_n() -> None:
    for i in range(1, 6):
        for n in range(1, 300):
            assert macaulay_bound(n, i) >= n


def test_o_sequence_examples() -> None:
    assert is_o_sequence(HVector((1, 3, 6, 10, 8, 7)))
    assert not is_o_sequence(HVector((1, 2, 4)))
    assert o_sequence_violation(HVector((1, 2, 4))) == Violation("growth", 1)
    assert is_o_sequence(HVector((1,)))


def test_first_difference_examples() -> None:
    assert first_difference((1, 3, 6, 10)) == (1, 2, 3, 4)
    assert first_difference(
        (1, 5, 12, 22, 35, 51, 70, 92, 113, 122, 132)
    ) == (1, 4, 7, 10, 13, 16, 19, 22, 21, 9, 10)
    assert first_difference((1, 1, 1)) == (1, 0, 0)
    with pytest.raises(ValueError):
        first_difference(())


def test_differentiable_examples() -> None:
    assert is_differentiable(HVector((1, 3, 6, 10)))
    assert not is_differentiable(HVector((1, 10, 14, 20)))
    assert differentiability_violation(
        HVector((1, 10, 14, 20))
    ) == Violation("difference-growth", 2)
    assert is_differentiable(HVector((1, 3, 3)))


def test_differentiable_rejects_internal_zero() -> None:
    # difference (1,1,0,1) has a zero before a positive entry
    h = HVector((1, 2, 2, 3))
    assert differentiability_violation(h) == Violation("internal-zero", 2)


def test_differentiable_rejects_negative() -> None:
    h = HVector((1, 5, 3))
    assert differentiability_violation(h) == Violation("negative-difference", 2)


def test_symmetric_examples() -> None:
    assert is_symmetric(EXAMPLE_SMALL)
    assert not is_symmetric(HVector((1, 3, 6, 10, 8, 7)))
    assert symmetry_violation(HVector((1, 3, 6, 10, 8, 7))) == Violation("asymmetry", 0)
    assert is_symmetric(HVector((1,)))


def test_unimodal_examples() -> None:
    assert is_unimodal(EXAMPLE_LARGE)
    assert not is_unimodal(HVector((1, 13, 12, 13, 1)))
    assert unimodality_violation(
        HVector((1, 13, 12, 13, 1))
    ) == Violation("rise-after-fall", 3)
    assert is_unimodal(HVector((1, 2, 2, 1)))


def test_si_examples() -> None:
    assert is_si_sequence(HVector((1, 3, 3, 1)))
    assert not is_si_sequence(EXAMPLE_SMALL)
    assert si_violation(EXAMPLE_SMALL) == Violation("difference-growth", 2)
    assert not is_si_sequence(EXAMPLE_LARGE)
    assert si_violation(EXAMPLE_LARGE) == Violation("difference-growth", 9)


def test_length_one_is_symmetric_unimodal_si() -> None:
    one = HVector((1,))
    assert is_symmetric(one)
    assert is_unimodal(one)
    assert is_si_sequence(one)


def test_first_half() -> None:
    assert first_half(EXAMPLE_SMALL).entries == (1, 10, 14, 20)
    assert first_half(HVector((1, 3, 3, 1))).entries == (1, 3)
    assert first_half(HVector((1,))).entries == (1,)


def _random_si_vector(rng: random.Random) -> HVector:
    """Symmetrize a randomly grown differentiable first half."""
    half_len = rng.randint(0, 8)
    diff = [1]
    for k in range(1, half_len + 1):
        upper = macaulay_bound(diff[-1], k - 1) if k > 1 else rng.randint(1, 9)
        diff.append(rng.randint(1, max(1, upper)))
    half = [1]
    for v in diff[1:]:
        half.append(half[-1] + v)
    odd = rng.random() < 0.5
    mirror = half[:-1] if not odd else half[:]
    return HVector(tuple(half + mirror[::-1]))


def test_constructed_si_vectors_are_si_and_unimodal() -> None:
    rng = random.Random(2024)
    for _ in range(300):
        h = _random_si_vector(rng)
        assert is_si_sequence(h), h
        assert is_unimodal(h), h


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=0, max_size=12))
@settings(max_examples=400)
def test_si_implies_unimodal(tail: list[int]) -> None:
    h = HVector((1, *tail))
    if is_si_sequence(h):
        assert is_unimodal(h)


def test_truncated_polynomial_ring_vectors_admissible() -> None:
    for r in range(1, 6):
        for s in range(1, 9):
            entries = tuple(comb(r - 1 + i, i) for i in range(s + 1))
            h = HVector(entries)
            assert is_o_sequence(h), (r, s)
            assert is_differentiable(h), (r, s)

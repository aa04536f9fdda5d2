from __future__ import annotations

import random

import pytest

from hvectors import (
    HVector,
    Violation,
    codim5_family,
    codim5_level,
    compress_level,
    first_difference,
    first_half,
    is_differentiable,
    is_o_sequence,
    is_si_sequence,
    is_symmetric,
    is_unimodal,
    lift_codimension,
    si_violation,
    socle_degree_family,
    trivial_extension,
)

LEVEL_E6 = (1, 3, 6, 10, 8, 7)
GORENSTEIN_E6 = (1, 10, 14, 20, 14, 10, 1)
LEVEL_D10_EVEN = (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 67, 68,
                  56, 42, 30, 20, 12, 6, 2)
GORENSTEIN_D10_EVEN = (1, 5, 12, 22, 35, 51, 70, 92, 113, 122, 132,
                       122, 113, 92, 70, 51, 35, 22, 12, 5, 1)
LEVEL_D10_ODD = (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 67, 68, 69,
                 56, 42, 30, 20, 12, 6, 2)
GORENSTEIN_D10_ODD = (1, 5, 12, 22, 35, 51, 70, 92, 114, 123, 133, 133,
                      123, 114, 92, 70, 51, 35, 22, 12, 5, 1)


def test_trivial_extension_examples() -> None:
    assert trivial_extension(HVector((1, 2))).entries == (1, 4, 1)
    assert trivial_extension(HVector(LEVEL_E6)).entries == GORENSTEIN_E6
    assert trivial_extension(HVector(LEVEL_D10_EVEN)).entries == GORENSTEIN_D10_EVEN


def test_trivial_extension_rejects_constant() -> None:
    with pytest.raises(ValueError):
        trivial_extension(HVector((1,)))


def test_trivial_extension_always_symmetric() -> None:
    rng = random.Random(11)
    for _ in range(200):
        entries = (1,) + tuple(rng.randint(1, 50)
                               for _ in range(rng.randint(1, 10)))
        extended = trivial_extension(HVector(entries))
        assert is_symmetric(extended)
        assert extended.socle_degree == len(entries)


def test_compress_level_examples() -> None:
    assert compress_level(None, 3, 4).entries == (1, 3, 6, 3, 1)
    assert compress_level(HVector((1, 2, 3, 4, 5, 6)), 3, 5).entries == LEVEL_E6
    assert compress_level(None, 1, 3).entries == (1, 1, 1, 1)


def test_compress_level_validation() -> None:
    with pytest.raises(ValueError):
        compress_level(None, 0, 3)
    with pytest.raises(ValueError):
        compress_level(None, 3, 0)
    with pytest.raises(ValueError):
        compress_level(HVector((1, 1, 1, 1)), 3, 2)


def test_lift_codimension_examples() -> None:
    assert lift_codimension(
        HVector(GORENSTEIN_E6), 2
    ).entries == (1, 12, 16, 22, 16, 12, 1)
    base = HVector((1, 3, 3, 1))
    assert lift_codimension(base, 0) == base
    assert lift_codimension(base, 1).entries == (1, 4, 4, 1)


def test_lift_codimension_validation() -> None:
    with pytest.raises(ValueError):
        lift_codimension(HVector((1, 3, 6, 10, 8, 7)), 1)
    with pytest.raises(ValueError):
        lift_codimension(HVector((1, 1)), 1)
    with pytest.raises(ValueError):
        lift_codimension(HVector((1, 3, 3, 1)), -1)


def test_socle_degree_family_frozen_values() -> None:
    result = socle_degree_family(6)
    assert result.level.entries == LEVEL_E6
    assert result.gorenstein.entries == GORENSTEIN_E6
    assert result.violation_step == (2, 3)
    result7 = socle_degree_family(7)
    assert result7.gorenstein.entries == (1, 11, 15, 21, 21, 15, 11, 1)
    assert result7.gorenstein.codimension == 11


def test_socle_degree_family_nonexistent_below_six() -> None:
    for e in (1, 2, 3, 4, 5):
        with pytest.raises(ValueError, match="SI-sequence"):
            socle_degree_family(e)
    with pytest.raises(ValueError, match="must be positive"):
        socle_degree_family(0)


def test_codim5_level_frozen_values() -> None:
    assert codim5_level(10, "even").entries == LEVEL_D10_EVEN
    assert codim5_level(10, "odd").entries == LEVEL_D10_ODD
    # min cap is active at index 13 of the even table: 56 = 2*C(8,2)
    assert codim5_level(10, "even")[13] == 56


def test_codim5_level_validation() -> None:
    with pytest.raises(ValueError):
        codim5_level(9, "even")
    with pytest.raises(ValueError):
        codim5_level(10, "both")


def test_codim5_family_frozen_values() -> None:
    even = codim5_family(10, "even")
    odd = codim5_family(10, "odd")
    assert even.gorenstein.entries == GORENSTEIN_D10_EVEN
    assert odd.gorenstein.entries == GORENSTEIN_D10_ODD
    assert even.violation_step == (9, 10)


def test_codim5_family_codimension_is_five() -> None:
    for d in (10, 12, 16):
        for parity in ("odd", "even"):
            assert codim5_family(d, parity).gorenstein.codimension == 5


def test_socle_degree_family_invariants() -> None:
    for e in range(6, 15):
        result = socle_degree_family(e)
        g = result.gorenstein
        assert g.socle_degree == e
        assert g.codimension == e + 4
        assert is_symmetric(g)
        assert is_unimodal(g)
        assert not is_si_sequence(g)
        assert si_violation(g) == Violation("difference-growth", 2)
        diff = first_difference(first_half(g).entries)
        assert diff[2] == 4 and diff[3] == 6
        assert is_o_sequence(result.level)


def test_codim5_family_invariants() -> None:
    for d in range(10, 17):
        for parity, socle in (("odd", 2 * d + 1), ("even", 2 * d)):
            result = codim5_family(d, parity)
            g = result.gorenstein
            assert g.socle_degree == socle
            assert g.codimension == 5
            assert is_symmetric(g)
            assert is_unimodal(g)
            assert not is_si_sequence(g)
            diff = first_difference(g.entries)
            assert diff[d - 1] == d - 1
            assert diff[d] == d
            assert is_o_sequence(result.level)


def test_levels_feed_trivial_extension() -> None:
    for result in (socle_degree_family(8), codim5_family(11, "odd")):
        assert trivial_extension(result.level) == result.gorenstein


def test_lift_preserves_si_status_on_families() -> None:
    samples = [socle_degree_family(e).gorenstein for e in (6, 9, 12)]
    samples += [codim5_family(d, p).gorenstein
                for d in (10, 13) for p in ("odd", "even")]
    for g in samples:
        for amount in (1, 3):
            lifted = lift_codimension(g, amount)
            assert is_si_sequence(lifted) == is_si_sequence(g) is False
            assert is_unimodal(lifted) and is_symmetric(lifted)
    si_base = HVector((1, 3, 3, 1))
    assert is_si_sequence(lift_codimension(si_base, 2))


def test_first_half_of_families_is_differentiable_up_to_violation() -> None:
    # sanity: the violation reported really is the first one
    g = socle_degree_family(10).gorenstein
    diff = first_difference(first_half(g).entries)
    prefix = HVector(diff[:3])
    assert is_o_sequence(prefix)
    assert not is_differentiable(first_half(g))

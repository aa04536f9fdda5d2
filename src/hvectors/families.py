"""Constructions of unimodal, non-SI Gorenstein h-vectors.

Two families are produced: one parameterized by the socle degree e >= 6
(codimension e+4), and an infinite codimension-5 family parameterized by a
half-degree d >= 10 with odd (socle degree 2d+1) and even (socle degree 2d)
variants.  Both are assembled from three standard numeric moves: the
trivial-extension sum H_i = h_i + h_{e-i}, the compressed-level minimum
formula, and adding a constant to all interior entries.

The construction kinds live here, with :func:`family`, their one dispatch.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .sequences import HVector, is_symmetric

KIND_SOCLE_DEGREE = "thm-e"
KIND_CODIM5_ODD = "thm-r-odd"
KIND_CODIM5_EVEN = "thm-r-even"

MIN_SOCLE_DEGREE = 6
MIN_HALF_DEGREE = 10

_PARITY_KINDS = {"odd": KIND_CODIM5_ODD, "even": KIND_CODIM5_EVEN}
# Every kind, mapped to the parity of its codimension-5 variant (None: thm-e).
KIND_PARITIES = {KIND_SOCLE_DEGREE: None,
                 **{kind: parity for parity, kind in _PARITY_KINDS.items()}}


@dataclass(frozen=True)
class FamilyResult:
    """A constructed level h-vector together with its Gorenstein extension.

    ``violation_step`` is the step (i, i+1) of the first difference of the
    relevant first half where Macaulay's bound is predicted to fail, which
    is what makes the Gorenstein vector non-SI.
    """

    kind: str
    parameter: int
    level: HVector
    gorenstein: HVector
    violation_step: tuple[int, int]


def trivial_extension(level: HVector) -> HVector:
    """Gorenstein h-vector (1, H_1, ..., H_{e-1}, 1) with H_i = h_i + h_{e-i}.

    The input is read as the h-vector of a level algebra of socle degree
    e-1; the output has socle degree e and is always symmetric.
    """
    e = level.socle_degree + 1
    if e < 2:
        raise ValueError("trivial extension needs socle degree >= 1")
    interior = [level[i] + level[e - i] for i in range(1, e)]
    return HVector((1, *interior, 1))


def compress_level(
    hprime: Optional[HVector], num_vars: int, degree: int
) -> HVector:
    """Entrywise minimum h_i = min(C(r-1+i,i), h'_i + C(r-1+e-i,e-i)).

    This is the h-vector obtained by adjoining one general degree-e form to
    an inverse-system module with h-vector ``hprime`` in r variables;
    ``hprime`` may be None (the zero module) and entries past its length
    read as zero.
    """
    if num_vars < 1:
        raise ValueError(f"num_vars must be positive, got {num_vars}")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    prior = hprime.entries if hprime is not None else ()
    if len(prior) > degree + 1:
        raise ValueError(
            f"hprime has socle degree {len(prior) - 1} > form degree {degree}"
        )
    r, e = num_vars, degree
    entries = tuple(
        min(
            comb(r - 1 + i, i),
            (prior[i] if i < len(prior) else 0) + comb(r - 1 + e - i, e - i),
        )
        for i in range(e + 1)
    )
    return HVector(entries)


def lift_codimension(h: HVector, amount: int) -> HVector:
    """Add ``amount`` to every interior entry of a symmetric h-vector with
    1 at both ends; the codimension rises by the same amount."""
    if amount < 0:
        raise ValueError(f"lift amount must be nonnegative, got {amount}")
    if h.socle_degree < 2:
        raise ValueError("lift needs socle degree >= 2")
    if not is_symmetric(h):
        raise ValueError("lift needs a symmetric h-vector")
    interior = [v + amount for v in h.entries[1:-1]]
    return HVector((1, *interior, 1))


def socle_degree_family(e: int) -> FamilyResult:
    """Unimodal non-SI Gorenstein h-vector of socle degree e, codimension e+4.

    The level part compresses the 2-variable truncation (1, 2, ..., e) with
    one general form of degree e-1 in 3 variables; the Gorenstein vector is
    its trivial extension.  For e < 6 no unimodal non-SI Gorenstein
    h-vector exists at all, and a ValueError says so.
    """
    if e < 1:
        raise ValueError(f"socle degree must be positive, got {e}")
    if e < MIN_SOCLE_DEGREE:
        raise ValueError(
            f"every unimodal Gorenstein h-vector of socle degree {e} < 6 "
            "is an SI-sequence")
    truncation = HVector(tuple(range(1, e + 1)))
    level = compress_level(truncation, 3, e - 1)
    return FamilyResult(
        kind=KIND_SOCLE_DEGREE,
        parameter=e,
        level=level,
        gorenstein=trivial_extension(level),
        violation_step=(2, 3),
    )


def codim5_level(d: int, parity: str) -> HVector:
    """Level h-vector behind the codimension-5 family.

    Odd variant: socle degree 2d, plateau C(d+2,2)+3, tail capped by
    2*C(j+2,2); even variant: socle degree 2d-1, plateau C(d+2,2)+2.  The
    plateau caps are consistent only for d >= 10.
    """
    if parity not in _PARITY_KINDS:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if d < MIN_HALF_DEGREE:
        raise ValueError(f"d must be >= {MIN_HALF_DEGREE}, got {d}")
    top = comb(d + 2, 2)
    entries = [comb(i + 2, 2) for i in range(d + 1)]
    if parity == "odd":
        entries += [top + 1, top + 2, top + 3]
        entries += [
            min(top + 3, 2 * comb(2 * d - i + 2, 2))
            for i in range(d + 4, 2 * d + 1)
        ]
    else:
        entries += [top + 1, top + 2]
        entries += [
            min(top + 2, 2 * comb(2 * d + 1 - i, 2))
            for i in range(d + 3, 2 * d)
        ]
    return HVector(tuple(entries))


def codim5_family(d: int, parity: str) -> FamilyResult:
    """Unimodal non-SI Gorenstein h-vector of codimension 5.

    Trivial extension of :func:`codim5_level`; its first difference equals
    d-1 in degree d-1 and d in degree d, violating Macaulay's bound there.
    """
    level = codim5_level(d, parity)
    return FamilyResult(
        kind=_PARITY_KINDS[parity],
        parameter=d,
        level=level,
        gorenstein=trivial_extension(level),
        violation_step=(d - 1, d),
    )


def family(kind: str, parameter: int) -> FamilyResult:
    """Member of ``kind`` at ``parameter``; ValueError saying why if none."""
    if kind not in KIND_PARITIES:
        raise ValueError(f"unknown kind {kind!r}")
    if KIND_PARITIES[kind] is not None:
        return codim5_family(parameter, KIND_PARITIES[kind])
    return socle_degree_family(parameter)

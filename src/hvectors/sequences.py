"""Integer-sequence calculus for h-vectors of graded artinian algebras.

Everything here is pure arbitrary-precision integer arithmetic: Macaulay
binomial expansions, the growth bound n^<i>, and the classification
predicates (O-sequence, symmetric, unimodal, differentiable, SI).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class HVector:
    """A finite sequence (1, h_1, ..., h_e) of strictly positive integers.

    Index 0 is always 1; the socle degree e is the index of the last entry
    and the codimension is h_1.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        bad = [v for v in self.entries if isinstance(v, (bool, np.bool_))]
        if bad:
            raise TypeError(f"h-vector entries must be ints, got {bad[0]!r}")
        entries = tuple(operator.index(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("h-vector must have at least one entry")
        if entries[0] != 1:
            raise ValueError(f"h-vector must start with 1, got {entries[0]}")
        if any(v <= 0 for v in entries):
            raise ValueError(f"h-vector entries must be positive: {entries}")

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    @property
    def codimension(self) -> int:
        if len(self.entries) < 2:
            raise ValueError("codimension is undefined for the h-vector (1)")
        return self.entries[1]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.entries)


@dataclass(frozen=True)
class BinomialExpansion:
    """The unique expansion n = C(n_i,i) + C(n_{i-1},i-1) + ... + C(n_j,j).

    Terms are (top, bottom) pairs with bottoms descending from ``index`` to
    some j >= 1 and tops strictly decreasing, each top >= its bottom.
    """

    index: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("expansion index must be positive")
        if not self.terms:
            raise ValueError("expansion must have at least one term")
        bottoms = [k for _, k in self.terms]
        tops = [m for m, _ in self.terms]
        if bottoms[0] != self.index:
            raise ValueError("first term must use the expansion index")
        if any(b1 - b2 != 1 for b1, b2 in zip(bottoms, bottoms[1:])):
            raise ValueError("term bottoms must descend by one")
        if bottoms[-1] < 1:
            raise ValueError("term bottoms must stay >= 1")
        if any(t1 <= t2 for t1, t2 in zip(tops, tops[1:])):
            raise ValueError("term tops must strictly descend")
        if any(m < k for m, k in self.terms):
            raise ValueError("each top must be >= its bottom")

    def value(self) -> int:
        """Reconstruct the expanded integer."""
        return sum(comb(m, k) for m, k in self.terms)

    def shifted_value(self) -> int:
        """Sum of C(top+1, bottom+1) over the terms: the Macaulay bound."""
        return sum(comb(m + 1, k + 1) for m, k in self.terms)


class Violation(NamedTuple):
    """Where and how a classification predicate fails.

    kind is one of: "growth" (O-sequence step index -> index+1 exceeds the
    Macaulay bound), "asymmetry" (entry index differs from its mirror),
    "rise-after-fall" (strict increase at index after a strict decrease),
    "negative-difference", "internal-zero", "difference-growth" (the same
    three, located inside the first difference).
    """

    kind: str
    index: int


def _largest_top(remainder: int, bottom: int) -> int:
    """Largest m >= bottom with C(m, bottom) <= remainder (remainder >= 1)."""
    if bottom == 1:
        return remainder
    lo = bottom
    hi = bottom + 1
    while comb(hi, bottom) <= remainder:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, bottom) <= remainder:
            lo = mid
        else:
            hi = mid
    return lo


def binomial_expansion(n: int, i: int) -> BinomialExpansion:
    """Greedy i-binomial expansion of n; exists and is unique for n, i >= 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if i < 1:
        raise ValueError(f"i must be positive, got {i}")
    terms = []
    remainder = n
    bottom = i
    while remainder > 0:
        top = _largest_top(remainder, bottom)
        terms.append((top, bottom))
        remainder -= comb(top, bottom)
        bottom -= 1
    return BinomialExpansion(i, tuple(terms))


def macaulay_bound(n: int, i: int) -> int:
    """Macaulay's n^<i>: the largest value a degree-(i+1) component may take
    when the degree-i component of a standard graded algebra equals n."""
    return binomial_expansion(n, i).shifted_value()


def first_difference(values: Sequence[int] | Iterable[int]) -> tuple[int, ...]:
    """(v_0, v_1 - v_0, v_2 - v_1, ...); same length as the input."""
    seq = tuple(values)
    if not seq:
        raise ValueError("cannot difference an empty sequence")
    return (seq[0],) + tuple(b - a for a, b in zip(seq, seq[1:]))


def o_sequence_violation(h: HVector) -> Optional[Violation]:
    """First step i -> i+1 with h_{i+1} > macaulay_bound(h_i, i), if any.

    The step 0 -> 1 is unconstrained beyond positivity.
    """
    for i in range(1, h.socle_degree):
        if h[i + 1] > macaulay_bound(h[i], i):
            return Violation("growth", i)
    return None


def is_o_sequence(h: HVector) -> bool:
    return o_sequence_violation(h) is None


def symmetry_violation(h: HVector) -> Optional[Violation]:
    e = h.socle_degree
    for i in range(e // 2 + 1):
        if h[i] != h[e - i]:
            return Violation("asymmetry", i)
    return None


def is_symmetric(h: HVector) -> bool:
    return symmetry_violation(h) is None


def unimodality_violation(h: HVector) -> Optional[Violation]:
    """First strict increase that follows a strict decrease, if any."""
    seen_decrease = False
    for k in range(1, len(h)):
        if h[k] > h[k - 1] and seen_decrease:
            return Violation("rise-after-fall", k)
        if h[k] < h[k - 1]:
            seen_decrease = True
    return None


def is_unimodal(h: HVector) -> bool:
    return unimodality_violation(h) is None


def differentiability_violation(h: HVector) -> Optional[Violation]:
    """Why the first difference of h fails to be an admissible h-vector.

    The difference must be nonnegative, any zeros must form a trailing
    block, and the positive prefix must satisfy Macaulay's growth bound.
    """
    diff = first_difference(h.entries)
    for j, value in enumerate(diff):
        if value < 0:
            return Violation("negative-difference", j)
    if 0 in diff:
        cut = diff.index(0)
        if any(v != 0 for v in diff[cut:]):
            return Violation("internal-zero", cut)
        diff = diff[:cut]
    growth = o_sequence_violation(HVector(diff))
    if growth is not None:
        return Violation("difference-growth", growth.index)
    return None


def is_differentiable(h: HVector) -> bool:
    return differentiability_violation(h) is None


def first_half(h: HVector) -> HVector:
    """The prefix (1, h_1, ..., h_{floor(e/2)})."""
    return HVector(h.entries[: h.socle_degree // 2 + 1])


def si_violation(h: HVector) -> Optional[Violation]:
    """Why h fails the Stanley-Iarrobino property, if it does.

    SI means symmetric with a differentiable first half; the returned
    violation is either an asymmetry or a defect of the first-half
    difference.
    """
    asym = symmetry_violation(h)
    if asym is not None:
        return asym
    return differentiability_violation(first_half(h))


def is_si_sequence(h: HVector) -> bool:
    return si_violation(h) is None

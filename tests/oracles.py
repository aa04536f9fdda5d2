"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: monomial
enumeration is reimplemented here, contraction acts term by term on
``{monomial: coefficient}`` dicts instead of gathering from coefficient
arrays, and ranks are computed by plain Gaussian elimination on Python
lists, over the rationals or modulo p, instead of the library's
multi-modular numpy elimination.  ``WIDE_PRIMES`` are primes of the
uint64 range of the library's arrays, its first and last among them.
``truncation`` builds the monomial module the library only pins, as one
library form per monomial.
``ones`` replaces the sampler for witnesses that miss every cap.
``terms``, ``power_coefficients`` and ``weighted_sums`` read a form and
build witnesses on Python integers, one coefficient at a time.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterator

from hvectors import FieldSpec, Form

# The uint64 range of `FieldSpec.dtype`: its first prime, two inside, and
# its last prime, the largest characteristic `FieldSpec` accepts.
WIDE_PRIMES = (3_037_000_507, 2**61 - 1, 2**62 - 57,
               9_223_372_036_854_775_783)


@lru_cache(maxsize=None)
def descending_monomials(num_vars: int,
                         degree: int) -> tuple[tuple[int, ...], ...]:
    """Every monomial of the degree, in descending lex order.  Cached, as
    `lex_segment_growth` needs the same lists for every n."""
    if num_vars == 1:
        return ((degree,),)
    return tuple(
        (head, *tail) for head in range(degree, -1, -1)
        for tail in descending_monomials(num_vars - 1, degree - head))


def truncation(num_vars: int, used_vars: int, degree: int,
               field: FieldSpec) -> list[Form]:
    """Every monomial of the degree in the first ``used_vars`` variables,
    as a form in ``num_vars`` variables: the generators of the polynomial
    ring in those variables truncated after the degree."""
    pad = (0,) * (num_vars - used_vars)
    return [Form.from_terms(num_vars, degree, field, {(*mono, *pad): 1})
            for mono in descending_monomials(used_vars, degree)]


def terms(form: Form) -> list[tuple[tuple[int, ...], object]]:
    """A form's nonzero (monomial, coefficient) pairs, in descending lex
    order."""
    order = descending_monomials(form.num_vars, form.degree)
    return [(m, c) for m, c in zip(order, form.coeffs.tolist()) if c != 0]


def power_coefficients(linear: list, power: int, p: int) -> list:
    """Coefficients of the contraction power of a linear form: c^a for
    every monomial y^a of the degree, with no multinomial factor, in
    descending lex order; modulo p, or exact for p = 0."""
    out = [prod(pow(c, a, p or None) for c, a in zip(linear, mono))
           for mono in descending_monomials(len(linear), power)]
    return [v % p for v in out] if p else out


def weighted_sums(weights: list[list], rows: list[list], p: int) -> list:
    """One weighted sum of the rows per list of weights, term by term;
    modulo p, or exact for p = 0."""
    out = [[sum(w * row[j] for w, row in zip(ws, rows))
            for j in range(len(rows[0]))] for ws in weights]
    return [[v % p for v in row] for row in out] if p else out


def contract(operator: tuple[int, ...], terms: dict) -> dict:
    """Contraction of a form, given as ``{monomial: coefficient}``, by a
    monomial operator: each exponent drops by the operator's, and terms
    that would go negative are killed."""
    for mono in terms:
        if len(mono) != len(operator):
            raise ValueError(f"operator {operator} does not fit {mono}")
        if min(operator) < 0 or sum(operator) > sum(mono):
            raise ValueError(f"operator {operator} cannot act on {mono}")
    out = {}
    for mono, value in terms.items():
        shifted = tuple(a - b for a, b in zip(mono, operator))
        if min(shifted) >= 0:
            out[shifted] = value
    return out


def lex_segment_growth(n: int, i: int) -> int:
    """Maximal growth of an n-dimensional degree-i component, by brute force.

    Take the n lex-smallest degree-i monomials in the fewest variables that
    hold n of them, and count the degree-(i+1) monomials all of whose
    degree-i divisors belong to that segment.
    """
    num_vars = 1
    while comb(num_vars - 1 + i, i) < n:
        num_vars += 1
    ordered = descending_monomials(num_vars, i)
    standard = set(ordered[len(ordered) - n:])
    count = 0
    for mono in descending_monomials(num_vars, i + 1):
        good = True
        for var, exponent in enumerate(mono):
            if exponent:
                divisor = list(mono)
                divisor[var] -= 1
                if tuple(divisor) not in standard:
                    good = False
                    break
        if good:
            count += 1
    return count


def fraction_rank(rows) -> int:
    """Rank by ordinary Gaussian elimination over the rationals."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    if not matrix:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((k for k in range(r, n_rows) if matrix[k][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = Fraction(1) / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for k in range(r + 1, n_rows):
            f = matrix[k][c]
            if f:
                matrix[k] = [v - f * w for v, w in zip(matrix[k], matrix[r])]
        r += 1
    return r


def modular_rank(rows, p: int) -> int:
    """Rank by ordinary Gaussian elimination over GF(p)."""
    matrix = [[v % p for v in row] for row in rows]
    if not matrix:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((k for k in range(r, n_rows) if matrix[k][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = pow(matrix[r][c], -1, p)
        matrix[r] = [v * inv % p for v in matrix[r]]
        for k in range(r + 1, n_rows):
            f = matrix[k][c]
            if f:
                matrix[k] = [(v - f * w) % p for v, w in zip(matrix[k], matrix[r])]
        r += 1
    return r


def splitmix_stream(seed: int) -> Iterator[int]:
    """The splitmix64 words of ``seed``, one state step at a time: add the
    golden gamma to the state, output its mix."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        yield z ^ (z >> 31)


def splitmix_scalars(p: int, count: int, seed: int) -> list[int]:
    """The sampling stream one splitmix64 word at a time: over GF(p)
    (p > 0) residues 0..p-1 by rejection of the words at or above the
    largest multiple of p up to 2**64; over the rationals (p = 0) signed
    integers of magnitude 1..2**20."""
    stream = splitmix_stream(seed)
    out = []
    while len(out) < count:
        draw = next(stream)
        if p == 0:
            sign = -1 if draw >> 63 else 1
            out.append(sign * ((draw & ((1 << 20) - 1)) + 1))
        elif draw < 2**64 - 2**64 % p:
            out.append(draw % p)
    return out


def ones(field: FieldSpec, count: int, seed: int) -> list[int]:
    """A stand-in for `sample_scalars` that samples 1 every time, so that
    no trial reaches its caps in any field: the thm-e form is the all-ones
    form (for e = 6 short in degrees 2 to 4), and every codimension-5 power
    is of (1, 1, 1) or (0, 1, 1) (short from degree 1 on)."""
    return [1] * count

"""Exact scalar arithmetic, seeded sampling, and matrix rank.

Scalars are arbitrary-precision rationals (characteristic 0) or residues
modulo a prime p, held in numpy arrays: int64 over word primes, objects
otherwise.  Rank is computed by fraction-free (Bareiss) elimination over the
rationals and by modular Gaussian elimination over GF(p); no floating point
is used anywhere.  Random sampling is driven by splitmix64, a fixed,
portable 64-bit generator, so every result is reproducible from its seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
RATIONAL_HEIGHT_BOUND = 1 << 20

_GOLDEN = 0x9E3779B97F4A7C15
# Largest modulus whose squared residues still fit in int64.
_NUMPY_SAFE_MODULUS = 3_037_000_499

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mix64(z: int) -> int:
    """splitmix64 output function."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream: state += golden gamma, output = mix(state)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _mix64(self.state)


def mix(seed: int, index: int) -> int:
    """Derived stream seed for parallel trial ``index``; fixed so that
    serial and concurrent execution sample identically."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return _mix64((seed + (index + 1) * _GOLDEN) & MASK64)


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (characteristic 0) or the prime field GF(p)."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c < 0 or (c != 0 and not is_prime(c)):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")

    @property
    def is_modular(self) -> bool:
        return self.characteristic != 0

    def zero(self) -> Scalar:
        return 0 if self.is_modular else Fraction(0)

    def one(self) -> Scalar:
        return 1 % self.characteristic if self.is_modular else Fraction(1)

    def normalize(self, value) -> Scalar:
        p = self.characteristic
        if p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p

    @property
    def dtype(self):
        """int64 where a residue plus a product of two still fits, else object."""
        p = self.characteristic
        return np.int64 if 0 < p <= _NUMPY_SAFE_MODULUS else object

    def array(self, values: Sequence) -> np.ndarray:
        """Normalized 1-D array of the given values."""
        return np.array([self.normalize(v) for v in values], dtype=self.dtype)

    def zeros(self, length: int) -> np.ndarray:
        return np.full(length, self.zero(), dtype=self.dtype)

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Residues of an array of integers (identity over the rationals)."""
        return values % self.characteristic if self.is_modular else values

    def invert(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("cannot invert zero")
        if self.is_modular:
            return pow(a, -1, self.characteristic)
        return Fraction(1) / a

    def __str__(self) -> str:
        return f"GF({self.characteristic})" if self.is_modular else "QQ"


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major matrix of scalars over a single field, as a 2-D array of the
    field's dtype.  Entries are assumed already reduced (residues in [0, p)
    over GF(p)); use :meth:`from_rows` to normalize arbitrary input.
    """

    field: FieldSpec
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=self.field.dtype)
        if entries.shape == (0,):
            entries = entries.reshape(0, 0)
        if entries.ndim != 2:
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseMatrix) and self.field == other.field \
            and np.array_equal(self.entries, other.entries)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "DenseMatrix":
        return cls(field, [[field.normalize(v) for v in row] for row in rows])

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def rank(matrix: DenseMatrix) -> int:
    """Rank of the matrix over its field; exact and deterministic."""
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    p = matrix.field.characteristic
    if p == 0:
        return _rank_bareiss(_integer_rows(matrix.entries.tolist()))
    if p <= _NUMPY_SAFE_MODULUS:
        return _rank_mod_p_numpy(matrix.entries.copy(), p)
    return _rank_mod_p(matrix.entries.tolist(), p)


def _integer_rows(entries) -> list[list[int]]:
    """Clear denominators row by row (rank is unchanged)."""
    rows = []
    for row in entries:
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return rows


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination over the integers.

    The one-step Bareiss update keeps every intermediate entry equal to a
    minor of the input, so all divisions are exact and coefficient growth
    stays polynomial.
    """
    m, n = len(rows), len(rows[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        lead = rows[r]
        for i in range(r + 1, m):
            target = rows[i]
            factor = target[c]
            for j in range(c + 1, n):
                target[j] = (target[j] * pivot - factor * lead[j]) // prev
            target[c] = 0
        prev = pivot
        r += 1
    return r


def _rank_mod_p_numpy(a: np.ndarray, p: int) -> int:
    """In-place elimination; columns left of a pivot are zero below it."""
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        support = np.nonzero(a[r:, c])[0]
        if support.size == 0:
            continue
        pivot_row = r + int(support[0])
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        lead = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1 :, c:]
        hit = np.nonzero(below[:, 0])[0]
        if hit.size:
            below[hit] = (below[hit] - np.outer(below[hit, 0], lead)) % p
        r += 1
    return r


def _rank_mod_p(entries, p: int) -> int:
    """Plain-integer modular elimination (fallback for huge primes)."""
    rows = [[v % p for v in row] for row in entries]
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        lead = rows[r]
        for i in range(r + 1, m):
            factor = rows[i][c]
            if factor:
                rows[i] = [
                    (v - factor * w) % p for v, w in zip(rows[i], lead)
                ]
        r += 1
    return r


def sample_scalars(field: FieldSpec, count: int, seed: int) -> list[Scalar]:
    """Deterministic stream of ``count`` scalars from ``seed``.

    Over GF(p): uniform nonzero residues (rejection sampling, no modulo
    bias).  Over the rationals: uniform nonzero integers of magnitude at
    most 2**20, so downstream rank computations stay tractable.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = SplitMix64(seed)
    out: list[Scalar] = []
    if field.is_modular:
        span = field.characteristic - 1
        limit = (1 << 64) - ((1 << 64) % span)
        while len(out) < count:
            draw = rng.next_u64()
            if draw < limit:
                out.append(1 + draw % span)
    else:
        while len(out) < count:
            draw = rng.next_u64()
            magnitude = (draw & (RATIONAL_HEIGHT_BOUND - 1)) + 1
            sign = -1 if draw >> 63 else 1
            out.append(Fraction(sign * magnitude))
    return out

"""Exact scalar arithmetic, seeded sampling, and matrix rank.

Scalars are arbitrary-precision rationals (characteristic 0) or residues
modulo a prime p, held in numpy arrays: int64 over word primes, objects
otherwise.  Every rank comes from one in-place modular Gaussian elimination:
over GF(p) directly, and over the rationals modulo word primes until a
Hadamard bound proves the largest rank seen exact.  The elimination reduces
its trailing block mod p only when one more int64 update could overflow
(delayed reduction, as in Dumas-Giorgi-Pernet, ACM TOMS 35(3), 2008), and
rows with a single nonzero entry never reach it: each pins its column, which
adds one to the rank.  No floating point is used anywhere.  Random sampling
is driven by splitmix64, a fixed, portable 64-bit generator, so every result
is reproducible from its seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from numbers import Rational
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
RATIONAL_HEIGHT_BOUND = 1 << 20

_GOLDEN = 0x9E3779B97F4A7C15
# Largest modulus whose squared residues still fit in int64.
_NUMPY_SAFE_MODULUS = 3_037_000_499
# Limb width for reducing big integers mod word primes in int64.
_LIMB_BITS = 30

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

    def normalize(self, value) -> Scalar:
        """A residue in [0, p), or over QQ an int unless a denominator is
        left; input that is not an exact rational is refused."""
        if not isinstance(value, Rational):
            raise TypeError(f"need an exact rational, got {value!r}")
        p = self.characteristic
        num, den = int(value.numerator), int(value.denominator)
        if p == 0:
            return num if den == 1 else Fraction(num, den)
        if den % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return num % p if den == 1 else num * pow(den, -1, p) % p

    @property
    def dtype(self):
        """int64 where a residue plus a product of two still fits, else object."""
        p = self.characteristic
        return np.int64 if 0 < p <= _NUMPY_SAFE_MODULUS else object

    def array(self, values: Sequence) -> np.ndarray:
        """Normalized 1-D array of the given values."""
        return np.array([self.normalize(v) for v in values], dtype=self.dtype)

    def zeros(self, length: int) -> np.ndarray:
        return np.zeros(length, dtype=self.dtype)

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Residues of an array of integers (identity over the rationals)."""
        return values % self.characteristic if self.is_modular else values

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
    """Rank of the matrix over its field; exact and deterministic.

    A row with exactly one nonzero entry puts that unit vector in the row
    space, so over any field the rank is the number of such pinned columns
    plus the rank of the other nonzero rows restricted to the unpinned
    columns (the row space modulo the pinned unit vectors).  Only that
    remainder is eliminated.
    """
    support = matrix.entries != 0
    counts = support.sum(axis=1)
    rest = matrix.entries[counts > 1]
    pinned = 0
    units = counts == 1
    if units.any():
        columns = support[units].any(axis=0)
        pinned = int(columns.sum())
        rest = rest[:, ~columns]
        rest = rest[(rest != 0).any(axis=1)]
    if rest.size == 0:
        return pinned
    p = matrix.field.characteristic
    return pinned + (_rank_mod_p(rest, p) if p else _rank_rational(rest))


def _integer_rows(entries) -> list[list[int]]:
    """Clear denominators row by row (rank is unchanged)."""
    rows = []
    for row in entries:
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return rows


def _rank_rational(entries: np.ndarray) -> int:
    """Rank over QQ of nonzero rows, proved modulo word primes, largest first.

    A rank mod q is at most the rank over QQ (a minor nonzero mod q is a
    nonzero integer), so the largest rank seen, rho, is a lower bound.  It is
    exact once rho = min(rows, cols) of the distinct integer rows, or once the
    product of the primes used exceeds a Hadamard bound on every (rho+1)-minor,
    the smaller of the products of the rho+1 largest row and column norms:
    each prime used gave rank at most rho, so each such minor is a multiple of
    that product, and smaller than it in absolute value, hence zero.

    The integers are split once into signed 30-bit int64 limbs, most
    significant first, and reduced mod each q by Horner's rule,
    acc = (acc * 2**30 + limb) mod q: with 0 <= acc < q < 2**31.6 no
    intermediate leaves (-2**30, 2**62), and numpy's floor mod returns a
    residue in [0, q) for negative limbs too.
    """
    distinct = dict.fromkeys(map(tuple, _integer_rows(entries.tolist())))
    rows = np.array(list(distinct), dtype=object)
    # Squared norms, so the bound is compared exactly: modulus**2 > bound**2.
    row_sq, col_sq = (sorted((rows * rows).sum(axis=k).tolist(), reverse=True)
                      for k in (1, 0))
    magnitude, sign = np.abs(rows), np.where(rows < 0, -1, 1)
    top = (int(magnitude.max()).bit_length() - 1) // _LIMB_BITS * _LIMB_BITS
    mask = (1 << _LIMB_BITS) - 1
    limbs = [sign * ((magnitude >> s) & mask).astype(np.int64)
             for s in range(top, -1, -_LIMB_BITS)]
    best, bound_sq, modulus = -1, 0, 1
    for q in filter(is_prime, range(_NUMPY_SAFE_MODULUS, 2, -2)):
        residues = np.zeros(rows.shape, dtype=np.int64)
        for limb in limbs:
            residues = ((residues << _LIMB_BITS) + limb) % q
        found = _rank_mod_p(residues, q)
        if found > best:
            best = found
            if best == min(rows.shape):
                return best
            bound_sq = min(prod(row_sq[:best + 1]), prod(col_sq[:best + 1]))
        modulus *= q
        if modulus * modulus > bound_sq:
            return best
    raise ArithmeticError("Hadamard bound beyond the product of all word primes")


def _reduction_budget(p: int) -> int:
    """Updates an int64 block of residues mod p can take between reductions.

    After k updates, each adding a product of two residues, an entry is at
    most (p - 1) + k * (p - 1)**2, which is at most 2**63 - 1 for every
    k <= (2**63 - 1 - p) // (p - 1)**2.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of a 2-D array of residues mod p, by Gaussian elimination in place.

    Each pivot row, scaled once by -1/pivot, is added times their entry in
    the pivot column to every row below it, right of that column only: left
    of it those rows are zero already, the pivot column is not read again,
    and a row with a zero multiplier gets zero added, so one update of the
    trailing block as a view serves every pivot.  Only when the top entry
    of a column is zero does the elimination search the column for a row to
    swap up.  Reduction mod p is delayed: while updates are pending, each
    step reduces only the column that yields the next pivot and multipliers
    and the lead row, so every product added is of two residues.  The
    trailing block is reduced once `_reduction_budget(p)` updates are
    pending, before an int64 entry could overflow; Python integers (the
    object dtype of big primes) cannot overflow, so there it is never
    reduced.
    """
    budget = _reduction_budget(p) if a.dtype == np.int64 else None
    pending = 0
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        if pending:
            a[r:, c] %= p
        if not a[r, c]:
            support = np.flatnonzero(a[r + 1:, c])
            if support.size == 0:
                continue
            a[[r, r + 1 + support[0]]] = a[[r + 1 + support[0], r]]
        lead = a[r, c + 1:] % p if pending else a[r, c + 1:]
        lead = lead * (p - pow(int(a[r, c]), -1, p)) % p
        a[r + 1:, c + 1:] += np.multiply.outer(a[r + 1:, c], lead)
        r += 1
        pending += 1
        if pending == budget:
            a[r:, c + 1:] %= p
            pending = 0
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
            out.append(sign * magnitude)
    return out

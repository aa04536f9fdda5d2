"""Exact scalar arithmetic, seeded sampling, and matrix rank.

Scalars are arbitrary-precision rationals (characteristic 0) or residues
modulo a prime p below 2**63, held in numpy arrays of one dtype per field
(`FieldSpec.dtype`), from the sampled scalars through the forms to the
matrices ranked: int64 for word primes (p at most 3 037 000 499, where a
residue plus a product of two fits), uint64 for larger primes, and
Python integers over the rationals.  Products of residues are reduced by
one % per term in int64, and in uint64 at once with a precomputed
quotient (Shoup), so that no value wraps (`FieldSpec.multiply`).
Every rank comes from one in-place modular Gaussian elimination: over
GF(p) directly, and over the rationals modulo primes below 2**30, where
it reduces its block only every 8 updates, until a Hadamard bound or a
cap the caller proved shows the largest rank seen exact.  Following
Dumas-Giorgi-Pernet (ACM TOMS 35(3), 2008), it splits panels off wide
matrices, and eliminates tall ones transposed: the rows below each panel
are updated by one matrix product, and a pivot in a panel updates only
the tracking columns already set.  For int64 primes up to 23 726 561 the
panels have 16 columns and the product is one float64 product; reduction
mod p is then delayed until one more update could overflow.  For every
other prime the panels have 32 columns and the product is exact mod p,
from float64 products of limbs (`_matmul_mod_p`, after Ozaki, Ogita,
Oishi and Rump, Numer. Algorithms 59, 2012), which also forms the
witnesses' weighted sums (`inverse_systems.linear_combination`).
Inside a panel only the update of its trailing block depends on the
dtype: delayed reduction in int64, and in uint64 every product reduced
with the same Shoup product as the field's.  Floats hold only integers
below 2**53, so no float64 operation rounds (`_float_exact`).  Random
sampling is driven by splitmix64, a fixed, portable, counter-based 64-bit
generator, so every result is reproducible from its seed.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from numbers import Rational
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
RATIONAL_HEIGHT_BOUND = 1 << 20

_GOLDEN = 0x9E3779B97F4A7C15
# Largest modulus whose squared residues still fit in int64.
_NUMPY_SAFE_MODULUS = 3_037_000_499
# Rational ranks take primes downward from here: the int64 elimination
# then reduces its block every 8 updates, not after each, for 5% more
# primes.  2**28 and 2**26 (budgets 128 and 2048, for 12% and 21% more
# primes) ranked thm-r d=10 slower, as each prime costs a % per entry.
_RATIONAL_PRIME_START = 1 << 30
# Columns per panel split off an int64 elimination (`_rank_mod_p`), and
# the columns that must be left for one to be split.  Panels of 16 admit
# every prime up to 23 726 561 (`_float_exact`); widths 10, 12 and 24
# were no faster on the matrices of thm-r d=12..16 over GF(1000003).
# There, matrices of 105 to 253 columns ranked in 0.55-0.8 of the time
# of a single panel; thm-e's, of at most 66 columns, no faster.
_PANEL_WIDTH = 16
_SPLIT_COLUMNS = 72
# Columns per panel, and columns that must be left to split one, where
# each panel's update is a product of limbs (`_matmul_mod_p`), which is
# one float64 product for up to 32 columns at 2**31 - 1 and 51 above
# 2**32.  32 ranked thm-r d=20 over GF(2**61 - 1), and thm-r d=30 and
# thm-e e=120 over GF(2**31 - 1), 2-9% faster than 24 and 7-40% faster
# than 16 or 48; on the smaller matrices of thm-e e=14 and thm-r d=10, 16
# was 10% faster.  Leaving 48 to 72 columns to split was no faster.
_LIMB_PANEL_WIDTH = 32
# Half-word mask and shift for 64x64 -> 128-bit products in uint64.
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)

# The first 13 primes: Miller-Rabin to the first 12 of them is exact only
# below psi_12 = 318 665 857 834 031 151 167 461, a strong pseudoprime to
# all 12; to all 13, below psi_13 = 3 317 044 064 679 887 385 961 981
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases in `_MR_BASES`: exact for every
    n < psi_13 (about 3.3e24), a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
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


def mix(seed: int, index: int) -> int:
    """Derived stream seed for parallel trial ``index``: word ``index`` of
    the splitmix64 stream of ``seed`` in [0, 2**64) (`_stream_words`),
    fixed so that serial and concurrent execution sample identically."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return int(_stream_words(seed, index, 1)[0])


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (characteristic 0) or the prime field GF(p), p below
    2**63; this is the one check of which characteristics exist."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"characteristic must be an int, got {c!r}")
        if c < 0 or (c != 0 and not is_prime(c)):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")
        if c >= 2**63:
            raise ValueError(f"characteristic must be below 2**63, got {c}")

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
        """Array dtype of the field's scalars, the one table of how a
        residue is held: int64 where a residue plus a product of two
        residues fits (p at most `_NUMPY_SAFE_MODULUS`), uint64 for larger
        primes, where a sum of two residues stays below 2**64 and products
        are reduced with precomputed quotients (`_shoup_product`), and
        Python integers over the rationals."""
        p = self.characteristic
        if 0 < p <= _NUMPY_SAFE_MODULUS:
            return np.int64
        return np.uint64 if p else object

    def array(self, values: Sequence) -> np.ndarray:
        """Normalized 1-D array of the given values."""
        return np.array([self.normalize(v) for v in values], dtype=self.dtype)

    def multiplier(self, y) -> np.ndarray:
        """Scalars ``y`` ready to multiply by in :meth:`multiply`: in a
        uint64 field y stacked on a last axis with its Shoup quotients
        (`_shoup_quotients`), in the others y with a last axis of length
        one.  Index it as ``y``, leaving that axis, so the quotients are
        computed once for every product taken from them."""
        y = np.asarray(y, dtype=self.dtype)
        if self.dtype is np.uint64:
            return np.stack([y, _shoup_quotients(y, self.characteristic)],
                            axis=-1)
        return y[..., None]

    def multiply(self, x: np.ndarray, multiplier: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x * y`` over the field, elementwise and broadcast, where
        ``multiplier`` is :meth:`multiplier` of y and x and y hold the
        field's scalars.  The result goes to ``out``, which may be x, or to
        a new array.

        int64 takes one % per product, as a product of two residues fits
        int64 for word primes; over the rationals nothing is reduced.
        uint64 takes Shoup's product, which stays below 2**64 where
        ``x * y`` would wrap (`_shoup_product`).
        """
        p = self.characteristic
        if self.dtype is not np.uint64:
            out = np.multiply(x, multiplier[..., 0], out=out)
            if p:
                out %= p
            return out
        t = _shoup_product(x, multiplier[..., 0], multiplier[..., 1], p)
        if out is None:
            return t
        out[...] = t
        return out

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


def rank(matrix: DenseMatrix, cap: Optional[int] = None) -> int:
    """Rank of the matrix over its field; exact and deterministic.  Its
    nonzero rows are eliminated on a copy, so the matrix is unchanged.

    ``cap`` is an upper bound on the rank that the caller has proved, for
    instance from the span of the forms the rows come from.  Over the
    rationals a prime whose rank reaches it ends the proof at once
    (`_rank_rational`).  A rank above it means the proof was wrong, so it
    raises `ArithmeticError` instead of returning.
    """
    nonzero = (matrix.entries != 0).any(axis=1)
    found = 0
    if nonzero.any():
        p = matrix.field.characteristic
        # The copy is handed over, not named here, so a transposing
        # `_rank_mod_p` frees it once it has its own.
        found = _rank_mod_p(matrix.entries[nonzero], p) if p else \
            _rank_rational(matrix.entries[nonzero], cap)
    if cap is not None and found > cap:
        raise ArithmeticError(f"rank {found} exceeds its proved cap {cap}")
    return found


def _integer_rows(entries) -> list[list[int]]:
    """Clear denominators row by row (rank is unchanged)."""
    rows = []
    for row in entries:
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return rows


def _rank_rational(entries: np.ndarray, cap: Optional[int] = None) -> int:
    """Rank over QQ of nonzero rows, proved modulo primes below 2**30,
    largest first (`_RATIONAL_PRIME_START` says why there).

    A rank mod q is at most the rank over QQ (a minor nonzero mod q is a
    nonzero integer), so the largest rank seen, rho, is a lower bound.  It is
    exact once rho reaches an upper bound: min(rows, cols) of the integer
    rows, or ``cap``, a bound the caller proved from where the rows
    come from (for a witness's contraction matrix, the span of the powers
    it was built from; see `inverse_systems._rank_caps`).  Then one prime is
    enough.  Otherwise rho is exact once the product of the primes used
    exceeds a Hadamard bound on every (rho+1)-minor, the smaller of the
    products of the rho+1 largest row and column norms: each prime used
    gave rank at most rho, so each such minor is a multiple of that
    product, and smaller than it in absolute value, hence zero.  The norms
    are computed only once a prime falls short of the ceiling, as a rank
    proved by the first prime never reads them.  Python's % leaves a
    residue in [0, q) for negative integers too.
    """
    rows = np.array(_integer_rows(entries.tolist()), dtype=object)
    ceiling = min(rows.shape) if cap is None else min(cap, *rows.shape)
    norms_sq = None
    best, bound_sq, modulus = -1, 0, 1
    for q in filter(is_prime, range(_RATIONAL_PRIME_START - 1, 2, -2)):
        found = _rank_mod_p((rows % q).astype(np.int64), q)
        if found > best:
            best = found
            if best >= ceiling:
                return best
            if norms_sq is None:  # squared: modulus**2 > bound**2 is exact
                norms_sq = [sorted((rows * rows).sum(axis=k).tolist(),
                                   reverse=True) for k in (1, 0)]
            bound_sq = min(prod(sq[:best + 1]) for sq in norms_sq)
        modulus *= q
        if modulus * modulus > bound_sq:
            return best
    raise ArithmeticError("Hadamard bound beyond the product of all primes tried")


def _reduction_budget(p: int) -> int:
    """Updates an int64 block of residues mod p can take between reductions.

    After k updates, each adding a product of two residues, an entry is at
    most (p - 1) + k * (p - 1)**2, which is at most 2**63 - 1 for every
    k <= (2**63 - 1 - p) // (p - 1)**2.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2


def _float_exact(terms: int, p: int) -> bool:
    """Whether a product of float64 matrices of residues in [0, p), with
    ``terms`` as its inner dimension, is exact.

    Each output of the classical product that BLAS computes is a sum of
    at most ``terms`` products of two residues, each at most (p - 1)**2.
    The terms are nonnegative, so every partial sum is an integer of at
    most terms * (p - 1)**2.  Below 2**53 every such integer is a
    float64, so no addition or fused multiply-add rounds, whatever the
    order of summation and however many threads BLAS splits it over.
    """
    return terms * (p - 1) ** 2 < 2**53


def _high_words(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y of uint64 arrays, from
    four 32x32-bit partial products.  Each partial product is at most
    (2**32 - 1)**2, so adding a 32-bit word to one cannot wrap: the low
    cross product takes the carry of the low product, the high cross
    product takes the low half of that sum, and the high word takes the
    carries of both.  Each half is dropped once used, so that products
    of two full arrays keep few of them alive."""
    xl, xh = x & _LOW32, x >> _HALF
    yl, yh = y & _LOW32, y >> _HALF
    low = xl * yl
    low >>= _HALF
    low += xh * yl
    mid = xl * yh
    del xl, yl
    mid += low & _LOW32
    high = xh * yh
    del xh, yh
    low >>= _HALF
    high += low
    mid >>= _HALF
    high += mid
    return high


def _shoup_product(x: np.ndarray, w: np.ndarray, w_quotient: np.ndarray,
                   p: int) -> np.ndarray:
    """x * w mod p in [0, p), broadcast, for uint64 arrays of any x, of
    residues w mod p (`_NUMPY_SAFE_MODULUS` < p < 2**63) and of their
    quotients w' = floor(w * 2**64 / p) (`_shoup_quotients`): Shoup's
    precomputed-quotient product (NTL's MulModPrecon; Harvey, J. Symb.
    Comp. 60 (2014)).

    Write w' = (w * 2**64 - rho) / p with 0 <= rho < p.  For q =
    floor(x * w' / 2**64), the high word of x * w' (`_high_words`),

        (x * w - q * p) / p = x * rho / (p * 2**64) + frac(x * w' / 2**64),

    which lies in [0, 2) since x < 2**64.  So t = x * w - q * p is in
    [0, 2p), and as 2p <= 2**64 it is exact when both products wrap
    modulo 2**64.  min(t, t - p) is t mod p, since t - p wraps to above t
    when t < p.
    """
    modulus = np.uint64(p)
    high = _high_words(x, w_quotient)
    high *= modulus
    t = x * w
    t -= high
    np.minimum(t, t - modulus, out=t)
    return t


def _shoup_quotients(w: np.ndarray, p: int) -> np.ndarray:
    """floor(w * 2**64 / p) for a uint64 array of residues w mod p
    (`_NUMPY_SAFE_MODULUS` < p < 2**63), in uint64 throughout.

    With 2**64 = c * p + r and 0 < r < p, the quotient is w * c +
    floor(w * r / p), and w * c < 2**64.  Shoup's product of x = w by
    the residue r, with r' = floor(r * 2**64 / p), gives q = floor(w * r'
    / 2**64) with t = w * r - q * p in [0, 2p) (`_shoup_product`), so
    floor(w * r / p) is q, plus one exactly when t >= p.
    """
    c, r = divmod(1 << 64, p)
    modulus = np.uint64(p)
    q = _high_words(w, np.uint64((r << 64) // p))
    t = w * np.uint64(r)
    t -= q * modulus
    q += t >= modulus
    q += w * np.uint64(c)
    return q


def _add_mod(acc: np.ndarray, t: np.ndarray, p: int) -> None:
    """acc += t mod p in place, for uint64 arrays of residues mod p < 2**63:
    the sum, below 2p <= 2**64, is exact, and min(s, s - p) is s mod p, as
    s - p wraps to above s when s < p."""
    acc += t
    np.minimum(acc, acc - np.uint64(p), out=acc)


def _add_shoup_products(block: np.ndarray, column: np.ndarray,
                        lead: np.ndarray, scale: int, p: int) -> None:
    """block += column (outer) (scale * lead mod p), reduced mod p, on
    uint64 residues.  The scaled lead row and its quotients, one row per
    pivot, are computed in Python integers; each product is Shoup's
    (`_shoup_product`), and each sum is reduced by `_add_mod`."""
    if not block.size:
        return
    w = [v * scale % p for v in lead.tolist()]
    w, w_quotient = np.array([w, [(v << 64) // p for v in w]],
                             dtype=np.uint64)
    _add_mod(block, _shoup_product(column[:, None], w, w_quotient, p), p)


def _float_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y as int64 by one float64 product, exact for residues mod p
    where `_float_exact` holds for the inner dimension and p."""
    return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)


def _matmul_mod_p(x: np.ndarray, y: np.ndarray, p: int,
                  acc: Optional[np.ndarray] = None) -> np.ndarray:
    """acc + x @ y mod p, in [0, p), for 2-D arrays of residues mod p in
    the dtype of ``FieldSpec(p)`` (int64 or uint64), written into ``acc``
    when it is given, from exact float64 products only: the error-free
    splitting of Ozaki, Ogita, Oishi and Rump (Numer. Algorithms 59,
    2012).

    Where `_float_exact` holds for the inner dimension k and p, it is one
    float64 product.  Otherwise y is split into ``cy`` limbs y_j of
    ``bits`` bits, and x @ y = sum_j x_j @ y_j mod p with x_j = 2**(bits j)
    x mod p.  Below 2**32 the limbs have 16 bits and the x_j are residues;
    above, they have 13, and each x_j is split too, into 32-bit halves
    x_j0 and x_j1.  So

        x @ y = D_0 + 2**32 D_1 mod p,  D_i = sum_j x_ji @ y_j,

    where D_1 is zero below 2**32: the limb products are grouped by
    degree i, and every degree is one float64 product of the x_ji side by
    side by the y_j stacked, of inner dimension cy * k, all of them in a
    single product.  By the argument of `_float_exact`, it is exact while
    cy * k * (x_top - 1) * (2**bits - 1) < 2**53, where the x_ji are below
    x_top: for k up to 32 at 2**31 - 1 and up to 51 above 2**32; a longer
    inner dimension is cut into products that are exact.  The degrees are
    recombined mod p, D_1 by the Shoup product by 2**32 mod p, which takes
    any uint64 (`_shoup_product`).
    """
    (m, k), n, dtype = x.shape, y.shape[1], x.dtype
    if _float_exact(k, p):
        out = _float_product(x, y)
    else:
        wide = p >= 2**32
        bits = 13 if wide else 16
        cy = -(-(p - 1).bit_length() // bits)
        x_top = 2**32 if wide else p
        most = (2**53 - 1) // (cy * (x_top - 1) * (2**bits - 1))
        if k > most:
            acc = _matmul_mod_p(x[:, :most], y[:most], p, acc)
            return _matmul_mod_p(x[:, most:], y[most:], p, acc)
        shifts = np.arange(0, cy * bits, bits, dtype=np.uint64)
        right = np.empty((cy, k, n))
        for limb, shift in zip(right, shifts):
            limb[...] = (y.view(np.uint64) >> shift) & np.uint64(2**bits - 1)
        w = np.left_shift(np.uint64(1), shifts)[:, None, None]
        x = x.view(np.uint64)
        folds = _shoup_product(x, w, _shoup_quotients(w, p), p) if wide \
            else x * w % np.uint64(p)
        left = np.empty((1 + wide, m, cy, k))
        if wide:
            left[0] = (folds & _LOW32).transpose(1, 0, 2)
            left[1] = (folds >> _HALF).transpose(1, 0, 2)
        else:
            left[0] = folds.transpose(1, 0, 2)
        out = (left.reshape(len(left) * m, cy * k)
               @ right.reshape(cy * k, n)).astype(np.int64)
    low = out[:m].view(dtype)
    if acc is None:
        acc = low
    else:
        acc += low
    acc %= p
    if out.shape[0] > m:
        w = 2**32 % p
        _add_mod(acc, _shoup_product(out[m:].view(np.uint64), np.uint64(w),
                                     np.uint64((w << 64) // p), p), p)
    return acc


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of a 2-D array of residues mod p held in the dtype of
    ``FieldSpec(p)`` (`FieldSpec.dtype`), by Gaussian elimination in place,
    one panel of columns at a time, each eliminated pivot by pivot
    (`_eliminate_panel`), in the manner of Dumas-Giorgi-Pernet; only the
    rows below a panel's pivots are read again.

    While enough columns remain, a panel is split off: it is copied,
    reduced, next to as many tracking columns, zero but for a 1 each pivot
    row puts in its own before it is added to the rows below; so every
    row's tracking columns hold the combination of the panel's pivot rows
    added to it.  Each swap in the panel is made in the trailing block
    too, which then holds every row as it was before the panel.  So one
    matrix product, of the tracking columns of the rows below the pivots
    by the pivot rows' trailing parts, both reduced, updates the trailing
    block of those rows.  The rest of the matrix is one panel.

    In int64, for primes where a sum of `_PANEL_WIDTH` products of two
    residues is exact in float64 (`_float_exact`, up to 23 726 561),
    panels of that width are split while more than `_SPLIT_COLUMNS`
    columns remain, as panels made no narrower matrix faster.  The update
    is one float64 product left unreduced: it adds to each entry at most
    `_PANEL_WIDTH` products of two residues, counted towards
    `_reduction_budget` as one update per pivot, as in a single panel.
    For every other prime, in int64 or uint64, panels of
    `_LIMB_PANEL_WIDTH` columns are split while more than that many
    remain, and the update is the exact product mod p of float64 limbs
    (`_matmul_mod_p`), added reduced, so the trailing block stays reduced.

    A matrix with more rows than columns is eliminated transposed, on a
    copy, leaving ``a`` as it is: the rank is the same, and every pivot is
    then found in a panel rather than in a last panel over all the
    remaining rows.
    """
    delayed = _float_exact(_PANEL_WIDTH, p)
    b, split = (_PANEL_WIDTH, _SPLIT_COLUMNS) if delayed else (
        _LIMB_PANEL_WIDTH, _LIMB_PANEL_WIDTH)
    if a.shape[0] > a.shape[1]:
        a = a.T.copy()
    m, n = a.shape
    budget = _reduction_budget(p)
    r = c = pending = 0
    while r < m and n - c > split:
        panel = np.zeros((m - r, 2 * b), dtype=a.dtype)
        np.remainder(a[r:, c:c + b], p, out=panel[:, :b])
        trailing = a[r:, c + b:]
        k = _eliminate_panel(panel, b, p, trailing)
        below = trailing[k:]
        w = panel[k:, b:b + k] % p
        if delayed:
            if pending + k > budget:
                below %= p
                pending = 0
            below += _float_product(w, trailing[:k] % p)
            pending += k
        else:
            _matmul_mod_p(w, trailing[:k], p, below)
        r += k
        c += b
    if pending:
        a[r:, c:] %= p
    return r + _eliminate_panel(a[r:, c:], n - c, p)


def _eliminate_panel(a: np.ndarray, width: int, p: int,
                     trailing: Optional[np.ndarray] = None) -> int:
    """Number of pivots in the first ``width`` columns of ``a``, an array
    of residues mod p, found by Gaussian elimination in place.

    Each pivot row, scaled once in place by -1/pivot, is added times their
    entry in the pivot column to every row below it, right of that column
    only: left of it those rows are zero already, the pivot column and the
    pivot row are not read again, and a row with a zero multiplier gets
    zero added, so one update of the trailing block as a view serves every
    pivot.  Only when the top entry of a column is zero does the
    elimination search the column for a row to swap up.  The pivot search,
    the swap and this column walk are shared by every dtype; only the
    update of the trailing block differs.

    int64 (p at most `_NUMPY_SAFE_MODULUS`): reduction mod p is delayed.
    While updates are pending, each step reduces only the column that
    yields the next pivot and multipliers and the lead row, so every
    product added is of two residues.  The trailing block is reduced once
    `_reduction_budget(p)` updates are pending, before an entry could
    overflow.

    uint64 (`_NUMPY_SAFE_MODULUS` < p < 2**63): every update is reduced at
    once (`_add_shoup_products`), with the scaled lead row's quotients
    computed once per pivot for the Shoup products of every multiplier
    below it.

    With ``trailing``, the rows of the matrix right of a panel split off
    in either dtype (`_rank_mod_p`), every swap is made there too, and
    pivot t sets its own tracking column, ``width + t``, to 1 before its
    row is added.  The tracking columns right of that one are still zero
    in every row, so pivot t updates columns up to ``width + t`` only.  In
    int64 the tracking columns are left with the pending updates, and the
    caller reduces them.
    """
    shoup = a.dtype == np.uint64
    budget = None if shoup else _reduction_budget(p)
    pending = 0
    m, end = a.shape
    r = 0
    for c in range(width):
        if r == m:
            break
        column = a[r:, c]
        if pending:
            column %= p
        pivot = int(column[0])
        if not pivot:
            support = np.flatnonzero(column)
            if support.size == 0:
                continue
            pivot = int(column[support[0]])
            swap = [r, r + support[0]]
            a[swap] = a[swap[::-1]]
            if trailing is not None:
                trailing[swap] = trailing[swap[::-1]]
        if trailing is not None:
            a[r, width + r] = 1
            end = width + r + 1
        scale = p - pow(pivot, -1, p)
        lead = a[r, c + 1:end]
        if shoup:
            _add_shoup_products(a[r + 1:, c + 1:end], column[1:], lead,
                                scale, p)
        else:
            if pending:
                lead %= p
            lead *= scale
            lead %= p
            a[r + 1:, c + 1:end] += np.multiply.outer(column[1:], lead)
            pending += 1
        r += 1
        if pending == budget:
            a[r:, c + 1:] %= p
            pending = 0
    return r


def _stream_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start`` to ``start + count - 1`` of the splitmix64 stream
    of ``seed``, as uint64; a seed outside [0, 2**64) is refused, not
    wrapped, so that each stream has one seed.  The generator adds the
    golden gamma 0x9E3779B97F4A7C15 to a 64-bit state that starts at the
    seed and outputs the mix of the new state, so word k is the mix of
    seed + (k + 1) * gamma mod 2**64: every word is mixed at once, and
    uint64 sums and products wrap modulo 2**64 as the generator's do.  The
    steps run in place, so the batch allocates one array besides the
    shifts."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if seed > MASK64:
        raise ValueError("seed must be below 2**64")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(operator.index(seed))  # a float seed is refused too
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def sample_scalars(field: FieldSpec, count: int, seed: int) -> list[Scalar]:
    """Deterministic stream of ``count`` scalars from ``seed``, which
    must lie in [0, 2**64) (`_stream_words`).

    Over GF(p): uniform over all p residues, each drawn from one 64-bit
    word (rejection sampling, no modulo bias).  Over the rationals:
    uniform over the 2 * `RATIONAL_HEIGHT_BOUND` nonzero integers of
    magnitude at most 2**20, so downstream rank computations stay
    tractable.  Words are drawn in batches of one per missing scalar.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    words = _stream_words(seed, 0, count)
    if not field.is_modular:
        magnitude = (words & np.uint64(RATIONAL_HEIGHT_BOUND - 1)).astype(
            np.int64) + 1
        return np.where(words >> np.uint64(63), -magnitude, magnitude).tolist()
    p = field.characteristic
    # The largest accepted word: up to it every residue is equally likely.
    top = np.uint64(MASK64 - 2**64 % p)
    out: list[Scalar] = []
    used = 0
    while True:
        used += words.size
        out.extend((words[words <= top] % np.uint64(p)).tolist())
        if len(out) == count:
            return out
        words = _stream_words(seed, used, count - len(out))

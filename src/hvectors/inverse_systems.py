"""Macaulay inverse systems over an exact field.

Homogeneous forms are stored densely per degree as coefficient arrays, in
descending lex order.  :func:`_exponents` owns that order: it builds each
degree's exponent table once per process, in numpy, and :func:`monomials`
only lists its rows.  The variables of the dual ring act by contraction
(exponent subtraction, killing terms that would go negative), never term
by term: the Hilbert function of the module generated by a list of forms
is read off as the rank of the contraction coefficient matrix in each
degree, one ``take`` from the coefficients at the closed-form index of
each operator x column product (:func:`_positions`), so memory follows
the matrix in any number of variables (:func:`contraction_matrix`).  The
thm-e binary truncation is never built as forms: it holds every monomial
of its two variables, so a thm-e trial ranks only its sampled form
contracted by the third variable, one degree down, and adds the
truncation's monomials back (:func:`verify_construction`).  One degree
per trial is ranked and the rest are proved: above a free degree every
degree is free, because the generators' operator syzygies form a
submodule of a free module, which has no torsion; and a lower or a
higher degree reaches its cap from the column- or row-prefix ranks of a
ranked degree's matrix, because contraction has no multinomial factors,
so a power of the first variable maps a prefix of its columns onto the
lower degree's, and a prefix of its rows onto the higher degree's
(:func:`_hilbert_ranks`).  On top of that sit the randomized drivers that
check the constructed level h-vectors against actual rank computations,
including a characteristic sweep.  Each witness bounds its own rank in
every degree (:func:`_rank_caps`): a rank at its cap is proved, over QQ
by a trial in GF(23 726 561), and trials at every cap between them end
the verification; a run whose trials all miss a cap states how likely
that is for a target that holds (:func:`verify_construction`).  Kinds
and targets live in :mod:`families`; the witness facts (point counts,
powers, the truncation's variables) stay here, never derived from them.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from functools import lru_cache
from math import comb
from numbers import Rational
from typing import Optional, Sequence

import numpy as np

from .exact import (
    GENERATOR_NAME,
    DenseMatrix,
    FieldSpec,
    Scalar,
    _QQ_TRIAL_PRIME,
    _matmul_mod_p,
    mix,
    rank,
    sample_scalars,
)
from .families import KIND_PARITIES, MIN_HALF_DEGREE, family
from .sequences import HVector
from .version import VERSION

Monomial = tuple[int, ...]


def monomials(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given degree, in descending lex order:
    the rows of :func:`_exponents`, which owns the order."""
    return tuple(map(tuple, _exponents(num_vars, degree).tolist()))


@lru_cache(maxsize=None)
def _exponents(num_vars: int, degree: int) -> np.ndarray:
    """Read-only array of the exponents of every monomial of the degree,
    one row per monomial in descending lex order, stored column-major so
    that each variable's exponents are contiguous.

    This is the canonical order of dense form storage and of
    contraction-matrix rows and columns.  Each leading exponent h =
    degree..0 heads the block of ``_exponents(num_vars - 1, degree - h)``;
    two variables need no blocks, as the rows are (h, degree - h).  So
    the monomials with a0 >= h are the first ``_monomial_count(num_vars,
    degree - h)``, x0**h times every monomial of degree - h in order.
    """
    out = np.empty((_monomial_count(num_vars, degree), num_vars),
                   dtype=np.int64, order="F")
    heads = np.arange(degree, -1, -1)
    if num_vars == 1:
        out[:, 0] = degree
    elif num_vars == 2:
        out[:, 0], out[:, 1] = heads, heads[::-1]
    else:
        tails = [_exponents(num_vars - 1, h) for h in range(degree + 1)]
        out[:, 0] = heads.repeat([len(t) for t in tails])
        out[:, 1:] = np.concatenate(tails)
    out.flags.writeable = False
    return out


def _monomial_count(num_vars: int, degree: int) -> int:
    """Number of monomials of the degree in ``num_vars`` variables, the
    length of every coefficient array of that shape."""
    if num_vars < 1:
        raise ValueError(f"num_vars must be positive, got {num_vars}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    return comb(degree + num_vars - 1, num_vars - 1)


def _positions(num_vars: int, degree: int, *parts: np.ndarray) -> np.ndarray:
    """Index among ``monomials(num_vars, degree)`` of the product of
    ``parts``, exponent arrays whose last axis is the variables and whose
    others broadcast.  With s_v the sum of a monomial's exponents after
    position v, the monomials before it in descending lex order are, for
    each v < num_vars - 1, the C(s_v + k - 1, k), k = num_vars - 1 - v, that
    agree with it before v and are larger at v.  A product's s_v is the sum
    of its factors', so each v costs one broadcast add and one table
    lookup, none for k = 1, where the term is s_v itself."""
    if num_vars == 1:
        return np.zeros_like(sum(p[..., 0] for p in parts))
    out, sums = 0, [0] * len(parts)
    for k in range(1, num_vars):
        sums = [s + p[..., num_vars - k] for s, p in zip(sums, parts)]
        after = sum(sums)
        if k > 1:
            after = np.array([comb(s + k - 1, k)
                              for s in range(degree + 1)]).take(after)
        out = out + after
    return out


class Form:
    """Homogeneous form: a coefficient for every monomial of one degree.

    Coefficients live in a single :class:`FieldSpec`, in a read-only array
    of its dtype, and are kept reduced; a zero means the monomial is absent.
    The constructor takes them reduced: over GF(p) an integer array of
    residues in [0, p), checked as a whole, over QQ exact rationals; use
    :meth:`from_coefficients` to reduce any exact rationals.
    """

    __slots__ = ("num_vars", "degree", "field", "coeffs")

    def __init__(self, num_vars: int, degree: int, field: FieldSpec,
                 coeffs: Sequence[Scalar]):
        expected = _monomial_count(num_vars, degree)
        if len(coeffs) != expected:
            raise ValueError(
                f"need {expected} coefficients for degree {degree} in "
                f"{num_vars} variables, got {len(coeffs)}"
            )
        p = field.characteristic
        if p:
            values = np.array(coeffs)
            if values.dtype.kind not in "iu":
                raise TypeError(f"coefficients over {field} must be integers, "
                                f"got an array of {values.dtype}")
            # Seen as uint64, a negative entry is 2**63 or more, past every p.
            top = (values.view(np.uint64) if values.itemsize == 8
                   else values.astype(np.uint64))
            if int(top.max()) >= p:
                raise ValueError(f"coefficients over {field} must be residues "
                                 f"in [0, {p}); Form.from_coefficients "
                                 "reduces them")
            values = values.astype(field.dtype, copy=False)
        else:
            values = np.array(coeffs, dtype=object)
            if not all(isinstance(v, Rational) for v in values):
                raise TypeError("coefficients over QQ must be exact rationals")
        self.num_vars = num_vars
        self.degree = degree
        self.field = field
        self.coeffs = values
        self.coeffs.flags.writeable = False

    @classmethod
    def from_coefficients(cls, num_vars: int, degree: int, field: FieldSpec,
                          coeffs: Sequence) -> "Form":
        return cls(num_vars, degree, field, field.array(coeffs))

    @classmethod
    def from_terms(cls, num_vars: int, degree: int, field: FieldSpec,
                   terms: dict) -> "Form":
        bad = [m for m in terms if len(m) != num_vars or min(m) < 0
               or sum(m) != degree]
        if bad:
            raise ValueError(f"{bad[0]} is not a monomial of degree {degree} "
                             f"in {num_vars} variables")
        exps = np.array(list(terms), dtype=np.int64).reshape(-1, num_vars)
        dense = np.zeros(_monomial_count(num_vars, degree), dtype=field.dtype)
        dense[_positions(num_vars, degree, exps)] = field.array(terms.values())
        return cls(num_vars, degree, field, dense)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.num_vars, self.degree, self.field) == (
            other.num_vars, other.degree, other.field) and np.array_equal(
            self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        nonzero = np.count_nonzero(self.coeffs)
        return (f"Form(num_vars={self.num_vars}, degree={self.degree}, "
                f"field={self.field}, terms={nonzero})")


def _check_generators(generators: Sequence[Form]) -> tuple[int, int, FieldSpec]:
    if not generators:
        raise ValueError("generator list is empty")
    num_vars = generators[0].num_vars
    degree = generators[0].degree
    field = generators[0].field
    for g in generators[1:]:
        if (g.num_vars, g.degree, g.field) != (num_vars, degree, field):
            raise ValueError(
                "generators must share variables, degree and field"
            )
    return num_vars, degree, field


def contraction_matrix(generators: Sequence[Form], degree: int) -> DenseMatrix:
    """Coefficient matrix of the degree-lowering contractions.

    Rows are indexed by (operator monomial of complementary degree,
    generator), operator-major, columns by the monomials of the target
    degree, in order; the entry is the coefficient of the column monomial
    in the contracted generator.  Its rank is the dimension of the
    generated module in that degree; an operator that divides none of a
    generator's terms gives a zero row, which :func:`rank` drops.  The
    matrix is one ``take`` from the stacked coefficients, at the index of
    each operator x column product (:func:`_positions`) plus each
    generator's offset, so its memory is that of the matrix.
    """
    num_vars, form_degree, field = _check_generators(generators)
    if not 0 <= degree <= form_degree:
        raise ValueError(f"degree must lie in [0, {form_degree}], got {degree}")
    ops = _exponents(num_vars, form_degree - degree)
    cols = _exponents(num_vars, degree)
    coeffs = np.array([g.coeffs for g in generators], dtype=field.dtype)
    offsets = np.arange(0, coeffs.size, coeffs.shape[1])[:, None]
    index = _positions(num_vars, form_degree, ops[:, None], cols[None])
    matrix = coeffs.take(index[:, None] + offsets)
    return DenseMatrix(field, matrix.reshape(-1, len(cols)))


def hilbert_function(generators: Sequence[Form]) -> HVector:
    """Hilbert function of the module generated by the forms.

    Entry i is the rank of the degree-i contraction matrix; entry 0 is 1
    and the top entry counts linearly independent generators.  For g forms
    of degree s in n variables, the last degree of largest cap
    ``min(C(i+n-1, n-1), g*C(s-i+n-1, n-1))``, the generic crossover or
    the degree below it, is ranked, and from there only the degrees whose
    bound from a ranked degree's column- or row-prefix ranks falls short
    of their cap, up to the first degree where the generators' operators
    are independent.  Every other degree is proved: above the free degree
    or from its bound (:func:`_hilbert_ranks`).
    """
    _check_generators(generators)
    if all(f.is_zero() for f in generators):
        raise ValueError("no nonzero generator")
    ranks, _ = _hilbert_ranks(generators)
    return HVector(ranks)


def _monomial_counts(num_vars: int, degree: int) -> list[int]:
    """Number of monomials of each degree 0..``degree`` in ``num_vars``
    variables."""
    return [comb(i + num_vars - 1, num_vars - 1) for i in range(degree + 1)]


def _hilbert_ranks(generators: Sequence[Form], caps: Sequence[int] = ()
                   ) -> tuple[tuple[int, ...], list[float]]:
    """Hilbert function of the module generated by ``generators``, with
    the seconds spent ranking each degree (0.0 for a degree proved without
    a rank).  Degree i's rank is that of ``contraction_matrix(generators,
    i)``, capped by ``caps[i]``, a proved upper bound on it (:func:`rank`),
    by default ``min(full_i, free_i)`` below.

    Let F_1..F_g be ``generators``, of degree s in n variables, and R the
    ring of operators.  With ``full_i = C(i+n-1, n-1)`` and ``free_i =
    g*C(s-i+n-1, n-1)``, the rank in degree i is at most both, and three
    facts, exact over every field, settle a degree from another:

    * Upward: the operator tuples (o_1..o_g) with ``sum o_j∘F_j = 0`` form
      a submodule K of the free module R^g, because ``x∘sum o_j∘F_j = sum
      (x o_j)∘F_j``.  The rank in degree i is ``free_i - dim K_{s-i}``.  A
      free module has no torsion, so if K is zero in operator degree s-i
      it is zero in every lower operator degree: a degree of rank
      ``free_i`` makes every higher degree free too.
    * Columns: contraction has no multinomial factors, so ``x0^h∘G`` has
      G's coefficient of x^a at x^(a-h e_0) for every a with a0 >= h.
      So the rows of degree i's matrix, cut to its columns with a0 >= h,
      are rows of degree i-h's, and degree i-h has rank at least that of
      those columns, the first ``full_{i-h}`` in storage order
      (:func:`_exponents`).  The elimination of degree i gives its column
      rank profile (:func:`rank`), so the profile's entries below
      ``full_{i-h}`` count that rank for every h at once.  A degree whose
      bound reaches its cap is proved without a rank, and a bound above
      its cap raises `ArithmeticError`, as :func:`rank` does.  In a
      codimension-5 trial every point has coordinate 1 at x0
      (:func:`codim5_generators`), so once a degree's rank is the number N
      of points, its bounds are the Hilbert function of the points, the
      true rank, in every lower degree.  A full degree's profile holds
      every column, so every lower degree is proved full from its bound.
    * Rows: by the same identity, the rows (b, g) of degree i's matrix
      with b0 >= h are the rows (b-h e_0, g) of degree i+h's, cut to its
      columns a+h e_0.  So degree i+h has rank at least that of those
      rows, the first ``free_{i+h}`` as the rows are operator-major
      (:func:`contraction_matrix`), and the row rank profile's entries
      below it count that rank for every h at once.  In a codimension-5
      trial a degree of rank N spans the N independent powers of the
      points, so these bounds are the true rank of every higher degree.

    The walk ranks the last degree of largest cap (for a codimension-5
    trial the last degree of its plateau N, for thm-e's contracted form
    its crossover, whose cap is free) and walks up while a degree is not
    free, proving each from its bound when that reaches its cap and
    ranking it otherwise; every higher degree gets ``free_i``.  Then it
    walks down from that degree to degree 0 alike.  The walks stop at
    degree 0 and s, so the start only changes the cost, never the result.
    """
    num_vars, form_degree, _ = _check_generators(generators)
    degrees = range(form_degree + 1)
    full = _monomial_counts(num_vars, form_degree)
    free = [len(generators) * full[form_degree - i] for i in degrees]
    caps = caps or list(map(min, full, free))
    ranks = list(free)
    bounds = [0] * len(degrees)
    seconds = [0.0] * len(degrees)

    def rank_degree(i: int) -> None:
        start = time.perf_counter()
        profile = []
        ranks[i] = rank(contraction_matrix(generators, i), caps[i], profile)
        cols, rows = profile
        for j in range(i):
            bounds[j] = max(bounds[j], bisect_left(cols, full[j]))
        for j in range(i + 1, form_degree + 1):
            bounds[j] = max(bounds[j], bisect_left(rows, free[j]))
        seconds[i] = time.perf_counter() - start

    def settle(i: int) -> None:
        if bounds[i] > caps[i]:
            raise ArithmeticError(f"degree {i} has rank at least "
                                  f"{bounds[i]}, above its proved cap "
                                  f"{caps[i]}")
        if bounds[i] == caps[i]:
            ranks[i] = caps[i]
        else:
            rank_degree(i)

    # Start at the last degree of largest cap.
    low = high = form_degree - caps[::-1].index(max(caps))
    rank_degree(high)
    while high < form_degree and ranks[high] < free[high]:
        high += 1
        settle(high)
    while low > 0:
        low -= 1
        settle(low)
    return tuple(ranks), seconds


def linear_combination(weights: np.ndarray, rows: np.ndarray,
                       field: FieldSpec) -> np.ndarray:
    """Weighted sums of coefficient rows, one per row of ``weights``:
    ``weights @ rows`` over the field, by the exact modular product of
    float64 limbs for every prime (`exact._matmul_mod_p`) and on Python
    integers over the rationals."""
    p = field.characteristic
    return _matmul_mod_p(weights, rows, p) if p else weights @ rows


def contraction_power(scalars: np.ndarray, power: int,
                      field: FieldSpec) -> np.ndarray:
    """Powers 0..``power`` of every scalar, on a new first axis: the tables
    a codimension-5 witness is built from (:func:`codim5_generators`), with
    0**0 = 1.  Step k doubles the known span: powers k+1..2k are powers
    1..k times the k-th, one field product each (`FieldSpec.multiply`) on
    contiguous blocks, so ``power`` takes about log2(power) products."""
    out = np.empty((power + 1, *scalars.shape), dtype=field.dtype)
    out[0] = 1
    out[1:] = scalars
    k = 1
    while k < power:
        width = min(k, power - k)
        field.multiply(out[1:width + 1], out[k],
                       out=out[k + 1:k + width + 1])
        k *= 2
    return out


def _codim5_counts(d: int, parity: str) -> tuple[int, int]:
    n_general = comb(d + 1, 2)
    # The level plateau equals the total point count, which forces one
    # fewer collinear point in the even case.
    n_line = d + 4 if parity == "odd" else d + 3
    return n_general, n_line


# thm-e's level module holds the binary truncation: every monomial of
# degree at most e-1 in the first two variables.  A trial ranks its form
# contracted by the next one, x2 (:func:`verify_construction`).
_TRUNCATION_VARS = 2


def _codim5_power(d: int, parity: str) -> int:
    return 2 * d if parity == "odd" else 2 * d - 1


def codim5_generators(
    d: int, parity: str, field: FieldSpec, seed: int
) -> tuple[Form, Form]:
    """Two random generators for the codimension-5 level module: ``sum_k
    w_k L_k^[P]`` with random weights over C(d+1,2) general points and d+4
    (odd) or d+3 (even) points on the line x1 = 0, P = 2d (odd) or 2d-1.
    L^[P], the contraction power of L = c0 x0 + c1 x1 + c2 x2, has c^a at
    x^a, with no multinomial factors, so x^b contracts it to c^b L^[P-|b|]
    over every field, as classical powers differentiate in characteristic
    zero.  Points are sampled in the chart c0 = 1, general ones as (1 : s :
    t) and line ones as (1 : 0 : t).  As (λc)^[P] = λ^P c^[P] and a weight
    absorbs λ^P, the chart reaches the witnesses of every point with c0 !=
    0, a dense open set, in every field.  The coefficient at x^a is ``sum_k
    w_k s_k^a1 t_k^a2``: both generators are one product
    (:func:`linear_combination`) of the weights times the s-powers, 2(P+1)
    x count, by the t-powers, count x (P+1) (:func:`contraction_power`),
    read at a1 (P+1) + a2.  Fully determined by (d, parity, field, seed).
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if d < MIN_HALF_DEGREE:
        raise ValueError(f"d must be >= {MIN_HALF_DEGREE}, got {d}")
    n_general, n_line = _codim5_counts(d, parity)
    power = _codim5_power(d, parity)
    count = n_general + n_line
    # The s of the general points, the t of every point, then the weights.
    samples = np.array(sample_scalars(field, n_general + 3 * count, seed),
                       dtype=field.dtype)
    chart = np.concatenate((samples[:n_general], np.zeros(n_line, field.dtype),
                            samples[n_general:n_general + count]))
    weights = samples[n_general + count:].reshape(2, 1, count)
    s_powers, t_powers = contraction_power(
        chart.reshape(2, count), power, field).swapaxes(0, 1)
    left = field.multiply(s_powers, weights)
    table = linear_combination(left.reshape(-1, count), t_powers.T, field)
    _, a1, a2 = _exponents(3, power).T
    first, second = table.reshape(2, -1).take(a1 * (power + 1) + a2, axis=1)
    return Form(3, power, field, first), Form(3, power, field, second)


@dataclass
class VerificationReport:
    """Outcome of checking a constructed h-vector by actual rank counts.

    ``trials`` is the number of trials requested; ``trial_seeds`` and
    ``per_trial`` list the trials that ran, which stop once ``best``
    reaches the rank cap in every degree (:func:`_rank_caps`), as no later
    trial can exceed it.  ``best`` is the entrywise maximum over the
    trials run: reaching the target dimension is an open condition, so any
    witness certifies a degree, and a degree at its cap is proved.
    ``detail`` states a ``mismatch``'s bound or an ``inconclusive``'s
    reason (:func:`verify_construction`).  ``status`` is always ``ok``, as
    invalid input raises instead; it stays in the JSON view, whose bytes
    reruns and golden reports compare.  ``degree_seconds``
    holds wall time per degree summed over trials, 0.0 for a degree every
    trial proved without a rank, above a free degree or from the column-
    or row-prefix ranks of a ranked degree (:func:`_hilbert_ranks`); it is
    deliberately left out of the JSON view so that reruns with one seed
    are byte-identical.
    """

    kind: str
    parameter: int
    characteristic: int
    seed: int
    trials: int
    target: tuple[int, ...]
    trial_seeds: tuple[int, ...] = ()
    per_trial: tuple[tuple[int, ...], ...] = ()
    best: tuple[int, ...] = ()
    verdict: str = "inconclusive"
    status: str = "ok"
    detail: Optional[str] = None
    generator: str = GENERATOR_NAME
    version: str = VERSION
    degree_seconds: list[float] = dc_field(default_factory=list)

    def to_json_dict(self, command: str = "") -> dict:
        """The fields but ``degree_seconds``, then ``command``: a shallow
        view, as every value is a scalar or a tuple."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "degree_seconds"}
        out["command"] = command
        return out


def family_target(kind: str, parameter: int) -> HVector:
    """Level h-vector the verification must reproduce."""
    return family(kind, parameter).level


def _rank_caps(kind: str, parameter: int) -> tuple[int, ...]:
    """Upper bound on the rank in each degree i of every trial of the
    kind, whatever scalars it samples, from the witness facts alone.

    Every degree is at most ``C(i+2, 2)``, its number of monomials, and at
    most its number of operator rows.  Beyond that:

    * Codimension 5: each generator is ``sum_k w_k L_k^[P]``
      (:func:`codim5_generators`), and contracting it by x^g gives ``sum_k
      w_k c_k^g L_k^[i]``.  So degree i lies in the span of the n_general
      powers of general points and the n_line powers of points on the line
      x1 = 0, and the latter lie in the ``i+1`` binary forms of degree i.
      With two generators of ``C(P-i+2, 2)`` operators each, the cap is
      ``min(C(i+2,2), 2*C(P-i+2,2), min(n_general, C(i+2,2)) + min(n_line,
      i+1))``, whatever the points, in the chart c0 = 1 or not.
    * thm-e: the truncation spans the ``i+1`` binary monomials of degree i
      (`_TRUNCATION_VARS`), and the sampled form of degree e-1 adds at
      most its ``C(e+1-i, 2)`` operators.

    A cap bounds the rank over every field, so a trial that reaches it
    proves that degree, over QQ from GF(q) (:func:`verify_construction`),
    and a trial that reaches every cap proves the whole vector, as no
    other trial can exceed it.
    """
    parity = KIND_PARITIES[kind]
    if parity is None:
        e = parameter
        base = _monomial_counts(_TRUNCATION_VARS, e - 1)
        return tuple(min(comb(i + 2, 2), base[i] + comb(e + 1 - i, 2))
                     for i in range(e))
    n_general, n_line = _codim5_counts(parameter, parity)
    power = _codim5_power(parameter, parity)
    return tuple(min(comb(i + 2, 2), 2 * comb(power - i + 2, 2),
                     min(n_general, comb(i + 2, 2)) + min(n_line, i + 1))
                 for i in range(power + 1))


def _trial_generators(kind: str, parameter: int, field: FieldSpec,
                      trial_seed: int) -> list[Form]:
    """The generators one trial samples, besides the thm-e truncation."""
    parity = KIND_PARITIES[kind]
    if parity is not None:
        return list(codim5_generators(parameter, parity, field, trial_seed))
    e = parameter
    coeffs = sample_scalars(field, comb(e + 1, 2), trial_seed)
    return [Form(3, e - 1, field, np.array(coeffs, dtype=field.dtype))]


def verify_construction(kind: str, parameter: int, field: FieldSpec,
                        seed: int = 0, trials: int = 5) -> VerificationReport:
    """Recompute the Hilbert function from random witnesses and compare.

    Each trial draws fresh generators from a seed derived as
    ``mix(seed, trial)``, so the report is a pure function of its inputs.
    Trials run in order until ``best``, the entrywise maximum over the
    trials run, reaches the cap in every degree (:func:`_rank_caps`),
    whether one trial reaches them all or several do between them, as no
    later trial can raise ``best`` above the caps.  The caps equal the
    targets, so the verdict is ``match``, a proof in the field, exactly
    when ``best`` equals the target.

    A thm-e trial's module is the binary truncation, every monomial of
    degree at most e-1 in x0, x1, plus its sampled form G of degree e-1.
    In degree i the truncation holds the i+1 monomials with a2 = 0, so
    the rank there is i+1 plus that of G's matrix on the columns x^a with
    a2 >= 1.  Contraction carries no multinomial factors, so on those
    columns (x^b∘G) at x^a is (x^b∘(x2∘G)) at x^(a-e2), where x2∘G, of
    degree e-2, holds G's coefficients at its monomials with a2 >= 1; and
    a -> a-e2 keeps descending lex order onto the monomials of degree
    i-1.  So that matrix is ``contraction_matrix([x2∘G], i-1)`` entry for
    entry, exactly over every field, and the trial ranks x2∘G on the caps
    less i+1, one degree down (:func:`_hilbert_ranks`): its Hilbert
    function is 1 in degree 0 and i+1 plus x2∘G's degree i-1 above.

    Over QQ the trials run in GF(q), q = 23 726 561, the largest prime
    whose 16-row panels are exact in float64, so ``sweep --chars
    0,23726561`` runs the same trials twice.  Entries are integer
    polynomials in the samples (sums of w s^a1 t^a2 for codimension 5, as
    contraction powers carry no multinomial factors), so the samples
    lifted to [0, q) give a QQ witness whose matrices reduce mod q to the
    trial's, of rank at least the trial's in every degree: a degree the
    trial proves, at its cap or by the walk, is proved over QQ.

    Otherwise some degree fell short of its cap in every trial, all of
    which ran.  Over QQ the verdict is ``inconclusive``, as a miss mod q
    bounds no miss over QQ.  Over GF(p) an entry of a trial's matrices has
    degree at most k in its samples (k = P+1 for the codimension-5 power P,
    w s^a1 t^a2 with a1 + a2 <= P; k = 1 for thm-e).  If degree i has
    generic rank cap_i, some cap_i-minor is a nonzero polynomial of degree
    at most cap_i*k, nonzero on the chart c0 = 1 too, as the chart reaches
    a dense open set of witnesses (:func:`codim5_generators`), so by
    Schwartz-Zippel (Schwartz, JACM 27, 1980; Zippel, EUROSAM 1979)
    independent trials drawing uniformly from the p residues all miss
    degree i with probability at most (cap_i*k/p)**trials.  If the least
    of these over the short degrees is below 1, the verdict is
    ``mismatch`` with that bound in ``detail``, as (n/d)**trials so that
    its digits stay few; otherwise the field is too small to bound a miss
    and the verdict is ``inconclusive``.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    target = family_target(kind, parameter)
    trial_seeds, per_trial = [], []
    degree_seconds = [0.0] * len(target)
    parity = KIND_PARITIES[kind]
    caps = _rank_caps(kind, parameter)
    gf = field if field.is_modular else FieldSpec(_QQ_TRIAL_PRIME)
    if parity is None:
        by_x2 = _exponents(3, parameter - 1)[:, _TRUNCATION_VARS] > 0
        form_caps = [cap - i for i, cap in enumerate(caps[1:], 2)]
    for t in range(trials):
        trial_seed = mix(seed, t)
        generators = _trial_generators(kind, parameter, gf, trial_seed)
        if parity is None:
            x2_form = Form(3, parameter - 2, gf, generators[0].coeffs[by_x2])
            ranks, seconds = _hilbert_ranks([x2_form], form_caps)
            ranks = (1, *(r + i for i, r in enumerate(ranks, 2)))
            seconds = [0.0, *seconds]
        else:
            ranks, seconds = _hilbert_ranks(generators, caps)
        trial_seeds.append(trial_seed)
        per_trial.append(ranks)
        for i, s in enumerate(seconds):
            degree_seconds[i] += s
        best = tuple(max(col) for col in zip(*per_trial))
        if best == caps:
            break
    report = VerificationReport(
        kind=kind, parameter=parameter, characteristic=field.characteristic,
        seed=seed, trials=trials, target=target.entries,
        trial_seeds=tuple(trial_seeds), per_trial=tuple(per_trial),
        best=best, degree_seconds=degree_seconds)
    if best == target.entries:
        report.verdict = "match"
        return report
    short = [i for i, (b, cap) in enumerate(zip(best, caps)) if b < cap]
    k = 1 if parity is None else _codim5_power(parameter, parity) + 1
    miss = Fraction(min(caps[i] for i in short) * k, gf.characteristic)
    ran = len(per_trial)
    report.detail = (f"degrees {', '.join(map(str, short))} short of their "
                     f"caps in all {ran} trials; ")
    if not field.is_modular:
        report.detail += f"ranks in {gf} are proved lower bounds over QQ"
    elif miss < 1:
        report.verdict = "mismatch"
        report.detail += f"at most ({miss})**{ran} likely if the target holds"
    else:
        report.detail += f"{field} is too small to bound a miss"
    return report


def sweep_characteristics(kind: str, parameter: int,
                          characteristics: Sequence[int], seed: int = 0,
                          trials: int = 5) -> list[VerificationReport]:
    """One verification report per characteristic, in the given order,
    each with the same base seed.  Every characteristic is checked
    (`FieldSpec`) before the first verification runs, so an invalid one
    raises before any trial; so does any error inside a verification.
    """
    specs = [FieldSpec(c) for c in characteristics]
    if not specs:
        raise ValueError("characteristics list is empty")
    return [verify_construction(kind, parameter, field, seed, trials)
            for field in specs]

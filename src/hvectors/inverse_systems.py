"""Macaulay inverse systems over an exact field.

Homogeneous forms are stored densely per degree as coefficient arrays, in
the descending lex order of :func:`monomials`.  The variables of the dual
ring act by contraction (exponent subtraction, killing terms that would go
negative), never term by term: the Hilbert function of the module generated
by a list of forms is read off as the rank of the contraction coefficient
matrix in each degree, one ``take`` from a grid indexed by exponents in
radix P+1 for forms of degree P, under twice the forms in 3 variables and
under six times in 4 (:func:`contraction_matrix`).  A monomial module every
trial shares, the thm-e binary truncation, is never built as forms: it
holds every monomial of its variables, so its columns are pinned and only
the sampled generators are ranked, on the other columns.  Only a band of
degrees is ranked and the rest are proved: below it every degree is full,
because the module is closed under contraction, and above it every degree
is free, because the generators' operator syzygies form a submodule of a
free module, which has no torsion (:func:`_hilbert_ranks`).  On top of that
sit the randomized drivers that check the constructed level h-vectors
against actual rank computations, including a characteristic sweep.  Each
witness bounds its own rank in every degree (:func:`_rank_caps`): a rank at
its cap is proved, over QQ by a trial in GF(23 726 561), and trials at
every cap between them end the verification; a run whose trials all miss a
cap states how likely that is for a target that holds
(:func:`verify_construction`).  Kinds and targets live in :mod:`families`;
the witness facts (point counts, powers, the truncation's variables) stay
here, never derived from them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from functools import lru_cache
from math import comb
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


@lru_cache(maxsize=None)
def monomials(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent tuples of the given degree, in descending lex order.

    This ordering is the canonical one used for dense form storage and for
    contraction-matrix rows and columns.
    """
    if num_vars < 1:
        raise ValueError(f"num_vars must be positive, got {num_vars}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if num_vars == 1:
        return ((degree,),)
    out = []
    for head in range(degree, -1, -1):
        out.extend((head, *tail) for tail in monomials(num_vars - 1, degree - head))
    return tuple(out)


@lru_cache(maxsize=None)
def _exponents(num_vars: int, degree: int) -> np.ndarray:
    """Read-only array of :func:`monomials`, one row per monomial, stored
    column-major so that each variable's exponents are contiguous."""
    out = np.array(monomials(num_vars, degree), order="F")
    out.flags.writeable = False
    return out


def _positions(num_vars: int, degree: int, exps: np.ndarray) -> np.ndarray:
    """Index among ``monomials(num_vars, degree)`` of each exponent row, for
    `Form.from_terms` only.  With s_v the sum of a row's exponents after
    position v, the monomials before it in descending lex order are, for
    each v < num_vars - 1, the C(s_v + k - 1, k), k = num_vars - 1 - v, that
    agree with it before v and are larger at v: one table lookup per v."""
    after = degree - exps[:, :-1].cumsum(axis=1)
    out = np.zeros(len(exps), dtype=np.int64)
    for v, k in enumerate(range(num_vars - 1, 0, -1)):
        table = np.array([comb(s + k - 1, k) for s in range(degree + 1)])
        out += table[after[:, v]]
    return out


def _cells(num_vars: int, form_degree: int, *degrees: int) -> list:
    """Grid cells of each degree's monomials (:func:`contraction_matrix`),
    summed elementwise: an integer ``@`` adds 0.1 MiB of numpy code to RSS."""
    radix = form_degree + 1
    return [sum((exps[:, v] * radix ** (v - 1) for v in range(1, num_vars)),
                np.zeros(len(exps), dtype=np.int64))
            for exps in (_exponents(num_vars, d) for d in degrees)]


class Form:
    """Homogeneous form: a coefficient for every monomial of one degree.

    Coefficients live in a single :class:`FieldSpec`, in a read-only array
    of its dtype, and are kept reduced; a zero means the monomial is absent.
    """

    __slots__ = ("num_vars", "degree", "field", "coeffs")

    def __init__(self, num_vars: int, degree: int, field: FieldSpec,
                 coeffs: Sequence[Scalar]):
        expected = len(monomials(num_vars, degree))
        if len(coeffs) != expected:
            raise ValueError(
                f"need {expected} coefficients for degree {degree} in "
                f"{num_vars} variables, got {len(coeffs)}"
            )
        self.num_vars = num_vars
        self.degree = degree
        self.field = field
        self.coeffs = np.array(coeffs, dtype=field.dtype)
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
        dense = np.zeros(len(monomials(num_vars, degree)), dtype=field.dtype)
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

    Rows are indexed by (generator, operator monomial of complementary
    degree), generator-major, columns by the monomials of the target
    degree; the entry is the coefficient of the column monomial in the
    contracted generator.  Its rank is the dimension of the generated
    module in that degree; an operator that divides none of a generator's
    terms gives a zero row, which :func:`rank` drops.  The matrix is one
    ``take`` from a zeroed grid per generator of degree P in n variables,
    (P+1)**(n-1) cells numbered by the exponents of variables 1..n-1 as
    digits in radix P+1; variable 0 follows from the degree.  Operator and
    column digits add without a carry, so their product sits at the sum of
    their cells.  The grid is under twice the form in 3 variables, where
    every witness lives, under six times in 4, and 161 051 cells at n = 6,
    P = 10.
    """
    num_vars, form_degree, field = _check_generators(generators)
    if not 0 <= degree <= form_degree:
        raise ValueError(f"degree must lie in [0, {form_degree}], got {degree}")
    form, ops, cols = _cells(num_vars, form_degree, form_degree,
                             form_degree - degree, degree)
    grid = np.zeros((len(generators), (form_degree + 1) ** (num_vars - 1)),
                    dtype=field.dtype)
    grid[:, form] = [g.coeffs for g in generators]
    matrix = grid.take(ops[:, None] + cols, axis=1)
    return DenseMatrix(field, matrix.reshape(-1, len(cols)))


def hilbert_function(generators: Sequence[Form]) -> HVector:
    """Hilbert function of the module generated by the forms.

    Entry i is the rank of the degree-i contraction matrix; entry 0 is 1
    and the top entry counts linearly independent generators.  Only a
    band around the generic crossover is ranked: down to the first full
    degree and up to the first degree where the generators' operators are
    independent.  Every degree beyond either end is proved from its
    neighbour (:func:`_hilbert_ranks`).
    """
    _check_generators(generators)
    if all(f.is_zero() for f in generators):
        raise ValueError("no nonzero generator")
    ranks, _ = _hilbert_ranks(generators, 0)
    return HVector(ranks)


def _monomial_counts(num_vars: int, degree: int) -> list[int]:
    """Number of monomials of each degree 0..``degree`` in ``num_vars``
    variables; 0 throughout with no variables."""
    return [comb(i + num_vars - 1, num_vars - 1) if num_vars else 0
            for i in range(degree + 1)]


def _hilbert_ranks(generators: Sequence[Form], shared: int,
                   caps: Sequence[int] = ()
                   ) -> tuple[tuple[int, ...], list[float]]:
    """Hilbert function of the module generated by ``generators`` and a
    monomial module T, with the seconds spent ranking each degree (0.0 for
    a degree proved without a rank).  ``caps``, when given, holds a proved
    upper bound on each degree's rank, passed to :func:`rank`.

    Let F_1..F_g be ``generators``, of degree s in n variables, and R the
    ring of operators.  T holds every monomial of degree at most s in the
    first ``shared`` variables (T is zero when ``shared`` is 0; for thm-e
    it is the binary truncation), ``base_i = C(i+shared-1, shared-1)`` of
    them in degree i, and is closed under contraction.  Degree i of the
    module is T_i plus the row space of ``contraction_matrix(generators,
    i)``, and T_i is spanned by the unit vectors on its columns.  So its
    rank is ``base_i`` plus the rank of that matrix with T's columns
    dropped: the row space modulo those unit vectors.  That rank is capped
    by ``caps[i] - base_i``.

    With ``full_i = C(i+n-1, n-1)`` and ``free_i = base_i +
    g*C(s-i+n-1, n-1)``, the rank in degree i is at most both, and two
    facts, exact over every field, settle a degree from its neighbour:

    * Downward: a degree of rank ``full_i`` holds every monomial of
      degree i.  The module is closed under contraction and every monomial
      of degree i-1 is a contraction of one of degree i, so every lower
      degree is full too.
    * Upward: the operator tuples (o_1..o_g) with ``sum o_j∘F_j`` in T
      form a submodule K of the free module R^g, because T is closed under
      contraction and ``x∘sum o_j∘F_j = sum (x o_j)∘F_j``.  The rank in
      degree i is ``free_i - dim K_{s-i}``.  A free module has no torsion,
      so if K is zero in operator degree s-i it is zero in every lower
      operator degree: a degree of rank ``free_i`` makes every higher
      degree free too.

    The walk ranks the generic crossover, the first degree where ``full_i
    >= free_i``, then walks down while a degree is not full and up while a
    degree is not free; every degree in between is ranked, every lower one
    gets ``full_i`` and every higher one ``free_i``.  Both walks stop at
    degree 0 and s, so the start only changes the cost, never the result.
    """
    num_vars, form_degree, _ = _check_generators(generators)
    degrees = range(form_degree + 1)
    full = _monomial_counts(num_vars, form_degree)
    base = _monomial_counts(shared, form_degree)
    free = [base[i] + len(generators) * full[form_degree - i] for i in degrees]
    ranks = list(free)
    seconds = [0.0] * len(degrees)

    def rank_degree(i: int) -> None:
        start = time.perf_counter()
        matrix = contraction_matrix(generators, i)
        if shared:
            outside = _exponents(num_vars, i)[:, shared:].any(axis=1)
            matrix = DenseMatrix(matrix.field, matrix.entries[:, outside])
        ranks[i] = base[i] + rank(matrix, caps[i] - base[i] if caps else None)
        seconds[i] = time.perf_counter() - start

    low = high = next((i for i in degrees if full[i] >= free[i]), form_degree)
    rank_degree(low)
    while low > 0 and ranks[low] < full[low]:
        low -= 1
        rank_degree(low)
    while high < form_degree and ranks[high] < free[high]:
        high += 1
        rank_degree(high)
    ranks[:low] = full[:low]
    return tuple(ranks), seconds


def linear_combination(weights: np.ndarray, rows: np.ndarray,
                       field: FieldSpec) -> np.ndarray:
    """Weighted sums of coefficient rows, one per row of ``weights``:
    ``weights @ rows`` over the field, by the exact modular product of
    float64 limbs for every prime (`exact._matmul_mod_p`) and on Python
    integers over the rationals."""
    p = field.characteristic
    return _matmul_mod_p(weights, rows, p) if p else weights @ rows


def contraction_power(linears: np.ndarray, power: int,
                      field: FieldSpec) -> np.ndarray:
    """Degree-``power`` forms playing the role of powers of linear forms:
    the coefficients of one for each row of linear coefficients, in the
    order of :func:`monomials`.

    The coefficient of y^a is c^a (the product of the linear coefficients
    raised to the exponents, with no multinomial factors), so a monomial
    contraction acts coefficient by coefficient: x^b sends the form of
    degree P to c^b times the one of degree P-|b|.  That mirrors how
    classical powers behave under differentiation in characteristic zero
    and stays valid over every field.

    Step k of the loop raises every coefficient of every form to the k-th
    power with one array product into the contiguous slice of power k;
    each variable then gathers its column of powers by exponent and
    multiplies it in.  The quotients of the linear coefficients and of the
    power tables are computed once each (`FieldSpec.multiplier`).
    """
    powers = np.ones((power + 1, *linears.shape), dtype=field.dtype)
    step = field.multiplier(linears)
    for k in range(1, power + 1):
        field.multiply(powers[k - 1], step, out=powers[k])
    tables = powers.transpose(1, 0, 2)
    multipliers = field.multiplier(tables)
    exponents = _exponents(linears.shape[1], power)
    dense = tables[:, exponents[:, 0], 0]
    for var in range(1, linears.shape[1]):
        field.multiply(dense, multipliers[:, exponents[:, var], var],
                       out=dense)
    return dense


def _codim5_counts(d: int, parity: str) -> tuple[int, int]:
    n_general = comb(d + 1, 2)
    # The level plateau equals the total point count, which forces one
    # fewer collinear point in the even case.
    n_line = d + 4 if parity == "odd" else d + 3
    return n_general, n_line


# thm-e's level module holds the binary truncation: every monomial of
# degree at most e-1 in the first two variables.
_TRUNCATION_VARS = 2


def _codim5_power(d: int, parity: str) -> int:
    return 2 * d if parity == "odd" else 2 * d - 1


def codim5_generators(
    d: int, parity: str, field: FieldSpec, seed: int
) -> tuple[Form, Form]:
    """Two random generators for the codimension-5 level module.

    Samples C(d+1,2) general linear forms in 3 variables and d+4 (odd) or
    d+3 (even) linear forms supported on the last two variables, raises
    each to the contraction power 2d (odd) or 2d-1 (even), and returns two
    independent random combinations.  Fully determined by (d, parity,
    field, seed).
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if d < MIN_HALF_DEGREE:
        raise ValueError(f"d must be >= {MIN_HALF_DEGREE}, got {d}")
    n_general, n_line = _codim5_counts(d, parity)
    power = _codim5_power(d, parity)
    count = n_general + n_line
    cut = 3 * n_general + 2 * n_line
    samples = np.array(sample_scalars(field, cut + 2 * count, seed),
                       dtype=field.dtype)
    linears = np.zeros((count, 3), dtype=field.dtype)
    linears[:n_general] = samples[:3 * n_general].reshape(-1, 3)
    linears[n_general:, 1:] = samples[3 * n_general:cut].reshape(-1, 2)
    weights = samples[cut:].reshape(2, count)
    first, second = linear_combination(
        weights, contraction_power(linears, power, field), field)
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
    trial proved from its neighbour without a rank (:func:`_hilbert_ranks`);
    it is deliberately left out of the JSON view so that reruns with one
    seed are byte-identical.
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
      (:func:`linear_combination`), where L_k^[P] is the contraction power
      of the sampled linear form L_k (:func:`contraction_power`), and
      contracting it by x^g gives ``sum_k w_k c_k^g L_k^[i]``.  So degree i
      lies in the span of the n_general powers of general forms and the
      n_line powers of forms in the last two variables, and the latter lie
      in the ``i+1`` binary forms of degree i.  With two generators of
      ``C(P-i+2, 2)`` operators each, the cap is ``min(C(i+2,2),
      2*C(P-i+2,2), min(n_general, C(i+2,2)) + min(n_line, i+1))``.
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
    return [Form(3, e - 1, field, coeffs)]


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

    Over QQ the trials run in GF(q), q = 23 726 561, the largest prime
    whose 16-row panels are exact in float64, so ``sweep --chars
    0,23726561`` runs the same trials twice.  Entries are integer
    polynomials in the samples (contraction powers carry no multinomial
    factors), so the samples lifted to [0, q) give a QQ witness whose
    matrices reduce mod q to the trial's, of rank at least the trial's in
    every degree: a degree the trial proves, at its cap or by the walk, is
    proved over QQ.

    Otherwise some degree fell short of its cap in every trial, all of
    which ran.  Over QQ the verdict is ``inconclusive``, as a miss mod q
    bounds no miss over QQ.  Over GF(p) an entry of a trial's matrices has
    degree k in its samples (k = P+1 for the codimension-5 power P, a
    weight times P linear coefficients; k = 1 for thm-e).  If degree i has
    generic rank cap_i, some cap_i-minor is a nonzero polynomial of degree
    at most cap_i*k, so by Schwartz-Zippel (Schwartz, JACM 27, 1980;
    Zippel, EUROSAM 1979) independent trials drawing uniformly from the p
    residues all miss degree i with probability at most
    (cap_i*k/p)**trials.  If the least of these over the short degrees is
    below 1, the verdict is ``mismatch`` with that bound in ``detail``, as
    (n/d)**trials so that its digits stay few; otherwise the field is too
    small to bound a miss and the verdict is ``inconclusive``.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    target = family_target(kind, parameter)
    trial_seeds, per_trial = [], []
    degree_seconds = [0.0] * len(target)
    parity = KIND_PARITIES[kind]
    shared = _TRUNCATION_VARS if parity is None else 0
    caps = _rank_caps(kind, parameter)
    gf = field if field.is_modular else FieldSpec(_QQ_TRIAL_PRIME)
    for t in range(trials):
        trial_seed = mix(seed, t)
        generators = _trial_generators(kind, parameter, gf, trial_seed)
        ranks, seconds = _hilbert_ranks(generators, shared, caps)
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

#!/usr/bin/env python3
"""Check the constructed level h-vectors against actual rank computations.

The claimed vectors are Hilbert functions of explicit inverse-system
modules.  This script rebuilds those modules from seeded random data —
general forms, and powers of linear forms dual to random points — and
reads every graded dimension off as the rank of a contraction coefficient
matrix over GF(32003).  Genericity is an open condition, so the report
takes the entrywise best over independent trials: any witness reaching
the target certifies that degree.  The last section turns to GF(2) and
GF(13), where a match is still a proof and a miss may mean nothing.
"""
import time

from hvectors import (
    KIND_CODIM5_EVEN,
    KIND_CODIM5_ODD,
    KIND_SOCLE_DEGREE,
    DenseMatrix,
    FieldSpec,
    Form,
    contraction_matrix,
    hilbert_function,
    monomials,
    rank,
    sample_scalars,
    verify_construction,
)

field = FieldSpec(32003)

print("=" * 72)
print("A single inverse system, step by step (socle-degree family, e = 6)")
print("=" * 72)
truncation = [Form.from_terms(3, 5, field, {(5 - k, k, 0): 1})
              for k in range(6)]
print(f"  truncation generators: {len(truncation)} quintic monomials in y1, y2")
print(f"  their Hilbert function: {hilbert_function(truncation)}")
quintic = Form.from_coefficients(3, 5, field, sample_scalars(field, 21, seed=1))
generators = truncation + [quintic]
for i in (2, 3, 4):
    matrix = contraction_matrix(generators, i)
    print(f"  degree {i}: rank of the {matrix.rows}x{matrix.cols} "
          f"contraction matrix = {rank(matrix)}")
print(f"  with one random quintic added: {hilbert_function(generators)}")
print("  target level vector:            1,3,6,10,8,7")
print("  The truncation holds every monomial in y1, y2, so verification")
print("  builds no forms for it: each degree i gets its i+1 monomials, and")
print("  the quintic's rows count only on the columns divisible by y3.")
print("  Contraction carries no multinomial factors, so those rows are the")
print("  rows of y3∘quintic, its terms divisible by y3 as a quartic, in")
print("  degree i-1: verify_construction ranks that quartic one degree down.")
by_y3 = [c for mono, c in zip(monomials(3, 5), quintic.coeffs.tolist())
         if mono[2]]
quartic = Form.from_coefficients(3, 4, field, by_y3)
for i in (2, 3, 4):
    outside = [k for k, mono in enumerate(monomials(3, i)) if mono[2]]
    rows = contraction_matrix([quintic], i).entries[:, outside]
    lowered = contraction_matrix([quartic], i - 1)
    print(f"  degree {i}: {i + 1} + rank {rank(DenseMatrix(field, rows))} "
          f"of the quintic's {len(rows)}x{len(outside)} rows on those columns")
    print(f"            = {i + 1} + rank {rank(lowered)} of y3∘quintic's "
          f"{lowered.rows}x{lowered.cols} matrix in degree {i - 1}")
print()

print("=" * 72)
print("Full verification drivers")
print("=" * 72)
for kind, parameter in ((KIND_SOCLE_DEGREE, 6), (KIND_CODIM5_EVEN, 10)):
    start = time.perf_counter()
    report = verify_construction(kind, parameter, field, seed=2024, trials=3)
    elapsed = time.perf_counter() - start
    print(f"  {kind} parameter={parameter}: verdict {report.verdict} "
          f"in {elapsed:.2f}s")
    print(f"    target {','.join(map(str, report.target))}")
    print(f"    best   {','.join(map(str, report.best))}")
print()

print("=" * 72)
print("Small fields: a match is still a proof, a miss gets a bound")
print("=" * 72)
report = verify_construction(KIND_SOCLE_DEGREE, 6, FieldSpec(2), seed=0,
                             trials=5)
print(f"  {KIND_SOCLE_DEGREE} e=6 over GF(2): verdict {report.verdict} "
      f"after {len(report.per_trial)} trials")
print("  Every trial's rank is capped in every field, so a trial at every")
print("  cap proves the vector even over GF(2).")
d, small = 10, FieldSpec(13)
power = 2 * d  # P for the odd parity: every entry has degree P + 1
report = verify_construction(KIND_CODIM5_ODD, d, small, seed=0, trials=5)
print(f"  {KIND_CODIM5_ODD} d={d} over {small}: verdict {report.verdict}")
print(f"    best   {','.join(map(str, report.best))}")
print(f"    detail {report.detail}")
# The figures below are read off this report: the caps are its targets.
short = [i for i, (b, t) in enumerate(zip(report.best, report.target))
         if b < t]
least = min(short, key=report.target.__getitem__)
cap = report.target[least]
plateau = max(report.target)
first = report.target.index(plateau)
p = small.characteristic
print(f"  Degree {least} has cap {cap}, and a {cap}-minor is a polynomial of "
      "degree up to")
print(f"  {cap}*{power + 1} in the samples, far above the {p} elements of "
      f"{small}: the")
print("  Schwartz-Zippel bound on a miss exceeds 1.  In a field large enough")
print("  for a bound below 1, the same miss would be a mismatch stating it.")
print(f"  Here degree {first} cannot reach its cap {plateau} at all: that "
      f"needs {first + 1}")
print(f"  distinct points (1 : 0 : t) on the line, and {small} has {p} "
      "values t.")
assert first in short and first + 1 > p

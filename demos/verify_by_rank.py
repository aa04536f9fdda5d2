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
print("  The truncation holds every monomial in y1, y2, so the verification")
print("  driver builds no forms for it: it pins those columns and ranks the")
print("  quintic's rows alone on the others.")
for i in (2, 3, 4):
    outside = [k for k, mono in enumerate(monomials(3, i)) if mono[2]]
    rows = contraction_matrix([quintic], i).entries[:, outside]
    print(f"  degree {i}: {i + 1} pinned + rank {rank(DenseMatrix(field, rows))} "
          f"of the quintic's {len(rows)}x{len(outside)} rows")
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
report = verify_construction(KIND_CODIM5_ODD, 10, FieldSpec(13), seed=0,
                             trials=5)
print(f"  {KIND_CODIM5_ODD} d=10 over GF(13): verdict {report.verdict}")
print(f"    best   {','.join(map(str, report.best))}")
print(f"    detail {report.detail}")
print("  Degree 10 has cap 66, and a 66-minor is a polynomial of degree up to")
print("  66*21 in the samples, far above the 13 elements of GF(13): the")
print("  Schwartz-Zippel bound on a miss exceeds 1.  In a field large enough")
print("  for a bound below 1, the same miss would be a mismatch stating it.")

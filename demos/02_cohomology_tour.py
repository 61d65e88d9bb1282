"""Cohomology of single brackets and of compatible pairs, exactly.

Degree 1 of the Heisenberg algebra with adjoint coefficients recovers the
classical count of outer derivations.  For a compatible pair the complex
doubles up: degree n holds n copies of the equivariant cochains and the
differential interleaves the two single-bracket coboundaries.  Collapsing a
compatible cochain to the sum bracket (half the vector in degree 0, the sum
of the components otherwise) is a chain map, so both columns below are
honest cohomology dimensions.
"""

from homlie import (
    adjoint_representation,
    cohomology_dimensions,
    derivation_space,
    sum_bracket,
    sum_representation,
)
from homlie import fixtures

h3 = fixtures.h3()
rep = adjoint_representation(h3)
print("Heisenberg algebra, adjoint coefficients:")
for n in range(0, 4):
    r = cohomology_dimensions(h3, rep, n)
    print(f"  degree {n}: cochains {r.dim_cochains:2d}  cocycles {r.dim_cocycles:2d}"
          f"  coboundaries {r.dim_coboundaries:2d}  cohomology {r.dim_cohomology:2d}")
print("  (degree 1 = outer derivations: 6 derivations minus 2 inner ones)\n")

pair = fixtures.compatible_h3()
crep = adjoint_representation(pair)
print("Heisenberg bracket paired with its Nijenhuis deformation:")
for n in range(0, 4):
    r = cohomology_dimensions(pair, crep, n)
    print(f"  degree {n}: cochains {r.dim_cochains:2d}  cocycles {r.dim_cocycles:2d}"
          f"  coboundaries {r.dim_coboundaries:2d}  cohomology {r.dim_cohomology:2d}")

ds = derivation_space(pair, crep)
print(f"\nderivations {len(ds.derivations)}, inner {len(ds.inner)}, outer {ds.outer_dim}"
      f" (= degree-1 cohomology)\n")

d2 = fixtures.d2()
drep = adjoint_representation(d2)
plus = sum_bracket(d2, 1, 1)
prep = sum_representation(drep)
print("Two-bracket fixture next to its sum-bracket collapse:")
print("  degree | two-bracket | sum bracket")
for n in range(0, 3):
    two = cohomology_dimensions(d2, drep, n).dim_cohomology
    one = cohomology_dimensions(plus, prep, n).dim_cohomology
    print(f"    {n}    |     {two}       |     {one}")

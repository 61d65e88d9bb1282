"""Abelian extensions classified by degree-2 cohomology.

The 2-dimensional two-bracket fixture together with a 2-dimensional module
has a 2-dimensional degree-2 cohomology, so it carries genuinely different
extensions.  Building from a cocycle and reading the cocycle back off the
splitting are mutually inverse; shifting the cocycle by a coboundary gives
an equivalent extension (with an explicit morphism); distinct classes give
inequivalent ones; and the class ignores the choice of splitting.
"""

from homlie import (
    Cochain,
    CompatibleCochain,
    ExtensionCocycle,
    build_extension,
    check_equivalence,
    cohomology_dimensions,
    compatible_coboundary,
    ext_class,
    extract_cocycle,
)
from homlie import fixtures
from homlie.extensions import alternate_splitting

c = fixtures.d2()
rep = fixtures.d2_extension_rep()
h2 = cohomology_dimensions(c, rep, 2)
print(f"degree-2 cohomology: dim {h2.dim_cohomology} "
      f"(cocycles {h2.dim_cocycles}, coboundaries {h2.dim_coboundaries})\n")

z = ExtensionCocycle(Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}),
                     Cochain.zero(2, 2, 2))
e = build_extension(c, rep, z)
print(f"built a {e.total.dim}-dimensional total structure from a cocycle")
_, z_back = extract_cocycle(e)
print(f"round trip returns the same cocycle: {z_back.f1.flatten() == z.f1.flatten()}")
fmt = lambda v: "(" + ", ".join(str(x) for x in v) + ")"
print(f"class coordinates: {fmt(ext_class(e))}\n")

tau = Cochain.from_values(1, 2, 2, {(0,): [0, 1]})
shift = compatible_coboundary(c, rep, CompatibleCochain(1, (tau,)))
z2 = ExtensionCocycle(z.f1 + shift.components[0], z.f2 + shift.components[1])
e2 = build_extension(c, rep, z2)
phi = check_equivalence(e, e2)
print(f"cohomologous cocycle gives an equivalent extension: {phi is not None}")
print(f"equivalence morphism:\n{phi}\n")

z3 = ExtensionCocycle(Cochain.zero(2, 2, 2),
                      Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}))
e3 = build_extension(c, rep, z3)
print(f"a different class is inequivalent: {check_equivalence(e, e3) is None}")
print(f"its coordinates: {fmt(ext_class(e3))}\n")

e_alt = alternate_splitting(e, tau)
print(f"alternate splitting, same class: {ext_class(e_alt) == ext_class(e)}")

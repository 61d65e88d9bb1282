import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from homlie import (
    AbelianExtension,
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    ContractError,
    ExtensionCocycle,
    Matrix,
    PreconditionError,
    Representation,
    UsageError,
    adjoint_representation,
    build_extension,
    check_equivalence,
    class_coordinates,
    cohomology_dimensions,
    compatible_coboundary,
    ext_class,
    extract_cocycle,
    hom_cochain_basis,
    semidirect_product,
    verify_structure,
)
from homlie import fixtures
from homlie.cochains import exterior_square, tuple_position
from homlie.extensions import _verify_morphism, alternate_splitting

from helpers import naive_extension_validation, naive_extract_cocycle, record_verifications

F = Fraction


def ext_setting():
    c = fixtures.d2()
    rep = fixtures.d2_extension_rep()
    return c, rep


def cocycle_from(pair):
    return ExtensionCocycle(pair.components[0], pair.components[1])


def test_zero_cocycle_gives_semidirect_product():
    c, rep = ext_setting()
    z = ExtensionCocycle(Cochain.zero(2, 2, 2), Cochain.zero(2, 2, 2))
    e = build_extension(c, rep, z)
    semi = semidirect_product(c, rep)
    assert e.total == semi
    assert ext_class(e) == (F(0), F(0))


def test_build_rejects_non_cocycle():
    # Dimension 2 has no arity-3 cochains, so every pair is a cocycle there;
    # use the 3-dimensional pair with its adjoint module instead.
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    from homlie import hom_cochain_basis

    for f in hom_cochain_basis(c.alpha, c.alpha, 2):
        z = ExtensionCocycle(f, Cochain.zero(2, 3, 3))
        if not compatible_coboundary(c, rep, z.as_compatible()).is_zero():
            with pytest.raises(PreconditionError):
                build_extension(c, rep, z)
            return
    pytest.fail("no non-cocycle found in the basis")


def test_build_checks_representation_base_and_equivariance_once_each(monkeypatch):
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    z = ExtensionCocycle(Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3))
    verified = record_verifications(monkeypatch)
    e = build_extension(c, rep, z)
    # The representation, the base and the total, each once and in that order.
    assert [type(s).__name__ for s in verified] == [
        "Representation", "CompatibleHomLieAlgebra", "CompatibleHomLieAlgebra"]
    assert verified[0] is rep and verified[1] is c and verified[2] is e.total
    # Built again, only the new total is verified: rep and c keep their reports.
    verified.clear()
    again = build_extension(c, rep, z)
    assert len(verified) == 1 and verified[0] is again.total
    # f(e_0, e_2) = e_1, while the twist fixes e_0 and e_2 but moves e_1
    skewed = ExtensionCocycle(Cochain.from_values(2, 3, 3, {(0, 2): [0, 1, 0]}),
                              Cochain.zero(2, 3, 3))
    with pytest.raises(PreconditionError, match="component is not twist-equivariant"):
        build_extension(c, rep, skewed)
    # e_0 acting by e_2 -> e_1 does not commute with the twist
    table = (Cochain.from_values(1, 3, 3, {(2,): [0, 1, 0]}).coeffs,) + rep.actions[0][1:]
    broken = Representation(c, 3, rep.beta, (table, rep.actions[1]))
    assert not verify_structure(broken).passed
    with pytest.raises(PreconditionError, match="invalid representation"):
        build_extension(c, broken, z)


def test_round_trip_build_then_extract():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}),
        Cochain.from_values(2, 2, 2, {(0, 1): [0, 0]}),
    )
    e = build_extension(c, rep, z)
    assert verify_structure(e.total).passed
    rep_back, z_back = extract_cocycle(e)
    assert rep_back == rep
    assert z_back.f1.flatten() == z.f1.flatten()
    assert z_back.f2.flatten() == z.f2.flatten()


def test_extension_invariants_hold():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    e = build_extension(c, rep, z)
    assert (e.projection @ e.inclusion).is_zero()
    assert e.projection @ e.splitting == Matrix.identity(2)
    assert e.total.alpha @ e.splitting == e.splitting @ c.alpha


def test_invalid_splitting_rejected():
    # A projection intertwining the twists need not admit a compatible
    # splitting: with total twist e1 -> e2 -> 0 over a base with zero twist,
    # any section violates the splitting condition.
    base = CompatibleHomLieAlgebra.from_brackets(1, Matrix.zero(1, 1), {}, {})
    total = CompatibleHomLieAlgebra.from_brackets(
        2, Matrix.from_rows([[0, 0], [1, 0]]), {}, {}
    )
    inclusion = Matrix.from_rows([[0], [1]])
    projection = Matrix.from_rows([[1, 0]])
    splitting = Matrix.from_rows([[1], [0]])
    with pytest.raises(PreconditionError):
        AbelianExtension(
            base, 1, Matrix.zero(1, 1), total, inclusion, projection, splitting
        )


def test_cohomologous_cocycles_give_equivalent_extensions():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    tau = Cochain.from_values(1, 2, 2, {(0,): [0, 1]})
    shift = compatible_coboundary(c, rep, CompatibleCochain(1, (tau,)))
    assert not shift.is_zero()
    z_shifted = ExtensionCocycle(z.f1 + shift.components[0], z.f2 + shift.components[1])
    e1 = build_extension(c, rep, z)
    e2 = build_extension(c, rep, z_shifted)
    phi = check_equivalence(e1, e2)
    assert phi is not None
    # The morphism covers the identities on base and fiber and intertwines
    # the twists (check_equivalence re-verifies; assert key pieces here too).
    assert phi @ e1.inclusion == e2.inclusion
    assert e2.projection @ phi == e1.projection
    assert phi @ e1.total.alpha == e2.total.alpha @ phi
    assert ext_class(e1) == ext_class(e2)


def test_distinct_classes_give_inequivalent_extensions():
    c, rep = ext_setting()
    zA = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    zB = ExtensionCocycle(
        Cochain.zero(2, 2, 2), Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]})
    )
    eA = build_extension(c, rep, zA)
    eB = build_extension(c, rep, zB)
    assert check_equivalence(eA, eB) is None
    assert ext_class(eA) != ext_class(eB)


def test_self_equivalence_is_identity_like():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    e = build_extension(c, rep, z)
    phi = check_equivalence(e, e)
    assert phi == Matrix.identity(4)


def test_alternate_splitting_preserves_action_and_shifts_cocycle():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    e = build_extension(c, rep, z)
    tau = Cochain.from_values(1, 2, 2, {(0,): [2, 1], (1,): [0, 3]})
    e_alt = alternate_splitting(e, tau)
    rep_alt, z_alt = extract_cocycle(e_alt)
    assert rep_alt == rep  # induced action is splitting-independent, bit for bit
    shift = compatible_coboundary(c, rep, CompatibleCochain(1, (tau,)))
    assert z_alt.f1.flatten() == (z.f1 + shift.components[0]).flatten()
    assert z_alt.f2.flatten() == (z.f2 + shift.components[1]).flatten()
    assert ext_class(e_alt) == ext_class(e)


def test_ext_class_verifies_the_induced_representation_once(monkeypatch):
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    report = cohomology_dimensions(c, rep, 2)
    assert report.dim_cohomology > 0
    for k, z in enumerate(report.cohomology_basis):
        e = build_extension(c, rep, cocycle_from(z))
        verified = record_verifications(monkeypatch)
        coordinates = ext_class(e)
        assert [type(s).__name__ for s in verified] == ["Representation"]
        assert coordinates == class_coordinates(report, z)
        assert coordinates == tuple(F(int(i == k)) for i in range(report.dim_cohomology))
        # The induced module is kept on the extension: a repeat verifies nothing.
        verified.clear()
        assert ext_class(e) == coordinates
        assert extract_cocycle(e) is extract_cocycle(e)
        assert verified == []
        monkeypatch.undo()


def test_classification_bijection_desk_scale():
    c, rep = ext_setting()
    report = cohomology_dimensions(c, rep, 2)
    assert 1 <= report.dim_cohomology <= 3
    reps = [cocycle_from(z) for z in report.cohomology_basis]
    extensions = [build_extension(c, rep, z) for z in reps]
    for e, z in zip(extensions, reps):
        rebuilt = build_extension(c, rep, extract_cocycle(e)[1])
        assert rebuilt.total == e.total
    for a, b in itertools.combinations(range(len(extensions)), 2):
        assert check_equivalence(extensions[a], extensions[b]) is None
    classes = [ext_class(e) for e in extensions]
    assert len(set(classes)) == len(classes)


def test_extension_pipeline_with_nontrivial_twist():
    # With a non-identity twist the splitting condition and the equivariance
    # of the shift cochain genuinely constrain the solves.
    from homlie import hom_cochain_basis

    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    report = cohomology_dimensions(c, rep, 2)
    assert report.dim_cohomology > 0
    z = cocycle_from(report.cohomology_basis[0])
    e = build_extension(c, rep, z)
    assert e.total.alpha @ e.splitting == e.splitting @ c.alpha
    rep_back, z_back = extract_cocycle(e)
    assert rep_back == rep
    assert z_back.f1.flatten() == z.f1.flatten()
    tau_basis = hom_cochain_basis(c.alpha, rep.beta, 1)
    assert tau_basis
    tau = tau_basis[0]
    shift = compatible_coboundary(c, rep, CompatibleCochain(1, (tau,)))
    z2 = ExtensionCocycle(z.f1 + shift.components[0], z.f2 + shift.components[1])
    e2 = build_extension(c, rep, z2)
    phi = check_equivalence(e, e2)
    assert phi is not None
    assert ext_class(e) == ext_class(e2)
    e_alt = alternate_splitting(e, tau)
    assert extract_cocycle(e_alt)[0] == rep
    assert ext_class(e_alt) == ext_class(e)


def test_alternate_splitting_requires_equivariant_shift():
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    z = ExtensionCocycle(Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3))
    e = build_extension(c, rep, z)
    # e1 -> e2 does not commute with the unipotent twist
    tau = Cochain.from_values(1, 3, 3, {(0,): [0, 1, 0]})
    with pytest.raises(PreconditionError):
        alternate_splitting(e, tau)


def test_equivalence_requires_same_setting():
    c, rep = ext_setting()
    z = ExtensionCocycle(Cochain.zero(2, 2, 2), Cochain.zero(2, 2, 2))
    e = build_extension(c, rep, z)
    other_rep = adjoint_representation(c)
    e_other = build_extension(
        c, other_rep, ExtensionCocycle(Cochain.zero(2, 2, 2), Cochain.zero(2, 2, 2))
    )
    with pytest.raises(UsageError):
        check_equivalence(e, e_other)


# ---------------------------------------------------------------------------
# the matrix identities against the per-pair oracles, in moved coordinates
# ---------------------------------------------------------------------------

def unit(rows, cols, r, c):
    return Matrix(rows, cols, tuple(F(int(k == r * cols + c)) for k in range(rows * cols)))


def unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its inverse, both
    products of elementary matrices."""
    p, p_inv = Matrix.identity(n), Matrix.identity(n)
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        step = unit(n, n, a, b).scale(rng.choice([-2, -1, 1, 2]))
        p, p_inv = (Matrix.identity(n) + step) @ p, p_inv @ (Matrix.identity(n) - step)
    return p, p_inv


@lru_cache(maxsize=None)
def split_extension(setting):
    """A valid extension with a nonzero cocycle in split coordinates."""
    if setting == "d2":
        c, rep = ext_setting()
        z = ExtensionCocycle(
            Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
        )
    else:
        c = fixtures.twisted_compatible_h3()
        rep = adjoint_representation(c)
        z = cocycle_from(cohomology_dimensions(c, rep, 2).cohomology_basis[0])
    return build_extension(c, rep, z)


def data(e):
    return dict(base=e.base, fiber_dim=e.fiber_dim, fiber_beta=e.fiber_beta, total=e.total,
                inclusion=e.inclusion, projection=e.projection, splitting=e.splitting)


def moved(d, p, p_inv):
    """The same extension data in the total basis moved by p: mu' = p mu L2(p^-1),
    alpha' = p alpha p^-1, i' = p i, j' = j p^-1, s' = p s."""
    t = d["total"]
    square = exterior_square(p_inv)
    total = CompatibleHomLieAlgebra(t.dim, p @ t.alpha @ p_inv,
                                    p @ t.bracket1 @ square, p @ t.bracket2 @ square)
    return dict(d, total=total, inclusion=p @ d["inclusion"],
                projection=d["projection"] @ p_inv, splitting=p @ d["splitting"])


def bump_bracket(d, which, row, pair):
    """Add 1 to one entry of a total bracket: row `row` of the column of `pair`."""
    t = d["total"]
    h = t.dim
    brackets = list(t.brackets)
    brackets[which - 1] += unit(h, comb(h, 2), row, tuple_position(h, 2)[pair])
    return dict(d, total=CompatibleHomLieAlgebra(h, t.alpha, *brackets))


def g_of(d):
    return d["base"].dim


# Each tamper breaks one datum of a valid split extension.  Three messages
# of the validation cannot be reached once the earlier checks pass, so no
# tamper targets them: j s = 1 makes the projection surjective; with [s | i]
# invertible, the two splitting and inclusion twist conditions force
# alpha_b j = j alpha_t; and a surjective morphism from a valid total
# structure that intertwines the twists leaves a valid base.
TAMPERS = [
    ("annihilate", "projection does not annihilate the fiber",
     lambda d: dict(d, projection=d["projection"] + unit(g_of(d), d["total"].dim, 0, g_of(d)))),
    ("section", "splitting is not a section of the projection",
     lambda d: dict(d, splitting=d["splitting"].scale(2))),
    ("injective", "inclusion is not injective",
     lambda d: dict(d, inclusion=d["inclusion"] @ Matrix.diagonal(
         [1] * (d["fiber_dim"] - 1) + [0]))),
    ("splitting-twist", "splitting does not intertwine the twists",
     lambda d: dict(d, total=CompatibleHomLieAlgebra(
         d["total"].dim, d["total"].alpha + unit(d["total"].dim, d["total"].dim, 0, 0),
         *d["total"].brackets))),
    ("inclusion-twist", "inclusion does not intertwine the twists",
     lambda d: dict(d, fiber_beta=d["fiber_beta"] + Matrix.identity(d["fiber_dim"]))),
    ("abelian[1]", "fiber is not abelian inside the total algebra",
     lambda d: bump_bracket(d, 1, g_of(d), (g_of(d), g_of(d) + 1))),
    ("abelian[2]", "fiber is not abelian inside the total algebra",
     lambda d: bump_bracket(d, 2, g_of(d), (g_of(d), g_of(d) + 1))),
    ("morphism[1]", "projection is not a bracket morphism",
     lambda d: bump_bracket(d, 1, 0, (0, 1))),
    ("morphism[2]", "projection is not a bracket morphism",
     lambda d: bump_bracket(d, 2, 0, (0, 1))),
    ("abelian[1]-before-morphism[1]", "fiber is not abelian inside the total algebra",
     lambda d: bump_bracket(bump_bracket(d, 1, 0, (0, 1)), 1, g_of(d), (g_of(d), g_of(d) + 1))),
    ("morphism[1]-before-abelian[2]", "projection is not a bracket morphism",
     lambda d: bump_bracket(bump_bracket(d, 2, g_of(d), (g_of(d), g_of(d) + 1)), 1, 0, (0, 1))),
    ("total", "total structure fails verification",
     lambda d: bump_bracket(d, 1, g_of(d), (0, g_of(d)))),
]


@pytest.mark.parametrize("coords", ["split", "moved"])
@pytest.mark.parametrize("setting", ["d2", "twisted_h3"])
@pytest.mark.parametrize("message,tamper", [t[1:] for t in TAMPERS], ids=[t[0] for t in TAMPERS])
def test_validation_rejects_each_tampered_datum_like_the_pair_oracle(setting, coords, message,
                                                                     tamper):
    d = tamper(data(split_extension(setting)))
    if coords == "moved":
        d = moved(d, *unimodular(random.Random(setting), d["total"].dim))
    with pytest.raises(PreconditionError) as got:
        AbelianExtension(**d)
    with pytest.raises(PreconditionError) as want:
        naive_extension_validation(**d)
    assert str(got.value) == message == str(want.value)


@pytest.mark.parametrize("setting", ["d2", "twisted_h3"])
def test_moved_extension_reads_the_pair_oracle_cocycle_and_keeps_its_class(setting):
    e = split_extension(setting)
    rep_shift = hom_cochain_basis(e.base.alpha, e.fiber_beta, 1)[0]
    for seed in range(4):
        d = moved(data(e), *unimodular(random.Random(seed), e.total.dim))
        naive_extension_validation(**d)
        moved_e = AbelianExtension(**d)
        for ext in (moved_e, alternate_splitting(moved_e, rep_shift)):
            assert extract_cocycle(ext) == naive_extract_cocycle(ext)
            assert ext_class(ext) == ext_class(e)


def test_verify_morphism_rejects_one_tampered_bracket_entry():
    c, rep = ext_setting()
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    tau = CompatibleCochain(1, (Cochain.from_values(1, 2, 2, {(0,): [0, 1]}),))
    shift = compatible_coboundary(c, rep, tau)
    e1 = build_extension(c, rep, z)
    e2 = build_extension(c, rep, ExtensionCocycle(*(z.as_compatible() + shift).components))
    phi = check_equivalence(e1, e2)
    _verify_morphism(e1, e2, phi)
    # Moving e_0 by the fiber vector e_(g+1) still fixes the fiber, covers the
    # base and commutes with the identity twists, but breaks [e_0, e_1]_1.
    tampered = phi + unit(4, 4, 3, 0)
    assert tampered @ e1.inclusion == e2.inclusion
    assert e2.projection @ tampered == e1.projection
    with pytest.raises(ContractError, match="morphism does not preserve the brackets"):
        _verify_morphism(e1, e2, tampered)

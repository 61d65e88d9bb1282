import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from homlie import (
    AbelianExtension,
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    ExtensionCocycle,
    HomLieAlgebra,
    LinearGenerator,
    LinearOperator,
    Matrix,
    NIJENHUIS,
    PreconditionError,
    ROTA_BAXTER,
    Representation,
    UsageError,
    adjoint_representation,
    ce_coboundary,
    class_coordinates,
    cohomology_dimensions,
    check_linear_equivalence,
    check_linear_generator,
    comparison_map,
    compatible_coboundary,
    derivation_space,
    derived_structure,
    exterior_power_matrix,
    hom_cochain_basis,
    induced_bracket,
    infinitesimal_class,
    is_equivariant,
    is_extensible,
    is_mc_pair,
    kernel_basis,
    lift_to_product,
    nr_bracket,
    nr_diamond,
    obstruction,
    quotient_dimension,
    rb_companion,
    rb_pair,
    rref,
    semidirect_product,
    solve,
    sum_bracket,
    sum_representation,
    trivial_deformation_from_nijenhuis,
    twisted_semidirect,
    verify_operator,
    verify_order_p,
    verify_structure,
)
from homlie import algebra, cochains, fixtures
from homlie.cohomology import coboundary_preimage

from helpers import (
    basis_vector,
    dense,
    naive_apply,
    naive_representation_checks,
    rand_frac,
    rand_matrix,
    rand_skew_bracket,
    record_adjoint_builds,
    record_verifications,
)

F = Fraction


# ---------------------------------------------------------------------------
# structural skew-symmetry
# ---------------------------------------------------------------------------

def test_bracket_is_skew_by_construction():
    rng = random.Random(17)
    for alg in (fixtures.h3(), fixtures.g4a(1)):
        d = alg.dim
        for i in range(d):
            for j in range(d):
                ei, ej = basis_vector(d, i), basis_vector(d, j)
                lhs = alg.bracket_of(ei, ej)
                rhs = tuple(-x for x in alg.bracket_of(ej, ei))
                assert lhs == rhs
        u = tuple(rand_frac(rng) for _ in range(d))
        assert all(x == 0 for x in alg.bracket_of(u, u))


# ---------------------------------------------------------------------------
# verify_structure
# ---------------------------------------------------------------------------

def test_ab1_valid():
    report = verify_structure(fixtures.ab1())
    assert report.passed


def test_g4a_multiplicativity_witness():
    report = verify_structure(fixtures.g4a(1))
    mult = report.check("multiplicativity")
    assert not mult.passed
    assert mult.witnesses == (((0, 1), (F(2), F(2), F(0), F(0))),)
    assert report.check("hom_jacobi").passed
    with pytest.raises(KeyError):
        report.check("nope")


def test_g4a_defect_scales_with_parameter():
    for a in (0, 1, 2):
        report = verify_structure(fixtures.g4a(a))
        mult = report.check("multiplicativity")
        if a == 0:
            assert report.passed
        else:
            ((pair, defect),) = mult.witnesses
            assert pair == (0, 1)
            assert defect == (F(2 * a), F(2 * a), F(0), F(0))


def test_g2a_flags_multiplicativity_only():
    report = verify_structure(fixtures.g2a(1))
    assert not report.check("multiplicativity").passed
    assert report.check("hom_jacobi").passed


def test_d2_compatible_valid():
    report = verify_structure(fixtures.d2())
    assert report.passed
    names = [c.name for c in report.checks]
    assert "compatibility" in names


def test_witnesses_reevaluate_to_stated_defect():
    alg = fixtures.g4a(2)
    report = verify_structure(alg)
    ((pair, defect),) = report.check("multiplicativity").witnesses
    i, j = pair
    lhs = naive_apply(dense(alg.alpha), alg.bracket_of(basis_vector(4, i), basis_vector(4, j)))
    rhs = alg.bracket_of(alg.alpha.col(i), alg.alpha.col(j))
    assert tuple(a - b for a, b in zip(lhs, rhs)) == defect


def test_adjoint_representation_valid_on_valid_fixtures():
    for alg in (fixtures.h3(), fixtures.d2(), fixtures.compatible_h3(),
                fixtures.twisted_h3(), fixtures.twisted_compatible_h3()):
        assert verify_structure(adjoint_representation(alg)).passed


def test_invalid_representation_reported():
    # e3 acting nontrivially breaks the module identity: [e1,e2] = e3 must
    # act as the commutator of the e1 and e2 actions, which is zero here.
    h3 = fixtures.h3()
    bad = Representation(
        h3, 1, Matrix.identity(1),
        ((Matrix.zero(1, 1), Matrix.zero(1, 1), Matrix.from_rows([[1]])),),
    )
    report = verify_structure(bad)
    assert not report.check("action_module").passed


def _all_fixture_algebras():
    return (fixtures.ab1(), fixtures.compatible_ab1(), fixtures.g4a(), fixtures.g4a(0),
            fixtures.g2a(), fixtures.d2(), fixtures.h3(), fixtures.compatible_h3(),
            fixtures.twisted_h3(), fixtures.twisted_compatible_h3())


def test_verify_structure_builds_each_insertion_matrix_once(monkeypatch):
    # Hom-Jacobi is mu_b . K_b and compatibility mu_1 . K_2 + mu_2 . K_1, so
    # one K_b per bracket serves both identities.
    built = []
    for module in (algebra, cochains):
        monkeypatch.setattr(module, "insertion_matrix",
                            lambda q, table, arity, original=module.insertion_matrix:
                            built.append(q) or original(q, table, arity))
    for alg in _all_fixture_algebras():
        built.clear()
        verify_structure(alg)  # valid or not, each identity is read off the K_b
        assert len(built) == len(alg.brackets)


def test_adjoint_witnesses_match_naive_oracle():
    reps = [adjoint_representation(alg) for alg in _all_fixture_algebras()]
    reps.append(fixtures.d2_extension_rep())
    for rep in reps:
        assert verify_structure(rep).checks == tuple(naive_representation_checks(rep))


def test_broken_representation_witnesses_match_naive_oracle():
    # Random action tables over a non-diagonal twist with a non-identity
    # beta break every identity on many basis tuples.
    rng = random.Random(13)
    alpha = rand_matrix(rng, 3, 3)
    assert any(alpha.entry(i, j) for i in range(3) for j in range(3) if i != j)
    bases = (
        HomLieAlgebra(3, alpha, rand_skew_bracket(rng, 3)),
        CompatibleHomLieAlgebra(3, alpha, rand_skew_bracket(rng, 3), rand_skew_bracket(rng, 3)),
    )
    for base in bases:
        beta = rand_matrix(rng, 2, 2)
        assert beta != Matrix.identity(2)
        tables = tuple(tuple(rand_matrix(rng, 2, 2) for _ in range(3)) for _ in base.brackets)
        rep = Representation(base, 2, beta, tables)
        report = verify_structure(rep)
        assert report.checks == tuple(naive_representation_checks(rep))
        assert all(len(check.witnesses) >= 2 for check in report.checks)
    # A valid module broken in one entry of the first action of e2: two
    # witnesses each in the twist, module and mixed identities.
    c = fixtures.twisted_compatible_h3()
    adj = adjoint_representation(c)
    first = list(adj.actions[0])
    first[1] = first[1] + Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    broken = Representation(c, 3, adj.beta, (tuple(first), adj.actions[1]))
    report = verify_structure(broken)
    assert [len(check.witnesses) for check in report.checks] == [2, 2, 0, 0, 2]
    assert report.checks == tuple(naive_representation_checks(broken))


def _draw(rng, make, ok):
    while True:
        m = make(rng)
        if ok(m):
            return m


@pytest.mark.parametrize("actions", [1, 2])
def test_random_representations_match_naive_oracle(actions):
    # Every small shape, with a non-diagonal alpha (dim >= 2) and a
    # non-identity beta (vdim >= 1); some action matrices are the shared zero.
    rng = random.Random(1009 + actions)
    witnesses = 0
    for dim in range(5):
        for vdim in range(4):
            for _ in range(2):
                alpha = _draw(rng, lambda r: rand_matrix(r, dim, dim),
                              lambda m: dim < 2 or any(m.entry(i, j) for i in range(dim)
                                                       for j in range(dim) if i != j))
                beta = _draw(rng, lambda r: rand_matrix(r, vdim, vdim),
                             lambda m: vdim == 0 or m != Matrix.identity(vdim))
                brackets = [rand_skew_bracket(rng, dim) for _ in range(actions)]
                base = (HomLieAlgebra(dim, alpha, *brackets) if actions == 1
                        else CompatibleHomLieAlgebra(dim, alpha, *brackets))
                tables = tuple(
                    tuple(Matrix.zero(vdim, vdim) if rng.random() < 0.25
                          else rand_matrix(rng, vdim, vdim) for _ in range(dim))
                    for _ in range(actions))
                rep = Representation(base, vdim, beta, tables)
                checks = verify_structure(rep).checks
                assert checks == tuple(naive_representation_checks(rep)), (dim, vdim)
                witnesses += sum(len(c.witnesses) for c in checks)
    assert witnesses > 0


# ---------------------------------------------------------------------------
# the validation gate: one report per object, one adjoint module per structure
# ---------------------------------------------------------------------------

def test_a_repeated_cohomology_call_evaluates_no_identity(monkeypatch):
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    verified = record_verifications(monkeypatch)
    first = cohomology_dimensions(c, rep, 2)
    assert len(verified) == 2 and verified[0] is c and verified[1] is rep
    verified.clear()
    assert cohomology_dimensions(c, rep, 2) == first
    assert verified == []


def test_equal_but_distinct_objects_are_each_verified(monkeypatch):
    verified = record_verifications(monkeypatch)
    a, b = fixtures.d2(), fixtures.d2()
    assert a == b and a is not b
    assert verify_structure(a) == verify_structure(b)
    assert len(verified) == 2 and verified[0] is a and verified[1] is b
    ra, rb = adjoint_representation(a), adjoint_representation(b)
    assert ra == rb and ra is not rb
    verify_structure(ra), verify_structure(rb)
    assert len(verified) == 4 and verified[2] is ra and verified[3] is rb


def test_a_verified_structure_is_not_kept_alive():
    # A value no other test builds, so that no equal object can stand in for it.
    s = CompatibleHomLieAlgebra.from_brackets(2, Matrix.identity(2), {(0, 1): [F(1, 9973), 0]}, {})
    verify_structure(s), verify_structure(adjoint_representation(s))
    ref = weakref.ref(s)
    del s
    gc.collect()  # the adjoint module and its base refer to each other
    assert ref() is None


def test_a_failing_structure_fails_the_same_way_on_every_call(monkeypatch):
    bad = fixtures.g4a(1)
    verified = record_verifications(monkeypatch)
    raised = []
    for _ in range(3):
        with pytest.raises(PreconditionError) as info:
            semidirect_product(bad, adjoint_representation(bad))
        raised.append(info.value)
    assert {str(e) for e in raised} == {"invalid algebra for semidirect product"}
    assert raised[0].report == raised[1].report == raised[2].report
    assert not raised[0].report.passed
    assert verified == [bad]


def test_the_adjoint_module_is_built_once_per_structure(monkeypatch):
    built = record_adjoint_builds(monkeypatch)
    for s in _all_fixture_algebras():
        assert adjoint_representation(s) is adjoint_representation(s)
        assert built[-1] is s
    assert len(built) == len(_all_fixture_algebras())


def test_a_verified_object_still_copies_pickles_compares_and_hashes():
    s = fixtures.d2()
    rep = adjoint_representation(s)  # kept on s, with s as its base
    # The module keeps its complex once a report or preimage has read it.
    reports = [cohomology_dimensions(s, rep, n) for n in range(4)]
    identity = CompatibleCochain(1, (Cochain.from_flat(1, 2, 2, [1, 0, 0, 1]),))
    target = compatible_coboundary(s, rep, identity)
    preimage = coboundary_preimage(s, rep, target)
    assert preimage is not None
    for obj, fresh in ((s, fixtures.d2()), (rep, adjoint_representation(fixtures.d2()))):
        report = verify_structure(obj)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert twin == obj == fresh and hash(twin) == hash(obj) == hash(fresh)
            assert verify_structure(twin) == report
            module = twin if obj is rep else adjoint_representation(twin)
            assert [cohomology_dimensions(module.base, module, n) for n in range(4)] == reports
            assert coboundary_preimage(module.base, module, target) == preimage
    twin = pickle.loads(pickle.dumps(s))  # its adjoint module comes along, over the twin
    assert adjoint_representation(twin) == rep and adjoint_representation(twin).base is twin


# ---------------------------------------------------------------------------
# sum_bracket / derived_structure
# ---------------------------------------------------------------------------

def test_sum_bracket_projections():
    c = fixtures.d2()
    assert sum_bracket(c, 1, 0).bracket == c.bracket1
    assert sum_bracket(c, 0, 0).bracket.is_zero()
    both = sum_bracket(c, 1, 1)
    assert both.bracket.col(0) == (F(1), F(1))
    assert verify_structure(both).passed


def test_sum_bracket_random_combinations_stay_valid():
    rng = random.Random(3)
    for c in (fixtures.d2(), fixtures.compatible_h3(), fixtures.twisted_compatible_h3()):
        for _ in range(10):
            lam, eta = rand_frac(rng), rand_frac(rng)
            assert verify_structure(sum_bracket(c, lam, eta)).passed


def test_derived_structure_basics():
    h3 = fixtures.h3()
    d0 = derived_structure(h3, 0)
    assert d0.bracket == h3.bracket and d0.alpha == h3.alpha

    ab = fixtures.ab1()
    assert derived_structure(ab, 5) == ab

    g4 = fixtures.g4a(1)
    d1 = derived_structure(g4, 1)
    # alpha([e1,e2]) = a e2 + a e1; twist becomes alpha^2
    assert d1.bracket.col(0) == (F(1), F(1), F(0), F(0))
    assert d1.alpha == g4.alpha.power(2)


def test_composition_induced_structures_verify():
    # Composing a bracket with one of its endomorphisms and twisting by the
    # same map yields a valid structure; diag(a, b, ab) is a bracket
    # endomorphism of the Heisenberg algebra.
    h3 = fixtures.h3()
    alpha = Matrix.diagonal([2, 3, 6])
    composed = HomLieAlgebra(3, alpha, alpha @ h3.bracket)
    assert composed.bracket.col(0) == (F(0), F(0), F(6))
    assert verify_structure(composed).passed

    pair = fixtures.compatible_h3()  # both brackets are multiples of the same one
    composed_pair = CompatibleHomLieAlgebra(
        3, alpha, alpha @ pair.bracket1, alpha @ pair.bracket2
    )
    assert verify_structure(composed_pair).passed


def test_derived_structure_preserves_validity():
    for s in (fixtures.h3(), fixtures.d2(), fixtures.g4a(0),
              fixtures.twisted_h3(), fixtures.twisted_compatible_h3()):
        for n in (0, 1, 2):
            assert verify_structure(derived_structure(s, n)).passed


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

def test_semidirect_zero_everything_is_abelian():
    c = CompatibleHomLieAlgebra.from_brackets(2, Matrix.identity(2), {}, {})
    zero = Matrix.zero(2, 2)
    rep = Representation(c, 2, Matrix.identity(2), ((zero, zero), (zero, zero)))
    total = semidirect_product(c, rep)
    assert total.dim == 4
    assert total.bracket1.is_zero() and total.bracket2.is_zero()


def test_semidirect_with_adjoint_is_valid():
    c = fixtures.d2()
    total = semidirect_product(c, adjoint_representation(c))
    assert total.dim == 4
    assert verify_structure(total).passed


def test_semidirect_trivial_rep_extends_by_zero():
    c = fixtures.d2()
    zero = Matrix.zero(1, 1)
    rep = Representation(c, 1, Matrix.identity(1), ((zero, zero), (zero, zero)))
    total = semidirect_product(c, rep)
    # g x V and V x V columns vanish; g x g columns reproduce the base.
    assert total.bracket1.col(0) == (F(1), F(0), F(0))
    for k in range(1, total.bracket1.cols):
        assert all(x == 0 for x in total.bracket1.col(k))


def test_semidirect_rejects_invalid_inputs():
    g4 = fixtures.g4a(1)
    pair = CompatibleHomLieAlgebra(4, g4.alpha, g4.bracket, g4.bracket)
    with pytest.raises(PreconditionError) as err:
        semidirect_product(pair, adjoint_representation(pair))
    assert err.value.report is not None


def test_twisted_semidirect_zero_cochain_is_plain():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    twisted = twisted_semidirect(h3, rep, Cochain.zero(2, 3, 3))
    semi = semidirect_product(
        CompatibleHomLieAlgebra(3, h3.alpha, h3.bracket, h3.bracket),
        adjoint_representation(CompatibleHomLieAlgebra(3, h3.alpha, h3.bracket, h3.bracket)),
    )
    assert twisted.bracket == semi.bracket1


def test_semidirect_product_of_a_single_bracket_algebra():
    h3 = fixtures.h3()
    adjoint = adjoint_representation(h3)
    semi = semidirect_product(h3, adjoint)
    assert isinstance(semi, HomLieAlgebra)
    assert verify_structure(semi).passed
    assert semi == twisted_semidirect(h3, adjoint, Cochain.zero(2, 3, 3))


def test_twisted_semidirect_by_coboundary():
    rng = random.Random(5)
    d2 = fixtures.d2()
    l = d2.part(1)
    rep = adjoint_representation(l)
    tau = Cochain(1, 2, 2, Matrix.from_rows([[rand_frac(rng) for _ in range(2)] for _ in range(2)]))
    f = ce_coboundary(l, rep, tau)
    twisted = twisted_semidirect(l, rep, f)
    assert verify_structure(twisted).passed
    untwisted = twisted_semidirect(l, rep, Cochain.zero(2, 2, 2))
    pair = CompatibleHomLieAlgebra(4, twisted.alpha, untwisted.bracket, twisted.bracket)
    assert verify_structure(pair).passed


def test_twisted_semidirect_rejects_non_cocycle():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    f = Cochain.from_values(2, 3, 3, {(0, 2): [1, 0, 0]})
    assert not ce_coboundary(h3, rep, f).is_zero()
    with pytest.raises(PreconditionError):
        twisted_semidirect(h3, rep, f)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_g4a_nijenhuis_operator_all_parameters():
    for a in (0, 1, 2):
        report = verify_operator(fixtures.g4a(a), fixtures.g4a_nijenhuis())
        assert report.passed


def test_identity_operator_is_nijenhuis_everywhere():
    for alg in (fixtures.h3(), fixtures.g4a(1), fixtures.d2()):
        op = LinearOperator(Matrix.identity(alg.dim), NIJENHUIS)
        assert verify_operator(alg, op).passed


def test_g2a_rota_baxter():
    report = verify_operator(fixtures.g2a(1), fixtures.g2a_rota_baxter())
    assert report.passed


def test_induced_bracket_cases():
    d2 = fixtures.d2()
    zero = LinearOperator(Matrix.zero(2, 2), NIJENHUIS)
    assert induced_bracket(d2, zero).bracket1.is_zero()
    ident = LinearOperator(Matrix.identity(2), NIJENHUIS)
    deformed = induced_bracket(d2, ident)
    assert deformed.bracket1 == d2.bracket1 and deformed.bracket2 == d2.bracket2

    g2 = fixtures.g2a(1)
    rb = induced_bracket(g2, fixtures.g2a_rota_baxter())
    assert rb.bracket.col(0) == (F(-1), F(-1))


def test_induced_bracket_requires_valid_operator():
    h3 = fixtures.h3()
    bad = LinearOperator(Matrix.diagonal([1, 1, 2]), NIJENHUIS)
    assert not verify_operator(h3, bad).passed
    with pytest.raises(PreconditionError):
        induced_bracket(h3, bad)


def test_nijenhuis_induced_pair_is_compatible():
    for alg, op in (
        (fixtures.h3(), fixtures.h3_nijenhuis()),
        (fixtures.d2().part(1), LinearOperator(Matrix.diagonal([1, 2]), NIJENHUIS)),
    ):
        deformed = induced_bracket(alg, op)
        pair = CompatibleHomLieAlgebra(alg.dim, alg.alpha, alg.bracket, deformed.bracket)
        assert verify_structure(pair).passed


def test_rb_pair_g2a_example():
    g2 = fixtures.g2a(1)
    r = fixtures.g2a_rota_baxter()
    s = rb_companion(r)
    assert s.matrix == Matrix.identity(2) - g2.alpha
    report, induced = rb_pair(g2, r, s)
    assert report.passed
    assert induced is not None
    # Only the operator identities hold for a != 0; the induced brackets
    # inherit the multiplicativity defect of the base bracket.
    sr = verify_structure(induced)
    assert sr.check("hom_jacobi[1]").passed
    assert sr.check("compatibility").passed


def test_rb_pair_same_operator_weight_zero():
    # With R = S the pair identity differs from the operator identity by
    # 2*weight*R[x,y], so it reduces to it exactly at weight 0.
    h3 = fixtures.h3()
    r = LinearOperator(Matrix.diagonal([2, 2, 1]), ROTA_BAXTER, F(0))
    assert verify_operator(h3, r).passed
    report, induced = rb_pair(h3, r, r)
    assert report.passed
    assert induced is not None


def test_rb_pair_same_operator_nonzero_weight_defect():
    g2 = fixtures.g2a(1)
    r = fixtures.g2a_rota_baxter()
    report, induced = rb_pair(g2, r, r)
    ((pair, defect),) = report.check("pair_compatibility").witnesses
    assert pair == (0, 1)
    lam = r.weight
    bracket = g2.bracket_of((F(1), F(0)), (F(0), F(1)))
    expected = tuple(2 * lam * x for x in naive_apply(dense(r.matrix), bracket))
    assert defect == expected
    assert induced is None


def test_rb_pair_zero_operators():
    g2 = fixtures.g2a(1)
    zero1 = LinearOperator(Matrix.zero(2, 2), ROTA_BAXTER, F(0))
    zero2 = LinearOperator(Matrix.zero(2, 2), ROTA_BAXTER, F(0))
    report, induced = rb_pair(g2, zero1, zero2)
    assert report.passed
    assert induced.bracket1.is_zero() and induced.bracket2.is_zero()


def test_rb_pair_weight_mismatch():
    g2 = fixtures.g2a(1)
    r = fixtures.g2a_rota_baxter()
    other = LinearOperator(r.matrix, ROTA_BAXTER, F(0))
    with pytest.raises(UsageError):
        rb_pair(g2, r, other)


def test_rb_companion_cases():
    r0 = LinearOperator(Matrix.diagonal([1, 2]), ROTA_BAXTER, F(0))
    assert rb_companion(r0).matrix == -r0.matrix
    r = fixtures.g2a_rota_baxter()
    assert rb_companion(rb_companion(r)) == r
    with pytest.raises(UsageError):
        rb_companion(fixtures.g4a_nijenhuis())


# Inputs refused with UsageError before any work, each with its message.
REFUSALS = {
    "verify": (lambda: verify_structure(fixtures.h3_nijenhuis()),
               "cannot verify objects of type LinearOperator"),
    "derive": (lambda: derived_structure(adjoint_representation(fixtures.h3()), 1),
               "cannot derive objects of type Representation"),
    "verify_operator": (lambda: verify_operator(adjoint_representation(fixtures.h3()),
                                                fixtures.h3_nijenhuis()),
                        "cannot check an operator on objects of type Representation"),
    "induced_bracket": (lambda: induced_bracket(adjoint_representation(fixtures.d2()),
                                                fixtures.d2_nijenhuis()),
                        "cannot check an operator on objects of type Representation"),
    "sum_bracket": (lambda: sum_bracket(fixtures.h3(), 1, 1),
                    "cannot sum the brackets of objects of type HomLieAlgebra"),
    "rb_pair": (lambda: rb_pair(fixtures.compatible_h3(),
                                *[LinearOperator(Matrix.zero(3, 3), ROTA_BAXTER, F(0))] * 2),
                "cannot pair Rota-Baxter operators on objects of type CompatibleHomLieAlgebra"),
    "operator kind": (lambda: LinearOperator(Matrix.identity(2), "other"),
                      "unknown operator kind 'other'"),
    "operator without weight": (lambda: LinearOperator(Matrix.identity(2), ROTA_BAXTER),
                                "a Rota-Baxter operator needs a weight"),
    "operator with weight": (lambda: LinearOperator(Matrix.identity(2), NIJENHUIS, F(1)),
                             "a Nijenhuis operator has no weight"),
    "operator shape": (lambda: LinearOperator(Matrix.zero(2, 3), NIJENHUIS),
                       "operator matrix must be square"),
    "plain part": (lambda: adjoint_representation(fixtures.h3()).part(2),
                   "plain representation has a single action"),
    "bracket index": (lambda: fixtures.d2().bracket_of(3, (1, 0), (0, 1)),
                      "bracket index must be 1 or 2"),
    "verify_operator operand": (lambda: verify_operator(fixtures.h3(), fixtures.h3().alpha),
                                "cannot read an operator from objects of type Matrix"),
    "cohomology coefficients": (lambda: cohomology_dimensions(fixtures.h3(), fixtures.h3(), 1),
                                "cannot take coefficients in objects of type HomLieAlgebra"),
    "cohomology structure": (lambda: cohomology_dimensions(
        adjoint_representation(fixtures.h3()), adjoint_representation(fixtures.h3()), 1),
        "cannot take cochains on objects of type Representation"),
    "adjoint of a module": (lambda: adjoint_representation(adjoint_representation(fixtures.h3())),
                            "cannot take the adjoint module of objects of type Representation"),
    "class of a non-cochain": (lambda: class_coordinates(
        cohomology_dimensions(fixtures.h3(), adjoint_representation(fixtures.h3()), 1), 1),
        "cannot take the class of objects of type int"),
    "classes of a non-report": (lambda: class_coordinates(
        fixtures.h3().bracket_cochain(), fixtures.h3().bracket_cochain()),
        "cannot read classes off objects of type Cochain"),
    "module twist shape": (lambda: Representation(fixtures.h3(), 3, Matrix.identity(2), ()),
                           "beta must be vdim x vdim"),
    "module table count": (lambda: Representation(fixtures.h3(), 3, Matrix.identity(3), ()),
                           "need 1 action table(s), got 0"),
    "module table length": (lambda: Representation(fixtures.h3(), 3, Matrix.identity(3),
                                                   ((Matrix.identity(3),),)),
                            "action table must have one matrix per basis element"),
    "module action shape": (lambda: Representation(fixtures.h3(), 3, Matrix.identity(3),
                                                   ((Matrix.identity(2),) * 3,)),
                            "action matrices must be vdim x vdim"),
    "twist shape": (lambda: HomLieAlgebra(3, Matrix.identity(2), Matrix.zero(3, 3)),
                    "twist must be dim x dim"),
    "bracket shape": (lambda: HomLieAlgebra(3, Matrix.identity(3), Matrix.zero(3, 2)),
                      "bracket matrix must be dim x C(dim, 2)"),
    "operator dimension": (lambda: verify_operator(fixtures.h3(), fixtures.d2_nijenhuis()),
                           "operator dimension mismatch"),
    "negative derivation": (lambda: derived_structure(fixtures.h3(), -1),
                            "derived structure needs n >= 0"),
    "rb_pair kinds": (lambda: rb_pair(fixtures.g2a(), fixtures.g2a_rota_baxter(),
                                      LinearOperator(Matrix.zero(2, 2), NIJENHUIS)),
                      "rb_pair needs two Rota-Baxter operators"),
    "semidirect base": (lambda: semidirect_product(fixtures.d2(),
                                                   adjoint_representation(fixtures.compatible_ab1())),
                        "representation is not over the given algebra"),
    "sum of one action": (lambda: sum_representation(adjoint_representation(fixtures.h3())),
                          "sum representation needs a two-action representation"),
    "twisting cochain": (lambda: twisted_semidirect(fixtures.h3(),
                                                    adjoint_representation(fixtures.h3()),
                                                    Cochain.zero(1, 3, 3)),
                         "twisting cochain must be arity 2 from the algebra into the module"),
    "derivations in a structure": (lambda: derivation_space(fixtures.compatible_h3(),
                                                            fixtures.compatible_h3()),
                                   "cannot take coefficients in objects of type "
                                   "CompatibleHomLieAlgebra"),
    "derivations of one action": (lambda: derivation_space(fixtures.h3(),
                                                           adjoint_representation(fixtures.h3())),
                                  "derivation space needs a two-action representation"),
    "generator of a non-generator": (lambda: check_linear_generator(fixtures.compatible_h3(), 1),
                                     "cannot read a generator from objects of type int"),
    "Nijenhuis generator of a matrix": (lambda: trivial_deformation_from_nijenhuis(
        fixtures.compatible_h3(), fixtures.compatible_h3().alpha),
        "cannot read an operator from objects of type Matrix"),
    "Nijenhuis generator of a Rota-Baxter operator": (lambda: trivial_deformation_from_nijenhuis(
        fixtures.compatible_h3(), LinearOperator(Matrix.zero(3, 3), ROTA_BAXTER, F(0))),
        "a Nijenhuis operator is required"),
    "coboundary of a non-cochain": (lambda: compatible_coboundary(
        fixtures.compatible_h3(), adjoint_representation(fixtures.compatible_h3()), 1),
        "cannot take the two-bracket coboundary of objects of type int"),
    "coboundary in a structure": (lambda: compatible_coboundary(
        fixtures.compatible_h3(), fixtures.compatible_h3(), CompatibleCochain.zero(1, 3, 3)),
        "cannot take coefficients in objects of type CompatibleHomLieAlgebra"),
    "coboundary of one action": (lambda: compatible_coboundary(
        fixtures.h3(), adjoint_representation(fixtures.h3()), CompatibleCochain.zero(1, 3, 3)),
        "compatible coboundary needs a two-action representation"),
    "Maurer-Cartan of non-cochains": (lambda: is_mc_pair(1, 1, fixtures.h3().alpha),
                                      "cannot test the Maurer-Cartan equation on objects of "
                                      "type int"),
    "Maurer-Cartan base of non-cochains": (lambda: is_mc_pair(
        Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3), fixtures.h3().alpha, (1, 1)),
        "cannot test the Maurer-Cartan equation on objects of type int"),
    "Maurer-Cartan arity": (lambda: is_mc_pair(Cochain.zero(1, 3, 3), Cochain.zero(2, 3, 3),
                                               fixtures.h3().alpha),
                            "Maurer-Cartan test expects arity-2 cochains"),
    "Maurer-Cartan base arity": (lambda: is_mc_pair(
        Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3), fixtures.h3().alpha,
        (Cochain.zero(2, 3, 3), Cochain.zero(1, 3, 3))),
        "base must be a pair of arity-2 cochains"),
    "single-bracket coboundary in a structure": (lambda: ce_coboundary(
        fixtures.h3(), fixtures.h3(), Cochain.zero(1, 3, 3)),
        "cannot take coefficients in objects of type HomLieAlgebra"),
    "single-bracket coboundary of a non-cochain": (lambda: ce_coboundary(
        fixtures.h3(), adjoint_representation(fixtures.h3()), 1),
        "cannot take the single-bracket coboundary of objects of type int"),
    "equivariance of a non-cochain": (lambda: is_equivariant(1, fixtures.h3().alpha,
                                                             fixtures.h3().alpha),
                                      "cannot test the equivariance of objects of type int"),
    "NR bracket of non-cochains": (lambda: nr_bracket(1, 1, fixtures.h3().alpha),
                                   "cannot take the insertion product of objects of type int"),
    "insertion product of non-cochains": (lambda: nr_diamond(1, 1, fixtures.h3().alpha),
                                          "cannot take the insertion product of objects of "
                                          "type int"),
    "insertion product into another space": (lambda: nr_diamond(
        Cochain.zero(1, 3, 2), Cochain.zero(2, 3, 3), fixtures.h3().alpha),
        "insertion product needs endomorphism cochains on one space"),
    "insertion product under another twist": (lambda: nr_diamond(
        Cochain.zero(1, 3, 3), Cochain.zero(2, 3, 3), Matrix.identity(2)),
        "twist dimension mismatch"),
    "insertion of an arity-0 cochain": (lambda: nr_diamond(
        Cochain.zero(0, 3, 3), Cochain.zero(0, 3, 3), Matrix.identity(3)),
        "negative matrix power"),
    "cochain basis of a non-twist": (lambda: hom_cochain_basis(1, fixtures.h3().alpha, 2),
                                     "cannot read a twist from objects of type int"),
    "cochain basis in a negative arity": (lambda: hom_cochain_basis(
        fixtures.h3().alpha, fixtures.h3().alpha, -1), "negative arity"),
    "compound of a non-square twist": (lambda: exterior_power_matrix(Matrix.zero(2, 3), 1),
                                       "twist must be square"),
    "class of a non-generator": (lambda: infinitesimal_class(fixtures.compatible_h3(), 1),
                                 "cannot read a generator from objects of type int"),
    "equivalence of non-generators": (lambda: check_linear_equivalence(
        fixtures.compatible_h3(), 1, 1, fixtures.compatible_h3().alpha),
        "cannot read a generator from objects of type int"),
    "obstruction of a non-deformation": (lambda: obstruction(1),
                                         "cannot read a deformation from objects of type int"),
    "orders of a non-deformation": (lambda: verify_order_p(1),
                                    "cannot read a deformation from objects of type int"),
    "extension of a non-deformation": (lambda: is_extensible(1),
                                       "cannot read a deformation from objects of type int"),
    "rref of a non-matrix": (lambda: rref(1), "cannot row-reduce objects of type int"),
    "kernel of a non-matrix": (lambda: kernel_basis(1),
                               "cannot take the kernel of objects of type int"),
    "solve with a non-matrix": (lambda: solve(1, (0,)),
                                "cannot solve a system with objects of type int"),
    "compound of a non-matrix": (lambda: exterior_power_matrix(1, 2),
                                 "cannot read a twist from objects of type int"),
    "insertion product under a non-twist": (lambda: nr_diamond(
        Cochain.zero(1, 3, 3), Cochain.zero(2, 3, 3), 1),
        "cannot read a twist from objects of type int"),
    "NR bracket under a non-twist": (lambda: nr_bracket(
        Cochain.zero(1, 3, 3), Cochain.zero(2, 3, 3), 1),
        "cannot read a twist from objects of type int"),
    "Maurer-Cartan under a non-twist": (lambda: is_mc_pair(
        Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3), 1),
        "cannot read a twist from objects of type int"),
    "equivariance under a non-twist": (lambda: is_equivariant(
        Cochain.zero(1, 3, 3), 1, fixtures.h3().alpha),
        "cannot read a twist from objects of type int"),
    "equivariance into a non-twist": (lambda: is_equivariant(
        Cochain.zero(1, 3, 3), fixtures.h3().alpha, 1),
        "cannot read a twist from objects of type int"),
    "equivalence by a non-matrix": (lambda: check_linear_equivalence(
        fixtures.compatible_h3(), *[LinearGenerator(Cochain.zero(2, 3, 3),
                                                    Cochain.zero(2, 3, 3))] * 2, 1),
        "cannot read an operator matrix from objects of type int"),
    "collapse of a non-cochain": (lambda: comparison_map(1),
                                  "cannot collapse objects of type int"),
    "lift of a non-cochain": (lambda: lift_to_product(1, 3, 2), "cannot lift objects of type int"),
    "companion of a non-operator": (lambda: rb_companion(1), "cannot take the Rota-Baxter "
                                    "companion of objects of type int"),
    "sum of a non-module": (lambda: sum_representation(1),
                            "cannot sum the actions of objects of type int"),
    "twisted semidirect of a non-algebra": (lambda: twisted_semidirect(
        1, adjoint_representation(fixtures.h3()), Cochain.zero(2, 3, 3)),
        "cannot twist the semidirect product of objects of type int"),
    "twisted semidirect in a non-module": (lambda: twisted_semidirect(
        fixtures.h3(), 1, Cochain.zero(2, 3, 3)),
        "cannot take coefficients in objects of type int"),
    "twisted semidirect by a non-cochain": (lambda: twisted_semidirect(
        fixtures.h3(), adjoint_representation(fixtures.h3()), 1),
        "cannot twist a semidirect product by objects of type int"),
}


def _extension(fiber_dim=1, **shapes):
    """An extension of d2 by a line inside compatible h3, with the given
    maps in place of maps of the right shapes."""
    maps = {"fiber_beta": Matrix.identity(1), "inclusion": Matrix.zero(3, 1),
            "projection": Matrix.zero(2, 3), "splitting": Matrix.zero(3, 2), **shapes}
    return AbelianExtension(fixtures.d2(), fiber_dim, total=fixtures.compatible_h3(), **maps)


# Values of the right kind but the wrong shape, refused where they are built.
REFUSALS.update({
    "two-bracket cochain of negative degree": (lambda: CompatibleCochain(-1, ()),
                                               "negative degree"),
    "two-bracket cochain slot count": (lambda: CompatibleCochain(2, (Cochain.zero(2, 3, 3),)),
                                       "degree 2 needs 2 components"),
    "two-bracket cochain arity": (lambda: CompatibleCochain(1, (Cochain.zero(2, 3, 3),)),
                                  "components must be cochains of arity equal to the degree"),
    "two-bracket cochain spaces": (lambda: CompatibleCochain(
        2, (Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 2))),
        "components must share source and target dimensions"),
    "two-bracket cochains of two degrees": (lambda: CompatibleCochain.zero(1, 3, 3)
                                            + CompatibleCochain.zero(2, 3, 3), "degree mismatch"),
    "extension cocycle arity": (lambda: ExtensionCocycle(Cochain.zero(1, 3, 3),
                                                         Cochain.zero(2, 3, 3)),
                                "extension cocycle components must have arity 2"),
    "extension cocycle spaces": (lambda: ExtensionCocycle(Cochain.zero(2, 3, 3),
                                                          Cochain.zero(2, 3, 2)),
                                 "cocycle components must share source and target"),
    "generator into another space": (lambda: LinearGenerator(Cochain.zero(2, 3, 2),
                                                             Cochain.zero(2, 3, 3)),
                                     "generator components must be arity-2 endomorphism "
                                     "cochains"),
    "generator on two carriers": (lambda: LinearGenerator(Cochain.zero(2, 3, 3),
                                                          Cochain.zero(2, 2, 2)),
                                  "generator components must share the carrier"),
    "extension dimension": (lambda: _extension(fiber_dim=2),
                            "total dimension must be base + fiber"),
    "extension inclusion": (lambda: _extension(inclusion=Matrix.zero(3, 2)),
                            "inclusion must be (g+v) x v"),
    "extension projection": (lambda: _extension(projection=Matrix.zero(3, 3)),
                             "projection must be g x (g+v)"),
    "extension splitting": (lambda: _extension(splitting=Matrix.zero(2, 3)),
                            "splitting must be (g+v) x g"),
    "extension fiber twist": (lambda: _extension(fiber_beta=Matrix.identity(2)),
                              "fiber twist must be v x v"),
    "lift of a cochain on another space": (lambda: lift_to_product(Cochain.zero(2, 3, 3), 3, 2),
                                           "cochain shape does not match the product factors"),
    "cochain coefficient shape": (lambda: Cochain(1, 3, 3, Matrix.zero(2, 3)),
                                  "coefficient matrix must be 3x3, got 2x3"),
    "sum of cochains on two spaces": (lambda: Cochain.zero(1, 3, 3) + Cochain.zero(1, 3, 2),
                                      "cochain shape mismatch"),
    "cochain at a decreasing tuple": (lambda: Cochain.from_values(2, 3, 3, {(1, 0): (1, 0, 0)}),
                                      "not a strictly increasing tuple in range: (1, 0)"),
    "sum of matrices of two shapes": (lambda: Matrix.zero(1, 2) + Matrix.zero(2, 1),
                                      "shape mismatch: 1x2 vs 2x1"),
    "matrix of short columns": (lambda: Matrix.from_columns([(1, 2)], 3),
                                "column length mismatch"),
    "quotient of vectors of two lengths": (lambda: quotient_dimension([(1, 2)], [(1, 2, 3)]),
                                           "mixed vector lengths"),
    "single-bracket coboundary in a two-action module": (lambda: ce_coboundary(
        fixtures.d2(), adjoint_representation(fixtures.d2()), Cochain.zero(1, 2, 2)),
        "single-bracket coboundary needs a single-action representation"),
})


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_refused_input_raises_usage_error_up_front(name):
    call, message = REFUSALS[name]
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message


def test_a_matrix_prints_its_rows_in_brackets():
    # The first demo prints the companion operator's matrix this way.
    assert str(rb_companion(fixtures.g2a_rota_baxter()).matrix) == "[1 -1; -1 1]"


def test_summary_gives_one_status_line_per_check():
    assert verify_structure(fixtures.g4a(0)).summary() == "multiplicativity: ok\nhom_jacobi: ok"
    assert (verify_structure(fixtures.g4a(1)).summary()
            == "multiplicativity: FAIL (1 witnesses)\nhom_jacobi: ok")


def test_a_plain_module_is_its_own_first_part():
    rep = adjoint_representation(fixtures.h3())
    assert rep.part(1) is rep


@pytest.mark.parametrize("name", ["d2", "compatible_h3", "twisted_compatible_h3"])
def test_two_bracket_bracket_of_reads_the_bracket_table(name):
    c = getattr(fixtures, name)()
    for which, table in ((1, c.bracket1), (2, c.bracket2)):
        for k, (i, j) in enumerate(cochains.increasing_tuples(c.dim, 2)):
            x, y = basis_vector(c.dim, i), basis_vector(c.dim, j)
            assert c.bracket_of(which, x, y) == table.col(k)
            assert c.bracket_of(which, y, x) == tuple(-a for a in table.col(k))
            assert c.bracket_of(which, x, y) == c.part(which).bracket_of(x, y)


def test_rb_pair_with_companion_passes_when_rb_does():
    for a in (0, 1, 2):
        g2 = fixtures.g2a(a)
        r = fixtures.g2a_rota_baxter()
        assert verify_operator(g2, r).passed
        report, _ = rb_pair(g2, r, rb_companion(r))
        assert report.passed
    h3 = fixtures.h3()
    r0 = LinearOperator(Matrix.diagonal([2, 2, 1]), ROTA_BAXTER, F(0))
    report, induced = rb_pair(h3, r0, rb_companion(r0))
    assert report.passed
    assert verify_structure(induced).passed


def test_random_nondiagonal_nijenhuis_family_on_h3():
    # On the Heisenberg bracket the Nijenhuis condition pins the last column
    # to a multiple of e3 and relates the upper-left minor to the trace:
    # det2(N) = (n11 + n22) n33 - n33^2, with the third row otherwise free.
    rng = random.Random(23)
    h3 = fixtures.h3()
    built = 0
    while built < 5:
        n12, n21, n22, n33 = (rand_frac(rng) for _ in range(4))
        if n22 == n33:
            continue
        n11 = (n12 * n21 + n22 * n33 - n33 * n33) / (n22 - n33)
        n31, n32 = rand_frac(rng), rand_frac(rng)
        matrix = Matrix.from_rows([[n11, n12, 0], [n21, n22, 0], [n31, n32, n33]])
        op = LinearOperator(matrix, NIJENHUIS)
        assert verify_operator(h3, op).passed
        deformed = induced_bracket(h3, op)
        pair = CompatibleHomLieAlgebra(3, h3.alpha, h3.bracket, deformed.bracket)
        assert verify_structure(pair).passed
        built += 1


def test_operator_on_compatible_carrier_checks_both_brackets():
    d2 = fixtures.d2()
    report = verify_operator(d2, fixtures.d2_nijenhuis())
    names = [c.name for c in report.checks]
    assert "nijenhuis_identity[1]" in names and "nijenhuis_identity[2]" in names
    assert report.passed

"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Every
comparison is exact (Fraction equality); there are no tolerances anywhere.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from homlie import (
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    ExtensionCocycle,
    HomLieAlgebra,
    LinearGenerator,
    Matrix,
    OrderPDeformation,
    adjoint_representation,
    build_extension,
    ce_coboundary,
    check_equivalence,
    check_linear_equivalence,
    check_linear_generator,
    cohomology_dimensions,
    comparison_map,
    compatible_coboundary,
    ext_class,
    extract_cocycle,
    hom_cochain_basis,
    is_extensible,
    nr_bracket,
    obstruction,
    rb_companion,
    rb_pair,
    sum_bracket,
    sum_representation,
    trivial_deformation_from_nijenhuis,
    verify_operator,
    verify_order_p,
    verify_structure,
)
from homlie import fixtures
from homlie.cli import run
from homlie.extensions import alternate_splitting

from helpers import (
    c0_compatible_basis,
    naive_jacobiator_defects,
    rand_equivariant_cochain,
    rand_skew_bracket,
    vec_is_zero,
)

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


def acceptance(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {number}] FAIL  {description}")
                raise
            print(f"[acceptance {number}] PASS  {description}")

        return inner

    return wrap


def compatible_basis(c, rep, n):
    if n == 0:
        return [CompatibleCochain(0, (z,)) for z in c0_compatible_basis(c, rep)]
    singles = hom_cochain_basis(c.alpha, rep.beta, n)
    out = []
    for slot in range(n):
        for f in singles:
            comps = [Cochain.zero(n, c.dim, rep.vdim) for _ in range(n)]
            comps[slot] = f
            out.append(CompatibleCochain(n, tuple(comps)))
    return out


@acceptance(1, "coboundaries square to zero on full bases, degrees 0-3, under 10s")
def test_criterion_1_delta_squared():
    start = time.monotonic()
    plain_fixtures = [
        fixtures.ab1(),
        fixtures.d2().part(1),
        fixtures.d2().part(2),
        fixtures.h3(),
        fixtures.g4a(0),
    ]
    for alg in plain_fixtures:
        rep = adjoint_representation(alg)
        for n in range(0, 4):
            for f in hom_cochain_basis(alg.alpha, alg.alpha, n):
                ddf = ce_coboundary(
                    alg, rep, ce_coboundary(alg, rep, f)
                )
                assert ddf.is_zero()
    g40 = fixtures.g4a(0)
    compatible_fixtures = [
        fixtures.compatible_ab1(),
        fixtures.d2(),
        CompatibleHomLieAlgebra(3, fixtures.h3().alpha, fixtures.h3().bracket,
                                fixtures.h3().bracket),
        CompatibleHomLieAlgebra(4, g40.alpha, g40.bracket, g40.bracket),
    ]
    for c in compatible_fixtures:
        rep = adjoint_representation(c)
        for n in range(0, 4):
            for item in compatible_basis(c, rep, n):
                dd = compatible_coboundary(
                    c, rep, compatible_coboundary(c, rep, item)
                )
                assert dd.is_zero()
    assert time.monotonic() - start < 10.0


@acceptance(2, "the two single-bracket coboundaries anticommute, degrees up to 3")
def test_criterion_2_anticommutation():
    for c in (fixtures.d2(), fixtures.compatible_h3()):
        rep = adjoint_representation(c)
        l1, v1 = c.part(1), rep.part(1)
        l2, v2 = c.part(2), rep.part(2)
        for n in range(1, 4):
            for f in hom_cochain_basis(c.alpha, c.alpha, n):
                d12 = ce_coboundary(l1, v1, ce_coboundary(l2, v2, f))
                d21 = ce_coboundary(l2, v2, ce_coboundary(l1, v1, f))
                assert (d12 + d21).is_zero()


@acceptance(3, "graded Lie identities on random equivariant cochains; MC = twisted Jacobi")
def test_criterion_3_nr_graded_lie():
    rng = random.Random(2024)
    twists = [Matrix.identity(2), Matrix.identity(3), fixtures.g2a(1).alpha]
    pairs = 0
    while pairs < 50:
        alpha = twists[pairs % len(twists)]
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        p = rand_equivariant_cochain(rng, alpha, alpha, m)
        q = rand_equivariant_cochain(rng, alpha, alpha, n)
        lhs = nr_bracket(p, q, alpha)
        rhs = nr_bracket(q, p, alpha).scale((-1) ** ((m - 1) * (n - 1) + 1))
        assert lhs.flatten() == rhs.flatten()
        pairs += 1
    triples = 0
    while triples < 20:
        alpha = twists[triples % len(twists)]
        arities = [rng.randint(1, 2) for _ in range(3)]
        p, q, r = (rand_equivariant_cochain(rng, alpha, alpha, a) for a in arities)
        m, n, k = (a - 1 for a in arities)
        total = (
            nr_bracket(nr_bracket(p, q, alpha), r, alpha).scale((-1) ** (m * k))
            + nr_bracket(nr_bracket(q, r, alpha), p, alpha).scale((-1) ** (n * m))
            + nr_bracket(nr_bracket(r, p, alpha), q, alpha).scale((-1) ** (k * n))
        )
        assert total.is_zero()
        triples += 1
    seen = {True: 0, False: 0}
    for i in range(20):
        dim = 2 + (i % 2)
        alpha = Matrix.identity(dim)
        if i % 5 == 0 and dim == 3:
            bracket = fixtures.h3().bracket
        else:
            bracket = rand_skew_bracket(rng, dim)
        alg = HomLieAlgebra(dim, alpha, bracket)
        mu = alg.bracket_cochain()
        square_zero = nr_bracket(mu, mu, alpha).is_zero()
        jacobi_zero = all(vec_is_zero(d) for _, d in naive_jacobiator_defects(alg))
        assert square_zero == jacobi_zero
        seen[square_zero] += 1
    assert seen[True] > 0 and seen[False] > 0


@acceptance(4, "coboundary with adjoint coefficients equals the signed bracket with the structure cochain")
def test_criterion_4_adjoint_shortcut():
    rng = random.Random(4)
    targets = [fixtures.ab1(), fixtures.d2().part(1), fixtures.d2().part(2),
               fixtures.h3(), fixtures.g4a(0)]
    for alg in targets:
        rep = adjoint_representation(alg)
        mu = alg.bracket_cochain()
        for n in (1, 2):
            done = 0
            while done < 10:
                f = rand_equivariant_cochain(rng, alg.alpha, alg.alpha, n)
                if f is None:
                    break
                sign = 1 if (n - 1) % 2 == 0 else -1
                lhs = ce_coboundary(alg, rep, f)
                rhs = nr_bracket(mu, f, alg.alpha).scale(sign)
                assert lhs.flatten() == rhs.flatten()
                done += 1


@acceptance(5, "twisted examples: operator identities hold, multiplicativity defect is flagged")
def test_criterion_5_twisted_examples():
    # (a) the swap/fix operator satisfies the Nijenhuis identity for a in {0,1,2}
    for a in (0, 1, 2):
        assert verify_operator(fixtures.g4a(a), fixtures.g4a_nijenhuis()).passed
    # (b) R = twist is Rota-Baxter of weight -1; with its companion it forms a
    # compatible pair whose induced brackets assemble into a two-bracket
    # structure.  The defining identities beyond multiplicativity hold for
    # every a; multiplicativity itself holds exactly at a = 0 (see (c)).
    for a in (0, 1, 2):
        g2 = fixtures.g2a(a)
        r = fixtures.g2a_rota_baxter()
        assert verify_operator(g2, r).passed
        s = rb_companion(r)
        report, induced = rb_pair(g2, r, s)
        assert report.passed
        assert induced is not None
        structure = verify_structure(induced)
        if a == 0:
            assert structure.passed
        else:
            for c in structure.checks:
                if c.name.startswith("multiplicativity"):
                    assert not c.passed
                else:
                    assert c.passed
    # (c) the verifier flags the multiplicativity failure with witness (e1, e2)
    for a in (1, 2):
        for alg in (fixtures.g4a(a), fixtures.g2a(a)):
            mult = verify_structure(alg).check("multiplicativity")
            assert not mult.passed
            assert mult.witnesses[0][0] == (0, 1)
            assert verify_structure(alg).check("hom_jacobi").passed


@acceptance(6, "deformation pipeline: trivial generators, closed obstructions, re-extension")
def test_criterion_6_deformations():
    cases = [
        (fixtures.d2(), fixtures.d2_nijenhuis()),
        (fixtures.compatible_h3(), fixtures.h3_nijenhuis()),
    ]
    for c, op in cases:
        rep = adjoint_representation(c)
        gen = trivial_deformation_from_nijenhuis(c, op)
        report = check_linear_generator(c, gen)
        assert report.generates  # all six bracket conditions vanish
        zero = LinearGenerator(
            Cochain.zero(2, c.dim, c.dim), Cochain.zero(2, c.dim, c.dim)
        )
        equivalence = check_linear_equivalence(c, gen, zero, op.matrix)
        assert equivalence.equivalent and equivalence.coboundary_shift
        # every constructed order-p deformation has a closed obstruction
        order1 = OrderPDeformation.from_generator(c, gen)
        assert verify_order_p(order1).passed
        ob = obstruction(order1)
        assert compatible_coboundary(c, rep, ob.cochain).is_zero()
        # truncations of valid order-(p+1) deformations always re-extend
        pair = is_extensible(order1)
        assert pair is not None
        order2 = order1.extended(*pair)
        assert verify_order_p(order2).passed
        truncated = order2.truncate(1)
        again = is_extensible(truncated)
        assert again is not None
        assert verify_order_p(truncated.extended(*again)).passed
        ob2 = obstruction(order2)
        assert compatible_coboundary(c, rep, ob2.cochain).is_zero()


@acceptance(7, "extension classification against degree-2 cohomology on a fixture with classes")
def test_criterion_7_extensions():
    c = fixtures.d2()
    rep = fixtures.d2_extension_rep()
    report = cohomology_dimensions(c, rep, 2)
    assert report.dim_cohomology >= 1  # found by basis scan
    # exact build/extract round trip
    z = ExtensionCocycle(
        Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]}), Cochain.zero(2, 2, 2)
    )
    e = build_extension(c, rep, z)
    rep_back, z_back = extract_cocycle(e)
    assert rep_back == rep
    assert z_back.f1.flatten() == z.f1.flatten()
    assert z_back.f2.flatten() == z.f2.flatten()
    # cohomologous cocycles give equivalent extensions with a verified morphism
    tau = Cochain.from_values(1, 2, 2, {(0,): [0, 1]})
    shift = compatible_coboundary(c, rep, CompatibleCochain(1, (tau,)))
    assert not shift.is_zero()
    z2 = ExtensionCocycle(z.f1 + shift.components[0], z.f2 + shift.components[1])
    e2 = build_extension(c, rep, z2)
    phi = check_equivalence(e, e2)
    assert phi is not None
    assert phi @ e.inclusion == e2.inclusion
    assert e2.projection @ phi == e.projection
    # distinct classes are inequivalent
    reps = [ExtensionCocycle(item.components[0], item.components[1])
            for item in report.cohomology_basis]
    built = [build_extension(c, rep, zz) for zz in reps]
    for a, b in itertools.combinations(range(len(built)), 2):
        assert check_equivalence(built[a], built[b]) is None
    classes = [ext_class(eb) for eb in built]
    assert len(set(classes)) == len(classes)
    # the class does not depend on the splitting
    e_alt = alternate_splitting(e, tau)
    assert ext_class(e_alt) == ext_class(e)


@acceptance(8, "collapse to the sum-bracket complex is a chain map; dimensions side by side")
def test_criterion_8_chain_map():
    c = fixtures.d2()
    rep = adjoint_representation(c)
    plus = sum_bracket(c, 1, 1)
    plus_rep = sum_representation(rep)
    for n in range(0, 3):
        for item in compatible_basis(c, rep, n):
            lhs = ce_coboundary(plus, plus_rep, comparison_map(item))
            rhs = comparison_map(compatible_coboundary(c, rep, item))
            assert lhs.flatten() == rhs.flatten()
    side_by_side = []
    for n in range(0, 3):
        two = cohomology_dimensions(c, rep, n).dim_cohomology
        one = cohomology_dimensions(plus, plus_rep, n).dim_cohomology
        side_by_side.append((n, two, one))
    print(f"    dimensions (degree, two-bracket, sum-bracket): {side_by_side}")


@acceptance(9, "CLI golden files, byte-stable machine output, exit-code contract")
def test_criterion_9_cli():
    golden_dir = Path(__file__).resolve().parent / "golden"
    from test_cli import GOLDEN_CASES, absolutize, machine_bytes

    for name, argv in sorted(GOLDEN_CASES.items()):
        argv = absolutize(argv)
        status, text = machine_bytes(argv)
        again_status, again_text = machine_bytes(argv)
        assert (status, text) == (again_status, again_text)
        expected = (golden_dir / f"{name}.json").read_text(encoding="utf-8")
        assert text == expected
        assert status == json.loads(expected)["exit_status"]
    assert run(["verify", str(ROOT / "fixtures" / "missing.json")])[0] == 2

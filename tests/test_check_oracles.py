"""The matrix-identity checks against the per-tuple oracles of `helpers`.

`verify_structure`, `verify_operator`, `induced_bracket`, `rb_pair` and
`check_linear_equivalence` read their witnesses off one defect matrix per
identity.  The oracles evaluate the same identities one basis pair or
triple at a time by direct bracket evaluation.  Every test asserts exact
`CheckResult` equality: names, witness indices and defect vectors, in
order.  The inputs are the fixtures and seeded structures of dimension
0 to 5 with sparse rational brackets and non-diagonal rational twists,
most of which fail on some tuples and pass on others.
"""

import random
from fractions import Fraction

import pytest

from homlie import (
    Cochain,
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    LinearGenerator,
    LinearOperator,
    Matrix,
    NIJENHUIS,
    ROTA_BAXTER,
    check_linear_equivalence,
    fixtures,
    induced_bracket,
    rb_companion,
    rb_pair,
    verify_operator,
    verify_structure,
)
from homlie import algebra
from homlie.algebra import _induced_matrix

from helpers import (
    naive_algebra_checks,
    naive_induced_bracket,
    naive_linear_equivalence_checks,
    naive_operator_checks,
    naive_rb_pair_compatibility,
    rand_equivariant_cochain,
    rand_frac,
)

DIMS = range(6)
CASES = 6  # seeded inputs per (dimension, bracket count)


def sparse_matrix(rng, rows, cols, density=0.35):
    return Matrix(rows, cols, tuple(
        rand_frac(rng) if rng.random() < density else Fraction(0) for _ in range(rows * cols)
    ))


def twist(rng, d):
    """Identity, diagonal, sparse or dense rational twist, cycling by draw."""
    kind = rng.randrange(4)
    if kind == 0:
        return Matrix.identity(d)
    if kind == 1:
        return Matrix.diagonal([rng.choice([1, -1, 2, Fraction(1, 2)]) for _ in range(d)])
    return Matrix.identity(d) + sparse_matrix(rng, d, d, 0.3 if kind == 2 else 0.9)


def structure(rng, d, brackets):
    alpha = twist(rng, d)
    mats = [sparse_matrix(rng, d, d * (d - 1) // 2) for _ in range(brackets)]
    if brackets == 1:
        return HomLieAlgebra(d, alpha, mats[0])
    return CompatibleHomLieAlgebra(d, alpha, *mats)


def operator(rng, s, kind):
    """A sparse operator, or half the time a polynomial in the twist so that
    twist commutation passes and only the kind identity is tested."""
    if rng.random() < 0.5:
        m = sparse_matrix(rng, s.dim, s.dim, 0.5)
    else:
        m = Matrix.identity(s.dim).scale(rand_frac(rng)) + s.alpha.scale(rand_frac(rng))
    weight = rng.choice([Fraction(0), Fraction(1), rand_frac(rng)]) if kind == ROTA_BAXTER else None
    return LinearOperator(m, kind, weight)


FIXTURE_STRUCTURES = {
    "ab1": fixtures.ab1,
    "compatible_ab1": fixtures.compatible_ab1,
    "g4a": fixtures.g4a,
    "g2a": fixtures.g2a,
    "d2": fixtures.d2,
    "h3": fixtures.h3,
    "compatible_h3": fixtures.compatible_h3,
    "twisted_h3": fixtures.twisted_h3,
    "twisted_compatible_h3": fixtures.twisted_compatible_h3,
}

FIXTURE_OPERATORS = [
    ("g4a", fixtures.g4a_nijenhuis),
    ("g2a", fixtures.g2a_rota_baxter),
    ("d2", fixtures.d2_nijenhuis),
    ("h3", fixtures.h3_nijenhuis),
    ("compatible_h3", fixtures.h3_nijenhuis),
    ("twisted_compatible_h3", fixtures.h3_nijenhuis),
]


@pytest.mark.parametrize("name", sorted(FIXTURE_STRUCTURES))
def test_fixture_algebra_checks_match_oracle(name):
    s = FIXTURE_STRUCTURES[name]()
    assert verify_structure(s).checks == tuple(naive_algebra_checks(s))


@pytest.mark.parametrize("brackets", [1, 2])
@pytest.mark.parametrize("d", DIMS)
def test_random_algebra_checks_match_oracle(d, brackets):
    rng = random.Random(100 * d + brackets)
    for _ in range(CASES):
        s = structure(rng, d, brackets)
        assert verify_structure(s).checks == tuple(naive_algebra_checks(s))


def test_perturbed_fixture_fails_on_some_tuples_only():
    # One changed bracket column of a valid twisted pair: multiplicativity
    # fails on some pairs and holds on others, and the oracle agrees.
    s = fixtures.twisted_compatible_h3()
    changed = Matrix.from_columns(
        [s.bracket2.col(0), (Fraction(1, 3), Fraction(0), Fraction(0)), s.bracket2.col(2)], 3)
    broken = CompatibleHomLieAlgebra(3, s.alpha, s.bracket1, changed)
    checks = verify_structure(broken).checks
    assert checks == tuple(naive_algebra_checks(broken))
    assert checks[1].name == "multiplicativity[2]"
    assert 0 < len(checks[1].witnesses) < 3


@pytest.mark.parametrize("name,op", FIXTURE_OPERATORS)
def test_fixture_operator_checks_and_induced_bracket_match_oracle(name, op):
    s, op = FIXTURE_STRUCTURES[name](), op()
    assert verify_operator(s, op).checks == tuple(naive_operator_checks(s, op))
    assert list(induced_bracket(s, op).brackets) == naive_induced_bracket(s, op)


@pytest.mark.parametrize("kind", [NIJENHUIS, ROTA_BAXTER])
@pytest.mark.parametrize("brackets", [1, 2])
@pytest.mark.parametrize("d", DIMS)
def test_random_operator_checks_and_induced_bracket_match_oracle(d, brackets, kind):
    rng = random.Random(1000 * d + 10 * brackets + (kind == ROTA_BAXTER))
    for _ in range(CASES):
        s = structure(rng, d, brackets)
        op = operator(rng, s, kind)
        assert verify_operator(s, op).checks == tuple(naive_operator_checks(s, op))
        induced = [_induced_matrix(s, bracket, op) for bracket in s.brackets]
        assert induced == naive_induced_bracket(s, op)


@pytest.mark.parametrize("d", DIMS)
def test_random_rb_pair_matches_oracle(d):
    rng = random.Random(7 + d)
    for _ in range(CASES):
        l = structure(rng, d, 1)
        r = operator(rng, l, ROTA_BAXTER)
        s = LinearOperator(sparse_matrix(rng, d, d, 0.5), ROTA_BAXTER, r.weight)
        report, induced = rb_pair(l, r, s)
        expected = (naive_operator_checks(l, r, "[R]") + naive_operator_checks(l, s, "[S]")
                    + [naive_rb_pair_compatibility(l, r, s)])
        assert report.checks == tuple(expected)
        assert (induced is None) == (not report.passed)


def scalar_rota_baxter(l, weight):
    # -weight * id is a Rota-Baxter operator of that weight on every algebra
    weight = Fraction(weight)
    return LinearOperator(Matrix.identity(l.dim).scale(-weight), ROTA_BAXTER, weight)


PASSING_RB = [(l, scalar_rota_baxter(l(), weight))
              for weight in (0, 1, Fraction(-2, 3))
              for l in (fixtures.g2a, fixtures.h3, fixtures.twisted_h3)]
PASSING_RB.append((fixtures.g2a, fixtures.g2a_rota_baxter()))


@pytest.mark.parametrize("l,r", PASSING_RB)
def test_passing_rb_pairs_match_oracle(l, r):
    # A Rota-Baxter operator and its companion pass the pair identity in
    # either order.
    l, s = l(), rb_companion(r)
    for a, b in ((r, s), (s, r)):
        report, induced = rb_pair(l, a, b)
        assert report.passed
        assert report.checks[-1] == naive_rb_pair_compatibility(l, a, b)
        assert list(induced.brackets) == naive_induced_bracket(l, a) + naive_induced_bracket(l, b)


def test_each_induced_bracket_is_built_once(monkeypatch):
    # The operator identity and the returned structure share one induced
    # bracket matrix per bracket.
    c, n = fixtures.compatible_h3(), fixtures.h3_nijenhuis()
    l, r = fixtures.g2a(), fixtures.g2a_rota_baxter()
    calls = []
    monkeypatch.setattr(algebra, "_induced_matrix",
                        lambda *args: calls.append(args) or _induced_matrix(*args))
    induced_bracket(c, n)
    assert len(calls) == 2
    calls.clear()
    report, induced = rb_pair(l, r, rb_companion(r))
    assert induced is not None and len(calls) == 2


def nilpotent_pair(rng, d):
    """A valid compatible pair with identity twist: a random 2-step nilpotent
    Lie bracket with values on the last basis vector, and a multiple of it."""
    columns = []
    for i in range(d):
        for j in range(i + 1, d):
            value = rand_frac(rng) if j < d - 1 and rng.random() < 0.6 else Fraction(0)
            columns.append((Fraction(0),) * (d - 1) + (value,))
    mu = Matrix.from_columns(columns, d)
    return CompatibleHomLieAlgebra(d, Matrix.identity(d), mu, mu.scale(rand_frac(rng)))


def sparse_cochain(rng, d, density=0.35):
    return Cochain(2, d, d, sparse_matrix(rng, d, d * (d - 1) // 2, density))


@pytest.mark.parametrize("d", DIMS)
def test_random_linear_equivalence_matches_oracle(d):
    rng = random.Random(50 + d)
    for _ in range(CASES):
        c = nilpotent_pair(rng, d)
        g = LinearGenerator(sparse_cochain(rng, d), sparse_cochain(rng, d))
        g_prime = LinearGenerator(sparse_cochain(rng, d), sparse_cochain(rng, d))
        n = sparse_matrix(rng, d, d, 0.5)
        report = check_linear_equivalence(c, g, g_prime, n)
        assert report.checks == tuple(naive_linear_equivalence_checks(c, g, g_prime, n))


def test_twisted_linear_equivalence_matches_oracle():
    # Non-diagonal twist: equivariant generators and an operator that is a
    # polynomial in the twist; the Nijenhuis trivial deformation passes.
    rng = random.Random(3)
    c = fixtures.twisted_compatible_h3()
    alpha = c.alpha
    for k in range(CASES):
        pair = [rand_equivariant_cochain(rng, alpha, alpha, 2) for _ in range(4)]
        g, g_prime = LinearGenerator(*pair[:2]), LinearGenerator(*pair[2:])
        n = Matrix.identity(3).scale(rand_frac(rng)) + alpha.scale(rand_frac(rng))
        if k == 0:
            n = fixtures.h3_nijenhuis().matrix
            deformed = induced_bracket(c, LinearOperator(n, NIJENHUIS))
            g = LinearGenerator(deformed.bracket_cochain(1), deformed.bracket_cochain(2))
            g_prime = LinearGenerator(Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3))
        report = check_linear_equivalence(c, g, g_prime, n)
        assert report.checks == tuple(naive_linear_equivalence_checks(c, g, g_prime, n))
        if k == 0:
            assert report.equivalent

import random
from fractions import Fraction
from math import comb

import pytest

from homlie import (
    Cochain,
    HomLieAlgebra,
    Matrix,
    PreconditionError,
    UsageError,
    exterior_power_matrix,
    hom_cochain_basis,
    is_equivariant,
    is_mc_pair,
    lift_to_product,
    nr_bracket,
    nr_diamond,
    verify_structure,
)
from homlie import fixtures
from homlie import cochains
from homlie.cochains import _compound, equivariance_constraints

from helpers import (
    basis_vector,
    dense,
    naive_apply,
    naive_equivariance_constraints,
    naive_evaluate,
    naive_exterior_power,
    naive_jacobiator_defects,
    naive_nr_bracket,
    naive_nr_diamond,
    rand_equivariant_cochain,
    rand_matrix,
    rand_skew_bracket,
    rand_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
)

F = Fraction


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_alternation_and_repeats():
    rng = random.Random(2)
    f = Cochain(2, 3, 3, rand_matrix(rng, 3, comb(3, 2)))
    u, v = rand_vector(rng, 3), rand_vector(rng, 3)
    assert f.evaluate([u, v]) == tuple(-x for x in f.evaluate([v, u]))
    assert vec_is_zero(f.evaluate([u, u]))


def test_evaluate_bilinearity_on_bracket():
    d2 = fixtures.d2()
    f = d2.bracket_cochain(1)
    value = f.evaluate([(F(1), F(1)), (F(0), F(1))])
    assert value == (F(1), F(0))  # [e1 + e2, e2]_1 = [e1, e2]_1 = e1


def test_evaluate_guards():
    f = Cochain.zero(2, 3, 3)
    with pytest.raises(UsageError):
        f.evaluate([basis_vector(3, 0)])
    with pytest.raises(UsageError):
        f.evaluate([basis_vector(2, 0), basis_vector(2, 1)])
    with pytest.raises(UsageError):  # floats are refused, as in every Matrix
        f.evaluate([(1.0, 0, 0), basis_vector(3, 1)])


def test_evaluate_equals_the_bareiss_oracle():
    # The wedge of the arguments against one Bareiss determinant per basis
    # tuple, in arities 0 to 3 (above the source dimension included), on
    # random rational arguments.
    rng = random.Random(4)
    for d in range(5):
        for arity in range(4):
            for t in (1, 3):
                f = Cochain(arity, d, t, rand_matrix(rng, t, comb(d, arity)))
                for _ in range(4):
                    args = [rand_vector(rng, d) for _ in range(arity)]
                    value = f.evaluate(args)
                    assert value == naive_evaluate(f, args)
                    assert all(type(x) is Fraction for x in value)


# ---------------------------------------------------------------------------
# exterior powers and equivariant bases
# ---------------------------------------------------------------------------

def test_exterior_power_n1_is_alpha():
    rng = random.Random(3)
    alpha = rand_matrix(rng, 3, 3)
    assert exterior_power_matrix(alpha, 1) == alpha


def test_exterior_power_identity():
    assert exterior_power_matrix(Matrix.identity(4), 2) == Matrix.identity(comb(4, 2))


def test_exterior_power_swap_det():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert exterior_power_matrix(swap, 2) == Matrix.from_rows([[-1]])


def test_exterior_power_range_guard():
    with pytest.raises(UsageError):
        exterior_power_matrix(Matrix.identity(2), 3)
    with pytest.raises(UsageError):
        exterior_power_matrix(Matrix.identity(2), -1)
    assert exterior_power_matrix(Matrix.identity(2), 0) == Matrix.identity(1)


def sparse_matrix(rng, rows, cols, density):
    return Matrix(rows, cols, tuple(
        F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else F(0)
        for _ in range(rows * cols)
    ))


def singular_matrix(rng, d):
    """A dense d x d matrix whose last row is the sum of the others."""
    m = sparse_matrix(rng, d, d, 1.0)
    last = [sum((m.entry(i, j) for i in range(d - 1)), F(0)) for j in range(d)]
    return Matrix(d, d, m.entries[: (d - 1) * d] + tuple(last))


@pytest.mark.parametrize("d", range(1, 7))
def test_exterior_power_matches_minors(d):
    # The compound is built as wedges of columns; the oracle takes every
    # n x n minor by a determinant.
    rng = random.Random(40 + d)
    for alpha in (sparse_matrix(rng, d, d, 0.3), sparse_matrix(rng, d, d, 1.0),
                  singular_matrix(rng, d)):
        for n in range(1, d + 1):
            assert exterior_power_matrix(alpha, n) == naive_exterior_power(alpha, n)


def test_compound_is_multiplicative_on_rectangular_factors():
    # Cauchy-Binet: the n-th compound of A B is the product of the compounds,
    # for any shapes, including n above a dimension where a side is empty.
    rng = random.Random(41)
    for _ in range(40):
        p, q, r = (rng.randint(0, 5) for _ in range(3))
        a = sparse_matrix(rng, p, q, rng.choice([0.3, 1.0]))
        b = sparse_matrix(rng, q, r, rng.choice([0.3, 1.0]))
        for n in range(5):
            assert _compound(a @ b, n) == _compound(a, n) @ _compound(b, n)


def test_hom_cochain_basis_identity_twists_full_space():
    basis = hom_cochain_basis(Matrix.identity(3), Matrix.identity(2), 2)
    assert len(basis) == 2 * comb(3, 2)


def test_hom_cochain_basis_g4a_degree0():
    g4 = fixtures.g4a(1)
    basis = hom_cochain_basis(g4.alpha, g4.alpha, 0)
    assert len(basis) == 1
    assert basis[0].flatten() == (F(1), F(1), F(0), F(0))


def test_arity0_cochain_is_its_vector():
    v = Cochain.from_flat(0, 3, 2, (F(1), F(-1, 2)))
    assert (v.coeffs.rows, v.coeffs.cols) == (2, 1)
    assert v.column(()) == v.evaluate(()) == v.flatten() == (F(1), F(-1, 2))
    assert Cochain.from_values(0, 3, 2, {(): [1, F(-1, 2)]}) == v
    assert (v + v.scale(-1)).is_zero() and Cochain.zero(0, 3, 2).is_zero()
    assert -v == v.scale(-1)
    with pytest.raises(UsageError):
        Cochain(-1, 3, 2, Matrix.zero(2, 1))
    with pytest.raises(UsageError):
        Cochain.from_flat(0, 3, 2, (F(1), F(0), F(0)))


@pytest.mark.parametrize("build", [
    lambda: Cochain.zero(-1, 2, 2),
    lambda: Cochain.from_flat(-1, 2, 2, ()),
    lambda: Cochain.from_values(-1, 2, 2, {}),
    lambda: Cochain(-1, 2, 2, Matrix.zero(2, 0)),
], ids=["zero", "from_flat", "from_values", "init"])
def test_negative_arity_is_a_usage_error(build):
    with pytest.raises(UsageError, match="arity must be >= 0"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Cochain.zero(2, -1, 2),
    lambda: Cochain.from_flat(2, -1, 2, ()),
    lambda: Cochain.from_values(2, -1, 2, {}),
    lambda: Cochain(2, -1, 2, Matrix.zero(2, 0)),
], ids=["zero", "from_flat", "from_values", "init"])
def test_negative_source_dimension_is_a_usage_error(build):
    with pytest.raises(UsageError, match="source dimension and arity must be >= 0"):
        build()


def test_hom_cochain_basis_above_dimension_empty():
    assert hom_cochain_basis(Matrix.identity(2), Matrix.identity(2), 3) == []


def test_hom_cochain_basis_members_are_equivariant():
    g4 = fixtures.g4a(1)
    for n in (1, 2, 3):
        for f in hom_cochain_basis(g4.alpha, g4.alpha, n):
            assert is_equivariant(f, g4.alpha, g4.alpha)


def test_equivariance_means_twist_commutes_pointwise():
    # beta(f(v1, ..., vn)) == f(alpha v1, ..., alpha vn) as functions, checked
    # on random arguments with non-symmetric twists on both sides, whose
    # equivariant bases are not empty in arities 1 and 2.
    rng = random.Random(15)
    alpha = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
    beta = Matrix.from_rows([[1, 1], [0, 1]])
    for n in (1, 2):
        basis = hom_cochain_basis(alpha, beta, n)
        assert basis
        for f in basis:
            for _ in range(5):
                args = [rand_vector(rng, 3) for _ in range(n)]
                lhs = naive_apply(dense(beta), f.evaluate(args))
                rhs = f.evaluate([naive_apply(dense(alpha), a) for a in args])
                assert lhs == rhs


def test_diamond_formula_is_alternating_in_raw_arguments():
    # The shuffle-summed insertion formula, evaluated naively on permuted
    # basis arguments, agrees with the alternating extension of the stored
    # columns; this pins the column representation against the raw formula.
    import itertools

    from homlie.linalg import zero_vector
    from helpers import perm_sign

    rng = random.Random(16)
    d = 3
    alpha = rand_matrix(rng, d, d)
    p = Cochain(2, d, d, rand_matrix(rng, d, comb(d, 2)))
    q = Cochain(2, d, d, rand_matrix(rng, d, comb(d, 2)))
    fast = nr_diamond(p, q, alpha)
    m, n = p.arity - 1, q.arity - 1
    alpha_n = alpha.power(n)

    def raw(args):
        total = zero_vector(d)
        for perm in itertools.permutations(range(m + n + 1)):
            head, tail = perm[: n + 1], perm[n + 1 :]
            if any(head[a] > head[a + 1] for a in range(len(head) - 1)):
                continue
            if any(tail[a] > tail[a + 1] for a in range(len(tail) - 1)):
                continue
            inner = q.evaluate([args[t] for t in head])
            rest = [naive_apply(dense(alpha_n), args[t]) for t in tail]
            total = vec_add(
                total, vec_scale(Fraction(perm_sign(perm)), p.evaluate([inner] + rest))
            )
        return total

    for args_idx in itertools.permutations(range(d), 3):
        args = [basis_vector(d, i) for i in args_idx]
        assert raw(args) == fast.evaluate(args)


# ---------------------------------------------------------------------------
# insertion product and graded bracket
# ---------------------------------------------------------------------------

def test_diamond_of_linear_maps_is_composition():
    rng = random.Random(4)
    a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 3)
    p = Cochain(1, 3, 3, a)
    q = Cochain(1, 3, 3, b)
    composed = nr_diamond(p, q, Matrix.identity(3))
    assert composed.coeffs == a @ b


def test_diamond_arity2_with_arity1():
    rng = random.Random(5)
    alpha = Matrix.identity(3)
    p = Cochain(2, 3, 3, rand_matrix(rng, 3, 3))
    q = Cochain(1, 3, 3, rand_matrix(rng, 3, 3))
    out = nr_diamond(p, q, alpha)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        ei, ej = basis_vector(3, i), basis_vector(3, j)
        direct = tuple(
            a - b
            for a, b in zip(
                p.evaluate([q.evaluate([ei]), ej]), p.evaluate([q.evaluate([ej]), ei])
            )
        )
        assert out.column((i, j)) == direct


def test_diamond_zero_bracket():
    ab = fixtures.ab1()
    mu = ab.bracket_cochain()
    assert nr_diamond(mu, mu, ab.alpha).is_zero()


def test_bracket_odd_degree_self():
    rng = random.Random(6)
    alpha = Matrix.identity(3)
    p = Cochain(2, 3, 3, rand_matrix(rng, 3, comb(3, 2)))
    double = nr_diamond(p, p, alpha).scale(2)
    assert nr_bracket(p, p, alpha).flatten() == double.flatten()


def test_bracket_d2_jacobi_and_compatibility():
    d2 = fixtures.d2()
    mu1, mu2 = d2.bracket_cochain(1), d2.bracket_cochain(2)
    assert nr_bracket(mu1, mu1, d2.alpha).is_zero()
    assert nr_bracket(mu2, mu2, d2.alpha).is_zero()
    assert nr_bracket(mu1, mu2, d2.alpha).is_zero()


def test_bracket_against_permutation_oracle():
    # Shuffle-combination enumeration against factorial brute force,
    # with identity and with a genuine twist.
    rng = random.Random(7)
    g4 = fixtures.g4a(1)
    cases = []
    for alpha, dim in ((Matrix.identity(3), 3), (g4.alpha, 4)):
        for (ap, aq) in ((1, 1), (1, 2), (2, 2), (2, 1)):
            p = rand_equivariant_cochain(rng, alpha, alpha, ap)
            q = rand_equivariant_cochain(rng, alpha, alpha, aq)
            if p is None or q is None:
                continue
            cases.append((p, q, alpha))
    assert cases
    for p, q, alpha in cases:
        fast = nr_bracket(p, q, alpha)
        slow = naive_nr_bracket(p, q, alpha)
        assert fast.flatten() == slow.flatten()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_diamond_against_permutation_oracle_in_every_arity(d):
    # The insertion matrix against factorial brute force, for every arity
    # pair up to d, on random (not equivariant) cochains and a twist with
    # nonzero off-diagonal rational entries.
    rng = random.Random(100 + d)
    alpha = rand_matrix(rng, d, d)
    while all(alpha.entry(i, j) == 0 for i in range(d) for j in range(d) if i != j):
        alpha = rand_matrix(rng, d, d)
    for ap in range(1, d + 1):
        for aq in range(1, d + 1):
            p = Cochain(ap, d, d, rand_matrix(rng, d, comb(d, ap)))
            q = Cochain(aq, d, d, rand_matrix(rng, d, comb(d, aq)))
            fast = nr_diamond(p, q, alpha)
            assert fast.arity == ap + aq - 1
            assert fast.flatten() == naive_nr_diamond(p, q, alpha).flatten()


def test_graded_antisymmetry_on_random_equivariant_pairs():
    rng = random.Random(8)
    g4 = fixtures.g4a(1)
    for alpha in (Matrix.identity(2), Matrix.identity(3), g4.alpha):
        for _ in range(8):
            m = rng.randint(1, 2)
            n = rng.randint(1, 2)
            p = rand_equivariant_cochain(rng, alpha, alpha, m)
            q = rand_equivariant_cochain(rng, alpha, alpha, n)
            lhs = nr_bracket(p, q, alpha)
            rhs = nr_bracket(q, p, alpha).scale((-1) ** ((m - 1) * (n - 1) + 1))
            assert lhs.flatten() == rhs.flatten()


def test_bracket_stays_equivariant():
    rng = random.Random(9)
    g4 = fixtures.g4a(1)
    for alpha in (g4.alpha, Matrix.identity(3)):
        for _ in range(6):
            p = rand_equivariant_cochain(rng, alpha, alpha, rng.randint(1, 2))
            q = rand_equivariant_cochain(rng, alpha, alpha, rng.randint(1, 2))
            out = nr_bracket(p, q, alpha)
            assert is_equivariant(out, alpha, alpha)


def test_graded_jacobi():
    rng = random.Random(10)
    checked = 0
    for alpha in (Matrix.identity(2), Matrix.identity(3)):
        d = alpha.rows
        for _ in range(12):
            arities = [rng.randint(1, 2) for _ in range(3)]
            p, q, r = (rand_equivariant_cochain(rng, alpha, alpha, a) for a in arities)
            m, n, k = (a - 1 for a in arities)
            t1 = nr_bracket(nr_bracket(p, q, alpha), r, alpha).scale((-1) ** (m * k))
            t2 = nr_bracket(nr_bracket(q, r, alpha), p, alpha).scale((-1) ** (n * m))
            t3 = nr_bracket(nr_bracket(r, p, alpha), q, alpha).scale((-1) ** (k * n))
            total = t1 + t2 + t3
            assert total.is_zero()
            if m + n + k + 2 <= d:
                checked += 1
    assert checked > 0  # some triples land in a nonzero arity


# ---------------------------------------------------------------------------
# lifting to a product
# ---------------------------------------------------------------------------

def test_lift_zero_iff_zero():
    assert lift_to_product(Cochain.zero(2, 2, 3), 2, 3).is_zero()
    rng = random.Random(11)
    f = Cochain(2, 2, 3, rand_matrix(rng, 3, 1))
    assert not lift_to_product(f, 2, 3).is_zero()


def test_lift_values():
    rng = random.Random(12)
    f = Cochain(2, 2, 2, rand_matrix(rng, 2, 1))
    lifted = lift_to_product(f, 2, 2)
    e = lambda i: basis_vector(4, i)
    assert lifted.evaluate([e(0), e(1)]) == (F(0), F(0)) + f.column((0, 1))
    # any argument in the fiber slot kills the value
    assert vec_is_zero(lifted.evaluate([e(0), e(2)]))
    assert vec_is_zero(lifted.evaluate([e(2), e(3)]))


def test_lift_arity0_lands_in_the_fiber_slot():
    v = Cochain.from_flat(0, 2, 3, (F(1), F(-2), F(3)))
    assert lift_to_product(v, 2, 3).flatten() == (F(0), F(0), F(1), F(-2), F(3))


# ---------------------------------------------------------------------------
# Maurer-Cartan pairs
# ---------------------------------------------------------------------------

def test_mc_pair_d2():
    d2 = fixtures.d2()
    check = is_mc_pair(d2.bracket_cochain(1), d2.bracket_cochain(2), d2.alpha)
    assert check.is_mc


def test_mc_pair_twisted_fixture():
    c = fixtures.twisted_compatible_h3()
    check = is_mc_pair(c.bracket_cochain(1), c.bracket_cochain(2), c.alpha)
    assert check.is_mc


def test_mc_pair_zero_with_base():
    d2 = fixtures.d2()
    zero = Cochain.zero(2, 2, 2)
    base = (d2.bracket_cochain(1), d2.bracket_cochain(2))
    check = is_mc_pair(zero, zero, d2.alpha, base=base)
    assert check.is_mc


def test_mc_pair_builds_one_compound_per_cochain_pair(monkeypatch):
    # One compound for (mu1, mu2), one for the base pair and one for the
    # base pair's own Maurer-Cartan test.
    c = fixtures.d2()
    mus = (c.bracket_cochain(1), c.bracket_cochain(2))
    built = []
    original = cochains.exterior_power_matrix
    monkeypatch.setattr(cochains, "exterior_power_matrix",
                        lambda alpha, n: built.append(n) or original(alpha, n))
    is_mc_pair(*mus, c.alpha)
    assert built == [2]
    is_mc_pair(*mus, c.alpha, base=mus)
    assert built == [2] * 4


def test_mc_pair_builds_one_insertion_matrix_per_cochain(monkeypatch):
    # K1 and K2 of the pair; with a base, those of the base pair's own
    # Maurer-Cartan test and those of the sum.
    c = fixtures.twisted_compatible_h3()
    mus = (c.bracket_cochain(1), c.bracket_cochain(2))
    built, brackets = [], []
    original = cochains.insertion_matrix
    monkeypatch.setattr(cochains, "insertion_matrix",
                        lambda q, alpha, arity: built.append(q) or original(q, alpha, arity))
    monkeypatch.setattr(cochains, "nr_bracket", lambda *args: brackets.append(args))
    zero = Cochain.zero(2, 3, 3)
    assert is_mc_pair(*mus, c.alpha).is_mc
    assert built == list(mus)
    built.clear()
    assert is_mc_pair(zero, zero, c.alpha, base=mus).is_mc
    assert built == list(mus) * 2
    assert brackets == []


def test_mc_pair_rejects_non_equivariant():
    g4 = fixtures.g4a(1)
    mu = g4.bracket_cochain()
    assert not is_equivariant(mu, g4.alpha, g4.alpha)
    with pytest.raises(PreconditionError):
        is_mc_pair(mu, Cochain.zero(2, 4, 4), g4.alpha)


def test_mc_pair_rejects_non_mc_base():
    # A bracket violating the twisted Jacobi identity cannot serve as base.
    alpha = Matrix.identity(3)
    bad = HomLieAlgebra.from_brackets(
        3, alpha, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]}
    )
    mu = bad.bracket_cochain()
    assert not is_mc_pair(mu, mu, alpha).is_mc
    with pytest.raises(PreconditionError):
        is_mc_pair(Cochain.zero(2, 3, 3), Cochain.zero(2, 3, 3), alpha, base=(mu, mu))


def test_mc_shifted_base_equals_direct_check():
    # (base + move) is Maurer-Cartan in the plain sense exactly when move is
    # Maurer-Cartan relative to the base, with equal residuals.  d2 has no
    # arity-3 cochains, so its residuals are 2 x 0 matrices; on compatible
    # h3 [t, m] does not vanish, so there the relative residuals differ
    # from the plain residuals of the move, and a test that drops the base
    # shift is seen.
    rng = random.Random(13)
    shifted = 0
    for c in (fixtures.d2(), fixtures.compatible_h3()):
        base = (c.bracket_cochain(1), c.bracket_cochain(2))
        for _ in range(10):
            w1 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
            w2 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
            relative = is_mc_pair(w1, w2, c.alpha, base=base)
            absolute = is_mc_pair(base[0] + w1, base[1] + w2, c.alpha)
            assert relative.is_mc == absolute.is_mc
            for r, s in zip(relative.residuals, absolute.residuals):
                assert r.flatten() == s.flatten()
            shifted += relative.residuals != is_mc_pair(w1, w2, c.alpha).residuals
    assert shifted


def test_mc_residuals_match_the_naive_bracket():
    # In dimension 3 the residuals are arity-3 cochains that need not
    # vanish: [m1,m1], [m2,m2], [m1,m2], and with a base the relative
    # residuals 2[t1,m1]+[m1,m1], 2[t2,m2]+[m2,m2], [t1,m2]+[t2,m1]+[m1,m2],
    # each against the permutation oracle.  On twisted compatible h3 every
    # [t, m] vanishes, so only compatible h3 tells the two tests apart.
    rng = random.Random(15)
    nonzero = shifted = 0
    for c in (fixtures.compatible_h3(), fixtures.twisted_compatible_h3()):
        t1, t2 = base = (c.bracket_cochain(1), c.bracket_cochain(2))
        for _ in range(3):
            w1, w2 = (rand_equivariant_cochain(rng, c.alpha, c.alpha, 2) for _ in "12")
            plain = (naive_nr_bracket(w1, w1, c.alpha), naive_nr_bracket(w2, w2, c.alpha),
                     naive_nr_bracket(w1, w2, c.alpha))
            assert is_mc_pair(w1, w2, c.alpha).residuals == plain
            relative = (naive_nr_bracket(t1, w1, c.alpha).scale(2) + plain[0],
                        naive_nr_bracket(t2, w2, c.alpha).scale(2) + plain[1],
                        naive_nr_bracket(t1, w2, c.alpha) + naive_nr_bracket(t2, w1, c.alpha)
                        + plain[2])
            assert is_mc_pair(w1, w2, c.alpha, base=base).residuals == relative
            nonzero += any(not r.is_zero() for r in plain)
            shifted += relative != plain
    assert nonzero and shifted


def test_mc_zero_set_matches_jacobiator_oracle():
    # Random skew brackets with identity twist: the bracket squares to zero
    # exactly when every cyclic Jacobi defect vanishes.
    rng = random.Random(14)
    hits = {True: 0, False: 0}
    for _ in range(20):
        dim = rng.randint(2, 3)
        alpha = Matrix.identity(dim)
        if rng.random() < 0.4:
            bracket = fixtures.h3().bracket if dim == 3 else rand_skew_bracket(rng, dim)
        else:
            bracket = rand_skew_bracket(rng, dim)
        alg = HomLieAlgebra(dim, alpha, bracket)
        mu = alg.bracket_cochain()
        square_zero = nr_bracket(mu, mu, alpha).is_zero()
        jacobi_zero = all(vec_is_zero(d) for _, d in naive_jacobiator_defects(alg))
        assert square_zero == jacobi_zero
        assert jacobi_zero == verify_structure(alg).check("hom_jacobi").passed
        hits[square_zero] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_equivariance_constraints_are_the_entrywise_linear_forms():
    # The Kronecker formula equals the constraint rows built entry by entry,
    # so hom_cochain_basis eliminates the same matrix, not only one with the
    # same kernel.
    rng = random.Random(4401)
    for d in range(5):
        for t in range(4):
            alpha, beta = rand_matrix(rng, d, d), rand_matrix(rng, t, t)
            for n in range(d + 1):
                assert equivariance_constraints(alpha, beta, n) == \
                    naive_equivariance_constraints(alpha, beta, n), (d, t, n)

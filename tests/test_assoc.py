from __future__ import annotations

import random
from fractions import Fraction

import pytest

from currentlie.assoc import (
    AssocAlgebra,
    _minimal_polynomial,
    derivations,
    direct_sum,
    first_assoc_violation,
    jacobson_radical,
    rbar,
    truncated_polynomial,
    wedderburn_complement,
)
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Subspace,
    subspace_intersection,
    subspace_sum,
)
from currentlie.serialize import first_axiom_violation
from helpers import (
    assert_is_largest_nilpotent_ideal,
    polynomial_quotient,
    rand_frac,
    reference_rref,
)


def _basis(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


def test_truncated_polynomial_products():
    a1 = truncated_polynomial(1)
    t = _basis(2, 1)
    assert a1.multiply(t, t) == (0, 0)
    a2 = truncated_polynomial(2)
    t, t2 = _basis(3, 1), _basis(3, 2)
    assert a2.multiply(t, t) == (0, 0, 1)
    assert a2.multiply(t, t2) == (0, 0, 0)
    assert a2.multiply(a2.unit, t2) == t2
    assert a2.labels == ("1", "t", "t^2")


def test_truncated_polynomial_axioms():
    for k in range(4):
        assert truncated_polynomial(k).check_axioms()


def test_direct_sum_structure():
    s = direct_sum(truncated_polynomial(1), truncated_polynomial(2))
    assert s.dim == 5
    assert s.check_axioms()
    # cross terms vanish
    assert s.multiply(_basis(5, 1), _basis(5, 3)) == (0,) * 5
    assert s.unit == (1, 0, 1, 0, 0)


def test_check_axioms_rejects_bad_tables():
    # non-commutative table
    bad = AssocAlgebra(
        ["1", "x"],
        [[[1, 0], [0, 1]], [[1, 1], [0, 0]]],
        [1, 0],
    )
    assert not bad.check_axioms()
    # broken unit
    bad2 = AssocAlgebra(
        ["1", "x"],
        [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        [1, 0],
    )
    assert not bad2.check_axioms()


def test_assoc_violation_messages_are_pinned():
    a = truncated_polynomial(2)  # basis 1, t, t^2
    assert first_assoc_violation(a) is None
    # unit 1 + t: (1 + t) * t = t + t^2 breaks the left identity on 1 first
    bad_unit = AssocAlgebra(a.labels, a.structure, [1, 1, 0])
    assert first_assoc_violation(bad_unit) == "unit is not a left identity on 1"
    # a unit that only works from the left
    right = AssocAlgebra(["1", "x"], [[[1, 0], [0, 1]], [[1, 1], [0, 0]]], [1, 0])
    assert first_assoc_violation(right) == "unit is not a right identity on x"
    # unital, but x y = y while y x = 0
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        table[0][i][i] = table[i][0][i] = 1
    table[1][2][2] = 1
    noncomm = AssocAlgebra(["1", "x", "y"], table, [1, 0, 0])
    assert first_assoc_violation(noncomm) == "commutativity fails on (x, y)"
    # commutative and unital: x x = y, y y = x, x y = 0; (x x) y = x but x (x y) = 0
    table[1][2][2] = 0
    table[1][1][2] = 1
    table[2][2][1] = 1
    nonassoc = AssocAlgebra(["1", "x", "y"], table, [1, 0, 0])
    assert first_assoc_violation(nonassoc) == "associativity fails on (x, x, y)"
    for alg in (bad_unit, right, noncomm, nonassoc):
        assert not alg.check_axioms()
        assert first_axiom_violation(alg) == first_assoc_violation(alg)


def _dense_assoc_violation(a):
    """Oracle: the axioms on every basis pair and triple of the dense view."""
    n, c, labels = a.dim, a.structure, a.labels

    def mul(x, y):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k in range(n):
                        out[k] += x[i] * y[j] * c[i][j][k]
        return tuple(out)

    e = [_basis(n, i) for i in range(n)]
    for i in range(n):
        if mul(a.unit, e[i]) != e[i]:
            return f"unit is not a left identity on {labels[i]}"
        if mul(e[i], a.unit) != e[i]:
            return f"unit is not a right identity on {labels[i]}"
    for i in range(n):
        for j in range(i, n):
            if c[i][j] != c[j][i]:
                return f"commutativity fails on ({labels[i]}, {labels[j]})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul(c[i][j], e[k]) != mul(e[i], c[j][k]):
                    return f"associativity fails on ({labels[i]}, {labels[j]}, {labels[k]})"
    return None


def test_assoc_violation_matches_dense_oracle():
    # valid algebras, then copies with one constant (or the unit) perturbed
    # Q + (square-zero ideal): 1 e = e, every other product is 0
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        table[0][i][i] = table[i][0][i] = 1
    square_zero = AssocAlgebra(["1", "x", "y", "z"], table, [1, 0, 0, 0])
    algebras = [
        truncated_polynomial(3),
        direct_sum(truncated_polynomial(1), truncated_polynomial(2)),
        square_zero,
    ]
    rng = random.Random(53)
    messages = set()
    for a in algebras:
        for t in range(12):
            table = [[list(v) for v in row] for row in a.structure]
            unit = list(a.unit)
            if t % 4 == 3:
                unit[rng.randrange(a.dim)] += 1
            elif t:
                i, j, k = (rng.randrange(a.dim) for _ in range(3))
                table[i][j][k] += rng.choice([1, -1, Fraction(1, 2)])
                if t % 2:
                    table[j][i][k] = table[i][j][k]  # keep commutativity
            b = AssocAlgebra(a.labels, table, unit)
            message = first_assoc_violation(b)
            assert message == _dense_assoc_violation(b)
            messages.add(message.split(" ")[0] if message else None)
    assert messages == {None, "unit", "commutativity", "associativity"}


def test_left_mult_matrix_is_multiplicative():
    rng = random.Random(37)
    a = truncated_polynomial(3)
    for _ in range(25):
        x = [rand_frac(rng) for _ in range(4)]
        y = [rand_frac(rng) for _ in range(4)]
        lx, ly = a.left_mult_matrix(x), a.left_mult_matrix(y)
        assert a.left_mult_matrix(a.multiply(x, y)) == lx * ly
        assert lx.apply(y) == a.multiply(x, y)
    assert a.left_mult_matrix(a.unit) == ExactMatrix.identity(4)


def test_nilpotent_elements():
    a = truncated_polynomial(2)
    assert a.is_nilpotent_element(_basis(3, 1))
    assert a.is_nilpotent_element((0, 3, Fraction(1, 2)))
    assert not a.is_nilpotent_element((1, 1, 0))
    assert a.power(_basis(3, 1), 2) == (0, 0, 1)
    assert a.power(_basis(3, 1), 3) == (0, 0, 0)


def test_derivation_dimension_of_truncated_rings():
    # der(Q[t]/(t^(k+1))) has dimension k: a derivation is fixed by its
    # value on t, which must have zero constant term
    for k in range(0, 5):
        a = truncated_polynomial(k)
        der = derivations(a)
        assert der.dim == k
        for m in der.basis_matrices():
            assert m.apply(a.unit) == (0,) * (k + 1)


def test_derivations_satisfy_leibniz():
    a = direct_sum(truncated_polynomial(1), truncated_polynomial(2))
    der = derivations(a)
    assert der.dim == 3
    n = a.dim
    for m in der.basis_matrices():
        for i in range(n):
            for j in range(n):
                lhs = m.apply(a.multiply(_basis(n, i), _basis(n, j)))
                rhs = tuple(
                    x + y
                    for x, y in zip(
                        a.multiply(m.apply(_basis(n, i)), _basis(n, j)),
                        a.multiply(_basis(n, i), m.apply(_basis(n, j))),
                    )
                )
                assert lhs == rhs


def test_derivations_of_truncated_ring_are_spanned_by_rbar():
    for k in (1, 2, 3):
        a = truncated_polynomial(k)
        mats = [rbar(a, _basis(k + 1, i)) for i in range(1, k + 1)]
        assert EndoSubspace.from_matrices(mats, k + 1) == derivations(a)


def test_derivations_and_radical_are_memoized_on_the_algebra():
    a = direct_sum(truncated_polynomial(2), truncated_polynomial(1))
    assert jacobson_radical(a) is jacobson_radical(a)
    assert derivations(a) is derivations(a)
    assert derivations(a).basis_matrices() is derivations(a).basis_matrices()
    assert a.structure is a.structure
    # an equal algebra built anew has its own memo, and the same results
    b = direct_sum(truncated_polynomial(2), truncated_polynomial(1))
    assert b == a and derivations(b) is not derivations(a)
    assert derivations(b) == derivations(a) and jacobson_radical(b) == jacobson_radical(a)


def test_jacobson_radical_of_truncated_ring():
    for k in (0, 1, 2, 3):
        a = truncated_polynomial(k)
        j = jacobson_radical(a)
        expected = Subspace.from_vectors(
            [_basis(k + 1, i) for i in range(1, k + 1)], k + 1
        )
        assert j == expected
        assert_is_largest_nilpotent_ideal(a, j)


def test_jacobson_radical_of_direct_sum():
    a = direct_sum(truncated_polynomial(1), truncated_polynomial(2))
    j = jacobson_radical(a)
    assert j.dim == 3
    expected = Subspace.from_vectors(
        [_basis(5, 1), _basis(5, 3), _basis(5, 4)], 5
    )
    assert j == expected
    assert_is_largest_nilpotent_ideal(a, j)


def test_wedderburn_complement_of_truncated_ring():
    for k in (1, 2, 3):
        a = truncated_polynomial(k)
        s = wedderburn_complement(a)
        assert s == Subspace.from_vectors([a.unit], k + 1)


def test_wedderburn_complement_of_direct_sum():
    a = direct_sum(truncated_polynomial(1), truncated_polynomial(2))
    s = wedderburn_complement(a)
    j = jacobson_radical(a)
    assert s.dim == 2
    assert subspace_sum(s, j) == Subspace.full_space(5)
    assert subspace_intersection(s, j).dim == 0
    # the complement is spanned by the two block identities
    assert s == Subspace.from_vectors([(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)], 5)
    # closed under multiplication
    for u in s.basis.rows:
        for v in s.basis.rows:
            assert s.contains(a.multiply(u, v))


def test_wedderburn_complement_three_blocks():
    a = direct_sum(
        direct_sum(truncated_polynomial(1), truncated_polynomial(0)),
        truncated_polynomial(2),
    )
    s = wedderburn_complement(a)
    j = jacobson_radical(a)
    assert s.dim == 3 and j.dim == 3
    assert subspace_sum(s, j).dim == a.dim
    for u in s.basis.rows:
        assert s.contains(a.multiply(u, u))


def _rebased(a, rng):
    # a on the rows of a seeded unimodular integer matrix p: row operations
    # build p and, by the inverse column operations, its inverse q, and a
    # vector's coordinates over the rows of p are the vector times q
    n = a.dim
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]

    def over_p(v):
        return [sum(v[t] * q[t][s] for t in range(n)) for s in range(n)]

    table = [[over_p(a.multiply(u, v)) for v in p] for u in p]
    return AssocAlgebra([f"b{i}" for i in range(n)], table, over_p(a.unit))


def test_minimal_polynomial_is_monic_annihilating_and_least():
    rng = random.Random(61)
    for _ in range(15):
        a = truncated_polynomial(rng.randint(0, 3))
        for _ in range(rng.randint(0, 2)):
            a = direct_sum(a, truncated_polynomial(rng.randint(0, 3)))
        a = _rebased(a, rng)
        assert a.check_axioms()
        x = tuple(rand_frac(rng, 3, 2) for _ in range(a.dim))
        # modulo 0 the minimal polynomial itself, modulo J the least one with q(x) in J
        for modulus in (Subspace.zero_space(a.dim), jacobson_radical(a)):
            poly = _minimal_polynomial(a, x, modulus)
            assert poly[-1] == 1
            powers = [modulus.reduce(a.unit)]
            for _ in range(len(poly) - 1):
                powers.append(modulus.reduce(a.multiply(powers[-1], x)))
            killed = [sum(c * power[t] for c, power in zip(poly, powers)) for t in range(a.dim)]
            assert modulus.contains(killed)
            # the powers below the degree are independent modulo the ideal:
            # no lower polynomial sends x into it
            lower = ExactMatrix(powers[:-1])
            assert sum(1 for row in reference_rref(lower).rows if any(row)) == lower.nrows


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def test_wedderburn_complement_of_a_field_bigger_than_q():
    # Q[x]/(x^2+1) is a field, so J = 0 and S is all of it
    gauss = polynomial_quotient([1, 0, 1])
    assert gauss.check_axioms()
    assert jacobson_radical(gauss).dim == 0
    assert wedderburn_complement(gauss) == Subspace.full_space(2)


def test_wedderburn_complement_is_the_semisimple_parts():
    # Q[x]/(p^e) with p irreducible over Q, summed with truncated rings and
    # rebased: A/J holds fields bigger than Q.  S (+) J = A, S is a
    # subalgebra holding 1, and each basis vector of S is semisimple (its
    # minimal polynomial is its squarefree one modulo J); for commutative A
    # these characterise the unique complement
    rng = random.Random(29)
    fields = ([1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1])
    for _ in range(10):
        p = rng.choice(fields)
        parts = [polynomial_quotient(p if rng.random() < 0.5 else _poly_mul(p, p))]
        parts += [truncated_polynomial(rng.randint(0, 2)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(parts)
        a = parts[0]
        for b in parts[1:]:
            a = direct_sum(a, b)
        a = _rebased(a, rng)
        s, j = wedderburn_complement(a), jacobson_radical(a)
        assert s.dim + j.dim == a.dim
        assert subspace_sum(s, j) == Subspace.full_space(a.dim)
        assert s.contains(a.unit)
        rows = s.basis.rows
        for u in rows:
            assert all(s.contains(a.multiply(u, v)) for v in rows)
            assert _minimal_polynomial(a, u, Subspace.zero_space(a.dim)) == _minimal_polynomial(a, u, j)


def test_wedderburn_complement_fails_loudly_on_a_wrong_radical(monkeypatch):
    # with J taken as the ideal (t^2) of Q[t]/(t^3), q = x^2 for t is not
    # squarefree, and q'(t) = 2t is no unit: Newton's iteration raises
    # instead of returning a wrong S
    monkeypatch.setattr("currentlie.assoc.jacobson_radical", lambda a: Subspace.from_vectors([(0, 0, 1)], 3))
    with pytest.raises(RuntimeError, match="not a unit"):
        wedderburn_complement(truncated_polynomial(2))


def test_regular_rep_toeplitz():
    a1 = truncated_polynomial(1)
    assert a1.left_mult_matrix((1, 2)) == ExactMatrix([[1, 0], [2, 1]])
    rng = random.Random(41)
    a3 = truncated_polynomial(3)
    for _ in range(20):
        p = [rand_frac(rng) for _ in range(4)]
        q = [rand_frac(rng) for _ in range(4)]
        rp = a3.left_mult_matrix(p)
        for i in range(4):
            for j in range(4):
                assert rp[i, j] == (p[i - j] if i >= j else 0)
        assert a3.left_mult_matrix(a3.multiply(p, q)) == rp * a3.left_mult_matrix(q)
    assert a3.left_mult_matrix(a3.unit) == ExactMatrix.identity(4)


def test_rbar_fixed_matrices():
    a1 = truncated_polynomial(1)
    assert rbar(a1, (0, 1)) == ExactMatrix([[0, 0], [0, 1]])
    a2 = truncated_polynomial(2)
    assert rbar(a2, (0, 1, 0)) == ExactMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert rbar(a2, (0, 0, 1)) == ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])


def test_rbar_ignores_constant_term():
    a2 = truncated_polynomial(2)
    assert rbar(a2, (5, 1, 2)) == rbar(a2, (0, 1, 2))
    # column 0 is always zero: derivations kill 1
    m = rbar(a2, (0, "1/3", 7))
    assert m.column(0) == (0, 0, 0)


def test_rbar_rejects_non_monomial_algebras():
    s = direct_sum(truncated_polynomial(1), truncated_polynomial(1))
    with pytest.raises(ValueError, match="not a derivation"):
        rbar(s, (0, 1, 0, 0))

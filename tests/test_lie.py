from __future__ import annotations

import random

import pytest

from currentlie.lie import (
    LieAlgebra,
    center,
    centroid,
    derivations,
    derived_series,
    derived_subalgebra,
    heisenberg,
    hom_quotient_to_center,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    is_subalgebra_closed,
    killing_form,
    lie_from_endo_span,
    lower_central_series,
    solvable_radical,
    sp,
    subalgebra,
)
from currentlie.assoc import AssocAlgebra
from currentlie.linalg import EndoSubspace, ExactMatrix, Subspace, rank, rat_str
from currentlie.serialize import first_axiom_violation
from helpers import rand_frac


def _abelian(n):
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    return LieAlgebra([f"x{i}" for i in range(n)], zero)


def _affine():
    # [x, y] = y: solvable but not nilpotent
    return LieAlgebra.from_bracket_entries(["x", "y"], [(0, 1, 1, 1)])


def test_heisenberg_structure():
    for m in (1, 2, 3):
        h = heisenberg(m)
        assert h.dim == 2 * m + 1
        assert h.check_lie_axioms()
        e1, f1, z = h.basis_vector(0), h.basis_vector(m), h.basis_vector(2 * m)
        assert h.bracket(e1, f1) == z
        assert h.bracket(f1, e1) == tuple(-x for x in z)
        assert h.bracket(e1, h.basis_vector(m + 1) if m > 1 else e1) == (0,) * h.dim
        assert center(h) == Subspace.from_vectors([z], h.dim)
        assert derived_subalgebra(h) == Subspace.from_vectors([z], h.dim)
        assert is_nilpotent(h) and is_solvable(h)
        dims = [s.dim for s in lower_central_series(h)]
        assert dims == [2 * m + 1, 1, 0]


def test_ad_matrix():
    h = heisenberg(1)
    assert h.ad(h.basis_vector(0)) == ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    rng = random.Random(43)
    for _ in range(20):
        x = [rand_frac(rng) for _ in range(3)]
        y = [rand_frac(rng) for _ in range(3)]
        assert h.ad(x).apply(y) == h.bracket(x, y)


def test_check_lie_axioms_rejects_bad_tables():
    bad = LieAlgebra(["x", "y"], [[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    assert not bad.check_lie_axioms()  # not antisymmetric
    # antisymmetric but fails Jacobi: [x,y]=z, [x,z]=x, [y,z]=y
    bad2 = LieAlgebra.from_bracket_entries(
        ["x", "y", "z"], [(0, 1, 2, 1), (0, 2, 0, 1), (1, 2, 1, 1)]
    )
    assert not bad2.check_lie_axioms()


def _lie_axioms_hold(g) -> bool:
    """Dense oracle: every basis pair and every basis triple, via bracket()."""
    e = [g.basis_vector(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            if any(a + b for a, b in zip(g.bracket(e[i], e[j]), g.bracket(e[j], e[i]))):
                return False
            for k in range(g.dim):
                terms = (
                    g.bracket(e[i], g.bracket(e[j], e[k])),
                    g.bracket(e[j], g.bracket(e[k], e[i])),
                    g.bracket(e[k], g.bracket(e[i], e[j])),
                )
                if any(sum(t) for t in zip(*terms)):
                    return False
    return True


def test_axiom_check_agrees_with_violation_report():
    # matrix-generated algebras, then copies with one constant perturbed
    gl2 = EndoSubspace.from_matrices(
        [ExactMatrix([[int((r, c) == (p, q)) for c in range(2)] for r in range(2)])
         for p in range(2) for q in range(2)],
        2,
    )
    algebras = [sp(1), sp(2), lie_from_endo_span(derivations(heisenberg(1))),
                lie_from_endo_span(gl2)]
    rng = random.Random(47)
    verdicts = []
    for g in algebras:
        for t in range(8):
            table = [[list(v) for v in row] for row in g.structure]
            if t:
                i, j, k = (rng.randrange(g.dim) for _ in range(3))
                table[i][j][k] += rng.choice([1, -1])
                if t % 2 and i != j:
                    table[j][i][k] = -table[i][j][k]  # keep antisymmetry
            h = LieAlgebra(g.labels, table)
            ok = h.check_lie_axioms()
            assert ok == (first_axiom_violation(h) is None) == _lie_axioms_hold(h)
            verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_axiom_violation_messages_are_pinned():
    # Jacobi fails on (b, c, d) and on (c, d, e) only
    labels = ["a", "b", "c", "d", "e"]
    g = LieAlgebra.from_bracket_entries(labels, [(1, 3, 4, 1), (2, 4, 1, 1)])
    assert first_axiom_violation(g) == "Jacobi fails on (b, c, d): cyclic sum = -1*b"
    table = [[list(v) for v in row] for row in g.structure]
    table[4][3][0] += 1  # antisymmetry fails on the last pair, before any Jacobi test
    bad = LieAlgebra(labels, table)
    assert first_axiom_violation(bad) == "antisymmetry fails: [d,e] + [e,d] = 1*a"
    table[2][2][3] = -2
    assert first_axiom_violation(LieAlgebra(labels, table)) == "[c,c] = -2*d != 0"
    assert not g.check_lie_axioms() and not bad.check_lie_axioms()


def _dense_lie_violation(g):
    """Oracle: the Lie axioms on every basis pair and triple of the dense view."""
    n, c, labels = g.dim, g.structure, g.labels

    def combo(vec):
        return " + ".join(f"{rat_str(x)}*{labels[p]}" for p, x in enumerate(vec) if x) or "0"

    def bracket(x, y):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k in range(n):
                        out[k] += x[i] * y[j] * c[i][j][k]
        return out

    for i in range(n):
        if any(c[i][i]):
            return f"[{labels[i]},{labels[i]}] = {combo(c[i][i])} != 0"
        for j in range(i + 1, n):
            total = [a + b for a, b in zip(c[i][j], c[j][i])]
            if any(total):
                pair = f"[{labels[i]},{labels[j]}] + [{labels[j]},{labels[i]}]"
                return f"antisymmetry fails: {pair} = {combo(total)}"
    e = [g.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [
                    sum(t)
                    for t in zip(
                        bracket(e[i], c[j][k]), bracket(e[j], c[k][i]), bracket(e[k], c[i][j])
                    )
                ]
                if any(total):
                    names = f"{labels[i]}, {labels[j]}, {labels[k]}"
                    return f"Jacobi fails on ({names}): cyclic sum = {combo(total)}"
    return None


def test_violation_messages_match_dense_oracle():
    algebras = [sp(1), lie_from_endo_span(derivations(heisenberg(1))), heisenberg(2)]
    rng = random.Random(59)
    messages = set()
    for g in algebras:
        for t in range(12):
            table = [[list(v) for v in row] for row in g.structure]
            if t:
                i, j, k = (rng.randrange(g.dim) for _ in range(3))
                table[i][j][k] += rng.choice([1, -1, 3])
                if t % 3 and i != j:
                    table[j][i][k] = -table[i][j][k]  # keep antisymmetry
            h = LieAlgebra(g.labels, table)
            message = first_axiom_violation(h)
            assert message == _dense_lie_violation(h)
            messages.add(message.split(" ")[0][:1] if message else None)
    # all three kinds of violation occur: [x,x], antisymmetry, Jacobi
    assert messages == {None, "[", "a", "J"}


def test_sparse_readers_match_dense_oracles():
    for g in (sp(2), lie_from_endo_span(derivations(heisenberg(1))), heisenberg(2)):
        n, c = g.dim, g.structure
        assert LieAlgebra(g.labels, c) == g
        assert all(x for terms in g.products.values() for _, x in terms)
        kil = [
            [sum(c[i][k][p] * c[j][p][k] for p in range(n) for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert killing_form(g) == ExactMatrix(kil)
        for i in range(n):
            assert g.ad(g.basis_vector(i)) == ExactMatrix(
                [[c[i][q][p] for q in range(n)] for p in range(n)]
            )


def test_dense_tables_are_shape_checked_and_kept_sparse():
    # a coefficient on a basis index that does not exist
    with pytest.raises(ValueError, match="structure table"):
        LieAlgebra(["x", "y"], [[[0, 0], [0, 1, 7]], [[0, -1], [0, 0]]])
    # a short row
    with pytest.raises(ValueError, match="structure table"):
        LieAlgebra(["x", "y"], [[[0, 0], [0, 1]], [[0, -1]]])
    dual = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]  # Q[x]/(x^2)
    assert AssocAlgebra(["1", "x"], dual, [1, 0]).check_axioms()
    # an extra row, then an extra column
    with pytest.raises(ValueError, match="structure table"):
        AssocAlgebra(["1", "x"], dual + [[[0, 0], [0, 0]]], [1, 0])
    with pytest.raises(ValueError, match="structure table"):
        AssocAlgebra(["1", "x"], [row + [[0, 0]] for row in dual], [1, 0])
    # entries that cancel leave nothing behind
    cancel = LieAlgebra.from_bracket_entries(["x", "y"], [(0, 1, 1, 1), (0, 1, 1, -1)])
    zero = LieAlgebra(["x", "y"], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert cancel.products == zero.products == {}
    assert cancel == zero and hash(cancel) == hash(zero)
    with pytest.raises(ValueError, match="vector length"):
        zero.bracket((1, 0, 0), (0, 1))
    with pytest.raises(ValueError, match="vector length"):
        zero.ad((1,))


def test_abelian_invariants():
    g = _abelian(3)
    assert g.check_lie_axioms()
    assert center(g) == Subspace.full_space(3)
    assert derived_subalgebra(g).dim == 0
    assert derivations(g).dim == 9
    assert centroid(g).dim == 9
    assert hom_quotient_to_center(g).dim == 9
    assert is_solvable(g) and is_nilpotent(g)
    assert solvable_radical(g) == Subspace.full_space(3)


def test_affine_series():
    g = _affine()
    assert g.check_lie_axioms()
    assert is_solvable(g)
    assert not is_nilpotent(g)
    assert [s.dim for s in derived_series(g)] == [2, 1, 0]
    assert [s.dim for s in lower_central_series(g)] == [2, 1]
    assert killing_form(g) == ExactMatrix([[1, 0], [0, 0]])
    assert solvable_radical(g) == Subspace.full_space(2)
    assert not is_semisimple(g)


def test_sp_matrix_realization():
    for m in (1, 2, 3):
        g = sp(m)
        assert g.dim == m * (2 * m + 1)
        assert g.check_lie_axioms()
        n = 2 * m
        omega = ExactMatrix.zero(n, n)
        rows = [[0] * n for _ in range(n)]
        for i in range(m):
            rows[i][m + i] = 1
            rows[m + i][i] = -1
        omega = ExactMatrix(rows)
        for mat in g.matrix_basis:
            om = omega * mat
            assert om == om.transpose()
        # structure constants really are matrix commutators
        for i in range(g.dim):
            for j in range(g.dim):
                comm = g.matrix_basis[i] * g.matrix_basis[j] - g.matrix_basis[j] * g.matrix_basis[i]
                rebuilt = ExactMatrix.zero(n, n)
                for k, ck in enumerate(g.structure[i][j]):
                    if ck:
                        rebuilt = rebuilt + ck * g.matrix_basis[k]
                assert rebuilt == comm


def test_sp_is_semisimple():
    for m in (1, 2):
        g = sp(m)
        assert is_semisimple(g)
        assert solvable_radical(g).dim == 0
        assert derived_subalgebra(g) == Subspace.full_space(g.dim)
        assert not is_solvable(g)
        assert center(g).dim == 0
        assert centroid(g).dim == 1  # scalars only: sp is simple


def test_killing_form_sp1():
    g = sp(1)  # basis a11 = h, b11 = e, c11 = f
    assert killing_form(g) == ExactMatrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


def test_derivations_of_heisenberg_dimension():
    # dim der(h_m) = m(2m+1) + 2m + 1: symplectic block, scaling, bottom strip
    assert derivations(heisenberg(1)).dim == 6
    assert derivations(heisenberg(2)).dim == 15


def test_derivations_of_heisenberg_shape():
    # every derivation is [[A + aI, 0], [x^T, 2a]] with A symplectic
    for m in (1, 2):
        h = heisenberg(m)
        n = 2 * m
        rows = [[0] * n for _ in range(n)]
        for i in range(m):
            rows[i][m + i] = 1
            rows[m + i][i] = -1
        omega = ExactMatrix(rows)
        for d in derivations(h).basis_matrices():
            for r in range(n):
                assert d[r, n] == 0  # z column vanishes above the strip
            a = d[n, n] / 2
            top = d.block(0, n, 0, n)
            sympart = top - a * ExactMatrix.identity(n)
            om = omega * sympart
            assert om == om.transpose()


def test_derivations_satisfy_leibniz_exhaustively():
    h = heisenberg(2)
    der = derivations(h)
    basis = [h.basis_vector(i) for i in range(h.dim)]
    for d in der.basis_matrices():
        for i, x in enumerate(basis):
            for y in basis[i + 1 :]:
                lhs = d.apply(h.bracket(x, y))
                rhs = tuple(
                    p + q
                    for p, q in zip(
                        h.bracket(d.apply(x), y), h.bracket(x, d.apply(y))
                    )
                )
                assert lhs == rhs


def test_centroid_of_heisenberg():
    # scalar on e,f + anything strip-shaped into z: dim 2m + 1
    for m in (1, 2):
        h = heisenberg(m)
        c = centroid(h)
        assert c.dim == 2 * m + 1
        assert c.contains(ExactMatrix.identity(h.dim))
        basis = [h.basis_vector(i) for i in range(h.dim)]
        for t in c.basis_matrices():
            for i, x in enumerate(basis):
                for y in basis[i + 1 :]:
                    assert t.apply(h.bracket(x, y)) == h.bracket(t.apply(x), y)


def test_hom_quotient_to_center():
    for m in (1, 2):
        h = heisenberg(m)
        hom0 = hom_quotient_to_center(h)
        assert hom0.dim == 2 * m
        z = center(h)
        derived = derived_subalgebra(h)
        for t in hom0.basis_matrices():
            for d in derived.basis.rows:
                assert all(x == 0 for x in t.apply(d))
            for j in range(h.dim):
                assert z.contains(t.column(j))
        # when z(g) is inside [g,g], composing two such maps gives 0
        for s in hom0.basis_matrices():
            for t in hom0.basis_matrices():
                assert (s * t).is_zero()


def test_radical_of_derivation_algebra_of_h1():
    der = derivations(heisenberg(1))
    lie_der = lie_from_endo_span(der)
    assert lie_der.check_lie_axioms()
    rad = solvable_radical(lie_der)
    assert rad.dim == 3
    assert not is_semisimple(lie_der)
    assert is_ideal(lie_der, rad)


def test_subalgebra_and_ideal_predicates():
    h = heisenberg(1)
    z = center(h)
    assert is_ideal(h, z)
    assert is_subalgebra_closed(h, z)
    span_e = Subspace.from_vectors([h.basis_vector(0)], 3)
    assert is_subalgebra_closed(h, span_e)
    assert not is_ideal(h, span_e)
    span_ef = Subspace.from_vectors([h.basis_vector(0), h.basis_vector(1)], 3)
    assert not is_subalgebra_closed(h, span_ef)
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(h, span_ef)
    zal = subalgebra(h, z, labels=["z"])
    assert zal.dim == 1 and zal.check_lie_axioms()


def test_subalgebra_of_derived():
    g = _affine()
    d = derived_subalgebra(g)
    sub = subalgebra(g, d)
    assert sub.dim == 1
    assert is_solvable(sub)


def test_lie_from_endo_span_requires_closure():
    from currentlie.linalg import EndoSubspace

    e12 = ExactMatrix([[0, 1], [0, 0]])
    e21 = ExactMatrix([[0, 0], [1, 0]])
    endo = EndoSubspace.from_matrices([e12, e21], 2)
    with pytest.raises(ValueError, match="not closed"):
        lie_from_endo_span(endo)


def test_from_bracket_entries_validation():
    with pytest.raises(ValueError, match="upper triangular"):
        LieAlgebra.from_bracket_entries(["x", "y"], [(1, 0, 0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra.from_bracket_entries(["x", "y"], [(0, 1, 5, 1)])


def test_killing_form_symmetry_and_invariance():
    rng = random.Random(47)
    g = sp(1)
    k = killing_form(g)
    assert k == k.transpose()
    # invariance K([x,y],w) = K(x,[y,w]) on random triples
    for _ in range(15):
        x = [rand_frac(rng) for _ in range(3)]
        y = [rand_frac(rng) for _ in range(3)]
        w = [rand_frac(rng) for _ in range(3)]

        def pair(u, v):
            return sum(a * b for a, b in zip(k.apply(v), u))

        assert pair(g.bracket(x, y), w) == pair(x, g.bracket(y, w))


def test_semisimple_iff_zero_radical():
    for g in (sp(1), sp(2), heisenberg(1), _affine(), _abelian(2)):
        assert is_semisimple(g) == (solvable_radical(g).dim == 0)

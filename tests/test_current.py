from __future__ import annotations

import random

import pytest

from currentlie.assoc import (
    AssocAlgebra,
    direct_sum,
    jacobson_radical,
    truncated_polynomial,
    wedderburn_complement,
)
from currentlie.assoc import derivations as assoc_derivations
from currentlie.current import (
    CurrentAlgebra,
    PreconditionError,
    TableIdentityError,
    certify_decomposition,
    current_algebra,
    embed_h,
    embed_k,
    embed_w,
    levi_candidate_subspace,
    levi_split,
    radical_subspace,
    summand_h,
    summand_k,
    summand_w,
    verify_bracket_table,
    verify_levi_decomposition,
    zusmanovich_span,
)
from currentlie.heisenberg import levi_report
from currentlie.lie import (
    LieAlgebra,
    derived_subalgebra,
    heisenberg,
    is_semisimple,
    is_solvable,
    lie_from_endo_span,
    solvable_radical,
    sp,
)
from currentlie.lie import derivations as lie_derivations
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Subspace,
    commutator,
    kron,
    nullspace,
    subspace_intersection,
    subspace_sum,
)
from helpers import heisenberg_der_blocks, nonassociative_current


@pytest.fixture(scope="module")
def h1a1():
    return current_algebra(heisenberg(1), truncated_polynomial(1))


@pytest.fixture(scope="module")
def sp1a1():
    return current_algebra(sp(1), truncated_polynomial(1))


def test_current_algebra_basics(h1a1):
    ca = h1a1
    assert ca.dim == 6
    assert ca.product.labels[0] == "e1*1"
    assert ca.index(1, 1) == 3
    assert ca.unindex(5) == (2, 1)
    e_t = ca.product.basis_vector(ca.index(0, 1))
    f_1 = ca.product.basis_vector(ca.index(1, 0))
    f_t = ca.product.basis_vector(ca.index(1, 1))
    z_t = ca.product.basis_vector(ca.index(2, 1))
    assert ca.product.bracket(e_t, f_1) == z_t
    # t * t = 0 in A_1, so [e (x) t, f (x) t] dies
    assert ca.product.bracket(e_t, f_t) == (0,) * 6
    assert ca.product.check_lie_axioms()


def test_current_algebra_truncation_degree_two():
    ca = current_algebra(heisenberg(1), truncated_polynomial(2))
    e_t = ca.product.basis_vector(ca.index(0, 1))
    f_t = ca.product.basis_vector(ca.index(1, 1))
    z_t2 = ca.product.basis_vector(ca.index(2, 2))
    assert ca.product.bracket(e_t, f_t) == z_t2


def test_current_algebra_rejects_invalid_inputs():
    bad_lie = LieAlgebra.from_bracket_entries(
        ["x", "y", "z"], [(0, 1, 2, 1), (0, 2, 0, 1), (1, 2, 1, 1)]
    )
    with pytest.raises(ValueError, match="Lie axioms"):
        current_algebra(bad_lie, truncated_polynomial(1))
    bad_assoc = AssocAlgebra(
        ["1", "x"], [[[1, 0], [0, 1]], [[1, 1], [0, 0]]], [1, 0]
    )
    with pytest.raises(ValueError, match="associative"):
        current_algebra(heisenberg(1), bad_assoc)


def test_embeddings_are_derivations(h1a1):
    ca = h1a1
    der = ca.derivations()
    for d in ca.der_g().basis_matrices():
        for j in range(2):
            a_elem = [0, 0]
            a_elem[j] = 1
            assert der.contains(embed_h(ca, d, a_elem))
    for t in ca.centroid_g().basis_matrices():
        for rho in ca.der_a().basis_matrices():
            assert der.contains(embed_w(ca, t, rho))
    f = ExactMatrix([[1, 2], [3, 4]])
    for t in ca.hom0_g().basis_matrices():
        assert der.contains(embed_k(ca, t, f))


def test_embed_rejects_wrong_components(h1a1):
    ca = h1a1
    # sends z to e, violating D(z) = D[e,f] = [De,f] + [e,Df] = 0
    not_der = ExactMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="derivation of g"):
        embed_h(ca, not_der, [1, 0])
    with pytest.raises(ValueError, match="centroid"):
        embed_w(ca, not_der, ca.der_a().basis_matrices()[0])
    ident = ExactMatrix.identity(3)
    with pytest.raises(ValueError, match="derivation of A"):
        embed_w(ca, ident, ExactMatrix.identity(2))
    with pytest.raises(ValueError, match="z"):
        embed_k(ca, ident, ExactMatrix.identity(2))
    t0 = ca.hom0_g().basis_matrices()[0]
    with pytest.raises(ValueError, match="shape"):
        embed_k(ca, t0, ExactMatrix.identity(3))


def test_embed_h_is_kron(h1a1):
    ca = h1a1
    d = ca.der_g().basis_matrices()[0]
    la = ca.a.left_mult_matrix([1, 2])
    m = embed_h(ca, d, [1, 2])
    for i in range(3):
        for j in range(3):
            for p in range(2):
                for q in range(2):
                    assert m[2 * i + p, 2 * j + q] == d[i, j] * la[p, q]


def test_summand_dimensions_and_overlaps(h1a1):
    ca = h1a1
    h, w, k = summand_h(ca), summand_w(ca), summand_k(ca)
    assert h.dim == 6 * 2  # der(h_1) x basis of A
    assert w.dim == 3 * 1  # centroid x der(A_1)
    assert k.dim == 2 * 4  # hom0 x End(A_1)
    assert subspace_intersection(h.space, w.space).dim == 0
    assert subspace_intersection(h.space, k.space).dim == 4  # strip (x) L(A)
    assert subspace_intersection(w.space, k.space).dim == 2  # strip (x) der(A)
    total = subspace_sum(subspace_sum(h.space, w.space), k.space)
    assert total.dim == 17


def test_zusmanovich_span_flags(h1a1, sp1a1):
    for ca, expected_dim in ((h1a1, 17), (sp1a1, 7)):
        report = zusmanovich_span(ca)
        assert report.der_dim == expected_dim
        assert report.flags["span_equals_der"]
        assert report.flags["k_is_ideal"]
    # for semisimple g the k family is empty
    assert summand_k(sp1a1).dim == 0


def test_bracket_table_exhaustive_on_small_product(h1a1):
    report = verify_bracket_table(h1a1)
    assert report.mode == "exhaustive"
    assert report.checked["h*h"] == 144
    assert report.checked["k*k"] == 64
    assert not report.plain_reading_matches


def test_bracket_table_sampled_and_deterministic():
    ca = current_algebra(heisenberg(1), truncated_polynomial(2))
    r1 = verify_bracket_table(ca, sample_count=12, seed=5)
    r2 = verify_bracket_table(ca, sample_count=12, seed=5)
    assert r1.mode == "sampled"
    assert r1 == r2
    r3 = verify_bracket_table(ca, sample_count=12, seed=6)
    assert r3.checked == r1.checked  # same shape of work, different draws


def test_bracket_table_sampled_without_w_family():
    # A = Q^3 is semisimple, so der(A) = 0 and the w family is empty: its
    # rules check no pair and draw nothing, and the other rules still run
    q = truncated_polynomial(0)
    ca = current_algebra(heisenberg(1), direct_sum(direct_sum(q, q), q))
    report = verify_bracket_table(ca, sample_count=5)
    assert report.mode == "sampled"
    assert report.checked == {"h*h": 5, "h*w": 0, "h*k": 5, "w*w": 0, "w*k": 0, "k*k": 5}


def test_bracket_table_on_semisimple_g(sp1a1):
    report = verify_bracket_table(sp1a1)
    assert report.mode == "exhaustive"
    assert report.checked["h*k"] == 0  # no k family at all
    assert report.checked["h*h"] == 36


def test_bracket_table_failure_carries_the_counterexample():
    # over a commutative, non-associative A, L_(a1 a2) differs from
    # L_a1 L_a2, so the h*h rule fails, exhaustively and sampled
    message = "bracket rule h*h: commutator does not match [D1,D2] (x) L_(a1 a2)"
    r2 = LieAlgebra.from_bracket_entries(["a", "b"], [(0, 1, 1, 1)])  # [a, b] = b
    ca = nonassociative_current(r2)
    assert ca.dim == 6 and not ca.a.check_axioms()
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert (failed.value.rule, str(failed.value)) == ("h*h", message)
    # der(r2) has the basis D0 = E_10, D1 = E_11 with [D0, D1] = -D0; the
    # pair (D0, x), (D1, x) gives -D0 (x) L_x L_x against -D0 (x) L_(x x),
    # and L_x L_x maps y to y where L_y kills it
    assert failed.value.lhs._nonzero_entries() == {(4, 1): -1, (5, 0): -1, (5, 2): -1}
    assert failed.value.rhs._nonzero_entries() == {(4, 1): -1, (5, 0): -1}

    ca = nonassociative_current(heisenberg(1))
    assert ca.dim == 9
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert (failed.value.rule, str(failed.value)) == ("h*h", message)
    lhs, rhs = failed.value.lhs, failed.value.rhs
    # the rhs is [D1,D2] (x) L_(a1 a2), inside der(g) (x) L(A)
    assert lhs.shape == rhs.shape == (9, 9) and lhs != rhs
    assert summand_h(ca).contains(rhs)
    # the seed fixes every draw and every pair, so the counterexample too
    lhs, rhs = lhs._nonzero_entries(), rhs._nonzero_entries()
    assert (len(lhs), lhs[1, 2], lhs[8, 7]) == (29, 144, -96)
    assert (len(rhs), rhs[1, 4], rhs[8, 4]) == (20, -144, -90)


def test_sampled_one_family_rules_test_every_draw():
    # h*h, w*w and k*k pair draw i with draw i + 1, cyclically.  Paired as
    # the first draw with each draw, a harmless first draw tested nothing,
    # and these five runs passed all six rules: h_1 seeds 0 and 23, h_2
    # seeds 7 and 8, sp(1) seed 4
    for g in (heisenberg(1), heisenberg(2), sp(1)):
        ca = nonassociative_current(g)
        for seed in range(30):
            with pytest.raises(TableIdentityError):
                verify_bracket_table(ca, sample_count=20, seed=seed)


def test_h_k_readings_match_their_two_kron_formulas():
    # verify_bracket_table sets the two h*k readings without building them:
    # the dot-action reading is the rule's right side, and the plain one
    # holds iff TD = 0 or L_a f = 0.  Both against the kron formulas
    rng = random.Random(71)
    outcomes = set()
    for _ in range(200):
        n, p = rng.randint(1, 3), rng.randint(1, 3)
        d, t = (_sparse_matrix(rng, n, rng.choice([0.2, 0.6])) for _ in range(2))
        la, f = (_sparse_matrix(rng, p, rng.choice([0.2, 0.6])) for _ in range(2))
        td, laf = t * d, la * f
        rhs = kron(d * t, laf) - kron(td, f * la)
        both = kron(commutator(d, t), laf)
        assert both - kron(td, f * la - laf) == rhs
        plain = both - kron(td, f * la) == rhs
        assert plain == (td.is_zero() or laf.is_zero())
        outcomes.add((plain, td.is_zero(), laf.is_zero()))
    assert outcomes == {(False, False, False), (True, True, False), (True, False, True),
                        (True, True, True)}


def _sparse_matrix(rng, n, density):
    return ExactMatrix([[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)])


def test_current_algebra_reads_the_memos_of_its_factors():
    ca = current_algebra(heisenberg(1), truncated_polynomial(2))
    assert ca.der_a() is assoc_derivations(ca.a) and ca.der_a() is ca.der_a()
    assert ca.der_g() is lie_derivations(ca.g)
    assert ca.derivations() is lie_derivations(ca.product)
    assert summand_w(ca) is summand_w(ca)


def test_bracket_table_checks_the_component_spaces():
    # wrong component spaces, put in the memo in place of the computed ones.
    # The identity of A is no derivation, so the h*w rule breaks: on h_1 (x) A_1
    # the first pair, (D0, 1) and (id, id) with D0 = E_00 + E_22, gives
    # lhs 0 against rhs -(T D0) (x) L_(rho 1) = -D0 (x) id
    ca = current_algebra(heisenberg(1), truncated_polynomial(1))
    ca.a._memo["derivations"] = EndoSubspace.from_matrices([ExactMatrix.identity(2)], 2)
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert str(failed.value) == "bracket rule h*w: commutator does not match the twisted rule"
    assert failed.value.lhs.is_zero()
    assert failed.value.rhs._nonzero_entries() == {(i, i): -1 for i in (0, 1, 4, 5)}
    # sampled: the rules draw in order, each its left family first, so the
    # seed fixes the counterexample
    ca = current_algebra(heisenberg(1), truncated_polynomial(2))
    ca.a._memo["derivations"] = EndoSubspace.from_matrices([ExactMatrix.identity(3)], 3)
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert failed.value.rule == "h*w" and failed.value.lhs.is_zero()
    rhs = failed.value.rhs._nonzero_entries()
    assert (len(rhs), rhs[0, 0], rhs[0, 3], rhs[1, 0]) == (42, 27, -18, -9)
    # a der(g) that is not closed under the commutator: [E_01, E_10] left it
    e01 = ExactMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    ca = current_algebra(heisenberg(1), truncated_polynomial(1))
    ca.g._memo["derivations"] = EndoSubspace.from_matrices([e01, e01.transpose()], 3)
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert str(failed.value) == "bracket rule h*h: [D1,D2] left der(g)"
    assert failed.value.lhs is None and failed.value.rhs is None


def test_bracket_table_checks_the_closure_of_w_and_k(monkeypatch):
    # w*w: the derivations t -> t and t -> t^2 of Q[t]/(t^3) do not commute,
    # so a w bracket is nonzero; it must lie in summand_w, here made zero
    ca = current_algebra(heisenberg(1), truncated_polynomial(2))
    zero = EndoSubspace(ca.dim, Subspace.zero_space(ca.dim**2))
    with monkeypatch.context() as patch:
        patch.setattr("currentlie.current.summand_w", lambda ca: zero)
        with pytest.raises(TableIdentityError) as failed:
            verify_bracket_table(ca)
    assert str(failed.value) == (
        "bracket rule w*w: bracket left the w family despite commutative centroid")
    # k*k: on h_1 (+) Q the map c -> c is in the k family and squares to
    # itself, so k brackets need not vanish; a swapped center memo claims
    # z(g) = [g,g] = span{z}
    g = LieAlgebra.from_bracket_entries(["e", "f", "z", "c"], [(0, 1, 2, 1)])
    ca = current_algebra(g, truncated_polynomial(1))
    ca.hom0_g()
    g._memo["center"] = derived_subalgebra(g)
    with pytest.raises(TableIdentityError) as failed:
        verify_bracket_table(ca)
    assert str(failed.value) == "bracket rule k*k: bracket nonzero although z(g) lies in [g,g]"
    assert not failed.value.lhs.is_zero()


def test_radical_subspace_happy_path(h1a1):
    ca = h1a1
    s, r = heisenberg_der_blocks(1)
    big_j = jacobson_radical(ca.a)
    big_s = wedderburn_complement(ca.a)
    rad = radical_subspace(ca, s, r, big_s, big_j)
    # 17 = radical 14 + levi 3
    assert rad.dim == 14
    for m in rad.basis_matrices():
        assert ca.derivations().contains(m)


def test_radical_subspace_named_preconditions(h1a1):
    ca = h1a1
    s, r = heisenberg_der_blocks(1)
    big_j = jacobson_radical(ca.a)
    big_s = wedderburn_complement(ca.a)
    with pytest.raises(PreconditionError, match="does not decompose der"):
        radical_subspace(ca, s, s, big_s, big_j)
    with pytest.raises(PreconditionError, match="solvable radical of der"):
        radical_subspace(ca, r, s, big_s, big_j)
    with pytest.raises(PreconditionError, match="does not decompose A"):
        radical_subspace(ca, s, r, big_j, big_j)
    # S (+) J fine but J is not the radical: swap the factors
    with pytest.raises(PreconditionError, match="Jacobson radical"):
        radical_subspace(ca, s, r, big_j, big_s)


def test_radical_subspace_names_a_levi_factor_that_is_not_semisimple(h1a1):
    ca = h1a1
    s, r = levi_split(ca.g)
    big_s, big_j = wedderburn_complement(ca.a), jacobson_radical(ca.a)
    # r's first basis matrix added to s's first: still a complement of r,
    # but no longer closed under the commutator
    mats = list(s.basis_matrices())
    mats[0] = mats[0] + r.basis_matrices()[0]
    bent = EndoSubspace.from_matrices(mats, 3)
    with pytest.raises(ValueError, match="not closed"):
        lie_from_endo_span(bent)
    with pytest.raises(PreconditionError, match="^s is not a semisimple subalgebra$"):
        radical_subspace(ca, bent, r, big_s, big_j)
    # r = 0 is a solvable ideal and s = der(g) its complement, but der(h_1)
    # is not semisimple; either factor could be named, and s is
    zero = EndoSubspace(3, Subspace.zero_space(9))
    with pytest.raises(PreconditionError, match="^s is not a semisimple subalgebra$"):
        radical_subspace(ca, ca.der_g(), zero, big_s, big_j)


def test_radical_subspace_checks_the_squares_in_s():
    # A = Q[t]/(t^2) (+) Q on the basis 1.L, t.L, 1.R, and S' = span{1.L + t.L,
    # 1.R}: a complement of J = span{t.L}, in which only the square
    # (1.L + t.L)^2 = 1.L + 2 t.L of the first vector leaves S'
    a = direct_sum(truncated_polynomial(1), truncated_polynomial(0))
    ca = current_algebra(heisenberg(1), a)
    s, r = levi_split(ca.g)
    bent = Subspace.from_vectors([(1, 1, 0), (0, 0, 1)], 3)
    assert jacobson_radical(a) == Subspace.from_vectors([(0, 1, 0)], 3)
    with pytest.raises(PreconditionError, match="^S is not closed under multiplication$"):
        radical_subspace(ca, s, r, bent, jacobson_radical(a))


def test_radical_subspace_rejects_central_leak():
    # 1-dimensional abelian g: z(g) = g but [g,g] = 0
    g = LieAlgebra(["x"], [[[0]]])
    ca = current_algebra(g, truncated_polynomial(1))
    der_g = ca.der_g()
    assert der_g.dim == 1
    s = EndoSubspace(1, Subspace.zero_space(1))
    with pytest.raises(PreconditionError, match="not contained in"):
        radical_subspace(ca, s, der_g, wedderburn_complement(ca.a), jacobson_radical(ca.a))


def test_radical_subspace_rejects_wild_coefficient_derivations():
    # A = Q + (x, y) with all products of x, y equal to zero has
    # der(A) isomorphic to gl_2, which is not solvable
    zero2 = [0, 0, 0]
    a = AssocAlgebra(
        ["1", "x", "y"],
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], zero2, zero2],
            [[0, 0, 1], zero2, zero2],
        ],
        [1, 0, 0],
    )
    assert a.check_axioms()
    ca = current_algebra(heisenberg(1), a)
    assert ca.der_a().dim == 4
    s, r = heisenberg_der_blocks(1)
    with pytest.raises(PreconditionError, match=r"der\(A\) is not solvable"):
        radical_subspace(ca, s, r, wedderburn_complement(a), jacobson_radical(a))


def test_verify_levi_decomposition_flags(h1a1):
    ca = h1a1
    s, r = heisenberg_der_blocks(1)
    big_j = jacobson_radical(ca.a)
    big_s = wedderburn_complement(ca.a)
    report = certify_decomposition(ca, s, r, big_s, big_j)
    assert report.all_flags_true
    assert set(report.flags) == {
        "span_equals_der",
        "k_is_ideal",
        "radical_is_ideal",
        "radical_solvable",
        "levi_semisimple",
        "direct_complement",
    }
    assert report.radical_candidate.dim + report.levi_candidate.dim == 17

    # swapping the candidates must break solvability of the "radical"
    swapped = verify_levi_decomposition(
        ca, report.levi_candidate, report.radical_candidate
    )
    assert not swapped.flags["radical_solvable"]
    assert not swapped.flags["levi_semisimple"]
    assert swapped.flags["direct_complement"]


def test_verify_levi_rejects_outside_candidates(h1a1):
    ca = h1a1
    report = zusmanovich_span(ca)
    not_der = EndoSubspace.from_matrices([ExactMatrix.identity(6)], 6)
    with pytest.raises(ValueError, match="not inside der"):
        verify_levi_decomposition(ca, not_der, report.der_full)


def test_certify_semisimple_coefficient_case(sp1a1):
    ca = sp1a1
    s = ca.der_g()
    r = EndoSubspace(3, Subspace.zero_space(9))
    report = certify_decomposition(
        ca, s, r, wedderburn_complement(ca.a), jacobson_radical(ca.a)
    )
    assert report.all_flags_true
    assert report.levi_candidate.dim == 3
    assert report.radical_candidate.dim == 4


def _a_prime():
    # A' = Q[t]/(t^2) (+) Q[t]/(t^2) in the basis given by the rows of p; it
    # is not local, and its two idempotents are not basis vectors
    a = direct_sum(truncated_polynomial(1), truncated_polynomial(1))
    p = [[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 2]]

    def over_p(w):
        # the coordinates of w over p: the null vector of the matrix with
        # columns p_0, ..., p_3, w, scaled to end in -1
        v = nullspace(ExactMatrix(p + [list(w)]).transpose()).basis.rows[0]
        return [-x / v[-1] for x in v[:-1]]

    table = [[over_p(a.multiply(u, v)) for v in p] for u in p]
    return AssocAlgebra([f"b{i}" for i in range(4)], table, over_p(a.unit))


def _semisimple_certificate():
    # sp(1) (x) A_3: der(g) is semisimple, so s = der(g) and r = 0
    g, a = sp(1), truncated_polynomial(3)
    ca = current_algebra(g, a)
    r = EndoSubspace(g.dim, Subspace.zero_space(g.dim * g.dim))
    return certify_decomposition(ca, ca.der_g(), r, wedderburn_complement(a), jacobson_radical(a))


@pytest.mark.parametrize(
    "report",
    [
        lambda: levi_report(1, 1),
        lambda: levi_report(1, 3),
        lambda: levi_report(2, 1),
        lambda: levi_report(1, 1, ca=current_algebra(heisenberg(1), _a_prime())),
        _semisimple_certificate,
    ],
    ids=["h_1(x)A_1", "h_1(x)A_3", "h_2(x)A_1", "h_1(x)A'", "sp(1)(x)A_3"],
)
def test_radical_candidate_is_the_cartan_radical(report):
    # an oracle apart from the certificate: Cartan's criterion (the Killing
    # form) on der(g (x) A), built here from its basis matrices, must give
    # the radical candidate, and the Levi candidate must meet it only in 0
    report = report()
    assert report.all_flags_true
    der = report.der_full

    def coordinates(part):
        return Subspace.from_vectors([der.coordinates(m) for m in part.basis_matrices()], der.dim)

    radical = coordinates(report.radical_candidate)
    assert radical == solvable_radical(lie_from_endo_span(der))
    assert subspace_intersection(coordinates(report.levi_candidate), radical).dim == 0


def _reference_flags(ca, radical, levi):
    # the Levi flags from matrix commutators of the candidates, apart from
    # the structure constants of der(g (x) A) that the certificate reads
    der = ca.derivations()

    def closed_and(test, space):
        try:
            return test(lie_from_endo_span(space))
        except ValueError:  # not closed under the commutator
            return False

    return {
        "radical_is_ideal": all(
            radical.contains(commutator(d, v))
            for d in der.basis_matrices()
            for v in radical.basis_matrices()
        ),
        "radical_solvable": closed_and(is_solvable, radical),
        "levi_semisimple": closed_and(is_semisimple, levi),
        "direct_complement": (
            subspace_sum(radical.space, levi.space) == der.space
            and subspace_intersection(radical.space, levi.space).dim == 0
        ),
    }


def test_levi_flags_match_matrix_commutators_on_bad_candidates(h1a1, monkeypatch):
    ca = h1a1
    s, r = heisenberg_der_blocks(1)
    big_s, big_j = wedderburn_complement(ca.a), jacobson_radical(ca.a)
    radical = radical_subspace(ca, s, r, big_s, big_j)
    levi = levi_candidate_subspace(ca, s, big_s)
    # the Levi candidate is sp_2 (x) 1 with basis h, e, f in this order:
    # span{e} is no ideal, and span{e, f} is not closed ([e, f] = h)
    _, e, f = levi.basis_matrices()
    not_ideal = EndoSubspace.from_matrices([e], 6)
    not_closed = EndoSubspace.from_matrices([e, f], 6)
    cases = [
        (radical, levi),
        (not_ideal, levi),
        (levi, radical),  # swapped
        (radical, not_closed),
        (not_closed, levi),
    ]
    false_flags = set()
    for rad, lev in cases:
        flags = verify_levi_decomposition(ca, rad, lev).flags
        assert flags == _reference_flags(ca, rad, lev)
        false_flags |= {name for name, held in flags.items() if not held}
    assert false_flags == {"radical_is_ideal", "radical_solvable", "levi_semisimple",
                           "direct_complement"}

    # a k family that is no ideal of der(g (x) A), then one outside it
    der = ca.derivations()
    assert zusmanovich_span(ca).flags["k_is_ideal"]
    monkeypatch.setattr("currentlie.current.summand_k", lambda ca: not_ideal)
    k_reference = all(
        not_ideal.contains(commutator(d, v))
        for d in der.basis_matrices()
        for v in not_ideal.basis_matrices()
    )
    assert not k_reference
    assert zusmanovich_span(ca).flags["k_is_ideal"] == k_reference
    # the identity commutes with every derivation but is none, so a k family
    # outside der(g (x) A) is no ideal of it
    identity = EndoSubspace.from_matrices([ExactMatrix.identity(6)], 6)
    monkeypatch.setattr("currentlie.current.summand_k", lambda ca: identity)
    assert not zusmanovich_span(ca).flags["k_is_ideal"]

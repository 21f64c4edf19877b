from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import heisenberg_der_blocks, reference_match, reference_matrix, sl2_ltimes_q2

from currentlie.current import levi_split
from currentlie.heisenberg import (
    DerivationTemplate,
    TemplateMatch,
    TemplateMismatch,
    der_dimension_formula,
    levi_factor,
    levi_report,
    match_template,
    sp_block_embedding,
    truncated_heisenberg,
)
from currentlie.lie import (
    LieAlgebra,
    derivations,
    heisenberg,
    is_semisimple,
    is_solvable,
    lie_from_endo_span,
    sp,
)
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    _nullspace_from_system,
    commutator,
    rref,
    subspace_intersection,
    subspace_sum,
)


@pytest.fixture(scope="module")
def ca11():
    return truncated_heisenberg(1, 1)


def test_truncated_heisenberg_brackets():
    ca = truncated_heisenberg(2, 2)
    assert ca.dim == 15
    b = ca.product.basis_vector
    # [e_2 t, f_2 t] = z t^2; [e_1 t^2, f_1 t] = 0 (degree 3 truncates)
    assert ca.product.bracket(b(ca.index(1, 1)), b(ca.index(3, 1))) == b(ca.index(4, 2))
    assert ca.product.bracket(b(ca.index(0, 2)), b(ca.index(2, 1))) == (0,) * 15
    # generators from different pairs commute
    assert ca.product.bracket(b(ca.index(0, 0)), b(ca.index(3, 0))) == (0,) * 15


def test_der_dimension_formula_values():
    assert der_dimension_formula(1, 1) == 17
    assert der_dimension_formula(1, 2) == 32
    assert der_dimension_formula(1, 3) == 51
    assert der_dimension_formula(2, 1) == 39
    assert der_dimension_formula(2, 2) == 71


def test_formula_matches_computed_nullspace():
    # (3, 4) and (4, 2) are the dimensions 35 and 27 of the larger algebras
    for m, k in ((1, 1), (1, 2), (2, 1), (3, 4), (4, 2)):
        ca = truncated_heisenberg(m, k)
        der = ca.derivations()
        assert der.dim == der_dimension_formula(m, k)
        assert all(match_template(m, k, mat).ok for mat in der.basis_matrices())


def test_template_parameter_count_matches_formula():
    for m, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 4), (3, 2)):
        tpl = DerivationTemplate(m, k)
        assert tpl.parameter_count() == der_dimension_formula(m, k)
        assert len(set(tpl.parameter_keys())) == tpl.parameter_count()


def test_template_span_equals_derivations():
    for m, k in ((1, 1), (1, 2), (2, 1)):
        ca = truncated_heisenberg(m, k)
        tpl = DerivationTemplate(m, k)
        assert tpl.span() == ca.derivations()


def test_template_basis_members_are_derivations():
    ca = truncated_heisenberg(1, 2)
    der = ca.derivations()
    for _, mat in DerivationTemplate(1, 2).basis():
        assert der.contains(mat)


def test_match_roundtrip_random(ca11):
    rng = random.Random(61)
    for m, k in ((1, 1), (1, 2), (2, 1)):
        tpl = DerivationTemplate(m, k)
        keys = tpl.parameter_keys()
        for _ in range(10):
            assignment = {
                key: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for key in keys
            }
            mat = tpl.matrix(assignment)
            fit = tpl.match(mat)
            assert isinstance(fit, TemplateMatch) and fit.ok
            assert set(fit.params) == set(keys)
            for key in keys:
                assert fit.params[key] == assignment[key]
            assert tpl.matrix(fit.params) == mat


def test_fit_stores_only_its_solved_keys():
    # a fit's own map holds the keys it solved, all nonzero; every other key
    # reads 0 through one map of zeros that all fits of the template share,
    # so matching a whole basis does not copy every key once per matrix
    tpl = DerivationTemplate(2, 3)
    keys = tpl.parameter_keys()
    fits = [tpl.match(mat) for mat in truncated_heisenberg(2, 3).derivations().basis_matrices()]
    zeros = fits[0].params.maps[1]
    assert set(zeros) == set(keys) and not any(zeros.values())
    for fit in fits:
        own, shared = fit.params.maps
        assert fit.ok and shared is zeros and own and all(own.values())
        assert set(own) == {key for key, v in fit.params.items() if v}
        assert list(fit.params) == list(zeros)
    # a write to one fit stays in that fit
    key = next(key for key in keys if key not in fits[0].params.maps[0])
    before = fits[1].params[key]
    fits[0].params[key] = Fraction(1)
    assert fits[0].params.maps[0][key] == 1 and zeros[key] == 0 and fits[1].params[key] == before


def test_every_computed_derivation_matches_template(ca11):
    tpl = DerivationTemplate(1, 1)
    for mat in ca11.derivations().basis_matrices():
        fit = tpl.match(mat)
        assert fit.ok
        assert tpl.matrix(fit.params) == mat


def test_explicit_seventeen_parameter_matrix():
    # the full 6 x 6 derivation of h_1 (x) A_1 written out entrywise
    vals = dict(
        a11=2, a21=3, b11=5, b21=7, c11=11, c21=13,
        d11=17, d21=19, d22=23,
        x11=29, x12=31, x13=37, x14=41, x21=43, x22=47, x23=53, x24=59,
    )
    v = {k: Fraction(x) for k, x in vals.items()}
    expected = ExactMatrix(
        [
            [v["a11"] + v["d11"], 0, v["b11"], 0, 0, 0],
            [v["a21"] + v["d21"], v["a11"] + v["d11"] + v["d22"], v["b21"], v["b11"], 0, 0],
            [v["c11"], 0, -v["a11"] + v["d11"], 0, 0, 0],
            [v["c21"], v["c11"], -v["a21"] + v["d21"], -v["a11"] + v["d11"] + v["d22"], 0, 0],
            [v["x11"], v["x12"], v["x13"], v["x14"], 2 * v["d11"], 0],
            [v["x21"], v["x22"], v["x23"], v["x24"], 2 * v["d21"], 2 * v["d11"] + v["d22"]],
        ]
    )
    tpl = DerivationTemplate(1, 1)
    assignment = {
        ("A1", 0, 0, 0): v["a11"],
        ("A1", 0, 0, 1): v["a21"],
        ("A2", 0, 0, 0): v["b11"],
        ("A2", 0, 0, 1): v["b21"],
        ("A4", 0, 0, 0): v["c11"],
        ("A4", 0, 0, 1): v["c21"],
        ("p", 0): v["d11"],
        ("p", 1): v["d21"],
        ("q", 1): v["d22"],
        ("strip", 0, 0): v["x11"],
        ("strip", 0, 1): v["x12"],
        ("strip", 0, 2): v["x13"],
        ("strip", 0, 3): v["x14"],
        ("strip", 1, 0): v["x21"],
        ("strip", 1, 1): v["x22"],
        ("strip", 1, 2): v["x23"],
        ("strip", 1, 3): v["x24"],
    }
    assert tpl.matrix(assignment) == expected
    fit = tpl.match(expected)
    assert fit.ok and fit.params == assignment
    # and this matrix really is a derivation of the product algebra
    ca = truncated_heisenberg(1, 1)
    assert ca.derivations().contains(expected)


def test_match_names_first_violation(ca11):
    tpl = DerivationTemplate(1, 1)
    base = tpl.matrix({("p", 0): 1})

    def tweak(mat, r, c, val):
        rows = [list(row) for row in mat.rows]
        rows[r][c] = val
        return ExactMatrix(rows)

    fit = tpl.match(tweak(base, 0, 4, 1))
    assert isinstance(fit, TemplateMismatch)
    assert fit.block == "z-column"

    fit = tpl.match(tweak(base, 4, 5, 1))  # upper corner entry breaks Toeplitz
    assert fit.block == "z-corner"

    fit = tpl.match(tweak(base, 0, 1, 1))  # upper e-e entry breaks Toeplitz
    assert fit.block == "e-e block (0,0)"

    fit = tpl.match(tweak(base, 2, 2, 5))
    assert fit.block == "f-f block (0,0)"

    fit = tpl.match(tweak(base, 0, 3, 1))
    assert fit.block == "e-f block (0,0)"

    fit = tpl.match(tweak(base, 2, 0, 1))
    assert fit.block == "f-e block (0,0)"

    bad_shape = match_template(1, 1, ExactMatrix.identity(5))
    assert isinstance(bad_shape, TemplateMismatch) and bad_shape.block == "shape"


def test_match_grid_symmetry_violation():
    tpl = DerivationTemplate(2, 1)
    mat = tpl.matrix({("A2", 0, 1, 0): 1})
    rows = [list(row) for row in mat.rows]
    # rescale the mirrored copy at grid position (1,0); it stays Toeplitz
    # but no longer agrees with block (0,1)
    rows[2][4] = 2
    rows[3][5] = 2
    fit = tpl.match(ExactMatrix(rows))
    assert isinstance(fit, TemplateMismatch)
    assert fit.block == "e-f grid"
    assert "symmetric" in fit.relation


def test_sp_block_embedding_is_lie_homomorphism():
    for m, k in ((1, 1), (2, 1), (1, 2)):
        ca = truncated_heisenberg(m, k)
        images = sp_block_embedding(m, k)
        g = sp(m)
        assert len(images) == g.dim
        der = ca.derivations()
        for img in images:
            assert der.contains(img)
        span = EndoSubspace.from_matrices(images, ca.dim)
        assert span.dim == g.dim  # injective
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = commutator(images[i], images[j])
                rhs = ExactMatrix.zero(ca.dim, ca.dim)
                for t, c in enumerate(g.structure[i][j]):
                    if c:
                        rhs = rhs + c * images[t]
                assert lhs == rhs


def test_heisenberg_der_blocks_split():
    for m in (1, 2):
        h = heisenberg(m)
        der = derivations(h)
        s, r = heisenberg_der_blocks(m)
        assert s.dim == m * (2 * m + 1)
        assert r.dim == 2 * m + 1
        for mat in list(s.basis_matrices()) + list(r.basis_matrices()):
            assert der.contains(mat)
        assert subspace_sum(s.space, r.space) == der.space
        assert subspace_intersection(s.space, r.space).dim == 0


def _in_basis(g: LieAlgebra, p: list) -> LieAlgebra:
    """g in the basis b_i = sum_j p[i][j] e_j, for an invertible p."""
    n = g.dim
    # the right half of the RREF of [p | 1] is p^-1; a row v in the e_j has
    # the row v p^-1 of coordinates in the b_i
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(p)]
    inverse = rref(ExactMatrix(augmented))[0].block(0, n, n, 2 * n).transpose()
    table = [[inverse.apply(g.bracket(p[i], p[k])) for k in range(n)] for i in range(n)]
    return LieAlgebra(g.labels, table)


def _assert_levi_split(g: LieAlgebra, s: EndoSubspace, r: EndoSubspace, levi_dim: int) -> None:
    # s (+) r = der(g) with r a solvable ideal and s a semisimple subalgebra,
    # so that r is the radical, checked on the matrices
    der = derivations(g)
    assert subspace_sum(s.space, r.space) == der.space
    assert subspace_intersection(s.space, r.space).dim == 0 and s.dim == levi_dim
    for d in der.basis_matrices():
        assert all(r.contains(commutator(d, x)) for x in r.basis_matrices())
    assert is_solvable(lie_from_endo_span(r)) and is_semisimple(lie_from_endo_span(s))


def test_levi_split_of_the_supported_algebras(monkeypatch):
    # the lifting keeps the closed-form symplectic block of heisenberg(m)
    for m in (1, 2, 3):
        assert levi_split(heisenberg(m)) == heisenberg_der_blocks(m)
    # der(sp_2) is semisimple: its own Levi factor, with a zero radical
    s, r = levi_split(sp(1))
    assert s == derivations(sp(1)) and r.dim == 0 and r.n == 3
    # h_1 with [e, f] = 2z, and h_1 (+) a central line
    scaled = LieAlgebra.from_bracket_entries(["e", "f", "z"], [(0, 1, 2, 2)])
    padded = LieAlgebra.from_bracket_entries(["e", "f", "z", "c"], [(0, 1, 2, 1)])
    for g in (scaled, padded):
        _assert_levi_split(g, *levi_split(g), levi_dim=3)
    # sl_2 x| Q^2 in the basis h + v1, e + v2, f + v1 + v2, v1, v2: the
    # radical of its der, ad(Q^2) plus the scaling of Q^2, has a derived
    # series of length 2, and both lifting steps solve a system
    shear = [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 1, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    g = _in_basis(sl2_ltimes_q2(), shear)
    solved = []
    monkeypatch.setattr("currentlie.current._nullspace_from_system",
                        lambda rows, n: solved.append(n) or _nullspace_from_system(rows, n))
    _assert_levi_split(g, *levi_split(g), levi_dim=3)
    assert len(solved) == 2


def test_levi_factor_certified(ca11):
    levi = levi_factor(1, 1, ca=ca11)
    expected = EndoSubspace.from_matrices(sp_block_embedding(1, 1), 6)
    assert levi == expected
    assert levi.dim == 3


def test_levi_report_all_flags():
    for m, k in ((1, 1), (2, 1)):
        report = levi_report(m, k)
        assert report.all_flags_true, report.flags
        assert report.der_dim == der_dimension_formula(m, k)
        assert report.levi_candidate.dim == m * (2 * m + 1)
        assert (
            report.radical_candidate.dim + report.levi_candidate.dim
            == report.der_dim
        )


def test_template_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DerivationTemplate(0, 1)
    with pytest.raises(ValueError):
        DerivationTemplate(1, -1)


# (m, k) grid of the oracle tests; k = 0 has no ("q", r) keys
ORACLE_GRID = [(m, k) for m in (1, 2, 3) for k in (0, 1, 2, 4)]


def _same_fit(tpl, mat):
    """Assert that match and the dense reference agree on mat; return the fit."""
    fit, ref = tpl.match(mat), reference_match(tpl, mat)
    assert fit.ok == ref.ok
    if ref.ok:
        assert list(fit.params.items()) == list(ref.params.items())
        assert all(type(v) is Fraction for v in fit.params.values())
        assert tpl.matrix(fit.params) == mat
    else:
        assert (fit.block, fit.relation) == (ref.block, ref.relation)
    return fit


def _with_entry(mat, r, c, val):
    rows = [list(row) for row in mat.rows]
    rows[r][c] = val
    return ExactMatrix(rows)


@pytest.mark.parametrize("m,k", ORACLE_GRID)
def test_match_agrees_with_dense_reference(m, k):
    rng = random.Random(1000 * m + k)
    tpl = DerivationTemplate(m, k)
    keys = tpl.parameter_keys()
    basis = list(truncated_heisenberg(m, k).derivations().basis_matrices())
    for mat in basis:
        assert _same_fit(tpl, mat).ok
    # seeded random rational combinations of the derivation basis
    for _ in range(5):
        combo = ExactMatrix.zero(tpl.dim, tpl.dim)
        for mat in rng.sample(basis, min(4, len(basis))):
            combo = combo + Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * mat
        assert _same_fit(tpl, combo).ok
    # template matrices of random sparse and full assignments
    samples = []
    for density in (0.1, 0.5, 1.0):
        assignment = {
            key: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for key in keys
            if rng.random() < density
        }
        mat = tpl.matrix(assignment)
        assert mat == reference_matrix(tpl, assignment)
        assert _same_fit(tpl, mat).ok
        samples.append(mat)
    # one single-entry tweak in every w x w block of the matrix, which
    # covers every block region (the bottom strip is free and still fits)
    w = tpl.width
    for mat in samples:
        for bi in range(2 * m + 1):
            for bj in range(2 * m + 1):
                r, c = bi * w + rng.randrange(w), bj * w + rng.randrange(w)
                delta = rng.choice([1, -1, Fraction(1, 2)])
                _same_fit(tpl, _with_entry(mat, r, c, mat[r, c] + delta))
    # tweaks in two blocks at once: the first bad block in checking order wins
    blocks = [(bi, bj) for bi in range(2 * m + 1) for bj in range(2 * m + 1)]
    pairs = [(a, b) for a in blocks for b in blocks if a < b]
    for (ai, aj), (bi, bj) in rng.sample(pairs, min(len(pairs), 80)):
        mat = samples[1]
        for bi_, bj_ in ((ai, aj), (bi, bj)):
            r, c = bi_ * w + rng.randrange(w), bj_ * w + rng.randrange(w)
            mat = _with_entry(mat, r, c, mat[r, c] + 1)
        _same_fit(tpl, mat)
    # rescaling one off-diagonal block of a symmetric grid keeps it
    # Toeplitz; only the mirror relation can catch it
    bd = tpl.block_dim
    for r0, c0 in ((0, bd), (bd, 0)):
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                rows = [list(row) for row in samples[-1].rows]
                for r in range(w):
                    for c in range(w):
                        rows[r0 + i * w + r][c0 + j * w + c] *= 2
                scaled = ExactMatrix(rows)
                assert _same_fit(tpl, scaled).ok == (scaled == samples[-1])
    for shape in ((tpl.dim - 1, tpl.dim - 1), (tpl.dim + 1, tpl.dim + 1), (tpl.dim, tpl.dim + 1)):
        fit = _same_fit(tpl, ExactMatrix.zero(*shape))
        assert fit.block == "shape"


@pytest.mark.parametrize("m,k", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_basis_and_span_agree_with_dense_reference(m, k):
    tpl = DerivationTemplate(m, k)
    basis = tpl.basis()
    assert [key for key, _ in basis] == tpl.parameter_keys()
    reference = [reference_matrix(tpl, {key: 1}) for key in tpl.parameter_keys()]
    assert [mat for _, mat in basis] == reference
    assert tpl.span() == EndoSubspace.from_matrices(reference, tpl.dim)
    assert tpl.span().dim == tpl.parameter_count()


def test_template_matrix_coerces_known_keys_only():
    tpl = DerivationTemplate(1, 1)
    assignment = {("p", 0): "1/2", ("q", 1): 3, ("unknown", 0): 0.5}
    assert tpl.matrix(assignment) == reference_matrix(tpl, assignment)
    with pytest.raises(TypeError):
        tpl.matrix({("p", 0): 0.5})


@pytest.mark.parametrize("m,k", [(1, 1), (2, 2), (3, 1)])
def test_match_reads_basis_views_like_plain_matrices(m, k):
    # basis matrices come with a sparse view built from the subspace's
    # rows; a plain ExactMatrix of the same rows builds its own
    tpl = DerivationTemplate(m, k)
    for mat in truncated_heisenberg(m, k).derivations().basis_matrices():
        plain = ExactMatrix(mat.rows)
        fit, plain_fit = tpl.match(mat), tpl.match(plain)
        assert fit == plain_fit and fit.ok
        assert list(fit.params) == list(plain_fit.params)
        assert set(fit.params) == set(tpl.parameter_keys())
        # a matrix that differs only off the view still mismatches alike
        tweaked = _with_entry(mat, 0, tpl.dim - 1, 1)
        assert tpl.match(tweaked) == tpl.match(ExactMatrix(tweaked.rows))

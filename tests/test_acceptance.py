"""Acceptance gate: one test per criterion, every check exact.

`pytest -v tests/test_acceptance.py` prints a pass/fail line per
criterion.  No tolerances anywhere; every assertion is an identity of
rationals, matrices, or canonical subspaces.
"""

from __future__ import annotations

import random
import time

import pytest

from currentlie.assoc import (
    jacobson_radical,
    rbar,
    truncated_polynomial,
    wedderburn_complement,
)
from currentlie.assoc import derivations as assoc_derivations
from currentlie.current import (
    current_algebra,
    certify_decomposition,
    summand_h,
    summand_k,
    summand_w,
    verify_bracket_table,
    zusmanovich_span,
)
from currentlie.heisenberg import (
    DerivationTemplate,
    der_dimension_formula,
    levi_report,
    sp_block_embedding,
    truncated_heisenberg,
)
from currentlie.lie import (
    LieAlgebra,
    center,
    derived_subalgebra,
    heisenberg,
    is_semisimple,
    is_solvable,
    lie_from_endo_span,
    sp,
)
from currentlie.lie import derivations as lie_derivations
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    Subspace,
    commutator,
    kron,
    nullspace,
    rank,
    rref,
    subspace_intersection,
    subspace_sum,
)
from helpers import heisenberg_der_blocks, rand_frac, rand_matrix, rand_vector

DIMENSION_CASES = ((1, 1, 17), (1, 2, 32), (1, 3, 51), (2, 1, 39), (2, 2, 71))


def _leibniz_nullspace_dim(g: LieAlgebra) -> int:
    # independent oracle: assemble the Leibniz system entry by entry and
    # take its raw nullspace, bypassing the derivations() code path
    n = g.dim
    c = g.structure
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = c[i][j]
            for p in range(n):
                row = [Q(0)] * (n * n)
                for s in range(n):
                    if bij[s]:
                        row[p * n + s] += bij[s]
                    if c[s][j][p]:
                        row[s * n + i] -= c[s][j][p]
                    if c[i][s][p]:
                        row[s * n + j] -= c[i][s][p]
                if any(row):
                    rows.append(row)
    if not rows:
        return n * n
    return nullspace(ExactMatrix(rows)).dim


@pytest.fixture(scope="module")
def pairs():
    return {
        "h1*a1": current_algebra(heisenberg(1), truncated_polynomial(1)),
        "h1*a2": current_algebra(heisenberg(1), truncated_polynomial(2)),
        "h2*a1": current_algebra(heisenberg(2), truncated_polynomial(1)),
        "sp1*a1": current_algebra(sp(1), truncated_polynomial(1)),
    }


def test_criterion_1_dimension_formula():
    start = time.monotonic()
    for m, k, expected in DIMENSION_CASES:
        assert der_dimension_formula(m, k) == expected, (m, k)
        ca = truncated_heisenberg(m, k)
        assert _leibniz_nullspace_dim(ca.product) == expected, (m, k)
        assert ca.derivations().dim == expected, (m, k)
    assert time.monotonic() - start < 60.0


def test_criterion_2_h11_seventeen_parameter_family():
    ca = truncated_heisenberg(1, 1)
    der = ca.derivations()
    tpl = DerivationTemplate(1, 1)
    assert tpl.parameter_count() == 17
    # family -> derivations: every generator is a derivation
    for _, mat in tpl.basis():
        assert der.contains(mat)
    # derivations -> family: every computed derivation is an instance,
    # and the extracted parameters rebuild it exactly
    for mat in der.basis_matrices():
        fit = tpl.match(mat)
        assert fit.ok
        assert tpl.matrix(fit.params) == mat
    # equality as canonical subspaces
    assert tpl.span() == der
    assert der.dim == 17


def test_criterion_3_zusmanovich_span(pairs):
    for name, ca in pairs.items():
        report = zusmanovich_span(ca)
        assert report.flags["span_equals_der"], name
        total = subspace_sum(
            subspace_sum(summand_h(ca).space, summand_w(ca).space),
            summand_k(ca).space,
        )
        assert total == ca.derivations().space, name


def test_criterion_4_bracket_table(pairs):
    for name, ca in pairs.items():
        # raises TableIdentityError with a counterexample on any failure
        report = verify_bracket_table(ca, sample_count=20, seed=42)
        assert report.mode == ("exhaustive" if ca.dim <= 8 else "sampled"), name
        assert set(report.checked) >= {"h*h", "h*w", "h*k", "w*w", "w*k"}, name
        span = zusmanovich_span(ca)
        assert span.flags["k_is_ideal"], name
        # [k, k] = 0 whenever z(g) lies inside [g, g]
        if center(ca.g).is_subspace_of(derived_subalgebra(ca.g)):
            k_mats = summand_k(ca).basis_matrices()
            zero = ExactMatrix.zero(ca.dim, ca.dim)
            for x in k_mats:
                for y in k_mats:
                    assert commutator(x, y) == zero, name


def test_criterion_5_radical_and_levi_certified(pairs):
    heis = {"h1*a1": 1, "h1*a2": 1, "h2*a1": 2}
    for name, ca in pairs.items():
        if name in heis:
            s, r = heisenberg_der_blocks(heis[name])
        else:
            s = lie_derivations(ca.g)
            r = EndoSubspace(ca.g.dim, Subspace.zero_space(ca.g.dim**2))
        big_j = jacobson_radical(ca.a)
        big_s = wedderburn_complement(ca.a)
        report = certify_decomposition(ca, s, r, big_s, big_j)
        for flag in (
            "radical_is_ideal",
            "radical_solvable",
            "levi_semisimple",
            "direct_complement",
            "span_equals_der",
            "k_is_ideal",
        ):
            assert report.flags[flag], (name, flag)
        assert (
            report.radical_candidate.dim + report.levi_candidate.dim
            == report.der_dim
        ), name
        assert subspace_intersection(
            report.radical_candidate.space, report.levi_candidate.space
        ).dim == 0, name


def test_criterion_6_truncated_polynomial_facts():
    rng = random.Random(2026)
    for k in range(5):
        a = truncated_polynomial(k)
        der = assoc_derivations(a)
        assert der.dim == k
        rad = jacobson_radical(a)
        # every derivation lands inside the radical
        for mat in der.basis_matrices():
            for col in range(a.dim):
                assert rad.contains(mat.column(col))
        assert is_solvable(lie_from_endo_span(der))
        # multiplication operators compose multiplicatively
        for _ in range(20):
            p = [rand_frac(rng) for _ in range(a.dim)]
            q = [rand_frac(rng) for _ in range(a.dim)]
            assert a.left_mult_matrix(p) * a.left_mult_matrix(q) == a.left_mult_matrix(
                a.multiply(p, q)
            )
        if k == 0:
            continue
        # rbar(q) is exactly the derivation with t -> q
        t_vec = tuple(Q(1) if i == 1 else Q(0) for i in range(a.dim))
        for _ in range(20):
            q = [Q(0)] + [rand_frac(rng) for _ in range(k)]
            d = rbar(a, q)
            assert der.contains(d)
            assert d.apply(t_vec) == tuple(q)
        # and those matrices span all of der(A_k)
        span = EndoSubspace.from_matrices(
            [rbar(a, [Q(1) if i == r else Q(0) for i in range(a.dim)])
             for r in range(1, a.dim)],
            a.dim,
        )
        assert span == der


def test_criterion_7_sp_levi_identification():
    for m, k in ((1, 1), (2, 1)):
        ca = truncated_heisenberg(m, k)
        g = sp(m)
        images = sp_block_embedding(m, k)
        assert len(images) == g.dim
        der = ca.derivations()
        for img in images:
            assert der.contains(img)
        span = EndoSubspace.from_matrices(images, ca.dim)
        assert span.dim == g.dim  # injective
        zero = ExactMatrix.zero(ca.dim, ca.dim)
        for i in range(g.dim):
            for j in range(g.dim):
                rhs = zero
                for t, coeff in enumerate(g.structure[i][j]):
                    if coeff:
                        rhs = rhs + coeff * images[t]
                assert commutator(images[i], images[j]) == rhs
        report = levi_report(m, k, ca=ca)
        assert report.all_flags_true, report.flags
        assert report.levi_candidate == span
        if (m, k) == (1, 1):
            # three-dimensional semisimple: the simple rank-one algebra
            levi_lie = lie_from_endo_span(span)
            assert levi_lie.dim == 3 and is_semisimple(levi_lie)


def test_criterion_8_property_suites():
    rng = random.Random(424242)

    for _ in range(100):  # rref idempotence and rank-nullity
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, _ = rref(m)
        assert rref(r)[0] == r
        assert rank(m) + nullspace(m).dim == m.ncols

    for _ in range(100):  # modular dimension law
        n = rng.randint(1, 5)
        u = Subspace.from_vectors(
            [rand_vector(rng, n) for _ in range(rng.randint(0, n))], n
        )
        v = Subspace.from_vectors(
            [rand_vector(rng, n) for _ in range(rng.randint(0, n))], n
        )
        assert (
            subspace_sum(u, v).dim
            == u.dim + v.dim - subspace_intersection(u, v).dim
        )

    for _ in range(100):  # Kronecker mixed product
        p, q, r = (rng.randint(1, 3) for _ in range(3))
        s, t, w = (rng.randint(1, 3) for _ in range(3))
        a = rand_matrix(rng, p, q)
        c = rand_matrix(rng, q, r)
        b = rand_matrix(rng, s, t)
        d = rand_matrix(rng, t, w)
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)

    # commutator closure of every computed derivation space
    spaces = [
        lie_derivations(heisenberg(1)),
        lie_derivations(heisenberg(2)),
        lie_derivations(sp(1)),
        truncated_heisenberg(1, 1).derivations(),
        truncated_heisenberg(1, 2).derivations(),
        assoc_derivations(truncated_polynomial(3)),
    ]
    checked = 0
    for endo in spaces:
        mats = endo.basis_matrices()
        n = endo.n
        for _ in range(20):
            x = ExactMatrix.zero(n, n)
            y = ExactMatrix.zero(n, n)
            for mat in mats:
                x = x + rand_frac(rng) * mat
                y = y + rand_frac(rng) * mat
            assert endo.contains(commutator(x, y))
            checked += 1
    assert checked >= 100

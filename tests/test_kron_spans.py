"""Kronecker spans read off their factors' RREF bases, against elimination.

hom0(g) = z(g) (x) ann([g,g]), the three summands of der(g (x) A), the
Levi candidate s (x) L(S) and the pieces of the radical candidate are
built by `linalg._kron_space`, which sorts the products of two RREF bases
by pivot instead of eliminating them.  Each is compared here, space by
space, with the construction it replaced (tests/helpers.py): every
Kronecker product eliminated, and hom0 as the null space of its two
linear conditions in dim(g)^2 unknowns.  A counting test then watches
every elimination while these spaces are built.
"""

from __future__ import annotations

import random

import pytest
from helpers import (
    corpus_assoc,
    corpus_lie,
    rand_matrix,
    rebased,
    reference_candidates,
    reference_hom0,
    reference_kron_span,
    reference_summands,
    sl2_ltimes_q2,
)

from currentlie import lie, linalg
from currentlie.assoc import jacobson_radical, truncated_polynomial, wedderburn_complement
from currentlie.current import (
    current_algebra,
    levi_candidate_subspace,
    levi_split,
    radical_subspace,
    summand_h,
    summand_k,
    summand_w,
)
from currentlie.lie import (
    center,
    centroid,
    derivations,
    derived_subalgebra,
    heisenberg,
    hom_quotient_to_center,
    sp,
)
from currentlie.linalg import _kron_space

GRID = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 1), (3, 3), (2, 5)]


def _assert_like_references(ca) -> None:
    for name, want in reference_summands(ca).items():
        got = {"h": summand_h, "w": summand_w, "k": summand_k}[name](ca)
        assert got == want, name
    s, r = levi_split(ca.g)
    big_s, big_j = wedderburn_complement(ca.a), jacobson_radical(ca.a)
    radical, levi = reference_candidates(ca, s, r, big_s, big_j)
    assert levi_candidate_subspace(ca, s, big_s) == levi
    if center(ca.g).is_subspace_of(derived_subalgebra(ca.g)):
        assert radical_subspace(ca, s, r, big_s, big_j) == radical


def test_kron_space_of_random_rref_bases_matches_elimination():
    rng = random.Random(29)
    for _ in range(40):
        p, r = rng.randint(1, 3), rng.randint(1, 3)
        # square factors, as in the summands, or a column times a row, as in hom0
        x_shape, y_shape = rng.choice([((p, p), (r, r)), ((p * r, 1), (1, p * r))])
        xs = _rref_basis([rand_matrix(rng, *x_shape) for _ in range(rng.randint(1, 4))])
        ys = _rref_basis([rand_matrix(rng, *y_shape) for _ in range(rng.randint(1, 4))])
        n = p * r
        assert _kron_space(xs, ys, n) == reference_kron_span([(xs, ys)], n)


def _rref_basis(mats: list) -> list:
    # the RREF basis of the span of same-shape matrices, each reshaped back
    rows, cols = mats[0].shape
    flat = linalg.Subspace._from_rref(
        rows * cols, linalg._rref_ints([m._flat_ints() for m in mats if not m.is_zero()]))
    return [linalg.ExactMatrix._from_ints(rows, cols, d, _unflatten(row, cols))
            for d, row in flat._rows]


def _unflatten(row: list, cols: int) -> dict:
    nz = {}
    for j, v in row:
        nz.setdefault(j // cols, []).append((j % cols, v))
    return nz


@pytest.mark.parametrize("m,k", GRID)
def test_levi_report_grid_matches_elimination(m, k):
    _assert_like_references(current_algebra(heisenberg(m), truncated_polynomial(k)))


def test_corpus_factors_match_elimination():
    for g in corpus_lie().values():
        for a in corpus_assoc().values():
            _assert_like_references(current_algebra(g, a))


def test_densely_rebased_g_matches_elimination():
    a = truncated_polynomial(1)
    for seed in range(3):
        for g in (heisenberg(1), heisenberg(2), sl2_ltimes_q2()):
            _assert_like_references(current_algebra(rebased(g, seed), a))


def test_hom0_matches_the_null_space_of_its_conditions():
    gs = [heisenberg(m) for m in (1, 2, 3, 9)] + [sp(1), sp(2)] + list(corpus_lie().values())
    gs += [rebased(heisenberg(m), seed) for m in (1, 2) for seed in range(6)]
    for g in gs:
        assert hom_quotient_to_center(g) == reference_hom0(g), g.labels


def test_kron_spans_eliminate_at_factor_size_only(monkeypatch):
    # h_{2,3} = h_2 (x) Q[t]/(t^4), with z(g), [g,g] and the factor spaces
    # already built: while hom0(g) is built no elimination sees a column of
    # index dim g or more (the null space of its conditions had dim(g)^2
    # columns), and while the summands and the Levi candidate are built
    # none sees one of (dim A)^2 or more (End(g (x) A) has 400)
    g, a = heisenberg(2), truncated_polynomial(3)
    ca = current_algebra(g, a)
    center(g), derived_subalgebra(g), derivations(g), centroid(g), ca.der_a()
    s, _ = levi_split(g)
    big_s = wedderburn_complement(a)
    seen = []
    original = linalg._rref_ints

    def counting(rows, zero=()):
        rows, zero = list(rows), list(zero)
        seen.append(max([c for row in rows for c in row] + zero, default=-1))
        return original(rows, zero)

    monkeypatch.setattr(linalg, "_rref_ints", counting)
    monkeypatch.setattr(lie, "_rref_ints", counting)
    assert hom_quotient_to_center(g).dim == 4
    assert seen and max(seen) < g.dim
    seen.clear()
    dims = [summand_h(ca).dim, summand_w(ca).dim, summand_k(ca).dim]
    assert dims == [derivations(g).dim * 4, centroid(g).dim * ca.der_a().dim, 4 * 16]
    assert levi_candidate_subspace(ca, s, big_s).dim == 10
    assert seen and max(seen) < a.dim ** 2

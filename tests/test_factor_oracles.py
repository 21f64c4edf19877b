"""The dimension of der(g (x) A) from factor-size solves alone.

For a Lie algebra g and a commutative unital algebra A, der(g (x) A) is
spanned by der(g) (x) L(A), C(g) (x) der(A) and hom0(g) (x) End(A), with
hom0(g) = Hom(g/[g,g], z(g)) and C(g) the centroid.  These meet exactly in
hom0(g) (x) L(A) and hom0(g) (x) der(A) (der(g) and C(g) meet in hom0(g),
and L_a is a derivation only for a = 0), so

    dim der(g (x) A) = (dim der g - h) dim A + (dim C(g) - h) dim der A
                       + h (dim A)^2,     h = dim hom0(g).

Its right side needs only solves in dim(g)^2 and dim(A)^2 unknowns, so it
checks the Leibniz solve in (dim g dim A)^2 unknowns, together with the
flags span_equals_der and k_is_ideal.  It runs on fixed pairs of the
corpus in tests/helpers.py and on seeded draws: g the commutator closure
of sparse integer matrices, A a sum of truncated and quotient polynomial
rings, both in a dense random basis.  A draw that breaks the identity is
a finding, never a draw to skip.  Draw 26 of tests/helpers.generated_pair,
whose Leibniz rows all have 32 or more entries, also bounds the work of
the eliminator on dense rows.
"""

from __future__ import annotations

import random

import pytest
from helpers import (
    corpus_assoc,
    corpus_lie,
    draw_assoc,
    generated_pair,
    matrix_closure_lie,
    rebased,
    sparse_matrix,
)
from test_nullspace_oracles import assert_canonical_rref

from currentlie import linalg
from currentlie.assoc import derivations as assoc_derivations
from currentlie.current import current_algebra, zusmanovich_span
from currentlie.lie import centroid, derivations, hom_quotient_to_center

SEED = 20261021


def _identity_dim(g, a) -> int:
    # the right side of the identity, from solves at factor size only
    h = hom_quotient_to_center(g).dim
    return ((derivations(g).dim - h) * a.dim + (centroid(g).dim - h) * assoc_derivations(a).dim
            + h * a.dim ** 2)


def _assert_identity(g, a) -> None:
    want = _identity_dim(g, a)
    report = zusmanovich_span(current_algebra(g, a))
    assert report.der_dim == want, (g.labels, a.labels)
    assert report.flags == {"span_equals_der": True, "k_is_ideal": True}, (g.labels, a.labels)


@pytest.mark.parametrize("g_name", list(corpus_lie()))
def test_dimension_identity_on_the_corpus(g_name):
    g = corpus_lie()[g_name]
    for a in corpus_assoc().values():
        _assert_identity(g, a)


def _draw_lie(rng: random.Random):
    shape = rng.choice(["upper", "block"])
    return matrix_closure_lie([sparse_matrix(rng, 3, shape) for _ in range(rng.randint(2, 3))])


def test_dimension_identity_on_generated_draws():
    rng = random.Random(SEED)
    for draw in range(12):
        g, a = _draw_lie(rng), draw_assoc(rng)
        _assert_identity(rebased(g, SEED + draw), rebased(a, SEED + draw))


def test_dense_draw_is_solved_with_few_eliminations(monkeypatch):
    # draw 26 of the generator with seed 7: g of dim 5 and A of dim 4, both
    # in a dense basis, so no Leibniz row has two entries and every row
    # reaches the eliminator.  Pivot rows kept reduced as each row arrives
    # take 158 925 _eliminate calls; eliminating on leading entries and
    # back-substituting at the end took 739 197
    g, a = generated_pair(26)
    assert (g.dim, a.dim) == (5, 4)
    product = current_algebra(g, a).product
    calls = 0
    eliminate = linalg._eliminate

    def counting(*args):
        nonlocal calls
        calls += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    der = derivations(product)
    monkeypatch.undo()
    assert der.dim == _identity_dim(g, a) == 53
    assert_canonical_rref(der.space)
    assert calls < 200_000

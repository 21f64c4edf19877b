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
a finding, never a draw to skip.
"""

from __future__ import annotations

import random

import pytest
from helpers import corpus_assoc, corpus_lie, matrix_closure_lie, polynomial_quotient, rebased

from currentlie.assoc import derivations as assoc_derivations
from currentlie.assoc import direct_sum, truncated_polynomial
from currentlie.current import current_algebra, zusmanovich_span
from currentlie.lie import centroid, derivations, hom_quotient_to_center
from currentlie.linalg import ExactMatrix

SEED = 20261021

# monic f, constant term first: a field, a square of one, a split quotient
QUOTIENTS = [[-2, 0, 1], [1, 0, 1], [4, 0, -4, 0, 1], [0, -1, 1], [-1, 1, 0, 1]]


def _assert_identity(g, a) -> None:
    h = hom_quotient_to_center(g).dim
    want = ((derivations(g).dim - h) * a.dim + (centroid(g).dim - h) * assoc_derivations(a).dim
            + h * a.dim ** 2)
    report = zusmanovich_span(current_algebra(g, a))
    assert report.der_dim == want, (g.labels, a.labels)
    assert report.flags == {"span_equals_der": True, "k_is_ideal": True}, (g.labels, a.labels)


@pytest.mark.parametrize("g_name", list(corpus_lie()))
def test_dimension_identity_on_the_corpus(g_name):
    g = corpus_lie()[g_name]
    for a in corpus_assoc().values():
        _assert_identity(g, a)


def _sparse_matrix(rng: random.Random, n: int, shape: str) -> ExactMatrix:
    # one to three entries in [-2, 2]: upper triangular ones close to a
    # solvable g, block diagonal ones (2 x 2 and 1 x 1) to a reductive g
    if shape == "upper":
        slots = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        slots = [(i, j) for i in range(n) for j in range(n) if (i < 2) == (j < 2)]
    entries = dict.fromkeys(rng.sample(slots, rng.randint(1, 3)), 0)
    for pos in entries:
        entries[pos] = rng.choice([-2, -1, 1, 2])
    return ExactMatrix([[entries.get((i, j), 0) for j in range(n)] for i in range(n)])


def _draw_lie(rng: random.Random):
    shape = rng.choice(["upper", "block"])
    return matrix_closure_lie([_sparse_matrix(rng, 3, shape) for _ in range(rng.randint(2, 3))])


def _draw_assoc(rng: random.Random):
    # of dim at most 4: one ring, or the sum of two of dim at most 2
    if rng.random() < 0.5:
        return rng.choice([truncated_polynomial(rng.randint(0, 3)),
                           polynomial_quotient(rng.choice(QUOTIENTS))])
    small = [truncated_polynomial(0), truncated_polynomial(1)]
    small += [polynomial_quotient(f) for f in QUOTIENTS if len(f) == 3]
    return direct_sum(rng.choice(small), rng.choice(small))


def test_dimension_identity_on_generated_draws():
    rng = random.Random(SEED)
    for draw in range(12):
        g, a = _draw_lie(rng), _draw_assoc(rng)
        _assert_identity(rebased(g, SEED + draw), rebased(a, SEED + draw))

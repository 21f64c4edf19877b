"""Derivation dimensions against closed forms, in seeded random bases.

Each expected value is a formula written here, so no check reads the
package's own derivation code:
- abelian g of dim n: every map commutes with the zero bracket, so
  der(g (x) A) = gl(g (x) A) has dim (n dim A)^2;
- sp_2m (x) A_k, A_k = Q[t]/(t^(k+1)): sp_2m is perfect and centreless
  with centroid Q, so der = der(sp_2m) (x) A (+) centroid (x) der(A_k)
  (Benkart-Moody; Zusmanovich), of dim m(2m+1)(k+1) + k;
- A_k1 x A_k2: a derivation kills the two idempotents, so it is a pair
  of derivations of the factors, of dim k1 + k2.
Each algebra is also written in a seeded random basis, rescaled (and for
g permuted), which changes its constants but no dimension.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from test_integer_paths import rescaled_truncated_polynomial

from currentlie.assoc import derivations as assoc_derivations
from currentlie.assoc import direct_sum, truncated_polynomial
from currentlie.current import current_algebra
from currentlie.lie import LieAlgebra, derivations, sp

SEED = 20261019


def _scales(rng: random.Random, n: int) -> list:
    return [Fraction(rng.choice([1, -1]) * rng.randint(1, 7), rng.randint(1, 7)) for _ in range(n)]


def _rebased_lie(g: LieAlgebra, rng: random.Random) -> LieAlgebra:
    """g in the basis b_perm(i) = s_i e_i: c'_(pi pj)^(pk) = s_i s_j / s_k c_ij^k."""
    n = g.dim
    perm, s = rng.sample(range(n), n), _scales(rng, n)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(g.structure[i][j]):
                table[perm[i]][perm[j]][perm[k]] = s[i] * s[j] / s[k] * c
    labels = [None] * n
    for i, label in enumerate(g.labels):
        labels[perm[i]] = label
    return LieAlgebra(labels, table)


def _rebased_truncated(k: int, rng: random.Random):
    return rescaled_truncated_polynomial([1] + _scales(rng, k))


def _abelian(n: int) -> LieAlgebra:
    return LieAlgebra.from_bracket_entries([f"x{i}" for i in range(n)], [])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_abelian_current_derivations_are_all_of_gl(n):
    rng = random.Random(SEED + n)
    for k in range(4):
        for a in (truncated_polynomial(k), _rebased_truncated(k, rng)):
            der = derivations(current_algebra(_abelian(n), a).product)
            assert der.dim == (n * (k + 1)) ** 2


@pytest.mark.parametrize("m,k", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1)])
def test_symplectic_current_derivations(m, k):
    rng = random.Random(SEED + 10 * m + k)
    want = m * (2 * m + 1) * (k + 1) + k
    for g, a in (
        (sp(m), truncated_polynomial(k)),
        (_rebased_lie(sp(m), rng), _rebased_truncated(k, rng)),
    ):
        assert derivations(current_algebra(g, a).product).dim == want


def test_direct_products_of_truncated_polynomial_rings():
    rng = random.Random(SEED)
    for k1 in range(5):
        for k2 in range(5):
            a = direct_sum(truncated_polynomial(k1), truncated_polynomial(k2))
            assert assoc_derivations(a).dim == k1 + k2
            b = direct_sum(_rebased_truncated(k1, rng), _rebased_truncated(k2, rng))
            assert assoc_derivations(b).dim == k1 + k2

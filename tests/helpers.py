"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from currentlie.linalg import ExactMatrix


def rand_frac(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_matrix(rng: random.Random, nrows: int, ncols: int) -> ExactMatrix:
    return ExactMatrix(
        [[rand_frac(rng) for _ in range(ncols)] for _ in range(nrows)]
    )


def rand_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [rand_frac(rng) for _ in range(n)]


def ideal_power_chain_nilpotent(alg, space) -> bool:
    """True iff the subspace is an ideal whose power chain reaches 0.

    Brute-force oracle, independent of any trace criterion: multiplies
    spanning sets directly and watches the chain I, I*I, (I*I)*I, ...
    """
    from currentlie.linalg import Subspace, subspace_sum

    n = alg.dim
    basis_vectors = [
        tuple(1 if t == i else 0 for t in range(n)) for i in range(n)
    ]
    for row in space.basis.rows:
        for b in basis_vectors:
            if not space.contains(alg.multiply(row, b)):
                return False
    current = space
    while current.dim > 0:
        products = [
            alg.multiply(u, v)
            for u in current.basis.rows
            for v in space.basis.rows
        ]
        nxt = Subspace.from_vectors(products, n)
        if nxt.dim == current.dim:
            return False
        current = nxt
    return True


def ideal_generated_by(alg, vectors):
    """Smallest ideal containing the vectors, by closing under products."""
    from currentlie.linalg import Subspace

    n = alg.dim
    basis_vectors = [
        tuple(1 if t == i else 0 for t in range(n)) for i in range(n)
    ]
    span = Subspace.from_vectors(vectors, n)
    while True:
        extra = [
            alg.multiply(u, b) for u in span.basis.rows for b in basis_vectors
        ]
        grown = Subspace.from_vectors(list(span.basis.rows) + extra, n)
        if grown.dim == span.dim:
            return span
        span = grown


def assert_is_largest_nilpotent_ideal(alg, j) -> None:
    """Certify j = largest nilpotent ideal of the commutative algebra alg.

    Every basis element must be nilpotent, the power chain must die, and
    adjoining any complement coordinate must break nilpotency.
    """
    for row in j.basis.rows:
        assert alg.is_nilpotent_element(row)
    assert ideal_power_chain_nilpotent(alg, j)
    pivot_set = set(j.pivots)
    for col in range(alg.dim):
        if col in pivot_set:
            continue
        w = tuple(1 if t == col else 0 for t in range(alg.dim))
        bigger = ideal_generated_by(alg, list(j.basis.rows) + [w])
        assert not ideal_power_chain_nilpotent(alg, bigger)


def reference_rref(m: ExactMatrix) -> ExactMatrix:
    """Textbook two-pass Gauss elimination with a different pivot choice.

    Picks the *last* available nonzero row for each pivot and back
    substitutes afterwards, so it exercises a different arithmetic path
    than the library's single-pass Gauss-Jordan.  RREF is unique, so both
    must agree exactly.
    """
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        for i in range(nrows - 1, r - 1, -1):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # back substitution
    for idx in range(len(pivots) - 1, -1, -1):
        c = pivots[idx]
        for i in range(idx):
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[idx])]
    return ExactMatrix(rows) if rows else m


def reference_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Textbook triple loop over every entry, zeros included."""
    assert a.ncols == b.nrows
    rows = [
        [sum((a[i, t] * b[t, j] for t in range(a.ncols)), Fraction(0)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]
    return ExactMatrix._trusted(tuple(map(tuple, rows)), a.nrows, b.ncols)


def reference_kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product entry by entry from its definition."""
    p, q = b.nrows, b.ncols
    rows = [
        [a[i // p, j // q] * b[i % p, j % q] for j in range(a.ncols * q)]
        for i in range(a.nrows * p)
    ]
    return ExactMatrix._trusted(tuple(map(tuple, rows)), a.nrows * p, a.ncols * q)


def reference_rational_roots(poly: list) -> tuple[list, int]:
    """Rational roots by the rational root theorem, searched exhaustively.

    Tries p/q for every divisor p of the constant term and q of the
    leading coefficient, p first, then q, +p/q before -p/q, deflating each
    root found; zero is taken first.  The search is linear in the size of
    the coefficients, so this is for small polynomials only.
    """
    coeffs = [Fraction(c) for c in poly]
    roots = []

    def evaluate(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def deflate(cs, r):
        out = [Fraction(0)] * (len(cs) - 1)
        carry = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            out[i] = carry
            carry = cs[i] + r * carry
        return out

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    while len(coeffs) > 1:
        if coeffs[0] == 0:
            if 0 not in roots:
                roots.append(Fraction(0))
            coeffs = coeffs[1:]
            continue
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        ints = [int(c * denom) for c in coeffs]
        found = next(
            (
                cand
                for p in divisors(ints[0])
                for q in divisors(ints[-1])
                for cand in (Fraction(p, q), Fraction(-p, q))
                if evaluate(coeffs, cand) == 0
            ),
            None,
        )
        if found is None:
            break
        if found not in roots:
            roots.append(found)
        coeffs = deflate(coeffs, found)
    return roots, len(coeffs) - 1

"""Commutative associative unital algebras over Q, given by structure constants.

Provides the coefficient algebras used on the right-hand side of a current
Lie algebra g (x) A: truncated polynomial rings, their direct sums, and the
structure theory needed later (derivations, Jacobson radical, a split
Wedderburn complement, multiplication operators).
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    SpanSolver,
    Subspace,
    _derivation_space,
    nullspace,
    rat,
)

_ZERO = Q(0)
_ONE = Q(1)


class NonSplitError(ValueError):
    """The semisimple quotient has a factor that is not Q itself."""


class AssocAlgebra:
    """Structure-constant presentation of a commutative unital algebra.

    structure[i][j] is the coordinate vector of basis_i * basis_j; unit is
    the coordinate vector of 1.
    """

    def __init__(self, labels: Sequence[str], structure, unit: Sequence):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        n = self.dim
        self.structure = tuple(
            tuple(tuple(rat(x) for x in structure[i][j]) for j in range(n))
            for i in range(n)
        )
        self.unit = tuple(rat(x) for x in unit)
        if len(self.unit) != n:
            raise ValueError("unit length mismatch")
        for i in range(n):
            if len(self.structure[i]) != n or any(
                len(self.structure[i][j]) != n for j in range(n)
            ):
                raise ValueError("structure tensor shape mismatch")

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        x = [rat(v) for v in x]
        y = [rat(v) for v in y]
        out = [_ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.structure[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, s in enumerate(row[j]):
                    if s:
                        out[k] += c * s
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> ExactMatrix:
        """Matrix of multiplication by x in the chosen basis (columns are x*e_j)."""
        cols = []
        zero = [_ZERO] * self.dim
        for j in range(self.dim):
            e = list(zero)
            e[j] = _ONE
            cols.append(self.multiply(x, e))
        return ExactMatrix(list(zip(*cols)))

    def power(self, x: Sequence, n: int) -> tuple:
        out = self.unit
        for _ in range(n):
            out = self.multiply(out, x)
        return out

    def is_nilpotent_element(self, x: Sequence) -> bool:
        # x nilpotent iff its multiplication operator is nilpotent
        m = self.left_mult_matrix(x)
        p = ExactMatrix.identity(self.dim)
        for _ in range(self.dim):
            p = p * m
        return p.is_zero()

    def check_axioms(self) -> bool:
        """Associativity, commutativity and unitality on all basis combinations."""
        return first_assoc_violation(self) is None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AssocAlgebra)
            and self.labels == other.labels
            and self.structure == other.structure
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.labels, self.structure, self.unit))

    def __repr__(self):
        return f"AssocAlgebra(dim={self.dim}, labels={self.labels})"


def first_assoc_violation(a: AssocAlgebra):
    """Name the first failed axiom instance, or None if all hold.

    The unit is checked first (left, then right, on each basis element),
    then commutativity on the pairs i <= j, then associativity
    (e_i e_j) e_k = e_i (e_j e_k) on all triples in lexicographic order.
    """
    n = a.dim
    basis = [tuple(_ONE if t == i else _ZERO for t in range(n)) for i in range(n)]
    for i in range(n):
        if a.multiply(a.unit, basis[i]) != basis[i]:
            return f"unit is not a left identity on {a.labels[i]}"
        if a.multiply(basis[i], a.unit) != basis[i]:
            return f"unit is not a right identity on {a.labels[i]}"
    for i in range(n):
        for j in range(i, n):
            if a.structure[i][j] != a.structure[j][i]:
                return f"commutativity fails on ({a.labels[i]}, {a.labels[j]})"
    for i in range(n):
        for j in range(n):
            ij = a.structure[i][j]
            for k in range(n):
                if a.multiply(ij, basis[k]) != a.multiply(basis[i], a.structure[j][k]):
                    labels = (a.labels[i], a.labels[j], a.labels[k])
                    return f"associativity fails on ({', '.join(labels)})"
    return None


def truncated_polynomial(k: int) -> AssocAlgebra:
    """Q[t]/(t^(k+1)), basis 1, t, ..., t^k; products past degree k vanish."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = k + 1
    structure = [
        [
            tuple(_ONE if p == i + j else _ZERO for p in range(n))
            if i + j <= k
            else (_ZERO,) * n
            for j in range(n)
        ]
        for i in range(n)
    ]
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    unit = tuple(_ONE if p == 0 else _ZERO for p in range(n))
    return AssocAlgebra(labels, structure, unit)


def direct_sum(a: AssocAlgebra, b: AssocAlgebra) -> AssocAlgebra:
    """Componentwise product algebra a (+) b; the unit is (1_a, 1_b)."""
    n, m = a.dim, b.dim
    dim = n + m
    zero = (_ZERO,) * dim
    structure = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            structure[i][j] = tuple(a.structure[i][j]) + (_ZERO,) * m
    for i in range(m):
        for j in range(m):
            structure[n + i][n + j] = (_ZERO,) * n + tuple(b.structure[i][j])
    labels = [f"{lab}.L" for lab in a.labels] + [f"{lab}.R" for lab in b.labels]
    unit = tuple(a.unit) + tuple(b.unit)
    return AssocAlgebra(labels, [list(r) for r in structure], unit)


def derivations(a: AssocAlgebra) -> EndoSubspace:
    """All D with D(xy) = D(x)y + xD(y), as a subspace of End(A).

    Solved as the exact nullspace of the Leibniz conditions over basis
    pairs; D(1) = 0 follows automatically.
    """
    return _derivation_space(a.structure, diagonal=True)


def jacobson_radical(a: AssocAlgebra) -> Subspace:
    """Radical via the trace form: v is radical iff tr(L_(v*x)) = 0 for all x.

    Over Q this is the Dickson criterion, so the nullspace of the Gram
    matrix G[i][j] = tr(L_(e_i e_j)) is exactly the Jacobson radical.
    """
    n = a.dim
    c = a.structure
    tracevec = [sum((c[l][p][p] for p in range(n)), _ZERO) for l in range(n)]
    gram = []
    for i in range(n):
        grow = []
        for j in range(n):
            prod = c[i][j]
            grow.append(sum((prod[l] * tracevec[l] for l in range(n) if prod[l]), _ZERO))
        gram.append(grow)
    return nullspace(ExactMatrix(gram))


def _complement_coords(a: AssocAlgebra, j: Subspace):
    """Quotient A/J presented on the non-pivot coordinates of J's basis."""
    n = a.dim
    pivot_set = set(j.pivots)
    cols = [col for col in range(n) if col not in pivot_set]
    qdim = len(cols)
    basis = []
    for col in cols:
        e = [_ZERO] * n
        e[col] = _ONE
        basis.append(tuple(e))
    pos = {col: idx for idx, col in enumerate(cols)}

    def project(v):
        w = j.reduce(v)
        out = [_ZERO] * qdim
        for col, idx in pos.items():
            out[idx] = w[col]
        return tuple(out)

    structure = [
        [project(a.multiply(basis[i], basis[jj])) for jj in range(qdim)]
        for i in range(qdim)
    ]
    labels = [a.labels[col] for col in cols]
    quotient = AssocAlgebra(labels, structure, project(a.unit))

    def embed(v):
        out = [_ZERO] * n
        for col, idx in pos.items():
            out[col] = v[idx]
        return tuple(out)

    return quotient, embed


def _minimal_polynomial(alg: AssocAlgebra, unit, x) -> list:
    """Monic minimal polynomial of x over the subalgebra with unit `unit`.

    Returns the coefficient list [c_0, ..., c_(s-1), 1] of smallest degree
    with sum(c_i x^i) + x^s = 0, powers taken relative to `unit`.
    """
    powers = [tuple(unit)]
    while True:
        nxt = alg.multiply(powers[-1], x)
        solver = SpanSolver(powers, alg.dim)
        coeffs = solver.coefficients(nxt)
        if coeffs is not None:
            return [-c for c in coeffs] + [_ONE]
        powers.append(nxt)
        if len(powers) > alg.dim + 1:
            raise RuntimeError("minimal polynomial search failed to terminate")


def _rational_roots(poly: list) -> tuple[list, int]:
    """Distinct rational roots of a poly plus the leftover degree.

    poly lists the coefficients from the constant term up.  Zero comes
    first, then the other roots by (|numerator|, denominator, positive
    before negative), the order in which a rational-root-theorem search
    over numerators and denominators meets them; the idempotents, and so
    the reports, follow this order.  With the denominators cleared to
    integers a_0..a_n, every rational root of the poly is y / a_n for an
    integer root y of the monic integer polynomial a_n^(n-1) p(y / a_n).
    Those are isolated by exact bisection (see _integer_roots), so the
    cost grows with the number of digits of the coefficients, not with
    their size.  Each root is confirmed by exact evaluation and deflated
    as often as it divides.
    """
    coeffs = list(poly)
    roots = []
    if len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(_ZERO)
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs = coeffs[1:]
    if len(coeffs) > 1:
        den = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        lead, n = ints[-1], len(ints) - 1
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
        found = sorted(
            (Q(y, lead) for y in _integer_roots(monic)),
            key=lambda r: (abs(r.numerator), r.denominator, r < 0),
        )
        for r in found:
            if _evaluate(coeffs, r) == 0:
                roots.append(r)
                while len(coeffs) > 1 and _evaluate(coeffs, r) == 0:
                    coeffs = _deflate(coeffs, r)
    return roots, len(coeffs) - 1


def _evaluate(cs: list, x) -> Q:
    acc = _ZERO
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deflate(cs: list, r) -> list:
    # quotient of cs by (t - r), for a root r of cs
    out = [_ZERO] * (len(cs) - 1)
    carry = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        out[i] = carry
        carry = cs[i] + r * carry
    return out


def _integer_roots(monic: list) -> list[int]:
    """Integer roots of a monic integer polynomial (constant term first).

    Every root y has |y| <= 1 + max |coefficient| (Cauchy's bound).  The
    drop in sign variations of the Sturm sequence from lo + 1/2 to
    hi + 1/2 counts the distinct real roots in between; that holds for
    repeated roots too, as a monic integer polynomial has only integer
    rational roots, so the half-integer ends are never roots.  Bisecting
    the intervals that hold roots down to single integers takes about
    degree * log2(bound) steps; an integer is kept if it is a root.
    """
    chain = [[Q(c) for c in monic]]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(k: int) -> int:
        # sign changes of the chain at k + 1/2
        x = Q(2 * k + 1, 2)
        values = [_evaluate(p, x) for p in chain]
        signs = [v > 0 for v in values if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in monic[:-1])
    roots = []
    stack = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _evaluate(monic, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots


def _poly_rem(a: list, b: list) -> list:
    """Remainder of a divided by b, coefficients from the constant up; [] for 0."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def wedderburn_complement(a: AssocAlgebra) -> Subspace:
    """A subalgebra S with S (+) J = A, S isomorphic to the quotient A/J.

    Splits the quotient into one-dimensional factors by pulling primitive
    idempotents out of minimal polynomials, then lifts each through the
    nilpotent radical with e -> 3e^2 - 2e^3.  Raises NonSplitError when a
    quotient factor is a field bigger than Q (irrational eigenvalues).
    """
    j = jacobson_radical(a)
    quotient, embed = _complement_coords(a, j)
    n_q = quotient.dim

    components = [tuple(quotient.unit)]
    for c in range(n_q):
        e_c = tuple(_ONE if t == c else _ZERO for t in range(n_q))
        next_components = []
        for u in components:
            x = quotient.multiply(u, e_c)
            poly = _minimal_polynomial(quotient, u, x)
            roots, leftover = _rational_roots(poly)
            if leftover > 0:
                raise NonSplitError(
                    "non-split semisimple quotient: minimal polynomial has an "
                    "irrational factor of degree %d" % leftover
                )
            if len(roots) <= 1:
                next_components.append(u)
                continue
            for lam in roots:
                # Lagrange idempotent of the eigenvalue lam inside u*quotient
                e = u
                for mu in roots:
                    if mu == lam:
                        continue
                    shifted = tuple(
                        xv - mu * uv for xv, uv in zip(x, u)
                    )
                    e = quotient.multiply(e, shifted)
                    e = tuple(v / (lam - mu) for v in e)
                next_components.append(e)
        components = next_components

    for u in components:
        span = Subspace.from_vectors(
            [
                quotient.multiply(u, tuple(_ONE if t == c else _ZERO for t in range(n_q)))
                for c in range(n_q)
            ],
            n_q,
        )
        if span.dim != 1:
            raise NonSplitError(
                "non-split semisimple quotient: a simple factor has dimension %d"
                % span.dim
            )

    lifted = []
    for u in components:
        e = embed(u)
        for _ in range(2 * a.dim + 2):
            sq = a.multiply(e, e)
            if sq == e:
                break
            cube = a.multiply(sq, e)
            e = tuple(3 * s - 2 * cb for s, cb in zip(sq, cube))
        else:
            raise RuntimeError("idempotent lifting did not converge")
        lifted.append(e)

    # internal certification: orthogonal idempotents summing to 1
    total = [_ZERO] * a.dim
    for i, e in enumerate(lifted):
        for t, v in enumerate(e):
            total[t] += v
        for f in lifted[i + 1 :]:
            if any(a.multiply(e, f)):
                raise RuntimeError("lifted idempotents are not orthogonal")
    if tuple(total) != a.unit:
        raise RuntimeError("lifted idempotents do not sum to 1")

    s = Subspace.from_vectors(lifted, a.dim)
    if s.dim != a.dim - j.dim:
        raise RuntimeError("complement dimension mismatch")
    return s


def regular_rep(a: AssocAlgebra, p: Sequence) -> ExactMatrix:
    """Multiplication operator L_p; for Q[t]/(t^(k+1)) a lower triangular
    Toeplitz matrix with entry (i, j) = p_(i-j)."""
    return a.left_mult_matrix(p)


def rbar(a: AssocAlgebra, q: Sequence) -> ExactMatrix:
    """Derivation of Q[t]/(t^(k+1)) sending t to q (constant term dropped).

    Column j holds the coordinates of j * t^(j-1) * q, so column 0 is zero
    and entry (i, j) = j * q_(i-j+1) for 1 <= j <= i.  The result is
    Leibniz-checked against `a`, which must be a truncated polynomial ring
    in the monomial basis.
    """
    n = a.dim
    qv = [rat(x) for x in q]
    if len(qv) != n:
        raise ValueError("coefficient vector length mismatch")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # i - j + 1 stays in 1..n-1 for 1 <= j <= i, so no bounds check
            row.append(j * qv[i - j + 1] if 1 <= j <= i else _ZERO)
        rows.append(row)
    m = ExactMatrix(rows)
    basis = [tuple(_ONE if t == i else _ZERO for t in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = m.apply(a.multiply(basis[i], basis[j]))
            di, dj = m.apply(basis[i]), m.apply(basis[j])
            rhs = tuple(
                x + y
                for x, y in zip(a.multiply(di, basis[j]), a.multiply(basis[i], dj))
            )
            if lhs != rhs:
                raise ValueError("rbar result is not a derivation of this algebra")
    return m

"""Commutative associative unital algebras over Q, given by structure constants.

An AssocAlgebra stores only its nonzero products, in the sparse form it
shares with LieAlgebra (linalg._Algebra), and every routine here reads
that form.  The module provides the coefficient algebras used on the
right-hand side of a current Lie algebra g (x) A: truncated polynomial
rings, their direct sums, and the structure theory needed later
(derivations, Jacobson radical, a split Wedderburn complement,
multiplication operators).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import lcm
from typing import Sequence

from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    Subspace,
    _Algebra,
    _dense,
    _from_entries,
    _int_vector,
    _left_mult,
    _leibniz_space,
    _memoized,
    _nullspace_from_system,
    _products,
    nullspace,
    rank,
    rat,
)

_ZERO = Q(0)
_ONE = Q(1)


class NonSplitError(ValueError):
    """The semisimple quotient has a factor that is not Q itself."""


class AssocAlgebra(_Algebra):
    """Structure-constant presentation of a commutative unital algebra.

    products[(i, j)] lists the nonzero coordinates of e_i e_j, as
    numerators over den, for both orders of each pair; unit is the
    coordinate vector of 1.
    AssocAlgebra(labels, table, unit) takes the dense table, table[i][j]
    the coordinate vector of e_i e_j.
    """

    multiply = _Algebra._product

    def _init(self, labels: tuple, den: int, products: dict, unit: Sequence) -> None:
        super()._init(labels, den, products)
        self.unit = tuple(rat(x) for x in unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit length mismatch")

    def left_mult_matrix(self, x: Sequence) -> ExactMatrix:
        """Matrix of multiplication by x in the chosen basis (columns are x*e_j)."""
        return _left_mult(self, x)

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
        return super().__eq__(other) and self.unit == other.unit

    def __hash__(self):
        return hash((super().__hash__(), self.unit))

    def __repr__(self):
        return f"AssocAlgebra(dim={self.dim}, labels={self.labels})"


def first_assoc_violation(a: AssocAlgebra):
    """Name the first failed axiom instance, or None if all hold.

    The unit is checked first (left, then right, on each basis element),
    then commutativity on the pairs i <= j, then associativity
    (e_i e_j) e_k = e_i (e_j e_k) on all triples in lexicographic order.
    Both sides are zero unless e_j e_k != 0 or e_m e_k != 0 for some e_m
    in e_i e_j, so only those triples are evaluated; and if the unit is a
    basis vector, the triples through it hold once the unit checks pass.
    """
    n = a.dim
    prod = a.products
    unit = [(p, u) for p, u in enumerate(a.unit) if u]
    for i in range(n):
        e_i = ((i, _ONE),)
        if a._times(unit, e_i) != {i: a.den}:
            return f"unit is not a left identity on {a.labels[i]}"
        if a._times(e_i, unit) != {i: a.den}:
            return f"unit is not a right identity on {a.labels[i]}"
    for i, j in sorted({(min(key), max(key)) for key in prod}):
        if prod.get((i, j)) != prod.get((j, i)):
            return f"commutativity fails on ({a.labels[i]}, {a.labels[j]})"
    skip = {unit[0][0]} if len(unit) == 1 and unit[0][1] == 1 else set()
    right = [[] for _ in range(n)]  # right[m]: the k outside skip with e_m e_k != 0
    for m, k in prod:
        if k not in skip:
            right[m].append(k)
    for i in range(n):
        for j in range(n):
            ij = prod.get((i, j), ())
            if i in skip or j in skip or not (ij or right[j]):
                continue
            ks = set(right[j])
            for m, _ in ij:
                ks.update(right[m])
            for k in sorted(ks):
                diff = {}  # (e_i e_j) e_k - e_i (e_j e_k), in numerators over den^2
                for m, c in ij:
                    for p, w in prod.get((m, k), ()):
                        diff[p] = diff.get(p, 0) + c * w
                for m, c in prod.get((j, k), ()):
                    for p, w in prod.get((i, m), ()):
                        diff[p] = diff.get(p, 0) - c * w
                if any(diff.values()):
                    labels = (a.labels[i], a.labels[j], a.labels[k])
                    return f"associativity fails on ({', '.join(labels)})"
    return None


def truncated_polynomial(k: int) -> AssocAlgebra:
    """Q[t]/(t^(k+1)), basis 1, t, ..., t^k; products past degree k vanish."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = k + 1
    products = {(i, j): ((i + j, 1),) for i in range(n) for j in range(n - i)}
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    unit = tuple(_ONE if p == 0 else _ZERO for p in range(n))
    return AssocAlgebra._from_products(labels, 1, products, unit)


def direct_sum(a: AssocAlgebra, b: AssocAlgebra) -> AssocAlgebra:
    """Componentwise product algebra a (+) b; the unit is (1_a, 1_b)."""
    n, den = a.dim, lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    products = {key: tuple((k, fa * v) for k, v in terms) for key, terms in a.products.items()}
    for (i, j), terms in b.products.items():
        products[n + i, n + j] = tuple((n + k, fb * v) for k, v in terms)
    labels = [f"{lab}.L" for lab in a.labels] + [f"{lab}.R" for lab in b.labels]
    return AssocAlgebra._from_products(labels, den, products, a.unit + b.unit)


def derivations(a: AssocAlgebra) -> EndoSubspace:
    """All D with D(xy) = D(x)y + xD(y), as a subspace of End(A).

    Solved as the exact nullspace of the Leibniz conditions over basis
    pairs; D(1) = 0 follows automatically.
    """
    pairs = combinations_with_replacement(range(a.dim), 2)
    return _memoized(a, "derivations", lambda: _leibniz_space(a, pairs, derivation=True))


def jacobson_radical(a: AssocAlgebra) -> Subspace:
    """Radical via the trace form: v is radical iff tr(L_(v*x)) = 0 for all x.

    Over Q this is the Dickson criterion, so the nullspace of the Gram
    matrix G[i][j] = tr(L_(e_i e_j)) is exactly the Jacobson radical.
    """

    def compute():
        # G is read in numerators over den^2, which leaves its null space alone
        traces = {}  # traces[l] = den tr(L_(e_l)) = sum_p den c_lp^p
        for (l, p), terms in a.products.items():
            for k, c in terms:
                if k == p:
                    traces[l] = traces.get(l, 0) + c
        gram = {}  # row i of den^2 G, as {j: den^2 G[i][j]}
        for (i, j), terms in a.products.items():
            if x := sum(c * traces.get(l, 0) for l, c in terms):
                gram.setdefault(i, {})[j] = x
        return _nullspace_from_system(gram.values(), a.dim)

    return _memoized(a, "jacobson_radical", compute)


def _complement_coords(a: AssocAlgebra, j: Subspace):
    """Quotient A/J presented on the non-pivot coordinates of J's basis, and those."""
    n = a.dim
    pivot_set = set(j.pivots)
    cols = [col for col in range(n) if col not in pivot_set]
    pos = {col: idx for idx, col in enumerate(cols)}

    def project(den: int, w: dict) -> dict:
        # the vector w / den, w {index: nonzero int}, modulo J; the reduced
        # vector is zero on the pivots
        den *= j._reduce(w)[0]
        return {pos[col]: Q(x, den) for col, x in w.items()}

    # reduction is linear, so the numerators reduce to den times the
    # reduced constants
    entries = [
        (pos[ci], pos[cj], k, x)
        for (ci, cj), terms in a.products.items()
        if ci in pos and cj in pos
        for k, x in project(1, dict(terms)).items()
    ]
    den, products = _products(entries)
    unit = _dense(project(*_int_vector(a.unit, n)).items(), len(cols))
    labels = [a.labels[col] for col in cols]
    return AssocAlgebra._from_products(labels, den * a.den, products, unit), cols


def _minimal_polynomial(alg: AssocAlgebra, unit, x) -> list:
    """Monic minimal polynomial of x over the subalgebra with unit `unit`.

    Returns the coefficient list [c_0, ..., c_(s-1), 1] of smallest degree
    with sum(c_i x^i) + x^s = 0, powers taken relative to `unit`.  The
    powers are independent up to the first dependency, which dim + 1 of
    them must have, so that one is the null space of the matrix whose
    columns are the powers, scaled to end in 1.
    """
    powers = [tuple(unit)]
    while True:
        powers.append(alg.multiply(powers[-1], x))
        kernel = nullspace(ExactMatrix(powers).transpose())
        if kernel.dim:
            c = kernel.basis.rows[0]
            return [v / c[-1] for v in c]


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
    quotient, cols = _complement_coords(a, j)
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
        # the factor u * quotient is spanned by the u e_c, the columns of L_u
        dim = rank(quotient.left_mult_matrix(u))
        if dim != 1:
            raise NonSplitError(
                "non-split semisimple quotient: a simple factor has dimension %d"
                % dim
            )

    lifted = []
    for u in components:
        e = _dense(zip(cols, u), a.dim)
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
    # i - j + 1 stays in 1..n-1 for 1 <= j <= i, so no bounds check
    m = _from_entries(n, n, (((i, j), j * qv[i - j + 1]) for i in range(n) for j in range(1, i + 1)))
    if not derivations(a).contains(m):
        raise ValueError("rbar result is not a derivation of this algebra")
    return m

"""Commutative associative unital algebras over Q, given by structure constants.

An AssocAlgebra stores only its nonzero products, in the sparse form it
shares with LieAlgebra (linalg._Algebra), and every routine here reads
that form.  The module provides the coefficient algebras used on the
right-hand side of a current Lie algebra g (x) A: truncated polynomial
rings, their direct sums, and the structure theory needed later
(derivations, Jacobson radical, the Wedderburn-Malcev complement,
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
    _left_mult,
    _leibniz_space,
    _memoized,
    _nullspace_from_system,
    nullspace,
    rat,
)

_ZERO = Q(0)
_ONE = Q(1)


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


def _minimal_polynomial(a: AssocAlgebra, x, modulus: Subspace) -> list:
    """Monic polynomial q of least degree with q(x) in the ideal `modulus`.

    Returns the coefficient list [c_0, ..., c_(s-1), 1] of smallest degree
    with sum(c_i x^i) + x^s in `modulus`; the zero subspace gives the
    minimal polynomial of x.  The powers of x modulo `modulus` are
    independent up to the first dependency, which dim + 1 of them must
    have, so that one is the null space of the matrix whose columns are
    the reduced powers, scaled to end in 1.
    """
    power = a.unit
    reduced = [modulus.reduce(power)]
    while True:
        power = a.multiply(power, x)
        reduced.append(modulus.reduce(power))
        kernel = nullspace(ExactMatrix(reduced).transpose())
        if kernel.dim:
            c = kernel.basis.rows[0]
            return [v / c[-1] for v in c]


def _evaluate(a: AssocAlgebra, poly: list, x) -> tuple:
    # poly(x) in a by Horner's rule, poly's coefficients from the constant up
    acc = tuple(poly[-1] * u for u in a.unit)
    for c in reversed(poly[:-1]):
        acc = tuple(v + c * u for v, u in zip(a.multiply(acc, x), a.unit))
    return acc


def wedderburn_complement(a: AssocAlgebra) -> Subspace:
    """The subalgebra S with S (+) J = A: the semisimple parts of A's elements.

    A is commutative over a field of characteristic 0, so S is unique: it
    is the set of the x_s of the additive Jordan-Chevalley decompositions
    x = x_s + x_n, S is isomorphic to A/J, and it exists whether or not
    A/J splits over Q.  S is spanned by the x_s of the basis vectors e_c
    off J's pivots, which span A modulo J.  For each, q, the monic least
    polynomial with q(e_c) in J, is squarefree, so q'(y) is a unit
    whenever q(y) is in J.  Newton's iteration y <- y - q(y) q'(y)^(-1)
    from y = e_c then stays in e_c + J, and each step moves q(y) from J^m
    into J^(2m), until q(y) = 0 and y = (e_c)_s (Couty, Esterle and
    Zarouf, Gazette des Mathematiciens 129, 2011).  q'(y) h = q(y) is
    solved as the null space of [L_(q'(y)) | q(y)].
    """
    j = jacobson_radical(a)
    pivots = set(j.pivots)
    parts = []
    for c in range(a.dim):
        if c in pivots:
            continue
        y = _dense([(c, _ONE)], a.dim)
        q = _minimal_polynomial(a, y, j)
        dq = [i * v for i, v in enumerate(q)][1:]
        # J^(dim + 1) = 0, so q(y) = 0 after bit_length(dim) steps
        for _ in range(a.dim.bit_length() + 1):
            qy = _evaluate(a, q, y)
            if not any(qy):
                break
            m = a.left_mult_matrix(_evaluate(a, dq, y))
            kernel = nullspace(ExactMatrix([row + (v,) for row, v in zip(m.rows, qy)]))
            if kernel.dim != 1 or not (h := kernel.basis.rows[0])[-1]:
                raise RuntimeError("q'(y) is not a unit in Newton's iteration")
            # the kernel row (h', t) has q'(y) (-h'/t) = q(y)
            y = tuple(v + w / h[-1] for v, w in zip(y, h))
        else:
            raise RuntimeError("Newton's iteration for the semisimple parts did not converge")
        parts.append(y)
    return Subspace.from_vectors(parts, a.dim)


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

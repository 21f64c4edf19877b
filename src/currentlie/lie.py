"""Finite-dimensional Lie algebras over Q given by structure constants.

A LieAlgebra stores only its nonzero brackets, in the sparse form it
shares with AssocAlgebra (linalg._Algebra), and every routine here reads
that form: center, derived and lower central series, derivations,
centroid, the maps g/[g,g] -> z(g), Killing form and solvable radical,
plus the two concrete families used throughout (Heisenberg algebras and
symplectic algebras with their matrix realization).
"""

from __future__ import annotations

from itertools import combinations, product
from math import lcm
from typing import Sequence

from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    Subspace,
    _Algebra,
    _from_accumulators,
    _from_entries,
    _kron_space,
    _left_mult,
    _leibniz_space,
    _memoized,
    _nullspace_from_system,
    _products,
    _rref_ints,
    commutator,
    nullspace,
    rank,
    rat,
    rat_str,
)

_ZERO = Q(0)
_ONE = Q(1)


class LieAlgebra(_Algebra):
    """Structure-constant presentation of a Lie algebra.

    products[(i, j)] lists the nonzero coordinates of [e_i, e_j], as
    numerators over den, for both orders of each pair.
    LieAlgebra(labels, table) takes the dense table, table[i][j] the
    coordinate vector of [e_i, e_j].  matrix_basis optionally records a
    faithful matrix realization (used by the symplectic constructor).
    """

    bracket = _Algebra._product

    def _init(self, labels: tuple, den: int, products: dict, matrix_basis=None) -> None:
        super()._init(labels, den, products)
        self.matrix_basis = tuple(matrix_basis) if matrix_basis is not None else None

    @classmethod
    def from_bracket_entries(cls, labels, entries, matrix_basis=None) -> "LieAlgebra":
        """Build from sparse entries (i, j, k, coeff) with i < j.

        Repeated (i, j, k) entries add up; the j > i half of the table is
        filled in by antisymmetry.
        """
        n = len(labels)
        both = []
        for i, j, k, coeff in entries:
            if not 0 <= i < j < n:
                raise ValueError(f"bracket entry ({i},{j}) is not upper triangular")
            if not 0 <= k < n:
                raise ValueError("bracket target index out of range")
            v = rat(coeff)
            both += ((i, j, k, v), (j, i, k, -v))
        return cls._from_products(labels, *_products(both), matrix_basis)

    def basis_vector(self, i: int) -> tuple:
        return tuple(_ONE if t == i else _ZERO for t in range(self.dim))

    def ad(self, x: Sequence) -> ExactMatrix:
        """Matrix of ad_x = [x, -] in the chosen basis."""
        return _left_mult(self, x)

    def check_lie_axioms(self) -> bool:
        """Antisymmetry (including [x,x] = 0) and Jacobi on all basis triples."""
        return first_lie_violation(self) is None

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


def first_lie_violation(g: LieAlgebra):
    """Name the first failed Lie axiom instance, or None if all hold.

    [e_i,e_i] = 0 and antisymmetry are checked first, for i in order and
    then j > i; then Jacobi on the triples i < j < k in lexicographic
    order.  A triple's cyclic sum [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] +
    [e_k,[e_i,e_j]] is nonzero only if some term [e_x, c_yz^m e_m] is,
    so only the triples reached that way from a nonzero bracket are
    evaluated; all others are zero.
    """
    # the checks run on the numerators v = den * c_ij^k; a cyclic sum of
    # products of two constants is then scaled by den^2
    prod, den = g.products, g.den
    for i, j in sorted({(min(key), max(key)) for key in prod}):
        if i == j:
            return f"[{g.labels[i]},{g.labels[i]}] = {_combo(g, prod[i, i], den)} != 0"
        ij, ji = prod.get((i, j), ()), prod.get((j, i), ())
        if ij != tuple((k, -v) for k, v in ji):
            bad = dict(ij)
            for k, v in ji:
                bad[k] = bad.get(k, 0) + v
            return (
                f"antisymmetry fails: [{g.labels[i]},{g.labels[j]}]"
                f" + [{g.labels[j]},{g.labels[i]}] = {_combo(g, sorted(bad.items()), den)}"
            )
    # partners[m]: the x with [e_x, e_m] != 0
    partners = [[] for _ in range(g.dim)]
    for x, m in prod:
        partners[m].append(x)
    triples = set()
    for (y, z), terms in prod.items():
        if y < z:
            for m, _ in terms:
                for x in partners[m]:
                    if x != y and x != z:
                        triples.add(tuple(sorted((x, y, z))))
    for i, j, k in sorted(triples):
        total = {}
        for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in prod.get((b, cc), ()):
                for p, w in prod.get((a, m), ()):
                    total[p] = total.get(p, 0) + v * w
        if any(total.values()):
            labels = (g.labels[i], g.labels[j], g.labels[k])
            cyclic = _combo(g, sorted(total.items()), den * den)
            return f"Jacobi fails on ({', '.join(labels)}): cyclic sum = {cyclic}"
    return None


def _combo(g: LieAlgebra, terms, den: int) -> str:
    # terms: (index, integer numerator over den) pairs in increasing index
    out = [f"{rat_str(Q(v, den))}*{g.labels[p]}" for p, v in terms if v]
    return " + ".join(out) if out else "0"


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, g] = 0}, the kernel of x -> ad_x."""

    def compute():
        rows = {}  # (j, p): coordinate p of [x, e_j] as a linear form in x
        for (i, j), terms in g.products.items():
            for p, v in terms:
                rows.setdefault((j, p), {})[i] = v
        return _nullspace_from_system(rows.values(), g.dim)

    return _memoized(g, "center", compute)


def _bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of the brackets of the basis rows of a with those of b.

    The brackets are taken on the integer rows through the nonzero
    structure constants; scaling a row leaves the span alone.
    """
    rows = [g._times(u, v) for _, u in a._rows for _, v in b._rows]
    return Subspace._from_rref(g.dim, _rref_ints(rows))


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    def compute():
        full = Subspace.full_space(g.dim)
        return _bracket_span(g, full, full)

    return _memoized(g, "derived", compute)


def derived_series(g: LieAlgebra) -> list[Subspace]:
    """Strictly decreasing chain g, [g,g], [[g,g],[g,g]], ..."""
    return _series(g, lambda series: series[-1])


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """Strictly decreasing chain g, [g,g], [g,[g,g]], ..."""
    return _series(g, lambda series: series[0])


def _series(g: LieAlgebra, left) -> list[Subspace]:
    # g, [g,g] (memoized), then [left(series), last term] while the dimension drops
    series, nxt = [Subspace.full_space(g.dim)], derived_subalgebra(g)
    while nxt.dim < series[-1].dim:
        series.append(nxt)
        nxt = _bracket_span(g, left(series), nxt)
    return series


def is_solvable(g: LieAlgebra) -> bool:
    return derived_series(g)[-1].dim == 0


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].dim == 0


def derivations(g: LieAlgebra) -> EndoSubspace:
    """All D with D[x,y] = [Dx,y] + [x,Dy], as the exact Leibniz nullspace."""
    pairs = combinations(range(g.dim), 2)
    return _memoized(g, "derivations", lambda: _leibniz_space(g, pairs, derivation=True))


def centroid(g: LieAlgebra) -> EndoSubspace:
    """All T commuting with every adjoint operator: T[x,y] = [x,Ty]."""
    pairs = product(range(g.dim), repeat=2)
    return _memoized(g, "centroid", lambda: _leibniz_space(g, pairs, derivation=False))


def hom_quotient_to_center(g: LieAlgebra) -> EndoSubspace:
    """Maps vanishing on [g,g] with image inside z(g): z(g) (x) ann([g,g]).

    _kron_space reads it off z(g)'s RREF rows as n x 1 matrices and the
    RREF rows of the annihilator of [g,g] as 1 x n matrices, with no
    elimination in n*n unknowns.
    """

    def compute():
        n, z, ann = g.dim, center(g)._rows, nullspace(derived_subalgebra(g).basis)._rows
        zs = [ExactMatrix._from_ints(n, 1, d, {j: [(0, v)] for j, v in row}) for d, row in z]
        return _kron_space(zs, [ExactMatrix._from_ints(1, n, d, {0: row}) for d, row in ann], n)

    return _memoized(g, "hom0", compute)


def killing_form(g: LieAlgebra) -> ExactMatrix:
    """Gram matrix K[i][j] = tr(ad_i ad_j)."""

    def compute():
        # tr(ad_i ad_j) = sum_{p,k} c_ik^p c_jp^k, a sum of numerators over
        # den^2; ending[p, k]: the (j, v) with c_jp^k = v / den
        ending = {}
        for (j, p), terms in g.products.items():
            for k, w in terms:
                ending.setdefault((p, k), []).append((j, w))
        acc = {}  # acc[i][j]: den^2 K[i][j]
        for (i, k), terms in g.products.items():
            row = acc.setdefault(i, {})
            for p, v in terms:
                for j, w in ending.get((p, k), ()):
                    row[j] = row.get(j, 0) + v * w
        return _from_accumulators(g.dim, g.dim, g.den**2, acc)

    return _memoized(g, "killing", compute)


def solvable_radical(g: LieAlgebra) -> Subspace:
    """Cartan's criterion: x is radical iff K(x, [g,g]) = 0."""
    # K is symmetric, so that is (D K) x = 0 for the basis rows D of [g,g]
    return nullspace(derived_subalgebra(g).basis * killing_form(g))


def is_semisimple(g: LieAlgebra) -> bool:
    # the zero algebra counts: its 0 x 0 Killing form has rank 0
    return rank(killing_form(g)) == g.dim


def is_subalgebra_closed(g: LieAlgebra, space: Subspace) -> bool:
    # g may also be commutative: either way u v = +-v u, so the basis pairs
    # u <= v suffice, squares included
    basis = [row for _, row in space._rows]
    return all(
        space._coordinates(g._times(u, v)) is not None
        for i, u in enumerate(basis)
        for v in basis[i:]
    )


def is_ideal(g: LieAlgebra, space: Subspace) -> bool:
    return all(
        space._coordinates(g._times([(i, 1)], v)) is not None
        for i in range(g.dim)
        for _, v in space._rows
    )


def subalgebra(g: LieAlgebra, space: Subspace, labels=None) -> LieAlgebra:
    """Induced Lie algebra on the RREF basis of a bracket-closed subspace."""
    rows = space._rows
    if labels is None:
        labels = [f"u{i}" for i in range(len(rows))]
    return _lie_from_brackets(labels, lambda i, j: (
        g.den * rows[i][0] * rows[j][0], space._coordinates(g._times(rows[i][1], rows[j][1]))))


def lie_from_endo_span(endo: EndoSubspace, labels=None) -> LieAlgebra:
    """Lie algebra structure on a commutator-closed space of matrices."""
    mats = endo.basis_matrices()
    if labels is None:
        labels = [f"m{i}" for i in range(len(mats))]

    def coordinates(i, j):
        bracket = commutator(mats[i], mats[j])
        return bracket._den, endo._coordinates(bracket)

    return _lie_from_brackets(labels, coordinates, mats)


def _lie_from_brackets(labels, coordinates, matrix_basis=None) -> LieAlgebra:
    """The Lie algebra on a bracket-closed basis b_0, ..., b_(d-1), d = len(labels).

    coordinates(i, j) gives [b_i, b_j] as (den, pairs): pairs lists the
    nonzero coordinates c / den of the bracket over the basis as (k, c)
    pairs with c an int, or is None if the bracket lies outside its span.
    """
    brackets = []
    for i, j in combinations(range(len(labels)), 2):
        den, coords = coordinates(i, j)
        if coords is None:
            raise ValueError("basis is not closed under the bracket")
        if coords:
            brackets.append((i, j, den, coords))
    den = lcm(*(b for _, _, b, _ in brackets))
    entries = [(i, j, k, c * (den // b)) for i, j, b, coords in brackets for k, c in coords]
    entries += [(j, i, k, -c) for i, j, k, c in entries]
    return LieAlgebra._from_products(labels, den, _products(entries)[1], matrix_basis)


def heisenberg(m: int) -> LieAlgebra:
    """The Heisenberg algebra h_m: [e_i, f_i] = z, all else zero."""
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = (
        [f"e{i + 1}" for i in range(m)]
        + [f"f{i + 1}" for i in range(m)]
        + ["z"]
    )
    entries = [(i, m + i, 2 * m, _ONE) for i in range(m)]
    return LieAlgebra.from_bracket_entries(labels, entries)


def sp(m: int) -> LieAlgebra:
    """The symplectic algebra sp_2m of the form [[0, I], [-I, 0]].

    Basis matrices are the blocks [[X1, X2], [X3, -X1^T]] with X2 and X3
    symmetric; structure constants come from the matrix commutators, and
    the realization is kept on the result.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m
    # (label, {(row, column): entry}); the two keys of b_ii or of c_ii are one
    basis = [(f"a{i + 1}{j + 1}", {(i, j): 1, (m + j, m + i): -1})
             for i in range(m) for j in range(m)]
    for name, r0, c0 in (("b", 0, m), ("c", m, 0)):
        basis += [
            (f"{name}{i + 1}{j + 1}", {(r0 + i, c0 + j): 1, (r0 + j, c0 + i): 1})
            for i in range(m)
            for j in range(i, m)
        ]
    labels = [label for label, _ in basis]
    mats = [_from_entries(n, n, sorted(entries.items())) for _, entries in basis]

    # each basis matrix is 1 at its first entry, where the others are 0, so
    # the basis matrices are the RREF rows of their span in another order
    endo = EndoSubspace.from_matrices(mats, n)
    label_at = {min(x._flat_ints()): k for k, x in enumerate(mats)}
    label_of_row = [label_at[p] for p in endo.space.pivots]

    def coordinates(i, j):
        bracket = mats[i] * mats[j] - mats[j] * mats[i]
        coords = endo._coordinates(bracket)
        return bracket._den, None if coords is None else [(label_of_row[r], c) for r, c in coords]

    return _lie_from_brackets(labels, coordinates, mats)

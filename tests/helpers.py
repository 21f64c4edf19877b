"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from currentlie.assoc import AssocAlgebra, direct_sum, truncated_polynomial
from currentlie.lie import (
    LieAlgebra,
    center,
    derived_subalgebra,
    heisenberg,
    lie_from_endo_span,
    sp,
)
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Subspace,
    _nullspace_from_system,
    commutator,
    kron,
    nullspace,
)


def rand_frac(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_matrix(rng: random.Random, nrows: int, ncols: int) -> ExactMatrix:
    return ExactMatrix(
        [[rand_frac(rng) for _ in range(ncols)] for _ in range(nrows)]
    )


def store_is_canonical(m: ExactMatrix) -> bool:
    """Whether m holds its one stored form: a positive int den and, for the
    nonempty rows only, in increasing order, lists of (column, nonzero int)
    pairs by increasing column, with no factor common to den and them all."""
    den, nz = m._int_rows()
    values = [v for row in nz.values() for _, v in row]
    return (
        type(den) is int and den > 0 and math.gcd(den, *values) == 1
        and list(nz) == sorted(nz) and all(type(i) is int and 0 <= i < m.nrows for i in nz)
        and all(type(row) is list and row for row in nz.values())
        and all(type(v) is int and v for v in values)
        and all(
            [c for c, _ in row] == sorted({c for c, _ in row})
            and all(type(c) is int and 0 <= c < m.ncols for c, _ in row)
            for row in nz.values()
        )
    )


def int_rows(rows) -> list:
    """Each sparse {column: int or Fraction} row times the lcm of its
    denominators: the integer rows the eliminator takes, spanning the same
    rows one by one."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row.values()))
        out.append({c: int(x * den) for c, x in row.items()})
    return out


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
    return ExactMatrix(rows) if rows else ExactMatrix.zero(0, b.ncols)


def reference_kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product entry by entry from its definition."""
    p, q = b.nrows, b.ncols
    rows = [
        [a[i // p, j // q] * b[i % p, j % q] for j in range(a.ncols * q)]
        for i in range(a.nrows * p)
    ]
    return ExactMatrix(rows) if rows else ExactMatrix.zero(0, a.ncols * q)


def polynomial_quotient(f: list) -> AssocAlgebra:
    """Q[x]/(f) on the basis 1, x, ..., x^(d-1), for f monic of degree d >= 1.

    f lists its coefficients from the constant term up.  Each x^k is
    reduced by subtracting multiples of x^(top - d) f, top first.
    """
    d = len(f) - 1

    def power(k):
        v = [Fraction(int(i == k)) for i in range(max(k + 1, d))]
        for top in range(k, d - 1, -1):
            c = v[top]
            for i, fi in enumerate(f):
                v[top - d + i] -= c * fi
        return v[:d]

    labels = ["1", "x"] + [f"x^{i}" for i in range(2, d)]
    return AssocAlgebra(labels[:d], [[power(i + j) for j in range(d)] for i in range(d)], power(0))


# -- the dense derivation template of h_m (x) A_k, as it was first written ---
#
# Independent oracle for heisenberg.DerivationTemplate: builds dense
# Toeplitz blocks and compares whole blocks, where the library works on
# a sparse layout of the parameter positions.


def _toeplitz(width: int, params) -> ExactMatrix:
    # lower triangular Toeplitz: entry (r, c) = params[r - c]
    return ExactMatrix(
        [[params[r - c] if r >= c else Fraction(0) for c in range(width)] for r in range(width)]
    )


def _rbar_block(width: int, qparams) -> ExactMatrix:
    # qparams[r] for r in 1..width-1; entry (r, c) = c * q_(r-c+1), column 0 zero
    rows = []
    for r in range(width):
        row = []
        for c in range(width):
            if 1 <= c <= r:
                row.append(c * qparams[r - c + 1])
            else:
                row.append(Fraction(0))
        rows.append(row)
    return ExactMatrix(rows)


def reference_matrix(tpl, assignment) -> ExactMatrix:
    """The template matrix of tpl for a {key: value} assignment."""
    from currentlie.linalg import rat

    m, kk, w = tpl.m, tpl.k, tpl.width
    n = tpl.dim
    bd = tpl.block_dim

    def get(key):
        return rat(assignment.get(key, 0))

    rows = [[Fraction(0)] * n for _ in range(n)]

    def put(mat, r0, c0, sign=1):
        for r in range(mat.nrows):
            mrow = mat.rows[r]
            for c in range(mat.ncols):
                if mrow[c]:
                    rows[r0 + r][c0 + c] += sign * mrow[c]

    p = [get(("p", r)) for r in range(kk + 1)]
    q = [Fraction(0)] + [get(("q", r)) for r in range(1, kk + 1)]
    rp = _toeplitz(w, p)
    rq = _rbar_block(w, q)
    diag = rp + rq

    for i in range(m):
        for j in range(m):
            a1 = _toeplitz(w, [get(("A1", i, j, r)) for r in range(kk + 1)])
            put(a1, i * w, j * w)
            # f-f grid is minus the transposed e-e grid
            put(_toeplitz(w, [get(("A1", j, i, r)) for r in range(kk + 1)]),
                bd + i * w, bd + j * w, sign=-1)
        put(diag, i * w, i * w)
        put(diag, bd + i * w, bd + i * w)
    for i in range(m):
        for j in range(i, m):
            a2 = _toeplitz(w, [get(("A2", i, j, r)) for r in range(kk + 1)])
            put(a2, i * w, bd + j * w)
            if i != j:
                put(a2, j * w, bd + i * w)
            a4 = _toeplitz(w, [get(("A4", i, j, r)) for r in range(kk + 1)])
            put(a4, bd + i * w, j * w)
            if i != j:
                put(a4, bd + j * w, i * w)
    corner = 2 * rp + rq
    put(corner, 2 * bd, 2 * bd)
    for r in range(kk + 1):
        for c in range(2 * bd):
            v = get(("strip", r, c))
            if v:
                rows[2 * bd + r][c] += v
    return ExactMatrix(rows)


def reference_match(tpl, mat: ExactMatrix):
    """Fit mat against tpl block by block, or name the first bad block."""
    from currentlie.heisenberg import TemplateMatch, TemplateMismatch

    m, kk, w = tpl.m, tpl.k, tpl.width
    n = tpl.dim
    bd = tpl.block_dim
    if mat.shape != (n, n):
        return TemplateMismatch("shape", f"expected {n} x {n}")

    # (a) the z column must vanish above the strip
    for r in range(2 * bd):
        for c in range(2 * bd, n):
            if mat[r, c]:
                return TemplateMismatch(
                    "z-column", "entries above the bottom strip must vanish"
                )

    params: dict = {}

    # (b) corner = 2 R(p) + Rbar(q); Rbar has zero first column
    corner = mat.block(2 * bd, n, 2 * bd, n)
    p = [corner[r, 0] / 2 for r in range(w)]
    rp = _toeplitz(w, p)
    residue = corner - 2 * rp
    q = [Fraction(0)] + [residue[r, 1] for r in range(1, w)]
    if residue != _rbar_block(w, q):
        return TemplateMismatch("z-corner", "corner is not 2 R(p) + Rbar(q)")
    for r in range(w):
        params[("p", r)] = p[r]
    for r in range(1, w):
        params[("q", r)] = q[r]
    diag = rp + _rbar_block(w, q)

    def toeplitz_params(block, name):
        first = [block[r, 0] for r in range(w)]
        if block != _toeplitz(w, first):
            return None
        return first

    # (c) e-e grid: A1 blocks after removing the diagonal contribution
    for i in range(m):
        for j in range(m):
            block = mat.block(i * w, (i + 1) * w, j * w, (j + 1) * w)
            if i == j:
                block = block - diag
            first = toeplitz_params(block, "A1")
            if first is None:
                return TemplateMismatch(
                    f"e-e block ({i},{j})", "not lower triangular Toeplitz"
                )
            for r in range(w):
                params[("A1", i, j, r)] = first[r]

    # (d) f-f grid must mirror the e-e grid
    for i in range(m):
        for j in range(m):
            block = mat.block(bd + i * w, bd + (i + 1) * w, bd + j * w, bd + (j + 1) * w)
            expected = -_toeplitz(w, [params[("A1", j, i, r)] for r in range(w)])
            if i == j:
                expected = expected + diag
            if block != expected:
                return TemplateMismatch(
                    f"f-f block ({i},{j})", "does not equal diag - transposed e-e grid"
                )

    # (e) the two off-diagonal grids: Toeplitz and grid-symmetric
    for name, r0, c0 in (("A2", 0, bd), ("A4", bd, 0)):
        for i in range(m):
            for j in range(m):
                block = mat.block(
                    r0 + i * w, r0 + (i + 1) * w, c0 + j * w, c0 + (j + 1) * w
                )
                first = toeplitz_params(block, name)
                if first is None:
                    return TemplateMismatch(
                        f"{'e-f' if name == 'A2' else 'f-e'} block ({i},{j})",
                        "not lower triangular Toeplitz",
                    )
                if j < i:
                    prior = [params[(name, j, i, r)] for r in range(w)]
                    if first != prior:
                        return TemplateMismatch(
                            f"{'e-f' if name == 'A2' else 'f-e'} grid",
                            f"block ({i},{j}) is not symmetric to ({j},{i})",
                        )
                else:
                    for r in range(w):
                        params[(name, i, j, r)] = first[r]

    # (f) bottom strip is free
    for r in range(w):
        for c in range(2 * bd):
            params[("strip", r, c)] = mat[2 * bd + r, c]
    return TemplateMatch(params=params)


def nonassociative_current(g):
    """g (x) A for the commutative, non-associative A with basis 1, x, y,
    x x = y, x y = x and y y = 0, built from the dense tables of g and A.

    current_algebra refuses this A, so this is the way to reach the
    failure path of the bracket-table certificate.
    """
    from currentlie.assoc import AssocAlgebra
    from currentlie.current import CurrentAlgebra
    from currentlie.lie import LieAlgebra

    a = AssocAlgebra(
        ["1", "x", "y"],
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
        ],
        [1, 0, 0],
    )
    gs, s = g.structure, a.structure
    # [x_i1 (x) a_j1, x_i2 (x) a_j2] = [x_i1, x_i2] (x) a_j1 a_j2, x_i (x) a_j at i*3 + j
    table = [
        [[c * d for c in gs[i1][i2] for d in s[j1][j2]] for i2 in range(g.dim) for j2 in range(3)]
        for i1 in range(g.dim)
        for j1 in range(3)
    ]
    labels = [f"{x}*{y}" for x in g.labels for y in a.labels]
    return CurrentAlgebra(g, a, LieAlgebra(labels, table))


def sl2_ltimes_q2():
    """sl_2 x| Q^2, on h, e, f and the standard module v1, v2."""
    return LieAlgebra.from_bracket_entries(
        ["h", "e", "f", "v1", "v2"],
        [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1), (0, 3, 3, 1), (0, 4, 4, -1), (1, 4, 3, 1),
         (2, 3, 4, 1)],
    )


def heisenberg_der_blocks(m: int) -> tuple[EndoSubspace, EndoSubspace]:
    """The closed-form Levi split of der(h_m): the symplectic block and aI + strip.

    s is sp_2m acting on the e and f coordinates, with a zero z row and
    column; r is spanned by the scaling diag(1, ..., 1, 2) and the strip
    units E_(z, c).  A reference for currentlie.current.levi_split.
    """
    n = 2 * m + 1
    s_mats = [ExactMatrix._from_ints(n, n, *d._int_rows()) for d in sp(m).matrix_basis]
    r_mats = [ExactMatrix._from_ints(n, n, 1, {i: [(i, 1 + i // (2 * m))] for i in range(n)})]
    r_mats += [ExactMatrix._from_ints(n, n, 1, {2 * m: [(c, 1)]}) for c in range(2 * m)]
    return EndoSubspace.from_matrices(s_mats, n), EndoSubspace.from_matrices(r_mats, n)



def rebased(alg, seed: int, spread: int = 3):
    """alg in the basis f_i = sum_j P[i][j] e_j, for a seeded dense integer P.

    P's entries are drawn from [-spread, spread] until P is invertible.  A
    product, and the unit of an assoc algebra, is read in the f basis
    through Q = P^-1 (e_m = sum_r Q[m][r] f_r), so that most constants are
    nonzero, and many are fractions.  The labels are kept.
    """
    rng = random.Random(seed)
    n = alg.dim
    while True:
        p = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        p_i = [p[i] + [int(i == j) for j in range(n)] for i in range(n)]  # [P | I]
        ext = reference_rref(ExactMatrix(p_i))
        if all(ext[i, i] == 1 for i in range(n)):  # the left block is I, so P is invertible
            break
    q = [[ext[m, n + r] for r in range(n)] for m in range(n)]

    def in_f(v):
        return [sum(v[m] * q[m][r] for m in range(n)) for r in range(n)]

    if isinstance(alg, AssocAlgebra):
        table = [[in_f(alg.multiply(u, v)) for v in p] for u in p]
        return AssocAlgebra(alg.labels, table, in_f(alg.unit))
    return LieAlgebra(alg.labels, [[in_f(alg.bracket(u, v)) for v in p] for u in p])


def corpus_lie() -> dict:
    """Small Lie algebras of every kind the derivation formulas distinguish.

    Central and not (h_1 (+) Q, sl_2 (+) Q), solvable and not nilpotent
    (r_2), abelian (Q^2), neither solvable nor semisimple (sl_2 x| Q^2),
    nilpotent of class 3 (the filiform n_4), Heisenberg and simple.
    """
    sl2 = [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]
    return {
        "h_1 (+) Q": LieAlgebra.from_bracket_entries(["e", "f", "z", "c"], [(0, 1, 2, 1)]),
        "r_2": LieAlgebra.from_bracket_entries(["x", "y"], [(0, 1, 1, 1)]),
        "Q^2": LieAlgebra.from_bracket_entries(["x", "y"], []),
        "sl_2 (+) Q": LieAlgebra.from_bracket_entries(["h", "e", "f", "c"], sl2),
        "sl_2 x| Q^2": sl2_ltimes_q2(),
        "n_4": LieAlgebra.from_bracket_entries(
            ["e1", "e2", "e3", "e4"], [(0, 1, 2, 1), (0, 2, 3, 1)]),
        "h_2": heisenberg(2),
        "sp(1)": sp(1),
    }


def corpus_assoc() -> dict:
    """Local and split, reduced and not: Q[t]/(t^2), Q (+) Q, Q[t]/(t^3), Q (+) Q[t]/(t^2)."""
    return {
        "Q[t]/(t^2)": truncated_polynomial(1),
        "Q (+) Q": direct_sum(truncated_polynomial(0), truncated_polynomial(0)),
        "Q[t]/(t^3)": truncated_polynomial(2),
        "Q (+) Q[t]/(t^2)": direct_sum(truncated_polynomial(0), truncated_polynomial(1)),
    }


def matrix_closure_lie(mats: list, label: str = "m") -> LieAlgebra:
    """The Lie algebra of the smallest commutator-closed span of square matrices."""
    n = mats[0].nrows
    span = EndoSubspace.from_matrices(mats, n)
    while True:
        basis = span.basis_matrices()
        brackets = [commutator(x, y) for i, x in enumerate(basis) for y in basis[i + 1:]]
        grown = EndoSubspace.from_matrices(list(basis) + brackets, n)
        if grown.dim == span.dim:
            return lie_from_endo_span(span, [f"{label}{i}" for i in range(span.dim)])
        span = grown


# -- the Kronecker spans as first written: every product eliminated ----------
#
# References for linalg._kron_space and its callers, which read the span
# of the products of two RREF bases off the products themselves.


def reference_kron_span(factors, n: int) -> EndoSubspace:
    """The span of kron(x, y) over x in xs and y in ys, for each (xs, ys) in factors."""
    return EndoSubspace.from_matrices([kron(x, y) for xs, ys in factors for x in xs for y in ys], n)


def reference_hom0(g: LieAlgebra) -> EndoSubspace:
    """Hom(g/[g,g], z(g)) as the null space of its two linear conditions in dim(g)^2 unknowns.

    T d = 0 for the rows d of [g,g], and N T e_j = 0 where the rows of N
    cut out z(g): over Q the dot form is anisotropic, so the double
    orthogonal complement recovers z(g) exactly.
    """
    n = g.dim
    rows = [{p * n + k: x for k, x in d} for _, d in derived_subalgebra(g)._rows for p in range(n)]
    rows += [{p * n + j: x for p, x in nu} for _, nu in nullspace(center(g).basis)._rows
             for j in range(n)]
    return EndoSubspace(n, _nullspace_from_system(rows, n * n))


def _left_mults(a, space) -> list:
    # L_u for the basis rows u of a subspace of A
    return [a.left_mult_matrix(u) for u in space.basis.rows]


def _kron_factors(ca) -> dict:
    # the first and the second factors of the h, w and k families
    na = ca.a.dim
    units = [ExactMatrix._from_ints(na, na, 1, {p: [(q, 1)]}) for p in range(na) for q in range(na)]
    return {
        "h": (ca.der_g().basis_matrices(), _left_mults(ca.a, Subspace.full_space(na))),
        "w": (ca.centroid_g().basis_matrices(), ca.der_a().basis_matrices()),
        "k": (reference_hom0(ca.g).basis_matrices(), units),
    }


def reference_summands(ca) -> dict:
    """summand_h, _w and _k of g (x) A, each by eliminating all its Kronecker products."""
    return {name: reference_kron_span([pair], ca.dim) for name, pair in _kron_factors(ca).items()}


def reference_candidates(ca, s, r, big_s, big_j) -> tuple:
    """(radical, Levi) candidates of g (x) A, each by eliminating all its Kronecker products.

    The radical is spanned by s (x) L(J), r (x) L(A), w and k together,
    the Levi candidate by s (x) L(S).
    """
    families = _kron_factors(ca)
    radical = reference_kron_span([
        (s.basis_matrices(), _left_mults(ca.a, big_j)),
        (r.basis_matrices(), families["h"][1]), families["w"], families["k"]], ca.dim)
    return radical, reference_kron_span([(s.basis_matrices(), _left_mults(ca.a, big_s))], ca.dim)

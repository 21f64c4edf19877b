"""Exact linear algebra over the rationals.

Public functions take and return ints and fractions.Fractions, so ranks,
null spaces and subspace operations are exact certificates rather than
floating-point estimates.  Below them every store is integer numerators
over one positive denominator, and a Fraction is built only where a
caller reads an entry, a coordinate or a product.  An ExactMatrix keeps
a least common denominator and, for its nonempty rows only, the (column,
integer numerator) pairs of their nonzero entries; products, commutators,
Kronecker products, sums and scalar multiples walk those rows, accumulate
integer numerators over the product of the operands' denominators (1 for
integer matrices), and store the result the same way.
Linear systems are eliminated sparse and in integers: the one
fraction-free Gauss-Jordan routine, _rref_ints, takes integer rows only,
as {column: nonzero int} dicts, and eliminates by integer
cross-multiplication.  A null space numbers the unknowns in reverse,
solves its two-entry rows by a weighted union-find in integers, takes
that one elimination on the longer rows only, and reads its canonical
RREF basis straight off the integer rows.  A Subspace stores that basis
as primitive integer rows, reduces integer vectors against it and reads
integer coordinates.  The Kronecker products of two RREF bases, sorted
by pivot, are the RREF basis of their span (_kron_space).
Lie and associative algebras share one sparse store of structure
constants (_Algebra), in the same integer form: a least common
denominator and, per ordered pair of basis elements with a nonzero
product, the integer numerators of that product's nonzero coordinates.
Their axiom checks, one assembler for derivations and the centroid, and
every other reader use it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction

_ZERO = Q(0)

# A rational string: what rat_str writes, an integer or a fraction.  Fraction
# would also read decimals and exponents, and expanding "1e50000000" takes minutes
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat(value) -> Q:
    """Coerce an int, Fraction or "p/q" string to an exact rational.

    Floats are refused on purpose: binary floats smuggle rounding error
    into what is supposed to be certified arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a rational string: {value[:20]!r}")
        return Q(value)
    raise TypeError(f"refusing inexact scalar {value!r}")


def rat_str(value) -> str:
    """Serialize a rational as "p/q", or just "p" for integers."""
    return str(rat(value))


class ExactMatrix:
    """Immutable matrix with Fraction entries, stored sparse in integers.

    The one stored form is a positive least common denominator `_den`
    and `_nz`, which maps each nonempty row, in increasing order, to the
    list of (column, nonzero integer numerator) pairs of its entries, by
    column: entry (i, c) is v / _den.  The store is canonical, so == and
    hash read it as it is.  The dense `rows`, the Fraction pairs of
    `_fraction_rows` and the dict of `_nonzero_entries` are computed from
    it when read.
    """

    __slots__ = ("nrows", "ncols", "_den", "_nz")

    def __init__(self, rows: Iterable[Sequence]):
        rows = [[rat(x) for x in row] for row in rows]
        if not rows:
            raise ValueError("cannot infer width of an empty matrix; use ExactMatrix.zero")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        self.nrows = len(rows)
        self.ncols = width
        self._den, self._nz = _store(
            ((i, c), x) for i, row in enumerate(rows) for c, x in enumerate(row)
        )

    @classmethod
    def _from_ints(cls, nrows: int, ncols: int, den: int, nz: dict) -> "ExactMatrix":
        """The matrix whose entry (i, c) is v / den for (c, v) in nz[i].

        nz holds the nonempty rows only, in increasing order, each a list
        of (column, nonzero int) pairs by increasing column; rows and
        columns not listed are zero.  den is first cut down to the least
        common denominator of the entries, so that denominators do not
        grow along chains of products.
        """
        if den != 1:
            g = gcd(den, *(v for row in nz.values() for _, v in row))
            if g != 1:
                den //= g
                nz = {i: [(c, v // g) for c, v in row] for i, row in nz.items()}
        m = object.__new__(cls)
        m.nrows, m.ncols, m._den, m._nz = nrows, ncols, den, nz
        return m

    @property
    def rows(self) -> tuple:
        """The dense tuple of rows, computed on read."""
        zero = (_ZERO,) * self.ncols
        return tuple(_dense(row, self.ncols) if row else zero for row in self._fraction_rows())

    def _fraction_rows(self) -> list:
        """Per row, the (column, entry) pairs of its nonzero entries, by column."""
        den, nz = self._den, self._nz
        return [
            [(c, Q(v) if den == 1 else Q(v, den)) for c, v in nz[i]] if i in nz else []
            for i in range(self.nrows)
        ]

    def _int_rows(self) -> tuple:
        """The store as (den, nz): entry (i, c) is v / den for (c, v) in nz[i]."""
        return self._den, self._nz

    def _flat_ints(self) -> dict:
        """{row-major flat index: integer numerator over _den} over the nonzero entries."""
        n = self.ncols
        return {i * n + c: v for i, row in self._nz.items() for c, v in row}

    def _nonzero_entries(self) -> dict:
        """{(row, col): entry} over the nonzero entries."""
        return {(i, c): Q(v, self._den) for i, row in self._nz.items() for c, v in row}

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._from_ints(nrows, ncols, 1, {})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._from_ints(n, n, 1, {i: [(i, 1)] for i in range(n)})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __getitem__(self, ij):
        i, j = ij
        i, j = range(self.nrows)[i], range(self.ncols)[j]
        for c, v in self._nz.get(i, ()):
            if c == j:
                return Q(v, self._den)
        return _ZERO

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self._den == other._den
            and self._nz == other._nz
        )

    def __hash__(self):
        rows = tuple((i, tuple(row)) for i, row in self._nz.items())
        return hash((self.shape, self._den, rows))

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination(((1, self), (1, other)), self.nrows, self.ncols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return linear_combination(((1, self), (-1, other)), self.nrows, self.ncols)

    def __neg__(self) -> "ExactMatrix":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self.matmul(other)
        c = rat(other)
        p = c.numerator
        nz = {i: [(j, v * p) for j, v in row] for i, row in self._nz.items()} if p else {}
        return ExactMatrix._from_ints(self.nrows, self.ncols, self._den * c.denominator, nz)

    def __rmul__(self, other):
        return self.__mul__(other)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        acc = {}
        for i, row in self._nz.items():
            _accumulate(acc.setdefault(i, {}), row, other._nz, 1)
        return _from_accumulators(self.nrows, other.ncols, self._den * other._den, acc)

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        w, den, nz = [rat(x) for x in v], self._den, self._nz
        return tuple(
            sum((x * w[j] for j, x in nz[i]), _ZERO) / den if i in nz else _ZERO
            for i in range(self.nrows)
        )

    def transpose(self) -> "ExactMatrix":
        entries = sorted(((c, i), x) for (i, c), x in self._nonzero_entries().items())
        return _from_entries(self.ncols, self.nrows, entries)

    def is_zero(self) -> bool:
        return not self._nz

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        """Submatrix with half-open row range [r0,r1) and column range [c0,c1)."""
        out = {}
        for i in range(r0, r1):
            if part := [(c - c0, v) for c, v in self._nz.get(i, ()) if c0 <= c < c1]:
                out[i - r0] = part
        return ExactMatrix._from_ints(r1 - r0, c1 - c0, self._den, out)


def _store(entries: Iterable) -> tuple:
    """(den, nz) of ExactMatrix for ((row, column), int or Fraction) entries.

    The entries come in row-major order, one per position; zeros are
    dropped, and den is the least common denominator of the others.
    """
    ratios = [(pos, x.as_integer_ratio()) for pos, x in entries]
    den = lcm(*[q for _, (_, q) in ratios])
    nz = {}
    for (i, c), (p, q) in ratios:
        if p:
            v = p if q == den else p * (den // q)
            if i in nz:
                nz[i].append((c, v))
            else:
                nz[i] = [(c, v)]
    return den, nz


def _from_entries(nrows: int, ncols: int, entries: Iterable) -> ExactMatrix:
    """The nrows x ncols matrix of the entries, given as _store takes them."""
    return ExactMatrix._from_ints(nrows, ncols, *_store(entries))


def _from_accumulators(nrows: int, ncols: int, den: int, acc: dict) -> ExactMatrix:
    """The matrix with entry (i, c) = acc[i][c] / den, for {row: {column: int}} acc."""
    rows = ((i, [(c, v) for c, v in sorted(acc[i].items()) if v]) for i in sorted(acc))
    return ExactMatrix._from_ints(nrows, ncols, den, {i: row for i, row in rows if row})


def _accumulate(acc: dict, row, nz: dict, sign: int) -> None:
    # acc += sign * (row times the matrix with nonempty rows nz), in integers
    for j, x in row:
        other = nz.get(j)
        if other:
            x *= sign
            for c, y in other:
                acc[c] = acc.get(c, 0) + x * y


def linear_combination(terms: Iterable, nrows: int, ncols: int) -> ExactMatrix:
    """Sum of c * m over the (c, m) pairs, in one pass over the nonempty rows."""
    views = []
    for c, m in terms:
        if m.shape != (nrows, ncols):
            raise ValueError("shape mismatch")
        if c:
            views.append((rat(c), m._den, m._nz))
    den = lcm(*(c.denominator * d for c, d, _ in views))
    acc = {}
    for c, d, nz in views:
        f = c.numerator * (den // (c.denominator * d))
        for i, row in nz.items():
            out = acc.setdefault(i, {})
            for j, v in row:
                out[j] = out.get(j, 0) + f * v
    return _from_accumulators(nrows, ncols, den, acc)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """ab - ba, both products accumulated in one integer pass per nonempty row."""
    if a.shape != b.shape or a.nrows != a.ncols:
        raise ValueError("commutator needs two square matrices of one size")
    arows, brows = a._nz, b._nz
    acc = {}
    for i, row in arows.items():
        _accumulate(acc.setdefault(i, {}), row, brows, 1)
    for i, row in brows.items():
        _accumulate(acc.setdefault(i, {}), row, arows, -1)
    return _from_accumulators(a.nrows, a.ncols, a._den * b._den, acc)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; (i1*p+i2, j1*q+j2) entry is a[i1,j1]*b[i2,j2]."""
    p, q = b.nrows, b.ncols
    out = {
        i1 * p + i2: [(j1 * q + j2, x * y) for j1, x in ra for j2, y in rb]
        for i1, ra in a._nz.items()
        for i2, rb in b._nz.items()
    }
    return ExactMatrix._from_ints(a.nrows * p, a.ncols * q, a._den * b._den, out)


def _kron_space(xs: Sequence[ExactMatrix], ys: Sequence[ExactMatrix], n: int) -> "EndoSubspace":
    """The n x n span of kron(x, y) over x in xs and y in ys, with no elimination.

    xs and ys are RREF bases as basis_matrices() gives them: read row-major,
    each is a primitive integer row over its pivot entry, zero before its
    pivot and at the others' pivots.  kron(x, y) orders its entries (i1, j1),
    (i2, j2) by (i1, i2, j1, j2): it is zero before the pair of the pivots of
    x and y, where every other product is zero, and it is primitive.  So the
    products, by pivot, are the canonical RREF rows, with pivot entries d_x d_y.
    """
    # a store lists rows and columns in increasing order: a product's flat
    # indices come sorted, its pivot first
    rows = sorted(list(kron(x, y)._flat_ints().items()) for x in xs for y in ys)
    space = Subspace._from_rows(n * n, tuple(r[0][0] for r in rows), [(r[0][1], r) for r in rows])
    return EndoSubspace(n, space)


def _int_vector(v: Sequence, n: int) -> tuple[int, dict]:
    """(den, w) with v[j] = w[j] / den on v's support: ints over their lcd, for len(v) = n."""
    if len(v) != n:
        raise ValueError("vector length does not match ambient dimension")
    den, nz = _store(((0, j), rat(x)) for j, x in enumerate(v))
    return den, dict(nz.get(0, ()))


def _dense(items: Iterable, n: int) -> tuple:
    # the length-n vector with the given (index, value) pairs, zero elsewhere
    v = [_ZERO] * n
    for j, x in items:
        v[j] = x
    return tuple(v)


def _rref_ints(rows: Iterable[dict], zero: Iterable[int] = ()) -> list[tuple[int, int, dict]]:
    """Sparse fraction-free Gauss-Jordan: the RREF basis of the span of the rows.

    Rows are {column: nonzero int} dicts and are not modified.  The
    columns in `zero` are cut out of every row: the basis is that of the
    span of what is left.  Each one-entry row outside them becomes a
    pivot row e_j, and column j is dropped from every other row before
    anything is eliminated.  Each other row is copied and eliminated forward on its
    leading entry only, by gcd-reduced integer cross-multiplication; a
    repeated row just reduces to nothing.  This is fraction-free
    elimination in the style of Bareiss (Math. Comp. 22, 1968), except
    that a row is made primitive after each step instead of being divided
    by the previous pivot, and once more, with a positive pivot entry, when
    it becomes a pivot row.  One back-substitution, last pivot first, then
    clears every pivot column.  Returned as the (pivot column, d, {column:
    int}) triples a Subspace stores, by pivot: each row is primitive, d > 0
    is its pivot entry, and row / d is the RREF row.
    """
    rows, zero = list(rows), set(zero)
    units = (j for row in rows if len(row) == 1 for j in row if j not in zero)
    pivot_rows: dict[int, dict] = {j: {j: 1} for j in units}
    zero.update(pivot_rows)
    for row in rows:
        work = {j: x for j, x in row.items() if j not in zero}
        if not work:
            continue
        p = min(work)
        while p in pivot_rows:
            _eliminate(work, p, pivot_rows[p])
            if not work:
                break
            p = min(work)
        if work:
            g = gcd(*work.values())
            g = g if work[p] > 0 else -g
            pivot_rows[p] = work if g == 1 else {j: x // g for j, x in work.items()}
    # pivot rows are zero left of their pivots, so clearing the pivot
    # columns of a row with the already reduced later rows adds no new ones
    reduced = []
    for p in sorted(pivot_rows, reverse=True):
        work = pivot_rows[p]
        for c in [c for c in work if c != p and c in pivot_rows]:
            _eliminate(work, c, pivot_rows[c])
        reduced.append((p, work[p], work))
    reduced.reverse()
    return reduced


def _eliminate(work: dict, c: int, pivot_row: dict) -> None:
    # work := a * work - b * pivot_row off column c, where a * work[c] =
    # b * pivot_row[c] with a > 0 and a, b coprime (pivot_row leads at c
    # with a positive entry); then divide out the content of what is left
    w, v = work.pop(c), pivot_row[c]
    g = gcd(w, v)
    a, b = v // g, w // g
    if a != 1:
        for j in work:
            work[j] *= a
    for j, y in pivot_row.items():
        if j != c:
            x = work.get(j, 0) - b * y
            if x:
                work[j] = x
            else:
                del work[j]
    g = gcd(*work.values())
    if g > 1:
        for j in work:
            work[j] //= g


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form, same shape as the input, plus pivot columns."""
    space = Subspace._from_rref(m.ncols, _rref_ints(map(dict, m._nz.values())))
    basis = space.basis
    return ExactMatrix._from_ints(m.nrows, m.ncols, basis._den, basis._nz), space.pivots


def rank(m: ExactMatrix) -> int:
    return len(_rref_ints(map(dict, m._nz.values())))


def _nullspace_from_system(rows: Iterable[dict], ncols: int) -> "Subspace":
    """Solution space of (rows) * x = 0, for sparse rows {column: value}."""
    last = ncols - 1
    return _nullspace_reversed(({last - j: x for j, x in row.items()} for row in rows), ncols)


def _find(up: dict, c: int) -> tuple[int, int, int]:
    """(root, n, d) with x_c = (n / d) x_root, for a member c of the forest up.

    up[c] = (parent, n, d) says x_c = (n / d) x_parent, n / d reduced with
    d > 0; a root has no entry.  c's path is compressed onto the root.
    """
    link = up[c]
    if link[0] not in up:
        return link
    path = []
    while c in up:
        path.append(c)
        c = up[c][0]
    n = d = 1
    for m in reversed(path):
        _, a, b = up[m]
        n, d = a * n, b * d
        if d != 1 and (g := gcd(n, d)) != 1:
            n, d = n // g, d // g
        up[m] = (c, n, d)
    return c, n, d


def _nullspace_reversed(rows: Iterable[dict], ncols: int, zero: Iterable[int] = ()) -> "Subspace":
    """Solution space of a system whose rows hold unknown j at column ncols - 1 - j.

    The unknowns at the columns in `zero`, and at one-entry rows, vanish.
    Each two-entry row a x_u + b x_v = 0 is a union in a weighted
    union-find (Tarjan, J. ACM 22, 1975) kept in integers: every member of
    a component is a reduced ratio n / d of its root, the component's
    largest column, so its smallest unknown.  A component whose cycle
    ratios disagree, or which meets the zero set, vanishes whole.  The
    rows with three or more entries go to _rref_ints, the one eliminator;
    those that touch a non-root column are first rewritten onto roots.
    With the unknowns numbered in reverse, each RREF row of that system
    pivots on its largest unknown p and is nonzero elsewhere only on free
    roots below p.  So the solution of free root f, x_f = 1 and x_p =
    -row_p[f] / d_p on the pivots, with each member at its ratio of its
    root, is zero on the other free roots and below f: it already is the
    null space's RREF row with pivot f, built in integers over the lcm of
    its denominators (1 if every d_p and ratio denominator is).
    """
    zero, up, long_rows = set(zero), {}, []
    for row in rows:
        if len(row) == 2:
            (u, a), (v, b) = row.items()
            ru, nu, du = _find(up, u) if u in up else (u, 1, 1)
            rv, nv, dv = _find(up, v) if v in up else (v, 1, 1)
            # a x_u + b x_v = 0 reads a x_ru + b x_rv = 0 over du * dv
            a, b = a * nu * dv, b * nv * du
            if ru == rv:
                if a + b:  # the cycle's ratios disagree
                    zero.add(ru)
                continue
            if ru < rv:
                ru, rv, a, b = rv, ru, b, a
            # ru is the new root, and x_rv = (-a / b) x_ru
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            up[rv] = (ru, -a // g, b // g)
        elif len(row) == 1:
            zero.update(row)
        elif row:
            long_rows.append(row)
    members = {}  # root: its (column, n, d) triples, x_column = (n / d) x_root
    for c in up:
        r, n, d = _find(up, c)
        members.setdefault(r, []).append((c, n, d))
    # a component that meets the zero set vanishes whole
    for r in {up[c][0] if c in up else c for c in zero}.intersection(members):
        zero.add(r)
        for c, _, _ in members.pop(r):
            zero.add(c)
            del up[c]
    system = []
    for row in long_rows:
        if not up.keys().isdisjoint(row):
            den, out = lcm(*(up[j][2] for j in row if j in up)), {}
            for j, x in row.items():
                j, n, d = up.get(j) or (j, 1, 1)
                if x := out.pop(j, 0) + x * n * (den // d):
                    out[j] = x
            if len(out) < 2:
                zero.update(out)
                continue
            row = out
        system.append(row)
    reduced = _rref_ints(system, zero)
    last = ncols - 1
    bound = {p for p, _, _ in reduced}.union(zero, up)
    free = {f: [(f, 1)] for f in range(ncols) if last - f not in bound}
    # pivots by increasing unknown, so that each solution row comes out sorted
    for p, d, row in reversed(reduced):
        unknown = last - p
        for j, x in row.items():
            if j != p:
                sol = free[last - j]
                if d != 1 or sol[0][1] != 1:  # -x / d over sol's denominator, scaled up if need be
                    x *= sol[0][1]
                    if (scale := d // gcd(x, d)) != 1:
                        sol[:] = [(u, v * scale) for u, v in sol]
                        x *= scale
                    x //= d
                sol.append((unknown, -x))
    # each member at its ratio of its root's entry
    for sol in free.values() if members else ():
        extra = [(last - c, x * n, d) for u, x in sol for c, n, d in members.get(last - u, ())]
        if extra:
            if (scale := lcm(*(d // gcd(x, d) for _, x, d in extra if d != 1))) != 1:
                sol[:] = [(u, x * scale) for u, x in sol]
            sol += [(u, x * scale // d) for u, x, d in extra]
            sol.sort()
    return Subspace._from_rows(ncols, tuple(free), [(sol[0][1], sol) for sol in free.values()])


def nullspace(m: ExactMatrix) -> "Subspace":
    """Kernel {v : m v = 0} as a canonical Subspace of Q^ncols."""
    # the integer rows span the same row space as the entries
    return _nullspace_from_system(map(dict, m._nz.values()), m.ncols)


def _memoized(owner, key: str, compute):
    """owner._memo[key], computed once; owner is an _Algebra, EndoSubspace or CurrentAlgebra."""
    if key not in owner._memo:
        owner._memo[key] = compute()
    return owner._memo[key]


class _Algebra:
    """Labels and the nonzero structure constants of a bilinear product on Q^dim.

    The one stored form, as in ExactMatrix, is a positive least common
    denominator `den` and `products`, which maps each ordered pair (i, j)
    with e_i e_j != 0 to the (k, v) pairs, in increasing k, of the nonzero
    c_ij^k = v / den, v an int; its keys come in increasing order.  The
    store is canonical, so == and hash read it as it is.  What is derived
    from it (derivations, radicals, the dense dim^3 `structure` view of
    Fractions for independent checks in tests) is memoized in `_memo`.
    The public constructor takes that dense table,
    checks its shape and keeps its nonzero entries; `_from_products` takes
    the stored form, with den cut down to the least common denominator.
    """

    def __init__(self, labels: Sequence[str], table, *args, **kwargs):
        labels = tuple(labels)
        n = len(labels)
        if len(table) != n or any(len(row) != n or any(len(v) != n for v in row) for row in table):
            raise ValueError(f"structure table is not {n} x {n} x {n}")
        entries = (
            (i, j, k, c)
            for i, row in enumerate(table)
            for j, vec in enumerate(row)
            for k, c in enumerate(map(rat, vec))
            if c
        )
        self._init(labels, *_products(entries), *args, **kwargs)

    @classmethod
    def _from_products(cls, labels: Sequence[str], den: int, products: dict, *args, **kwargs):
        if den != 1:
            g = gcd(den, *(v for terms in products.values() for _, v in terms))
            if g != 1:
                den //= g
                products = {
                    key: tuple((k, v // g) for k, v in terms) for key, terms in products.items()
                }
        alg = object.__new__(cls)
        alg._init(tuple(labels), den, products, *args, **kwargs)
        return alg

    def _init(self, labels: tuple, den: int, products: dict) -> None:
        self.labels = labels
        self.dim = len(labels)
        self.den = den
        self.products = products
        self._memo: dict = {}

    def _times(self, xs, ys) -> dict:
        """{k: nonzero value}: den times the product of two (index, value) pair lists."""
        products = self.products
        out = {}
        for i, x in xs:
            for j, y in ys:
                terms = products.get((i, j))
                if terms:
                    xy = x * y
                    for k, v in terms:
                        out[k] = out[k] + xy * v if k in out else xy * v
        return {k: c for k, c in out.items() if c}

    def _product(self, x: Sequence, y: Sequence) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        (dx, xs), (dy, ys) = _int_vector(x, self.dim), _int_vector(y, self.dim)
        xy, den = self._times(xs.items(), ys.items()), self.den * dx * dy
        return _dense(((k, Q(c, den)) for k, c in xy.items()), self.dim)

    @property
    def structure(self) -> tuple:
        """structure[i][j]: the coordinate vector of e_i e_j (dense, built once)."""
        n, den = self.dim, self.den
        return _memoized(self, "structure", lambda: tuple(
            tuple(_dense(((k, Q(v, den)) for k, v in self.products.get((i, j), ())), n)
                  for j in range(n))
            for i in range(n)
        ))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.labels == other.labels
            and self.den == other.den
            and self.products == other.products
        )

    def __hash__(self):
        return hash((self.labels, self.den, frozenset(self.products.items())))


def _products(entries: Iterable) -> tuple[int, dict]:
    """(den, products) of _Algebra for (i, j, k, int or Fraction) entries, summed over repeats."""
    acc = {}
    for i, j, k, c in entries:
        acc[i, j, k] = acc.get((i, j, k), 0) + c
    den, nz = _store((((i, j), k), c) for (i, j, k), c in sorted(acc.items()))
    return den, {key: tuple(terms) for key, terms in nz.items()}


def _left_mult(alg: _Algebra, x: Sequence) -> ExactMatrix:
    """The matrix of y -> x y; column j holds the coordinates of x e_j."""
    if len(x) != alg.dim:
        raise ValueError("vector length does not match the algebra dimension")
    den, xs = _int_vector(x, alg.dim)
    acc = {}  # acc[k][j]: den * alg.den * coordinate k of x e_j
    for (i, j), terms in alg.products.items():
        if xi := xs.get(i):
            for k, v in terms:
                row = acc.setdefault(k, {})
                row[j] = row.get(j, 0) + xi * v
    return _from_accumulators(alg.dim, alg.dim, den * alg.den, acc)


def _leibniz_space(alg: _Algebra, pairs: Iterable, derivation: bool) -> "EndoSubspace":
    """The T in End(alg) with T(e_i e_j) = T(e_i) e_j + e_i T(e_j) for (i, j) in pairs.

    With `derivation` unset the T(e_i) e_j term is left out: over all
    pairs, T(e_i e_j) = e_i T(e_j) cuts out the centroid.  With T
    flattened row-major (T[p][k] is unknown p*n + k), coordinate p of one
    equation reads
        sum_k c_ij^k T[p][k] - sum_q c_qj^p T[q][i] - sum_q c_iq^p T[q][j] = 0,
    homogeneous in the constants, so it is imposed on their numerators.
    The rows are emitted with unknown u at column n*n - 1 - u, the
    numbering _nullspace_reversed solves in; one-entry rows (most are) go
    to its zero set instead, and the bracket term alone never builds one.
    Most of the others have two entries, which _nullspace_reversed solves
    by its union-find; only the longer rows reach _rref_ints.
    """
    n = alg.dim
    last = n * n - 1
    products = alg.products
    left = [[] for _ in range(n)]  # left[i]: (q, p, v) for c_iq^p = v / den
    right = [[] for _ in range(n)]  # right[j]: (q, p, v) for c_qj^p = v / den
    for (i, j), terms in products.items():
        for p, v in terms:
            left[i].append((j, p, v))
            right[j].append((i, p, v))
    rows, zero = [], set()
    for i, j in pairs:
        by_p = {}
        sides = ((right[j], i), (left[i], j)) if derivation else ((left[i], j),)
        for terms, unknown in sides:
            for q, p, v in terms:
                row = by_p.setdefault(p, {})
                col = last - q * n - unknown
                if x := row.pop(col, 0) - v:
                    row[col] = x
        bracket = products.get((i, j), ())
        for p in range(n) if bracket else ():
            if p not in by_p and len(bracket) == 1:
                zero.add(last - p * n - bracket[0][0])
                continue
            row = by_p.setdefault(p, {})
            for k, v in bracket:
                col = last - p * n - k
                if x := row.pop(col, 0) + v:
                    row[col] = x
        for row in by_p.values():
            if len(row) == 1:
                zero.update(row)
            elif row:
                rows.append(row)
    return EndoSubspace(n, _nullspace_reversed(rows, n * n, zero))


class Subspace:
    """A subspace of Q^n held as its unique RREF basis (zero rows dropped).

    The one stored form is the pivots and `_rows`, per basis row the pair
    (d, row) of _rref_ints: row lists the (index, nonzero int) pairs, by
    index, of a primitive integer row whose pivot entry is d > 0, and the
    RREF row is row / d.  `_row_at` indexes the rows by pivot; `basis` and
    every Fraction are computed when read.  Because the RREF basis is
    unique, equality of Subspace objects is equality of subspaces.
    """

    __slots__ = ("ambient", "pivots", "_rows", "_row_at")

    def __init__(self, ambient: int, basis: ExactMatrix, pivots: tuple[int, ...]):
        # the span of basis in RREF; pivots must be its pivots
        if basis.ncols != ambient:
            raise ValueError("basis width does not match the ambient dimension")
        reduced = _rref_ints(map(dict, basis._nz.values()))
        found = tuple(p for p, _, _ in reduced)
        if tuple(pivots) != found:
            raise ValueError(f"pivots {tuple(pivots)} are not the basis's pivots {found}")
        self._init(ambient, found, [(d, sorted(row.items())) for _, d, row in reduced])

    def _init(self, ambient: int, pivots: tuple, rows: list) -> None:
        self.ambient, self.pivots, self._rows = ambient, pivots, rows
        self._row_at = {p: r for r, p in enumerate(pivots)}

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient: int) -> "Subspace":
        return cls._from_rref(ambient, _rref_ints([_int_vector(v, ambient)[1] for v in vectors]))

    @classmethod
    def _from_rref(cls, ambient: int, reduced: list) -> "Subspace":
        # reduced: (pivot, d, row) triples as returned by _rref_ints
        rows = [(d, sorted(row.items())) for _, d, row in reduced]
        return cls._from_rows(ambient, tuple(p for p, _, _ in reduced), rows)

    @classmethod
    def _from_rows(cls, ambient: int, pivots: tuple, rows: list) -> "Subspace":
        space = object.__new__(cls)
        space._init(ambient, pivots, rows)
        return space

    @classmethod
    def zero_space(cls, ambient: int) -> "Subspace":
        return cls._from_rows(ambient, (), [])

    @classmethod
    def full_space(cls, ambient: int) -> "Subspace":
        return cls._from_rows(ambient, tuple(range(ambient)), [(1, [(i, 1)]) for i in range(ambient)])

    @property
    def basis(self) -> ExactMatrix:
        """The RREF basis rows as a matrix, over the lcm of their d, computed on read."""
        den = lcm(*(d for d, _ in self._rows))
        nz = {r: [(j, v * (den // d)) for j, v in row] for r, (d, row) in enumerate(self._rows)}
        return ExactMatrix._from_ints(self.dim, self.ambient, den, nz)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Sequence) -> list:
        """Canonical representative of v modulo this subspace."""
        den, w = _int_vector(v, self.ambient)
        den *= self._reduce(w)[0]
        return list(_dense(((j, Q(x, den)) for j, x in w.items()), self.ambient))

    def _reduce(self, w: dict) -> tuple[int, list]:
        """Reduce w {index: nonzero int} in place, to s > 0 times its canonical representative.

        Returns (s, coeffs).  An RREF row is 1 at its own pivot and 0 at the
        others, so coeffs, the (row, coefficient) pairs by row, holds the
        input's entries at the pivots, found from w's support or from the
        pivots, whichever is smaller.  Row r = row / d comes off as
        w := (d / g) w - (w_p / g) row, g = gcd(d, w_p): s gains d / g.
        """
        row_at, pivots, rows = self._row_at, self.pivots, self._rows
        if len(w) < len(row_at):
            hits = sorted(row_at[j] for j in w if j in row_at)
        else:
            hits = [r for p, r in row_at.items() if p in w]
        coeffs = [(r, w[pivots[r]]) for r in hits]
        s = 1
        for r in hits:
            d, row = rows[r]
            f = w[pivots[r]]
            if d != 1:
                g = gcd(d, f)
                if (a := d // g) != 1:
                    s *= a
                    for j in w:
                        w[j] *= a
                f //= g
            for j, x in row:
                v = w.get(j, 0) - f * x
                if v:
                    w[j] = v
                else:
                    del w[j]
        return s, coeffs

    def contains(self, v: Sequence) -> bool:
        return self._coordinates(_int_vector(v, self.ambient)[1]) is not None

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(other._coordinates(dict(row)) is not None for _, row in self._rows)

    def coordinates(self, v: Sequence):
        """Coefficients of v in the RREF basis, or None if v is outside."""
        den, w = _int_vector(v, self.ambient)
        coeffs = self._coordinates(w)
        return None if coeffs is None else _dense(((r, Q(x, den)) for r, x in coeffs), self.dim)

    def _coordinates(self, w: dict):
        """w's coordinates as (row, int) pairs by row, over w's denominator, or None if outside."""
        _, coeffs = self._reduce(w)
        return None if w else coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient, self.pivots, tuple((d, tuple(row)) for d, row in self._rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def subspace_sum(*spaces: Subspace) -> Subspace:
    ambient = spaces[0].ambient
    if any(s.ambient != ambient for s in spaces):
        raise ValueError("ambient mismatch")
    return Subspace._from_rref(ambient, _rref_ints(dict(row) for s in spaces for _, row in s._rows))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """The kernel of a's rows reduced modulo b, carried back into a.

    a's integer rows R_i are independent and _reduce leaves s_i R_i mod b,
    so the kernel's betas, sum beta_i (s_i R_i mod b) = 0, give a basis
    sum beta_i s_i R_i of the intersection.
    """
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    system = {}  # column j of the reduced rows: {row: entry}
    scales = []
    for i, (_, row) in enumerate(a._rows):
        w = dict(row)
        scales.append(b._reduce(w)[0])
        for j, x in w.items():
            system.setdefault(j, {})[i] = x
    kernel = _nullspace_from_system(system.values(), a.dim)
    vecs = []
    for _, betas in kernel._rows:
        vec = {}
        for i, beta in betas:
            for j, x in a._rows[i][1]:
                vec[j] = vec.get(j, 0) + beta * scales[i] * x
        vecs.append({j: x for j, x in vec.items() if x})
    return Subspace._from_rref(a.ambient, _rref_ints(vecs))


class EndoSubspace:
    """A subspace of the n x n matrices, held flat inside Q^(n*n).

    Matrices flatten row-major (entry (i, j) at i * n + j), so this is
    just a Subspace with a matrix-shaped view on top.
    """

    __slots__ = ("n", "space", "_memo")

    def __init__(self, n: int, space: Subspace):
        if space.ambient != n * n:
            raise ValueError("ambient dimension is not n*n")
        self.n = n
        self.space = space
        self._memo: dict = {}

    @classmethod
    def from_matrices(cls, mats: Iterable[ExactMatrix], n: int) -> "EndoSubspace":
        rows = []
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("matrix shape mismatch")
            rows.append(m._flat_ints())
        return cls(n, Subspace._from_rref(n * n, _rref_ints(rows)))

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, m: ExactMatrix) -> bool:
        return self._coordinates(m) is not None

    def coordinates(self, m: ExactMatrix):
        """Coefficients of m over basis_matrices(), or None if m is outside."""
        coeffs = self._coordinates(m)
        return None if coeffs is None else _dense(((r, Q(x, m._den)) for r, x in coeffs), self.dim)

    def _coordinates(self, m: ExactMatrix):
        """m's coordinates over basis_matrices() as (index, int) pairs over m._den, or None."""
        if m.shape != (self.n, self.n):
            raise ValueError("matrix shape mismatch")
        return self.space._coordinates(m._flat_ints())

    def basis_matrices(self) -> tuple[ExactMatrix, ...]:
        """The basis rows as n x n matrices, built once from the integer rows."""

        def compute():
            mats = []
            for d, row in self.space._rows:
                nz = {}
                for j, v in row:
                    nz.setdefault(j // self.n, []).append((j % self.n, v))
                mats.append(ExactMatrix._from_ints(self.n, self.n, d, nz))
            return tuple(mats)

        return _memoized(self, "basis_matrices", compute)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndoSubspace)
            and self.n == other.n
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.n, self.space))

    def __repr__(self):
        return f"EndoSubspace(n={self.n}, dim={self.dim})"

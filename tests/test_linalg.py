from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from currentlie.heisenberg import truncated_heisenberg
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    _nullspace_from_system,
    _rref_ints,
    Subspace,
    commutator,
    kron,
    linear_combination,
    nullspace,
    rank,
    rat,
    rat_str,
    rref,
    subspace_intersection,
    subspace_sum,
)
from helpers import (
    int_rows,
    rand_frac,
    rand_matrix,
    rand_vector,
    reference_kron,
    reference_matmul,
    reference_rref,
    store_is_canonical,
)


def test_rat_parsing_and_serialization():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(5) == "5"
    assert rat(rat_str(Fraction(-22, 7))) == Fraction(-22, 7)


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("text", ["1e30000000", "1.5", "1/2e3", " 1", "+1", "1_0", "", "/2"])
def test_rat_reads_only_integer_and_fraction_strings(text):
    # Fraction would expand "1e30000000" for minutes; rat refuses it at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a rational string"):
        rat(text)
    with pytest.raises(ValueError, match="not a rational string"):
        ExactMatrix([[text]])
    assert time.perf_counter() - start < 0.5
    assert rat("-12/34") == Fraction(-6, 17) and rat("007") == 7


def test_matrix_basics():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([["1/2", 0], [1, -1]])
    assert (a + b)[0, 0] == Fraction(3, 2)
    assert (a - b)[1, 1] == 5
    assert (-a)[0, 1] == -2
    assert (2 * a)[1, 0] == 6
    assert (a * b).rows == ExactMatrix([["5/2", -2], ["11/2", -4]]).rows
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert ExactMatrix.identity(2) * a == a
    assert not a.is_zero()
    assert ExactMatrix.zero(2, 3).is_zero()


def test_matrix_apply_and_block():
    a = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.apply([1, 0, -1]) == (-2, -2, -2)
    assert a.block(1, 3, 0, 2).rows == ((4, 5), (7, 8))
    assert a.column(2) == (3, 6, 9)


def test_matrix_shape_errors():
    a = ExactMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a + ExactMatrix([[1], [2]])
    with pytest.raises(ValueError):
        a * ExactMatrix([[1, 2]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_kron_explicit():
    a = ExactMatrix([[1, 2], [0, 1]])
    b = ExactMatrix([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    # (i1*2+i2, j1*2+j2) layout
    assert k[0, 1] == 1 and k[0, 3] == 2 and k[2, 3] == 1 and k[3, 2] == 1
    assert k.rows[2] == (0, 0, 0, 1)


def test_kron_mixed_product():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_matrix(rng, 2, 3)
        c = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 2, 2)
        d = rand_matrix(rng, 2, 3)
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_rref_matches_independent_elimination():
    rng = random.Random(11)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        r, pivots = rref(m)
        assert r == reference_rref(m)
        # pivot columns carry a lone 1
        for i, p in enumerate(pivots):
            col = r.column(p)
            assert col[i] == 1
            assert all(x == 0 for j, x in enumerate(col) if j != i)


def test_rref_idempotent_and_shape_preserving():
    rng = random.Random(13)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, pivots = rref(m)
        assert r.shape == m.shape
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots


def test_rank():
    assert rank(ExactMatrix.identity(4)) == 4
    assert rank(ExactMatrix.zero(3, 5)) == 0
    assert rank(ExactMatrix([[1, 2], [2, 4]])) == 1


def test_nullspace_fixed_example():
    m = ExactMatrix([[1, 1, 0], [0, 1, 1]])
    ns = nullspace(m)
    assert ns.dim == 1
    assert ns.basis.rows == ((1, -1, 1),)


def test_nullspace_properties():
    rng = random.Random(17)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ns = nullspace(m)
        assert ns.dim == m.ncols - rank(m)
        for v in ns.basis.rows:
            assert all(x == 0 for x in m.apply(v))


def _random_sparse_system(rng, ncols):
    """Sparse rows plus duplicated, rescaled, negated and empty copies."""
    rows = []
    for _ in range(rng.randint(1, ncols)):
        cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
        row = {c: x for c in cols if (x := rand_frac(rng))}
        rows.append(row)
    for _ in range(rng.randint(0, 2 * len(rows))):
        row = rng.choice(rows)
        scale = rng.choice([1, -1, Fraction(rng.choice([-5, -2, 3, 4]), rng.randint(1, 5))])
        rows.append({c: scale * x for c, x in row.items()})
    rows.extend({} for _ in range(rng.randint(0, 2)))
    rng.shuffle(rows)
    return rows


def _nonzero_rows(m: ExactMatrix) -> list:
    return [row for row in m.rows if any(row)]


def test_sparse_nullspace_matches_independent_elimination():
    rng = random.Random(29)
    for _ in range(30):
        ncols = rng.randint(1, 40)
        rows = _random_sparse_system(rng, ncols)
        dense = ExactMatrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        ns = _nullspace_from_system(int_rows(rows), ncols)
        assert nullspace(dense) == ns

        # oracle: free-column solutions of the reference RREF, then the
        # reference RREF of those solutions
        reduced = _nonzero_rows(reference_rref(dense))
        pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
        solutions = []
        for f in range(ncols):
            if f not in pivots:
                v = [Fraction(0)] * ncols
                v[f] = Fraction(1)
                for row, p in zip(reduced, pivots):
                    v[p] = -row[f]
                solutions.append(v)
        expected = _nonzero_rows(reference_rref(ExactMatrix(solutions))) if solutions else []
        expected_pivots = tuple(next(c for c, x in enumerate(row) if x) for row in expected)
        basis = ExactMatrix(expected) if expected else ExactMatrix.zero(0, ncols)
        assert ns == Subspace(ncols, basis, expected_pivots)
        assert ns.pivots == expected_pivots

        # canonical RREF: increasing pivots, leading 1s, lone pivot entries
        assert list(ns.pivots) == sorted(set(ns.pivots))
        for i, (row, p) in enumerate(zip(ns.basis.rows, ns.pivots)):
            assert row[p] == 1 and not any(row[:p])
            assert all(other[p] == 0 for k, other in enumerate(ns.basis.rows) if k != i)
            assert not any(dense.apply(row))

        # the same rows, dense, span the reference row space
        assert list(Subspace.from_vectors(dense.rows, ncols).basis.rows) == reduced


def test_nullspace_of_zero_matrix_is_everything():
    ns = nullspace(ExactMatrix.zero(2, 3))
    assert ns == Subspace.full_space(3)


def test_subspace_canonical_under_respanning():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 6)
        basis = [rand_vector(rng, n) for _ in range(rng.randint(1, n))]
        a = Subspace.from_vectors(basis, n)
        # rescale and mix: same span, same canonical object
        mixed = [[3 * x for x in basis[0]]]
        for i in range(1, len(basis)):
            mixed.append([x + y for x, y in zip(basis[i], basis[i - 1])])
        b = Subspace.from_vectors(mixed, n)
        assert a == b
        assert hash(a) == hash(b)


def test_subspace_membership():
    s = Subspace.from_vectors([[1, 0, 1], [0, 1, 1]], 3)
    assert s.contains([1, 1, 2])
    assert s.contains([2, -1, 1])
    assert not s.contains([0, 0, 1])
    assert s.coordinates([1, 1, 2]) == (1, 1)
    assert s.coordinates([0, 0, 1]) is None
    assert s.reduce([1, 1, 2]) == [0, 0, 0]
    for short in ([1, 1], [1, 1, 2, 0]):
        for read in (s.contains, s.coordinates, s.reduce):
            with pytest.raises(ValueError, match="vector length"):
                read(short)


def test_subspace_constructor_checks_its_pivots():
    # the pivots come from the basis's own RREF; an argument that differs is refused
    for basis, pivots in (([[0, 1, 0]], (0,)), ([[1, 2]], (0, 1)), ([[1, 0], [0, 1]], (1, 0))):
        with pytest.raises(ValueError, match="pivots"):
            Subspace(len(basis[0]), ExactMatrix(basis), pivots)
    with pytest.raises(ValueError, match="ambient"):
        Subspace(3, ExactMatrix([[1, 2]]), (0,))
    s = Subspace(3, ExactMatrix([[0, 1, 0]]), (1,))
    assert s.contains((0, 1, 0)) and not s.contains((1, 0, 0))
    assert s == Subspace.from_vectors([[0, 2, 0]], 3)
    # a basis that spans the space but is not in RREF is reduced, not trusted
    t = Subspace(2, ExactMatrix([[1, 2], [1, 3]]), (0, 1))
    assert t == Subspace.full_space(2) and t.contains((5, 7))


def test_subspace_sum_and_intersection_fixed():
    e = ExactMatrix.identity(3).rows
    a = Subspace.from_vectors([e[0], e[1]], 3)
    b = Subspace.from_vectors([e[1], e[2]], 3)
    assert subspace_sum(a, b) == Subspace.full_space(3)
    inter = subspace_intersection(a, b)
    assert inter == Subspace.from_vectors([e[1]], 3)


def test_subspace_modular_dimension_law():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = Subspace.from_vectors(
            [rand_vector(rng, n) for _ in range(rng.randint(0, n))], n
        )
        b = Subspace.from_vectors(
            [rand_vector(rng, n) for _ in range(rng.randint(0, n))], n
        )
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert a.is_subspace_of(s) and b.is_subspace_of(s)
        assert i.is_subspace_of(a) and i.is_subspace_of(b)


def test_commutator():
    a = ExactMatrix([[0, 1], [0, 0]])
    b = ExactMatrix([[0, 0], [1, 0]])
    assert commutator(a, b) == ExactMatrix([[1, 0], [0, -1]])


def _kernel_matrix(rng, nrows, ncols, density):
    # mostly-zero to dense; negative, non-integer and above-2^64 entries
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        num = rng.choice([1, -1]) * rng.randint(1, 9)
        if rng.random() < 0.2:
            num *= 2**64 + rng.randint(0, 2**70)
        den = rng.choice([1, 1, 1, 2, 3, 7, 2**65 + 3])
        return Fraction(num, den)

    return ExactMatrix([[entry() for _ in range(ncols)] for _ in range(nrows)])


def _all_fractions(m):
    return all(type(x) is Fraction for row in m.rows for x in row)


def test_matrix_kernels_match_reference_loops():
    rng = random.Random(20240)
    dims = [1, 2, 3, 5, 7]
    densities = [0.0, 0.1, 0.3, 1.0]
    for _ in range(150):
        n, k, m = (rng.choice(dims) for _ in range(3))
        a = _kernel_matrix(rng, n, k, rng.choice(densities))
        a2 = _kernel_matrix(rng, n, k, rng.choice(densities))
        b = _kernel_matrix(rng, k, m, rng.choice(densities))
        s = _kernel_matrix(rng, n, n, rng.choice(densities))
        t = _kernel_matrix(rng, n, n, rng.choice(densities))
        c = rng.choice([Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2**70 + 1, 9)])
        v = [rand_frac(rng) for _ in range(k)]

        def entrywise(f, x, y):
            return ExactMatrix([[f(p, q) for p, q in zip(rx, ry)] for rx, ry in zip(x.rows, y.rows)])

        prod = a.matmul(b)
        ref_comm = reference_matmul(s, t) - reference_matmul(t, s)
        results = [
            (prod, reference_matmul(a, b)),
            (a * b, reference_matmul(a, b)),
            (commutator(s, t), ref_comm),
            (kron(a, b), reference_kron(a, b)),
            (a + a2, entrywise(lambda p, q: p + q, a, a2)),
            (a - a2, entrywise(lambda p, q: p - q, a, a2)),
            (a * c, entrywise(lambda p, q: p * c, a, a)),
            (c * a, entrywise(lambda p, q: p * c, a, a)),
            # kernel results feed later kernels through their attached views
            (prod * b.transpose(), reference_matmul(reference_matmul(a, b), b.transpose())),
            (commutator(commutator(s, t), s), reference_matmul(ref_comm, s) - reference_matmul(s, ref_comm)),
            (kron(prod, s) + kron(prod, t), reference_kron(reference_matmul(a, b), s + t)),
        ]
        for got, want in results:
            assert got.shape == want.shape
            assert got == want
            assert _all_fractions(got)
            assert got.is_zero() == all(not x for row in want.rows for x in row)
        applied = a.apply(v)
        assert applied == tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.rows)
        assert all(type(x) is Fraction for x in applied)


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        commutator(ExactMatrix([[1, 2]]), ExactMatrix([[1], [2]]))
    with pytest.raises(ValueError):
        commutator(ExactMatrix.identity(2), ExactMatrix.identity(3))


def _wide_entry(rng):
    """A nonzero int or Fraction; some have denominators up to 10^9 and
    numerators above 2^64."""
    while True:
        r = rng.random()
        if r < 0.35:
            x = rng.randint(-9, 9)
        elif r < 0.7:
            x = rand_frac(rng)
        elif r < 0.85:
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))
        else:
            x = Fraction(rng.choice([-1, 1]) * rng.randint(2**64, 2**70), rng.randint(1, 10**9))
        if x:
            return x


def _wide_system(rng, ncols):
    """Sparse rows of _wide_entry values plus dependent, repeated and empty ones."""
    base = []
    for _ in range(rng.randint(1, min(ncols, 30))):
        cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
        base.append({c: _wide_entry(rng) for c in cols})
    rows = list(base)
    scales = [-1, 2, Fraction(-7, 3), Fraction(10**9 + 7, 2**65), -(2**66)]
    for _ in range(rng.randint(0, len(base))):
        a, b = rng.choice(base), rng.choice(base)
        s = rng.choice(scales)
        if rng.random() < 0.5:
            # scaled or negated copy
            row = {c: s * x for c, x in a.items()}
        else:
            # a sum of two rows, which only elimination can find dependent
            row = dict(a)
            for c, x in b.items():
                row[c] = row.get(c, 0) + s * x
        rows.append({c: x for c, x in row.items() if x})
    rows.extend(dict(rng.choice(rows)) for _ in range(rng.randint(0, 3)))
    rows.extend({} for _ in range(rng.randint(0, 2)))
    rng.shuffle(rows)
    return rows


def _leading(row):
    return next(c for c, x in enumerate(row) if x)


def test_fraction_free_elimination_matches_reference():
    rng = random.Random(41)
    for _ in range(40):
        ncols = rng.randint(1, 60)
        rows = _wide_system(rng, ncols)
        dense = ExactMatrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        ref = reference_rref(dense)
        ref_rows = _nonzero_rows(ref)
        ref_pivots = [_leading(row) for row in ref_rows]

        reduced = _rref_ints(int_rows(rows))
        assert [p for p, _, _ in reduced] == ref_pivots
        for (p, d, row), want in zip(reduced, ref_rows):
            assert all(type(x) is int and x for x in row.values()) and d == row[p] > 0
            assert tuple(Fraction(row.get(c, 0), d) for c in range(ncols)) == want

        assert rank(dense) == len(ref_rows)
        got, pivots = rref(dense)
        assert got == ref and list(pivots) == ref_pivots
        assert _all_fractions(got)
        space = Subspace.from_vectors(dense.rows, ncols)
        assert list(space.basis.rows) == ref_rows and _all_fractions(space.basis)

        # nullspace: the reference RREF of the free-column solutions
        solutions = []
        for f in range(ncols):
            if f not in ref_pivots:
                v = [Fraction(0)] * ncols
                v[f] = Fraction(1)
                for row, p in zip(ref_rows, ref_pivots):
                    v[p] = -row[f]
                solutions.append(v)
        ns = nullspace(dense)
        want = _nonzero_rows(reference_rref(ExactMatrix(solutions))) if solutions else []
        assert list(ns.basis.rows) == want and _all_fractions(ns.basis)
        assert _nullspace_from_system(int_rows(rows), ncols) == ns


def _reference_rows(rows) -> list:
    # the nonzero rows of the reference RREF of the rows
    return _nonzero_rows(reference_rref(ExactMatrix(rows))) if rows else []


def _oracle_space(rng, n):
    # the zero space, the full space, or the span of sparse rows, with the
    # reference RREF rows of each (the vectors tested carry the wide entries)
    kind = rng.random()
    if kind < 0.15:
        rows = []
    elif kind < 0.3:
        rows = [[rng.randint(1, 3) if c == i else rand_frac(rng) if c > i and rng.random() < 0.2
                 else 0 for c in range(n)] for i in range(n)]
    else:
        density = rng.choice([0.05, 0.15, 0.4])
        rows = [[rand_frac(rng) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(rng.randint(1, n))]
    return Subspace.from_vectors(rows, n), _reference_rows(rows)


def _check_reduction(space, v, coeffs, rest):
    # coeffs: v's coefficients over the RREF rows, or None if v is outside;
    # rest: v's canonical representative modulo the space.  The sparse
    # input lists its entries by decreasing index, so the pairs of
    # _coordinates are sorted by the routine, not by the input
    den = math.lcm(*(Fraction(x).denominator for x in v))
    w = {j: int(x * den) for j, x in reversed(list(enumerate(v))) if x}
    pairs = space._coordinates(w)  # integer numerators over den
    if coeffs is None:
        assert pairs is None and space.coordinates(v) is None and not space.contains(v)
    else:
        assert all(type(x) is int for _, x in pairs)
        assert [(r, Fraction(x, den)) for r, x in pairs] == [(r, c) for r, c in enumerate(coeffs) if c]
        assert space.coordinates(v) == tuple(coeffs) and space.contains(v)
    assert space.reduce(v) == rest


def test_reduction_kernel_matches_dense_arithmetic():
    rng = random.Random(59)
    for _ in range(24):
        n = rng.choice([1, 2, 5, 12, 25, 40])
        space, ref = _oracle_space(rng, n)
        pivots = [_leading(row) for row in ref]
        assert space.pivots == tuple(pivots)
        free = [c for c in range(n) if c not in pivots]
        zero = [Fraction(0)] * n

        def combo(coeffs):
            return [sum((c * row[j] for c, row in zip(coeffs, ref)), Fraction(0)) for j in range(n)]

        for _ in range(4):
            # inside: a known combination of the rows, a third of its coefficients zero
            coeffs = [_wide_entry(rng) if rng.random() < 0.7 else Fraction(0) for _ in ref]
            inside = combo(coeffs)
            _check_reduction(space, inside, coeffs, zero)
            if free:
                # outside: one non-pivot entry more, which stays as the remainder
                f, t = rng.choice(free), _wide_entry(rng)
                rest = [t if j == f else Fraction(0) for j in range(n)]
                _check_reduction(space, [x + y for x, y in zip(inside, rest)], None, rest)
                # only non-pivot entries: already canonical
                only_free = [_wide_entry(rng) if j in free and rng.random() < 0.5 else Fraction(0)
                             for j in range(n)]
                _check_reduction(space, only_free, None if any(only_free) else [0] * len(ref),
                                 only_free)
            if pivots:
                # only a few pivot entries: the coefficient on row r is the entry at its pivot
                hit = set(rng.sample(pivots, rng.randint(1, min(3, len(pivots)))))
                only_pivots = [_wide_entry(rng) if j in hit else Fraction(0) for j in range(n)]
                coeffs = [only_pivots[p] for p in pivots]
                rest = [x - y for x, y in zip(only_pivots, combo(coeffs))]
                assert all(rest[p] == 0 for p in pivots)
                _check_reduction(space, only_pivots, None if any(rest) else coeffs, rest)

        # a second space sharing part of the first: containment and intersection
        shared = [combo([_wide_entry(rng) if rng.random() < 0.5 else 0 for _ in ref])
                  for _ in range(rng.randint(0, len(ref)))]
        other, _ = _oracle_space(rng, n)
        rows_b = shared + [list(row) for row in other.basis.rows]
        b = Subspace.from_vectors(rows_b, n)
        ref_b = _reference_rows(rows_b)
        joint = len(_reference_rows(ref + ref_b))
        assert space.is_subspace_of(b) == (joint == len(ref_b))
        assert b.is_subspace_of(space) == (joint == len(ref))
        assert space.is_subspace_of(space) and Subspace.zero_space(n).is_subspace_of(space)
        assert space.is_subspace_of(Subspace.full_space(n))
        inter = subspace_intersection(space, b)
        inter_rows = list(inter.basis.rows)
        assert inter.dim == len(ref) + len(ref_b) - joint
        assert inter_rows == _reference_rows(inter_rows)
        assert inter.pivots == tuple(_leading(row) for row in inter_rows)
        assert len(_reference_rows(ref + inter_rows)) == len(ref)
        assert len(_reference_rows(ref_b + inter_rows)) == len(ref_b)
        assert subspace_intersection(b, space) == inter


def _dense_nonzeros(m):
    return {(i, c): x for i, row in enumerate(m.rows) for c, x in enumerate(row) if x}


def _flat(m):
    # the row-major flattening of a matrix, as EndoSubspace lays it out
    return tuple(x for row in m.rows for x in row)


def _unflat(nrows, ncols, flat):
    return ExactMatrix([flat[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def test_basis_matrices_carry_their_sparse_view():
    rng = random.Random(43)
    spaces = [truncated_heisenberg(2, 2).derivations()]
    for _ in range(6):
        n = rng.randint(1, 5)
        mats = [ExactMatrix([[_wide_entry(rng) if rng.random() < 0.3 else 0 for _ in range(n)]
                             for _ in range(n)]) for _ in range(rng.randint(1, 6))]
        spaces.append(EndoSubspace.from_matrices(mats, n))
    for space in spaces:
        for m, row in zip(space.basis_matrices(), space.space.basis.rows, strict=True):
            assert _flat(m) == row and _all_fractions(m)
            fresh = ExactMatrix(m.rows)
            assert m._nonzero_entries() == _dense_nonzeros(m)
            assert m._int_rows() == fresh._int_rows()
            assert m._nonzero_entries() == fresh._nonzero_entries()


def _sparse_random_matrix(rng, nrows, ncols, density):
    return ExactMatrix([[_wide_entry(rng) if rng.random() < density else 0 for _ in range(ncols)]
                        for _ in range(nrows)])


def test_subspace_equality_and_hash_across_constructors():
    rng = random.Random(47)
    for trial in range(30):
        n = rng.randint(1, 8)
        m = _sparse_random_matrix(rng, rng.randint(1, n + 2), n, rng.choice([0.2, 0.5, 1.0]))
        rows = [dict((c, x) for c, x in enumerate(row) if x) for row in m.rows]
        ref = _nonzero_rows(reference_rref(m))
        pivots = tuple(_leading(row) for row in ref)
        dense = Subspace(n, ExactMatrix(ref) if ref else ExactMatrix.zero(0, n), pivots)
        # a space is the kernel of its annihilator (the dot form is anisotropic over Q)
        annihilator = nullspace(m)
        twice = nullspace(annihilator.basis) if annihilator.dim else Subspace.full_space(n)
        equal = [
            Subspace.from_vectors(m.rows, n),
            Subspace._from_rref(n, _rref_ints(int_rows(rows))),
            dense,
            twice,
        ]
        if not ref:
            equal += [Subspace.zero_space(n), nullspace(ExactMatrix.identity(n))]
        if len(ref) == n:
            equal += [Subspace.full_space(n), nullspace(ExactMatrix.zero(1, n))]
        for space in equal:
            assert space == equal[0] and hash(space) == hash(equal[0])
            assert space.dim == len(ref) and space.pivots == pivots
        assert len(set(equal)) == 1

        # one entry off a pivot column changes the subspace
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        if free:
            i, c = rng.choice(free)
            bumped = [list(row) for row in ref]
            bumped[i][c] += 1
            other = Subspace(n, ExactMatrix(bumped), pivots)
            assert other != equal[0] and equal[0] != other
            assert len({other, equal[0]}) == 2
        assert Subspace.full_space(n) != Subspace.zero_space(n)
        assert Subspace.zero_space(n) != Subspace.zero_space(n + 1)

        # the same span, as matrices: from_matrices against the flat vectors
        if trial % 3 == 0:
            k = rng.randint(1, 3)
            mats = [_sparse_random_matrix(rng, k, k, 0.4) for _ in range(rng.randint(1, 4))]
            endo = EndoSubspace.from_matrices(mats, k)
            again = EndoSubspace.from_matrices([2 * x for x in reversed(mats)], k)
            assert endo == again and hash(endo) == hash(again)
            assert endo.space == Subspace.from_vectors([_flat(x) for x in mats], k * k)


def test_lazy_dense_views_match_reference():
    rng = random.Random(53)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        m = _sparse_random_matrix(rng, nrows, ncols, rng.choice([0.2, 0.5, 1.0]))
        ref = _nonzero_rows(reference_rref(m))

        space = Subspace.from_vectors(m.rows, ncols)
        # the one store is integer rows; the basis is built on each read
        assert all(type(v) is int for _, row in space._rows for _, v in row)
        assert space.basis == space.basis and space.basis is not space.basis
        assert store_is_canonical(space.basis)
        assert list(space.basis.rows) == ref and _all_fractions(space.basis)
        assert space.basis.shape == (len(ref), ncols)

        # kernel results hold only the integer store; rows are computed on read
        b = _sparse_random_matrix(rng, ncols, rng.randint(1, 6), 0.5)
        c = _sparse_random_matrix(rng, nrows, ncols, 0.5)
        diff = ExactMatrix([[x - y for x, y in zip(u, v)] for u, v in zip(m.rows, c.rows)])
        for got, want in ((m * b, reference_matmul(m, b)), (kron(m, b), reference_kron(m, b)),
                          (m - c, diff), (-m, m * -1)):
            assert store_is_canonical(got)
            rebuilt = ExactMatrix(got.rows)
            assert got == want == rebuilt and _all_fractions(got)
            assert got._fraction_rows() == rebuilt._fraction_rows()
            assert got._int_rows() == rebuilt._int_rows()

        # basis matrices hold the same store
        k = rng.randint(1, 4)
        mats = [_sparse_random_matrix(rng, k, k, 0.5) for _ in range(3)]
        endo = EndoSubspace.from_matrices(mats, k)
        for mat, row in zip(endo.basis_matrices(), endo.space.basis.rows, strict=True):
            assert store_is_canonical(mat)
            assert mat._nonzero_entries() == {divmod(j, k): x for j, x in enumerate(row) if x}
            assert _flat(mat) == row and mat == _unflat(k, k, row)


def test_matrix_equality_and_hash_across_views():
    # == and hash read the canonical integer store, so a matrix built from
    # dense rows, from a scaled store or as a kernel result compares and
    # hashes alike
    rng = random.Random(59)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = _sparse_random_matrix(rng, nrows, ncols, rng.choice([0.2, 0.5, 1.0]))
        zero = ExactMatrix.zero(nrows, ncols)
        same = [
            ExactMatrix(m.rows),
            # the store scaled by 6, which _from_ints cuts back down
            ExactMatrix._from_ints(nrows, ncols, 6 * m._int_rows()[0],
                                   {i: [(c, 6 * v) for c, v in row]
                                    for i, row in m._int_rows()[1].items()}),
            m * ExactMatrix.identity(ncols),
            ExactMatrix.identity(nrows) * m,
            m + zero,
            (m * 6) * Fraction(1, 6),
            -(-m),
        ]
        for x in same:
            assert x == m and m == x and not x != m
            assert hash(x) == hash(m)
        assert all(store_is_canonical(x) for x in same)  # compared on the store
        assert len(set(same + [m])) == 1

        # sums that cancel to zero equal the zero matrix of their shape
        zeros = [zero, m - m, m + m * -1, ExactMatrix([[0] * ncols] * nrows), 0 * m]
        if nrows == ncols:
            zeros.append(commutator(ExactMatrix.identity(nrows), m))
        for x in zeros:
            assert x == zero and hash(x) == hash(zero) and x.is_zero()
        assert (m == zero) == m.is_zero()

        # one entry changed, or the same entries in another shape, differ
        i, j = rng.randrange(nrows), rng.randrange(ncols)
        bumped = [list(row) for row in m.rows]
        bumped[i][j] += Fraction(1, 3)
        assert ExactMatrix(bumped) != m and m != ExactMatrix(bumped)
        flat = _flat(m)
        for shape in ((1, nrows * ncols), (nrows * ncols, 1), (ncols, nrows)):
            if shape != (nrows, ncols):
                assert _unflat(*shape, flat) != m
        if nrows != ncols:
            assert zero != ExactMatrix.zero(ncols, nrows)

        # a non-matrix operand is never equal
        for other in (m.rows, list(m.rows), flat, 0, None, "m"):
            assert m != other and not m == other

        # identity and basis matrices
        n = rng.randint(1, 4)
        dense_identity = ExactMatrix([[int(r == c) for c in range(n)] for r in range(n)])
        for x in (ExactMatrix.identity(n), kron(ExactMatrix.identity(1), ExactMatrix.identity(n))):
            assert x == dense_identity and hash(x) == hash(dense_identity)
        if trial % 4 == 0:
            mats = [_sparse_random_matrix(rng, n, n, 0.5) for _ in range(3)]
            endo = EndoSubspace.from_matrices(mats, n)
            for mat, row in zip(endo.basis_matrices(), endo.space.basis.rows, strict=True):
                dense = _unflat(n, n, row)
                assert mat == dense and hash(mat) == hash(dense)
                assert mat == mat * ExactMatrix.identity(n) and store_is_canonical(mat)


def _store_matrix(rng, nrows, ncols):
    """A random matrix with empty rows, and entries of mixed denominators,
    some past 2^64; now and then all zero."""
    density = rng.choice([0.0, 0.15, 0.4, 1.0])
    empty = set(rng.sample(range(nrows), rng.randint(0, nrows)))
    return ExactMatrix([[_wide_entry(rng) if i not in empty and rng.random() < density else 0
                         for _ in range(ncols)] for i in range(nrows)])


def _dense_product(x, y):
    return [[sum((p * q for p, q in zip(row, col)), Fraction(0)) for col in zip(*y)] for row in x]


def _dense_kron(x, y):
    return [[p * q for p in rx for q in ry] for rx in x for ry in y]


def _as_dense(m):
    return [list(row) for row in m.rows]


def _check_readers(m, dense):
    # every view computed from the store against the dense reference rows
    nrows, ncols = len(dense), len(dense[0]) if dense else m.ncols
    assert m.shape == (nrows, ncols) and store_is_canonical(m)
    assert m.rows == tuple(map(tuple, dense)) and _all_fractions(m)
    nonzero = {(i, c): x for i, row in enumerate(dense) for c, x in enumerate(row) if x}
    assert m._nonzero_entries() == nonzero
    assert m._flat_ints() == {i * ncols + c: x * m._den for (i, c), x in nonzero.items()}
    assert m._fraction_rows() == [[(c, x) for c, x in enumerate(row) if x] for row in dense]
    den, nz = m._int_rows()
    assert den == math.lcm(*(x.denominator for x in nonzero.values()))
    assert {(i, c): Fraction(v, den) for i, row in nz.items() for c, v in row} == nonzero
    assert m.is_zero() == (not nonzero)
    for i in range(nrows):
        for j in range(ncols):
            assert m[i, j] == dense[i][j] and type(m[i, j]) is Fraction
    if nrows:
        assert m[-1, -ncols] == dense[-1][-ncols]
    for j in range(ncols):
        assert m.column(j) == tuple(row[j] for row in dense)
    with pytest.raises(IndexError):
        m[nrows, 0]
    assert str(m) == "\n".join("[" + ", ".join(map(str, row)) + "]" for row in dense)


def test_sparse_store_kernels_and_readers_match_dense_oracles():
    # every kernel and reader of the one integer store, against dense Fraction
    # references computed here from .rows
    rng = random.Random(2026)
    shapes = [(1, 1), (1, 5), (5, 1), (1, 7), (6, 1), (2, 3), (4, 4), (3, 6), (6, 6)]
    for _ in range(80):
        nrows, ncols = rng.choice(shapes)
        other = rng.randint(1, 5)
        a = _store_matrix(rng, nrows, ncols)
        a2 = _store_matrix(rng, nrows, ncols)
        b = _store_matrix(rng, ncols, other)
        s, t = _store_matrix(rng, nrows, nrows), _store_matrix(rng, nrows, nrows)
        da, da2, db, ds, dt = map(_as_dense, (a, a2, b, s, t))
        c = rng.choice([Fraction(0), Fraction(-1), Fraction(5, 12), Fraction(-(2**65) - 3, 7)])
        d = rng.choice([2, Fraction(-3, 4), Fraction(2**64 + 1, 3)])
        v = [_wide_entry(rng) if rng.random() < 0.5 else 0 for _ in range(ncols)]
        r0, r1 = sorted(rng.sample(range(nrows + 1), 2)) if nrows > 1 else (0, 1)
        c0, c1 = sorted(rng.sample(range(ncols + 1), 2)) if ncols > 1 else (0, 1)
        ds_dt, dt_ds = _dense_product(ds, dt), _dense_product(dt, ds)
        combination = [[c * x + d * y - z for x, y, z in zip(*rows)] for rows in zip(da, da2, da)]
        checks = [
            (a.matmul(b), _dense_product(da, db)),
            (a * b, _dense_product(da, db)),
            (commutator(s, t), [[x - y for x, y in zip(*rows)] for rows in zip(ds_dt, dt_ds)]),
            (kron(a, b), _dense_kron(da, db)),
            (kron(b, s), _dense_kron(db, ds)),
            (linear_combination([(c, a), (d, a2), (-1, a)], nrows, ncols), combination),
            (a + a2, [[x + y for x, y in zip(*rows)] for rows in zip(da, da2)]),
            (a - a2, [[x - y for x, y in zip(*rows)] for rows in zip(da, da2)]),
            (a - a, [[0] * ncols for _ in range(nrows)]),
            (a * c, [[x * c for x in row] for row in da]),
            (d * a, [[d * x for x in row] for row in da]),
            (-a, [[-x for x in row] for row in da]),
            (a.transpose(), [list(col) for col in zip(*da)]),
            (a.block(r0, r1, c0, c1), [row[c0:c1] for row in da[r0:r1]]),
            (ExactMatrix.zero(nrows, ncols), [[0] * ncols for _ in range(nrows)]),
            (ExactMatrix.identity(nrows), [[int(i == j) for j in range(nrows)] for i in range(nrows)]),
        ]
        for got, want in checks:
            want = [[Fraction(x) for x in row] for row in want]
            _check_readers(got, want)
            assert got == ExactMatrix(want) and hash(got) == hash(ExactMatrix(want))
        _check_readers(a, da)
        assert a.apply(v) == tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in da)
        assert all(type(x) is Fraction for x in a.apply(v))
        # 0-row shapes pass through the kernels
        empty = ExactMatrix.zero(0, nrows)
        assert (empty * a).shape == (0, ncols) and (empty * a).is_zero()
        assert kron(empty, b).shape == (0, nrows * other) and kron(b, empty).rows == ()

        # == and hash agree however the same matrix is built
        den, nz = a._int_rows()
        k = rng.choice([1, 6, 2**64 + 13])
        same = [
            ExactMatrix(da),
            ExactMatrix(tuple(map(tuple, da))),
            ExactMatrix._from_ints(nrows, ncols, k * den,
                                   {i: [(j, k * x) for j, x in row] for i, row in nz.items()}),
            ExactMatrix([[rat_str(x) for x in row] for row in da]),
            a * ExactMatrix.identity(ncols),
            ExactMatrix.identity(nrows) * a,
            a + ExactMatrix.zero(nrows, ncols),
            linear_combination([(1, a)], nrows, ncols),
            (a * 6) * Fraction(1, 6),
            -(-a),
            kron(ExactMatrix.identity(1), a),
            a.transpose().transpose(),
            a.block(0, nrows, 0, ncols),
        ]
        for x in same:
            assert x == a and a == x and hash(x) == hash(a) and store_is_canonical(x)
        assert len(set(same)) == 1
        # a basis matrix is its span's RREF row: a over its leading entry
        if nrows == ncols and not a.is_zero():
            (mat,) = EndoSubspace.from_matrices([a, 2 * a], nrows).basis_matrices()
            lead = next(x for x in _flat(a) if x)
            assert mat == a * (1 / lead) and hash(mat) == hash(a * (1 / lead))
            _check_readers(mat, [[x / lead for x in row] for row in da])

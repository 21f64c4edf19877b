"""The integer paths of the derive pipeline against dense Fraction oracles.

Elimination, the null-space hand-off, the Lie axiom check, matrix linear
combinations and the template match all compute in Python ints over a
common denominator and build Fractions only for what they return.  Each
test here evaluates the same thing densely in Fractions, inside the test,
and compares exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from helpers import int_rows, rand_frac, rand_matrix, reference_match
from test_startup import fresh

from currentlie.assoc import AssocAlgebra, truncated_polynomial
from currentlie.current import current_algebra
from currentlie.heisenberg import DerivationTemplate, match_template, truncated_heisenberg
from currentlie.lie import (
    LieAlgebra,
    center,
    centroid,
    derivations,
    first_lie_violation,
    heisenberg,
    killing_form,
    sp,
)
from currentlie.linalg import (
    ExactMatrix,
    Subspace,
    _nullspace_from_system,
    _rref_ints,
    linear_combination,
    nullspace,
    rat_str,
)
from currentlie.serialize import algebra_from_dict, algebra_to_dict, load_algebra, save_algebra

ZERO = Fraction(0)


# -- elimination and the null-space hand-off --------------------------------


def _dense_gauss_jordan(rows: list, ncols: int) -> tuple[list, list]:
    """Pivots and RREF rows of dense Fraction rows, by textbook Gauss-Jordan."""
    rows = [list(r) for r in rows]
    pivots, reduced = [], []
    for c in range(ncols):
        i = next((i for i, r in enumerate(rows) if r[c]), None)
        if i is None:
            continue
        top = rows.pop(i)
        top = [x / top[c] for x in top]
        reduced = [[x - r[c] * y for x, y in zip(r, top)] if r[c] else r for r in reduced]
        rows = [[x - r[c] * y for x, y in zip(r, top)] if r[c] else r for r in rows]
        pivots.append(c)
        reduced.append(top)
    return pivots, reduced


def _dense_nullspace(rows: list, ncols: int) -> Subspace:
    """{x : rows x = 0} from the free-column solutions, as a Subspace."""
    pivots, reduced = _dense_gauss_jordan(rows, ncols)
    solutions = []
    for f in range(ncols):
        if f not in pivots:
            v = [ZERO] * ncols
            v[f] = Fraction(1)
            for p, r in zip(pivots, reduced):
                v[p] = -r[f]
            solutions.append(v)
    pivots, basis = _dense_gauss_jordan(solutions, ncols)
    mat = ExactMatrix(basis) if basis else ExactMatrix.zero(0, ncols)
    return Subspace(ncols, mat, tuple(pivots))


def _entry(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-4, 4)  # integer rows, as the Leibniz assembler emits
    if kind == 1:
        return rand_frac(rng, 9, 7)
    if kind == 2:
        return Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**65))
    return rng.choice([1, -1])


def _random_system(rng: random.Random, ncols: int) -> list:
    """Sparse rows with repeated, scaled, fractional and cancelling rows."""
    base = []
    for _ in range(rng.randint(1, 8)):
        width = rng.choice([1, 1, 2, 2, 3, ncols])
        row = {c: _entry(rng) for c in rng.sample(range(ncols), min(width, ncols))}
        base.append({c: x for c, x in row.items() if x})
    rows = list(base)
    for row in rng.sample(base, min(3, len(base))):
        rows.append(dict(row))  # repeated
        scale = rng.choice([Fraction(-2, 3), 5, Fraction(7, 2**40)])
        rows.append({c: scale * x for c, x in row.items()})  # scaled
        rows.append({c: -x for c, x in row.items()})  # cancels the original
    if len(base) > 1:
        # a - b and a + b: entries may cancel, the difference to nothing
        a, b = rng.sample(base, 2)
        for sign in (-1, 1):
            combo = {c: a.get(c, 0) + sign * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: x for c, x in combo.items() if x})
    rng.shuffle(rows)
    return rows


def test_integer_rref_hand_off_and_nullspace_match_dense_oracle():
    rng = random.Random(83)
    for _ in range(80):
        ncols = rng.randint(1, 14)
        rows = _random_system(rng, ncols)
        dense = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
        pivots, reduced = _dense_gauss_jordan(dense, ncols)

        # the integer rows: primitive, pivot entry d > 0, row / d the RREF row
        ints = int_rows(rows)
        triples = _rref_ints(ints)
        assert [p for p, _, _ in triples] == pivots
        for (p, d, row), want in zip(triples, reduced):
            assert all(type(x) is int and x for x in row.values())
            assert d == row[p] > 0 and gcd(*row.values()) == 1
            assert [Fraction(row.get(c, 0), d) for c in range(ncols)] == want
        # the Subspace store holds those integer rows; its Fraction reads
        # (basis, reduce, coordinates) match the dense oracle
        span = Subspace.from_vectors(dense, ncols)
        assert span.pivots == tuple(pivots)
        assert span._rows == [(d, sorted(row.items())) for _, d, row in triples]
        assert list(span.basis.rows) == [tuple(r) for r in reduced]
        _check_reads(span, reduced, random.Random(len(rows)))

        expected = _dense_nullspace(dense, ncols)
        got = _nullspace_from_system(ints, ncols)
        assert got == expected and got.pivots == expected.pivots
        assert got._rows == expected._rows and got.basis == expected.basis
        assert nullspace(ExactMatrix(dense)) == expected
        assert all(type(v) is int for _, row in got._rows for _, v in row)
        ns_rows = [list(r) for r in got.basis.rows]
        assert _dense_gauss_jordan(ns_rows, ncols) == (list(got.pivots), ns_rows)
        _check_reads(got, ns_rows, random.Random(ncols))


def _check_reads(space: Subspace, reduced: list, rng: random.Random) -> None:
    """reduce, coordinates and contains of space against its dense RREF rows."""
    ncols = space.ambient
    for _ in range(4):
        coeffs = [rand_frac(rng) if rng.random() < 0.7 else ZERO for _ in reduced]
        inside = [sum((c * r[j] for c, r in zip(coeffs, reduced)), ZERO) for j in range(ncols)]
        outside = [x + rand_frac(rng) for x in inside]
        # the dense remainder: take off the entry at each pivot times its row
        rest = list(outside)
        for p, r in zip(space.pivots, reduced):
            f = rest[p]
            rest = [x - f * y for x, y in zip(rest, r)]
        assert space.coordinates(inside) == tuple(coeffs) and space.contains(inside)
        assert space.reduce(inside) == [ZERO] * ncols
        assert space.reduce(outside) == rest
        assert all(type(x) is Fraction for x in space.reduce(outside))
        assert (space.coordinates(outside) is None) == any(rest) == (not space.contains(outside))


def test_derive_path_builds_no_fraction():
    # Fraction.__new__ is counted in a fresh interpreter, around derivations
    # and basis_matrices only; the dense view of one matrix shows the count
    # works (on Python 3.12+ Fraction arithmetic bypasses __new__, so there
    # only constructor calls are counted)
    out = fresh("""
        from fractions import Fraction
        from currentlie.assoc import truncated_polynomial
        from currentlie.current import current_algebra
        from currentlie.lie import derivations, heisenberg

        product = current_algebra(heisenberg(2), truncated_polynomial(4)).product
        made = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made[0] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = counting
        mats = derivations(product).basis_matrices()
        during = made[0]
        mats[0].rows
        Fraction.__new__ = new
        print(during, len(mats), made[0] > 0)
    """)
    assert out.split() == ["0", "159", "True"]


def test_certificate_checks_build_no_fraction():
    # the radical, the coordinates of a summand over der, the membership
    # tests of the Levi certificate and the structure constants of der
    # (lie_from_endo_span) are computed on integer rows: Fraction.__new__ is
    # counted in a fresh interpreter around each, with every memo they read
    # built beforehand; a coordinate read, which returns Fractions, shows
    # that the count works
    out = fresh("""
        from fractions import Fraction
        from currentlie.current import _der_coordinates, summand_k
        from currentlie.heisenberg import truncated_heisenberg
        from currentlie.lie import (
            _derivation_algebra, derived_subalgebra, is_ideal, is_subalgebra_closed,
            lie_from_endo_span, solvable_radical,
        )

        ca = truncated_heisenberg(1, 2)
        der, k = ca.derivations(), summand_k(ca)
        lie_der = _derivation_algebra(ca.product)
        k_coords = _der_coordinates(der, k)
        rad, derived = solvable_radical(lie_der), derived_subalgebra(lie_der)
        checks = {
            "solvable_radical": lambda: solvable_radical(lie_der) == rad,
            "_der_coordinates": lambda: _der_coordinates(der, k) == k_coords,
            "is_ideal": lambda: is_ideal(lie_der, k_coords),
            "is_subalgebra_closed": lambda: is_subalgebra_closed(lie_der, derived),
            "is_subspace_of": lambda: k_coords.is_subspace_of(rad),
            "lie_from_endo_span": lambda: lie_from_endo_span(der) == lie_der,
            "coordinates": lambda: derived.coordinates(derived.basis.rows[0]) is not None,
        }
        made = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made[0] += 1
            return new(cls, *args, **kwargs)

        print(der.dim, k.dim, rad.dim, derived.dim)
        for name, check in checks.items():
            made[0] = 0
            Fraction.__new__ = counting
            result = check()
            Fraction.__new__ = new
            print(name, result, made[0] if name != "coordinates" else made[0] > 0)
    """)
    assert out.splitlines() == [
        "32 18 29 30",
        "solvable_radical True 0",
        "_der_coordinates True 0",
        "is_ideal True 0",
        "is_subalgebra_closed True 0",
        "is_subspace_of True 0",
        "lie_from_endo_span True 0",
        "coordinates True True",
    ]


def test_nullspace_of_leibniz_like_integer_systems():
    # integer rows only, most of them one-entry or repeated, with a few
    # long rows whose pivots need an lcm of several pivot entries
    rng = random.Random(89)
    for _ in range(40):
        ncols = rng.randint(2, 24)
        rows = []
        for _ in range(rng.randint(1, 2 * ncols)):
            width = rng.choice([1, 1, 1, 2, 2, 3])
            cols = rng.sample(range(ncols), min(width, ncols))
            rows.append({c: rng.choice([1, -1, 2, -3, 6]) for c in cols})
        rows += [dict(row) for row in rng.sample(rows, len(rows) // 2)]
        dense = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
        assert _nullspace_from_system(rows, ncols) == _dense_nullspace(dense, ncols)


# -- matrix linear combinations ---------------------------------------------


def _sparse_matrix(rng: random.Random, nrows: int, ncols: int) -> ExactMatrix:
    return ExactMatrix(
        [[rand_frac(rng) if rng.random() < 0.4 else 0 for _ in range(ncols)] for _ in range(nrows)]
    )


def test_linear_combination_matches_chained_sums_and_dense_oracle():
    rng = random.Random(97)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mats = [
            rng.choice([rand_matrix, _sparse_matrix])(rng, nrows, ncols)
            for _ in range(rng.randint(1, 5))
        ]
        coeffs = [
            rng.choice([0, 1, -1, rand_frac(rng), Fraction(rng.randint(1, 2**70), 3**45)])
            for _ in mats
        ]
        terms = list(zip(coeffs, mats))
        if trial % 2:
            # the same matrix again with the opposite coefficient: it cancels
            c, m = rng.choice(terms)
            terms.append((-c, m))
        got = linear_combination(terms, nrows, ncols)

        chained = ExactMatrix.zero(nrows, ncols)
        for c, m in terms:
            if c:
                chained = chained + c * m
        dense = [
            [sum((Fraction(c) * m.rows[i][j] for c, m in terms), ZERO) for j in range(ncols)]
            for i in range(nrows)
        ]
        assert got == chained == ExactMatrix(dense)
        assert got.rows == ExactMatrix(dense).rows
        assert all(type(x) is Fraction for row in got.rows for x in row)
        # the canonical integer store keeps no zero that cancelled, nor a row emptied by it
        assert all(row and all(v for _, v in row) for row in got._int_rows()[1].values())
        assert hash(got) == hash(ExactMatrix(dense))

    m = rand_matrix(rng, 3, 2)
    cancelled = linear_combination([(Fraction(2, 3), m), (Fraction(-2, 3), m)], 3, 2)
    assert cancelled.is_zero() and cancelled == ExactMatrix.zero(3, 2)
    assert linear_combination([], 2, 4) == ExactMatrix.zero(2, 4)
    with pytest.raises(ValueError):
        linear_combination([(1, m)], 2, 3)
    with pytest.raises(ValueError):
        m + rand_matrix(rng, 2, 3)


# -- the Lie axiom check ----------------------------------------------------


def _dense_first_violation(g: LieAlgebra):
    """The first failing instance, by loops over the dense `.structure`."""
    n, c, labels = g.dim, g.structure, g.labels

    def combo(vec):
        return " + ".join(f"{rat_str(x)}*{labels[p]}" for p, x in enumerate(vec) if x) or "0"

    for i in range(n):
        if any(c[i][i]):
            return f"[{labels[i]},{labels[i]}] = {combo(c[i][i])} != 0"
        for j in range(i + 1, n):
            total = [a + b for a, b in zip(c[i][j], c[j][i])]
            if any(total):
                pair = f"[{labels[i]},{labels[j]}] + [{labels[j]},{labels[i]}]"
                return f"antisymmetry fails: {pair} = {combo(total)}"
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_a, [e_b, e_c]] = sum_m c_bc^m [e_a, e_m]
                total = [ZERO] * n
                for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(n):
                        for p in range(n):
                            total[p] += c[b][cc][m] * c[a][m][p]
                if any(total):
                    names = f"{labels[i]}, {labels[j]}, {labels[k]}"
                    return f"Jacobi fails on ({names}): cyclic sum = {combo(total)}"
    return None


def _fractional_algebras() -> list:
    # h_1 with [e,f] = 2/3 z; sp(1) in the basis (2/3 h, 5/7 e, 3/4 f);
    # and the current algebra of the latter over Q[t]/(t^2)
    h1 = LieAlgebra.from_bracket_entries(["e", "f", "z"], [(0, 1, 2, Fraction(2, 3))])
    sp1 = LieAlgebra.from_bracket_entries(
        ["h", "e", "f"],
        [(0, 1, 1, Fraction(4, 3)), (0, 2, 2, Fraction(-4, 3)), (1, 2, 0, Fraction(45, 56))],
    )
    return [h1, sp1, current_algebra(sp1, truncated_polynomial(1)).product]


def rescaled_truncated_polynomial(scales) -> AssocAlgebra:
    """Q[t]/(t^n), n = len(scales), in the basis b_i = scales[i] t^i (scales[0] = 1)."""
    n = len(scales)
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            # b_i b_j = s_i s_j t^(i+j) = (s_i s_j / s_(i+j)) b_(i+j)
            table[i][j][i + j] = Fraction(scales[i]) * scales[j] / scales[i + j]
    return AssocAlgebra([f"b{i}" for i in range(n)], table, [1] + [0] * (n - 1))


def test_store_is_canonical_across_constructors(tmp_path):
    # the dense table, sparse entries, the loader and a store over 6 den all
    # give one algebra: equal, with equal hashes, den and numerators
    algebras = _fractional_algebras() + [rescaled_truncated_polynomial((1, Fraction(1, 2), 3))]
    assert [x.den for x in algebras] == [3, 168, 168, 12]
    for t, alg in enumerate(algebras):
        path = tmp_path / f"alg{t}.json"
        save_algebra(alg, path)
        tripled = {key: tuple((k, 6 * v) for k, v in terms) for key, terms in alg.products.items()}
        extra = [alg.unit] if isinstance(alg, AssocAlgebra) else []
        copies = [
            type(alg)(alg.labels, alg.structure, *extra),
            type(alg)._from_products(alg.labels, 6 * alg.den, tripled, *extra),
            algebra_from_dict(algebra_to_dict(alg)),
            load_algebra(path),
        ]
        if isinstance(alg, LieAlgebra):
            c = alg.structure
            entries = [
                (i, j, k, c[i][j][k])
                for i in range(alg.dim)
                for j in range(i + 1, alg.dim)
                for k in range(alg.dim)
            ]
            copies.append(LieAlgebra.from_bracket_entries(alg.labels, entries))
        for copy in copies:
            assert copy == alg and hash(copy) == hash(alg)
            assert (copy.den, copy.products) == (alg.den, alg.products)
            assert algebra_to_dict(copy) == algebra_to_dict(alg)


@pytest.mark.parametrize("g", [heisenberg(2), sp(1)], ids=["h_2", "sp(1)"])
def test_constants_scaled_by_a_seventh(g):
    # the Leibniz, centroid and centre equations are homogeneous in the
    # constants, and the Killing form is quadratic in them
    scaled = LieAlgebra(g.labels, [[[x / 7 for x in v] for v in row] for row in g.structure])
    assert scaled.den == 7 * g.den
    assert derivations(scaled) == derivations(g)
    assert centroid(scaled) == centroid(g)
    assert center(scaled) == center(g)
    assert killing_form(scaled) == killing_form(g) * Fraction(1, 49)


def test_lie_violations_with_fractional_constants_match_dense_loop():
    rng = random.Random(101)
    kinds = set()
    for g in _fractional_algebras():
        assert first_lie_violation(g) is None and _dense_first_violation(g) is None
        for t in range(40):
            table = [[list(v) for v in row] for row in g.structure]
            i, j, k = (rng.randrange(g.dim) for _ in range(3))
            table[i][j][k] += Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 9))
            if t % 4 and i != j:
                table[j][i][k] = -table[i][j][k]  # keep antisymmetry
            h = LieAlgebra(g.labels, table)
            message = first_lie_violation(h)
            assert message == _dense_first_violation(h)
            kinds.add(message[:1] if message else None)
    # [x,x] != 0, antisymmetry and Jacobi failures all occur, and so do passes
    assert kinds == {None, "[", "a", "J"}


def test_jacobi_sum_with_fractional_constants_is_reduced():
    # [e,f] = 2/3 z and [f,z] = 3/5 f: on (e, f, z) the cyclic sum is
    # [e,[f,z]] + [f,[z,e]] + [z,[e,f]] = 3/5 * 2/3 z + 0 + 0 = 2/5 z; the
    # check sees 90 z over den^2 = 15^2 and must print the reduced 2/5
    g = LieAlgebra.from_bracket_entries(
        ["e", "f", "z"], [(0, 1, 2, Fraction(2, 3)), (1, 2, 1, Fraction(3, 5))]
    )
    assert first_lie_violation(g) == "Jacobi fails on (e, f, z): cyclic sum = 2/5*z"
    assert first_lie_violation(g) == _dense_first_violation(g)


# -- the template match -----------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 2), (2, 1), (2, 3)])
def test_match_fractional_multiples_and_combinations(m, k):
    rng = random.Random(100 * m + k)
    tpl = DerivationTemplate(m, k)
    basis = list(truncated_heisenberg(m, k).derivations().basis_matrices())
    scales = [Fraction(1, 3), Fraction(-5, 7), Fraction(2**70 + 1, 3**40), Fraction(7, 2), 3]
    for mat in rng.sample(basis, min(12, len(basis))):
        c = rng.choice(scales)
        base, fit = match_template(m, k, mat), match_template(m, k, c * mat)
        assert base.ok and fit.ok and tpl.matrix(fit.params) == c * mat
        assert fit.params == {key: c * v for key, v in base.params.items()}
        assert all(type(v) is Fraction for v in fit.params.values())
    # fractional combinations, and template matrices whose p series has odd
    # numerators (the z corner holds 2 p_r, the one place match divides)
    samples = []
    for _ in range(6):
        terms = [(rng.choice(scales) * rand_frac(rng), b) for b in rng.sample(basis, 4)]
        samples.append(linear_combination(terms, tpl.dim, tpl.dim))
    for density in (0.3, 1.0):
        assignment = {
            key: Fraction(rng.randrange(1, 40, 2), rng.choice([1, 3, 7, 2**65]))
            for key in tpl.parameter_keys()
            if key[0] == "p" or rng.random() < density
        }
        mat = tpl.matrix(assignment)
        fit = match_template(m, k, mat)
        assert fit.ok and all(fit.params[key] == v for key, v in assignment.items())
        samples.append(mat)
    for mat in samples:
        fit = match_template(m, k, mat)
        assert fit.ok and tpl.matrix(fit.params) == mat
        assert fit.params == reference_match(tpl, mat).params
    # perturbed entries: the first bad block is the dense reference's, and
    # scaling the whole matrix keeps it
    for mat in samples:
        for _ in range(12):
            r, c = rng.randrange(tpl.dim), rng.randrange(tpl.dim)
            rows = [list(row) for row in mat.rows]
            rows[r][c] += Fraction(rng.randint(1, 5), rng.randint(2, 9))
            bad = ExactMatrix(rows)
            fit, ref = match_template(m, k, bad), reference_match(tpl, bad)
            assert fit.ok == ref.ok
            if ref.ok:
                assert tpl.matrix(fit.params) == bad  # the strip is free
            else:
                assert (fit.block, fit.relation) == (ref.block, ref.relation)
                scaled = match_template(m, k, Fraction(-3, 11) * bad)
                assert (scaled.block, scaled.relation) == (fit.block, fit.relation)

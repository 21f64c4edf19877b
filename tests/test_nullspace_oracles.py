"""The one-elimination null space against dense Fraction oracles.

`_nullspace_from_system` numbers the unknowns in reverse and solves the
two-entry rows by a union-find before it eliminates the rest, so that
its free-column solutions already are the canonical RREF basis of the
null space.  Here that basis is compared with a dense Fraction null
space computed inside the test, on random systems, on systems built for
the union-find and on the Leibniz, centroid and hom systems of the
algebra callers, and the RREF invariants are asserted directly.  Last,
`levi` must report the same in a dense basis, where no row has two
entries, as in the standard one.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from helpers import int_rows, rand_frac, rebased
from test_integer_paths import _check_reads, _fractional_algebras, rescaled_truncated_polynomial

from currentlie import linalg
from currentlie.assoc import derivations as assoc_derivations
from currentlie.assoc import truncated_polynomial
from currentlie.cli import main
from currentlie.current import current_algebra
from currentlie.lie import centroid, derivations, heisenberg, hom_quotient_to_center, sp
from currentlie.linalg import (
    ExactMatrix,
    Subspace,
    _nullspace_from_system,
    _nullspace_reversed,
    nullspace,
)
from currentlie.serialize import save_algebra

ZERO = Fraction(0)
ONE = Fraction(1)


def _echelon(rows: list, ncols: int) -> dict:
    """{pivot: dense RREF row} of the span of dense Fraction rows.

    Each row is reduced against the rows kept so far and kept, scaled to
    a leading 1, if anything is left; then every kept row is cleared at
    the later pivots.
    """
    kept = {}
    for row in rows:
        row = list(row)
        for p, top in kept.items():
            if row[p]:
                f = row[p]
                row = [x - f * y if y else x for x, y in zip(row, top)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            f = row[lead]
            row = [x / f if x else x for x in row]
            for p, top in kept.items():
                if top[lead]:
                    f = top[lead]
                    kept[p] = [x - f * y if y else x for x, y in zip(top, row)]
            kept[lead] = row
    return dict(sorted(kept.items()))


def dense_nullspace(rows: list, ncols: int) -> Subspace:
    """{x : rows x = 0} for dense Fraction rows, as a canonical Subspace."""
    basis = dense_nullspace_rows(rows, ncols)
    mat = ExactMatrix(list(basis.values())) if basis else ExactMatrix.zero(0, ncols)
    return Subspace(ncols, mat, tuple(basis))


def dense_nullspace_rows(rows: list, ncols: int) -> dict:
    """{pivot: dense RREF row} of {x : rows x = 0}, for dense Fraction rows."""
    reduced = _echelon(rows, ncols)
    solutions = []
    for f in range(ncols):
        if f not in reduced:
            v = [ZERO] * ncols
            v[f] = ONE
            for p, row in reduced.items():
                v[p] = -row[f]
            solutions.append(v)
    return _echelon(solutions, ncols)


def assert_canonical_rref(space: Subspace) -> None:
    """Pivots increase, each row leads at its pivot, other rows are 0 there.

    The store holds each row as (d, row): primitive ints by index, leading
    with d > 0 at the pivot, so that the RREF row, row / d, leads with 1.
    """
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space._rows) == len(space.pivots)
    for p, (d, row) in zip(space.pivots, space._rows):
        assert row[0] == (p, d) and d > 0
        assert [j for j, _ in row] == sorted({j for j, _ in row})
        assert all(type(x) is int and x for _, x in row)
        assert math.gcd(*(x for _, x in row)) == 1
    for i, (_, row) in enumerate(space._rows):
        entries = dict(row)
        assert all(q not in entries for k, q in enumerate(space.pivots) if k != i)
    dense = space.basis.rows
    assert all(r[p] == 1 for p, r in zip(space.pivots, dense))


def _dense(rows: list, ncols: int) -> list:
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


# -- random systems ---------------------------------------------------------


def _entry(rng: random.Random):
    # a nonzero int, small Fraction, int above 2^64 or Fraction over 2^64
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([1, -1, 2, -3, 6])
    if kind == 1:
        return rand_frac(rng, 9, 7) or Fraction(1, 7)
    if kind == 2:
        return rng.choice([1, -1]) * rng.randint(2**64 + 1, 2**80)
    return Fraction(rng.randint(-(2**70), 2**70), rng.randint(2**64, 2**66))


def _random_rows(rng: random.Random, ncols: int) -> list:
    """1-4 entry rows, with repeated, scaled and empty rows mixed in."""
    rows = []
    for _ in range(rng.randint(0, ncols + 4)):
        cols = rng.sample(range(ncols), min(rng.randint(1, 4), ncols))
        rows.append({c: _entry(rng) for c in cols})
    for row in rng.sample(rows, len(rows) // 3):
        rows.append(dict(row))
        scale = rng.choice([-1, 3, Fraction(-5, 7), 2**65])
        rows.append({c: scale * x for c, x in row.items()})
    rows += [{}] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows


def _full_rank_rows(rng: random.Random, ncols: int) -> list:
    """An upper unitriangular-by-diagonal system: rank ncols, so x = 0 only."""
    rows = []
    for c in range(ncols):
        row = {c: _entry(rng)}
        for j in rng.sample(range(c + 1, ncols), min(rng.randint(0, 3), ncols - c - 1)):
            row[j] = _entry(rng)
        rows.append(row)
    rows += [dict(row) for row in rng.sample(rows, ncols // 2)]
    rng.shuffle(rows)
    return rows


def test_reversed_order_nullspace_matches_dense_oracle():
    rng = random.Random(20261018)
    kinds = {"random": 0, "zero": 0, "full": 0, "nonzero": 0}
    for trial in range(200):
        ncols = 1 + trial % 40 if trial < 80 else rng.randint(1, 40)
        if trial % 25 == 3:
            rows, kind = [{} for _ in range(rng.randint(0, 3))], "zero"
        elif trial % 25 == 7:
            rows, kind = _full_rank_rows(rng, ncols), "full"
        else:
            rows, kind = _random_rows(rng, ncols), "random"
        kinds[kind] += 1
        expected = dense_nullspace(_dense(rows, ncols), ncols)
        got = _nullspace_from_system(int_rows(rows), ncols)
        assert got == expected, (trial, rows)
        if rows:  # the rational rows, through the public null space
            assert nullspace(ExactMatrix(_dense(rows, ncols))) == expected
        assert_canonical_rref(got)
        # the store's reads: pivots, basis, coordinates and reduce
        want = dense_nullspace_rows(_dense(rows, ncols), ncols)
        dense_rows = list(want.values())
        assert got.pivots == tuple(want) and [list(r) for r in got.basis.rows] == dense_rows
        if trial % 4 == 0:
            _check_reads(got, dense_rows, random.Random(trial))
        if kind == "zero":
            assert got == Subspace.full_space(ncols)
        if kind == "full":
            assert got.dim == 0
        kinds["nonzero"] += 0 < got.dim < ncols
        # every basis row solves the system exactly
        for _, nz in got._rows:
            assert all(sum(x * row.get(j, 0) for j, x in nz) == 0 for row in rows)
    assert kinds["zero"] == kinds["full"] == 8 and kinds["nonzero"] > 100


# -- systems built for the union-find ---------------------------------------


def _ratio(rng: random.Random, big: bool):
    # a nonzero ratio; with big set, a numerator above 2^64 over 1, 3, 2^65 + 1 or a small int
    if big:
        num = rng.choice([1, -1]) * rng.randint(2**64 + 1, 2**80)
        return Fraction(num, rng.choice([1, 3, 2**65 + 1, rng.randint(2, 50)]))
    return rng.choice([1, -1, 2, -7, Fraction(-1, 3), Fraction(5, 2)])


def _forest_rows(rng: random.Random, ncols: int, big: bool) -> tuple[list, dict]:
    """Two-entry rows x_child = r x_parent that link random groups of unknowns.

    Each group is a chain or a random tree, and half of the groups of
    three or more get a cycle: an extra two-entry row whose ratio agrees
    with the tree's or disagrees with it.  Returned with the count of each.
    """
    cols = rng.sample(range(ncols), ncols)
    rows, seen = [], {"chain": 0, "agree": 0, "disagree": 0}
    while cols:
        size = rng.randint(1, max(1, ncols // 3))
        group, cols = cols[:size], cols[size:]
        value = {group[0]: Fraction(1)}  # a solution of the group's tree rows
        chain = rng.random() < 0.5
        for t in range(1, len(group)):
            parent = group[t - 1] if chain else rng.choice(group[:t])
            r = _ratio(rng, big)
            value[group[t]] = r * value[parent]
            rows.append({group[t]: 1, parent: -r})
        seen["chain"] += chain and len(group) > 5
        if len(group) > 2 and rng.random() < 0.5:
            u, v = rng.sample(group, 2)
            r = value[v] / value[u]
            agree = rng.random() < 0.5
            seen["agree" if agree else "disagree"] += 1
            rows.append({v: 1, u: -(r if agree else r * rng.choice([2, -1, Fraction(1, 3)]))})
    return rows, seen


def _forest_system(rng: random.Random, ncols: int, trial: int) -> tuple[list, dict]:
    """Union-find rows plus one-entry rows, long rows across groups and copies."""
    if trial % 10 == 9:  # no two-entry rows at all
        rows, seen = [], {}
    else:
        rows, seen = _forest_rows(rng, ncols, big=trial % 3 == 1)
    if rng.random() < 0.5:  # one-entry rows, so components that meet the zero set
        rows += [{c: _entry(rng)} for c in rng.sample(range(ncols), rng.randint(1, 2))]
    for _ in range(rng.randint(0, 4)):  # long rows, which also join groups
        cols = rng.sample(range(ncols), min(rng.randint(3, 5), ncols))
        rows.append({c: _entry(rng) for c in cols})
    rows += [{c: 3 * x for c, x in row.items()} for row in rng.sample(rows, len(rows) // 4)]
    rng.shuffle(rows)
    return rows, seen


def test_union_find_nullspace_matches_dense_oracle():
    # also through _nullspace_reversed's zero set: the one-entry rows go there
    rng = random.Random(20261020)
    kinds = {"chain": 0, "agree": 0, "disagree": 0, "zero set": 0, "no pairs": 0}
    for trial in range(150):
        ncols = rng.randint(3, 30)
        rows, seen = _forest_system(rng, ncols, trial)
        for kind, count in seen.items():
            kinds[kind] += count
        kinds["no pairs"] += all(len(row) != 2 for row in rows)
        want = dense_nullspace_rows(_dense(rows, ncols), ncols)
        if trial % 2:
            got = _nullspace_from_system(int_rows(rows), ncols)
        else:
            kinds["zero set"] += any(len(row) == 1 for row in rows)
            last = ncols - 1
            zero = [last - c for row in rows if len(row) == 1 for c in row]
            system = [
                {last - c: x for c, x in row.items()} for row in int_rows(rows) if len(row) > 1
            ]
            got = _nullspace_reversed(system, ncols, zero)
        assert got.pivots == tuple(want), (trial, rows)
        assert [list(r) for r in got.basis.rows] == list(want.values()), (trial, rows)
        assert_canonical_rref(got)
        if trial % 3 == 0:
            _check_reads(got, list(want.values()), random.Random(trial))
    assert min(kinds.values()) >= 10, kinds


def test_nullspace_of_matrices_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        rows = [
            [_entry(rng) if rng.random() < 0.35 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows.append(list(rows[0]))
        ns = nullspace(ExactMatrix(rows))
        assert ns == dense_nullspace([[Fraction(x) for x in r] for r in rows], ncols)
        assert_canonical_rref(ns)


# -- the callers ------------------------------------------------------------


def h1_der_dim(k: int) -> int:
    """dim der(h_1 (x) Q[t]/(t^(k+1))): 3(k+1) + 2(k+1)^2 + 2k + 1."""
    return 3 * (k + 1) + 2 * (k + 1) ** 2 + 2 * k + 1


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 20])
def test_heisenberg_current_derivation_dimension(k):
    der = derivations(current_algebra(heisenberg(1), truncated_polynomial(k)).product)
    assert der.dim == h1_der_dim(k)
    assert_canonical_rref(der.space)


def test_truncated_polynomial_derivation_dimension():
    # the diagonal Leibniz rows: D is fixed by D(t), any multiple of t
    for k in range(13):
        der = assoc_derivations(truncated_polynomial(k))
        assert der.dim == k
        assert_canonical_rref(der.space)


@pytest.mark.parametrize(
    "g,k,dim,rows,eliminations",
    [(heisenberg(3), 4, 264, 126, 208), (sp(2), 1, 21, 160, 172)],
    ids=["h_3,4", "sp(2)(x)A_1"],
)
def test_derivation_solve_leaves_few_rows_to_the_eliminator(
    g, k, dim, rows, eliminations, monkeypatch
):
    # the two-entry Leibniz rows go to the union-find, so of 1023 rows (h_3,4)
    # and 1530 (sp(2)(x)A_1), and of 993 and 2272 _eliminate calls, when
    # every row with two or more entries reached _rref_ints, these are left
    counts = {"rows": 0, "eliminations": 0}
    rref, eliminate = linalg._rref_ints, linalg._eliminate

    def counting_rref(system, zero=()):
        system = list(system)
        counts["rows"] += len(system)
        return rref(system, zero)

    def counting_eliminate(*args):
        counts["eliminations"] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_rref_ints", counting_rref)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    assert derivations(current_algebra(g, truncated_polynomial(k)).product).dim == dim
    assert counts == {"rows": rows, "eliminations": eliminations}


def dense_leibniz_rows(alg, diagonal: bool) -> list:
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j), unknown D[p][q] at p*n + q."""
    n = alg.dim
    c = alg.structure
    rows = []
    for i in range(n):
        for j in range(i if diagonal else i + 1, n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for p in range(n):
                    row[k * n + p] += c[i][j][p]
                    row[p * n + i] -= c[p][j][k]
                    row[p * n + j] -= c[i][p][k]
                if any(row):
                    rows.append(row)
    return rows


FRACTIONAL_IDS = ["h_1 [e,f]=2/3z", "sp(1) rescaled", "sp(1) rescaled (x) A_1"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: current_algebra(heisenberg(1), truncated_polynomial(2)).product,
        lambda: current_algebra(sp(1), truncated_polynomial(2)).product,
        *[lambda t=t: _fractional_algebras()[t] for t in range(3)],
    ],
    ids=["h_1,2", "sp(1)(x)A_2", *FRACTIONAL_IDS],
)
def test_derivations_match_dense_leibniz_nullspace(build):
    g = build()
    n = g.dim
    assert derivations(g).space == dense_nullspace(dense_leibniz_rows(g, False), n * n)


def test_assoc_derivations_match_dense_leibniz_nullspace():
    # Q[t]/(t^3) in the bases (1, 2t, t^2/3) and (1, t/2, 3t^2): (2t)^2 = 12 t^2/3,
    # and (t/2)^2 = 3t^2 / 12 puts a denominator in the store
    scaled = [(1, 2, Fraction(1, 3)), (1, Fraction(1, 2), 3)]
    for a in [truncated_polynomial(k) for k in (1, 3)] + [
        rescaled_truncated_polynomial(s) for s in scaled
    ]:
        n = a.dim
        assert assoc_derivations(a).space == dense_nullspace(dense_leibniz_rows(a, True), n * n)


def dense_centroid_rows(g) -> list:
    """T ad_i = ad_i T for every i, with (ad_i)[k][q] = c_iq^k."""
    n = g.dim
    c = g.structure
    rows = []
    for i in range(n):
        for p in range(n):
            for q in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    row[p * n + k] += c[i][q][k]
                    row[k * n + q] -= c[i][k][p]
                if any(row):
                    rows.append(row)
    return rows


def dense_hom0_rows(g) -> list:
    """T kills every [e_i, e_j], and [T e_j, e_l] = 0 for all j, l."""
    n = g.dim
    c = g.structure
    rows = []
    for i in range(n):
        for j in range(n):
            for p in range(n):  # coordinate p of T [e_i, e_j]
                rows.append([c[i][j][k] if r == p else ZERO for r in range(n) for k in range(n)])
    for j in range(n):
        for l in range(n):
            for k in range(n):  # coordinate k of [T e_j, e_l]
                rows.append([c[p][l][k] if q == j else ZERO for p in range(n) for q in range(n)])
    return [row for row in rows if any(row)]


@pytest.mark.parametrize(
    "g", [heisenberg(2), sp(1), *_fractional_algebras()], ids=["h_2", "sp(1)", *FRACTIONAL_IDS]
)
def test_centroid_and_hom_quotient_to_center_match_dense_solve(g):
    n = g.dim
    assert centroid(g).space == dense_nullspace(dense_centroid_rows(g), n * n)
    assert hom_quotient_to_center(g).space == dense_nullspace(dense_hom0_rows(g), n * n)


# -- basis invariance -------------------------------------------------------


@pytest.mark.parametrize(
    "g,spread", [(heisenberg(1), 3), (heisenberg(2), 1), (sp(1), 3)], ids=["h_1", "h_2", "sp(1)"]
)
def test_levi_is_invariant_under_a_dense_change_of_basis(g, spread, tmp_path, capsys):
    # g and A = Q[t]/(t^3), then both again in seeded dense integer bases.
    # In the standard basis most Leibniz rows of two or more entries have
    # two and go to the union-find; in these dense bases none do.  The der
    # dims, the report's dimensions and flags and the text output must not
    # change.  h_2 is rebased with entries in [-1, 1]: in [-3, 3] its levi
    # takes 2.7 s
    a = truncated_polynomial(2)
    seen = []
    bases = {"standard": (g, a), "dense": (rebased(g, 7, spread), rebased(a, 8, spread))}
    for tag, (gg, aa) in bases.items():
        g_path, a_path, out = (str(tmp_path / f"{tag}_{x}.json") for x in ("g", "a", "report"))
        save_algebra(gg, g_path)
        save_algebra(aa, a_path)
        assert main(["levi", g_path, a_path, "--out", out]) == 0
        with open(out) as f:
            report = json.load(f)
        ders = (derivations(gg).dim, assoc_derivations(aa).dim)
        seen.append((ders, report["dimensions"], report["flags"], capsys.readouterr().out))
    assert seen[0] == seen[1]

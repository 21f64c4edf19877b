"""Structure constants the benchmark feeds to currentlie.

Everything here is written without calling the package, so these inputs
reach the program only as generated structure constants in its own file
schema (see `currentlie.serialize`): "lie" documents list [i, j, k,
coeff] for i < j, "assoc" documents for i <= j, coefficients as
rational strings.

The one seeded input is A', a rational change of basis of
Q[t]/(t^2) (+) Q[t]/(t^2) by a random small-integer unimodular matrix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def _doc(kind, labels, table, unit=None) -> dict:
    """Schema document from a dense table {(i, j): {k: coeff}}."""
    n = len(labels)
    products = []
    for i in range(n):
        for j in range(i + 1 if kind == "lie" else i, n):
            for k, c in sorted(table.get((i, j), {}).items()):
                if c:
                    products.append([i, j, k, str(Fraction(c))])
    doc = {"kind": kind, "dim": n, "basis": list(labels), "products": products}
    if kind == "assoc":
        doc["unit"] = [str(Fraction(c)) for c in unit]
    return doc


def _table(doc) -> dict:
    """Dense {(i, j): {k: coeff}} for every ordered pair, from a document."""
    table = {}
    lie = doc["kind"] == "lie"
    for i, j, k, c in doc["products"]:
        c = Fraction(c)
        table.setdefault((i, j), {})[k] = c
        if i != j:
            table.setdefault((j, i), {})[k] = -c if lie else c
    return table


def heisenberg_doc(m: int) -> dict:
    """h_m: [e_i, f_i] = z."""
    labels = [f"e{i + 1}" for i in range(m)] + [f"f{i + 1}" for i in range(m)] + ["z"]
    table = {(i, m + i): {2 * m: 1} for i in range(m)}
    return _doc("lie", labels, table)


def truncated_doc(k: int) -> dict:
    """A_k = Q[t]/(t^(k+1)) in the monomial basis."""
    n = k + 1
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    table = {(i, j): {i + j: 1} for i in range(n) for j in range(i, n) if i + j <= k}
    return _doc("assoc", labels, table, unit=[1] + [0] * k)


def current_doc(g: dict, a: dict) -> dict:
    """g (x) A: basis x_i (x) a_j at index i*dim(A)+j, [x(x)a, y(x)b] = [x,y](x)ab."""
    gt, at = _table(g), _table(a)
    na = a["dim"]
    labels = [f"{gl}*{al}" for gl in g["basis"] for al in a["basis"]]
    table = {}
    for (i1, i2), cvec in gt.items():
        for (j1, j2), prod in at.items():
            p, q = i1 * na + j1, i2 * na + j2
            if p >= q:
                continue
            out = table.setdefault((p, q), {})
            for k, ck in cvec.items():
                for l, cl in prod.items():
                    out[k * na + l] = out.get(k * na + l, 0) + ck * cl
    return _doc("lie", labels, table)


def split_doc(n: int) -> dict:
    """Q[x]/(x^2 - n x): semisimple, idempotents x/n and 1 - x/n."""
    return _doc("assoc", ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {1: n}},
                unit=[1, 0])


def _det(mat) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in mat]
    n, det = len(rows), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _inverse(mat):
    n = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def unimodular(n: int, rng: random.Random):
    """A random n x n integer matrix with entries in -2..2 and determinant +-1."""
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if abs(_det(mat)) == 1:
            return mat


def rebase_assoc(doc: dict, p) -> dict:
    """The same algebra on the basis b_i = sum_j p[i][j] e_j (p invertible)."""
    n = doc["dim"]
    pinv = _inverse(p)
    table = _table(doc)

    def to_new(v):  # coordinates in the b basis of a vector in e coordinates
        return [sum(v[r] * pinv[r][c] for r in range(n)) for c in range(n)]

    new = {}
    for i in range(n):
        for j in range(i, n):
            v = [Fraction(0)] * n
            for a in range(n):
                for c in range(n):
                    coeff = p[i][a] * p[j][c]
                    if coeff:
                        for k, x in table.get((a, c), {}).items():
                            v[k] += coeff * x
            new[(i, j)] = dict(enumerate(to_new(v)))
    unit = to_new([Fraction(u) for u in doc["unit"]])
    return _doc("assoc", [f"b{i}" for i in range(n)], new, unit=unit)


def a_prime_doc(seed: int) -> dict:
    """A' = a seeded change of basis of Q[t]/(t^2) (+) Q[t]/(t^2).

    Not local: its Wedderburn complement is spanned by two idempotents,
    and its Jacobson radical has dimension 2.
    """
    labels = ["1.L", "t.L", "1.R", "t.R"]
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (2, 2): {2: 1}, (2, 3): {3: 1}}
    base = _doc("assoc", labels, table, unit=[1, 0, 1, 0])
    return rebase_assoc(base, unimodular(4, random.Random(seed)))


def bad_jacobi_doc() -> dict:
    """[a,b] = a, [b,c] = b: the Jacobi sum on (a, b, c) is a, not 0."""
    return _doc("lie", ["a", "b", "c"], {(0, 1): {0: 1}, (1, 2): {1: 1}})


def bad_schema_doc() -> dict:
    """A lie document whose only product names basis index 5 of 2."""
    return {"kind": "lie", "dim": 2, "basis": ["a", "b"], "products": [[0, 1, 5, "1"]]}


def write_doc(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")

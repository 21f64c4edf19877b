"""Truncated Heisenberg current algebras h_m (x) Q[t]/(t^(k+1)).

This family admits a completely explicit description of its derivation
algebra: in the basis (e-block, f-block, z-block, powers of t innermost)
every derivation is a block matrix built from lower triangular Toeplitz
blocks, a free bottom strip, and a corner tied to the diagonal.  The
template here reproduces that matrix shape, matches arbitrary matrices
against it, and certifies the sp (x) 1 Levi factor of the derivation
algebra.  The template is held as one layout per (m, k): the positions
and integer coefficients at which each free parameter enters the matrix.
Building a matrix sums over the layout, and matching reads only the
nonzero entries of the matrix it is given.
"""

from __future__ import annotations

from collections import ChainMap
from functools import cache
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from currentlie.assoc import truncated_polynomial
from currentlie.lie import heisenberg, sp
from currentlie.linalg import EndoSubspace, ExactMatrix, Q, _from_entries, kron, rat

# every `currentlie` command imports this module through the package, and
# most never need currentlie.current, so the functions that do import it
if TYPE_CHECKING:
    from currentlie.current import CurrentAlgebra, DecompositionReport

_ZERO = Q(0)


def truncated_heisenberg(m: int, k: int) -> CurrentAlgebra:
    """h_m (x) Q[t]/(t^(k+1)), dimension (2m+1)(k+1)."""
    from currentlie.current import current_algebra

    return current_algebra(heisenberg(m), truncated_polynomial(k))


def der_dimension_formula(m: int, k: int) -> int:
    """dim der(h_m (x) A_k) = m(2m+1)(k+1) + 2m(k+1)^2 + 2k + 1."""
    return m * (2 * m + 1) * (k + 1) + 2 * m * (k + 1) ** 2 + 2 * k + 1


def _layout(m: int, k: int) -> tuple:
    """Where each parameter of der(h_m (x) A_k) sits in the template matrix.

    A tuple of (key, entries) pairs, entries being the ((row, col),
    coefficient) positions of the key, with integer coefficients.  The
    keys come in solving order: p, q, A1, A2, A4, strip.  A key's first
    entry is its defining position, and only keys earlier in this order
    also reach that position, so the parameters can be read off one at a
    time, each net of the ones before it.
    """
    w = k + 1
    bd = m * w
    z = 2 * bd
    # offsets of the diagonal blocks of the e-e and f-f grids
    diagonal = [i * w for i in range(2 * m)]

    def toeplitz(r0, c0, r, coeff=1):
        # lower triangular Toeplitz block at (r0, c0): entry (s, c) = x_(s-c)
        return [((r0 + r + c, c0 + c), coeff) for c in range(w - r)]

    def rbar(r0, r):
        # entry (s, c) = c * q_(s-c+1) for 1 <= c <= s
        return [((r0 + r - 1 + c, r0 + c), c) for c in range(1, w - r + 1)]

    layout = []
    for r in range(w):
        entries = toeplitz(z, z, r, 2)
        for d in diagonal:
            entries += toeplitz(d, d, r)
        layout.append((("p", r), tuple(entries)))
    for r in range(1, w):
        entries = rbar(z, r)
        for d in diagonal:
            entries += rbar(d, r)
        layout.append((("q", r), tuple(entries)))
    for i in range(m):
        for j in range(m):
            for r in range(w):
                # the f-f grid is minus the transposed e-e grid
                entries = toeplitz(i * w, j * w, r) + toeplitz(bd + j * w, bd + i * w, r, -1)
                layout.append((("A1", i, j, r), tuple(entries)))
    for name, r0, c0 in (("A2", 0, bd), ("A4", bd, 0)):
        for i in range(m):
            for j in range(i, m):
                for r in range(w):
                    entries = toeplitz(r0 + i * w, c0 + j * w, r)
                    if i != j:
                        entries += toeplitz(r0 + j * w, c0 + i * w, r)
                    layout.append(((name, i, j, r), tuple(entries)))
    for r in range(w):
        for c in range(z):
            layout.append((("strip", r, c), (((z + r, c), 1),)))
    return tuple(layout)


# parameter_keys() order: the three grids, the two series, the strip
_KEY_ORDER = {"A1": 0, "A2": 1, "A4": 2, "p": 3, "q": 4, "strip": 5}

# the blocks a mismatch can name, in checking order; the bottom strip is
# free and never mismatches
_Z_COLUMN, _Z_CORNER, _E_E, _F_F, _E_F, _F_E = range(6)


class TemplateMatch(NamedTuple):
    """Successful fit; params maps every key to a rational, its zeros shared by all fits."""

    params: ChainMap
    ok: bool = True


class TemplateMismatch(NamedTuple):
    """First violated constraint of the template."""

    block: str
    relation: str
    ok: bool = False


class DerivationTemplate:
    """The block-matrix shape of der(h_m (x) A_k).

    Parameter keys:
      ("A1", i, j, r)   m x m grid of Toeplitz blocks coupling e to e
      ("A2", i, j, r)   symmetric grid coupling f to e (i <= j)
      ("A4", i, j, r)   symmetric grid coupling e to f (i <= j)
      ("p", r)          r in 0..k: scaling series (weight 1 on e/f, 2 on z)
      ("q", r)          r in 1..k: coefficient derivation series
      ("strip", r, c)   free bottom strip, r in 0..k, c over both top blocks

    Everything runs on one layout (see `_layout`), built once per template,
    the positions and integer coefficients of each key in the matrix; and
    `match_template` keeps one template per (m, k).  A matrix is the sum of
    coefficient * value over the layout, and `match` reads only the
    nonzero entries of its argument.
    """

    def __init__(self, m: int, k: int):
        if m < 1 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        self.m = m
        self.k = k
        self.width = k + 1
        self.block_dim = m * self.width
        self.dim = (2 * m + 1) * self.width
        self._layout = layout = _layout(m, k)
        self._keys = tuple(key for key, _ in layout)
        # {defining position: index}, and {key: 0}, which every fit of `match` reads through
        self._defined_at = {entries[0][0]: idx for idx, (_, entries) in enumerate(layout)}
        self._zeros = dict.fromkeys(self._keys, _ZERO)

    def parameter_keys(self) -> list:
        return sorted(self._keys, key=lambda key: _KEY_ORDER[key[0]])

    def parameter_count(self) -> int:
        return len(self._layout)

    def matrix(self, assignment) -> ExactMatrix:
        """Build the template matrix for a {key: value} assignment.

        Keys outside the template are ignored; values are coerced by rat.
        """
        layout = dict(self._layout)
        entries = {}
        for key, value in assignment.items():
            if key in layout:
                value = rat(value)
                if value:
                    _expand(entries, layout[key], value)
        return _from_entries(self.dim, self.dim, sorted(entries.items()))

    def basis(self) -> list:
        """(key, matrix) pairs, one independent generator per parameter."""
        return [(key, self.matrix({key: 1})) for key in self.parameter_keys()]

    def span(self) -> EndoSubspace:
        return EndoSubspace.from_matrices([mat for _, mat in self.basis()], self.dim)

    def match(self, mat: ExactMatrix):
        """Extract parameters from a matrix, or name the first bad block.

        Returns TemplateMatch on success and TemplateMismatch otherwise;
        a successful match satisfies self.matrix(result.params) == mat.
        Each parameter is read at its defining position, net of the
        parameters solved before it; the nonzero ones are expanded into
        the entries the template then expects, and the match holds iff
        those are exactly the nonzero entries of mat.  Only the keys whose
        defining position holds an actual or an expected entry are
        solved, in layout order; every other parameter is zero.
        """
        n = self.dim
        if mat.shape != (n, n):
            return TemplateMismatch("shape", f"expected {n} x {n}")
        layout, defined_at = self._layout, self._defined_at
        # integers over twice the denominator of mat's store: the only defining
        # coefficient other than 1 is the 2 of the p keys, at positions no
        # other key reaches, so the `//` below is exact
        den, nz = mat._int_rows()
        den *= 2
        actual = {(i, c): 2 * v for i, row in nz.items() for c, v in row}
        expected: dict = {}
        solved = {}
        # a key's entries reach only the defining positions of later keys,
        # so popping indices in increasing order solves in layout order
        todo = [defined_at[pos] for pos in actual if pos in defined_at]
        heapify(todo)
        last = -1
        while todo:
            idx = heappop(todo)
            if idx == last:
                continue
            last = idx
            key, entries = layout[idx]
            pos, coeff = entries[0]
            value = actual.get(pos, 0)
            if pos in expected:
                value -= expected[pos]
            if value:
                if coeff != 1:
                    value //= coeff
                _expand(expected, entries, value)
                for later, _ in entries[1:]:
                    if later in defined_at:
                        heappush(todo, defined_at[later])
                solved[key] = Q(value, den)
        expected = {pos: x for pos, x in expected.items() if x}
        if expected == actual:
            return TemplateMatch(params=ChainMap(solved, self._zeros))
        return self._mismatch(actual, expected)

    def _mismatch(self, actual: dict, expected: dict) -> TemplateMismatch:
        # the first block, in checking order, holding an entry that differs
        # from the template at the extracted parameters
        w, bd = self.width, self.block_dim
        z = 2 * bd

        def block_of(pos):
            r, c = pos
            if c >= z:
                return (_Z_COLUMN if r < z else _Z_CORNER, 0, 0)
            kind = (_E_E, _E_F, _F_E, _F_F)[2 * (r >= bd) + (c >= bd)]
            return (kind, r % bd // w, c % bd // w)

        kind, i, j = min(
            block_of(pos)
            for pos in actual.keys() | expected.keys()
            if actual.get(pos) != expected.get(pos)
        )
        if kind == _Z_COLUMN:
            return TemplateMismatch("z-column", "entries above the bottom strip must vanish")
        if kind == _Z_CORNER:
            return TemplateMismatch("z-corner", "corner is not 2 R(p) + Rbar(q)")
        if kind == _E_E:
            return TemplateMismatch(f"e-e block ({i},{j})", "not lower triangular Toeplitz")
        if kind == _F_F:
            return TemplateMismatch(
                f"f-f block ({i},{j})", "does not equal diag - transposed e-e grid"
            )
        # off-diagonal grids: blocks with j >= i define the parameters, so
        # they fail only by not being Toeplitz; a block with j < i may be
        # Toeplitz and still differ from its mirror (j, i)
        side, r0, c0 = ("e-f", 0, bd) if kind == _E_F else ("f-e", bd, 0)
        if j >= i or not _is_toeplitz(actual, r0 + i * w, c0 + j * w, w):
            return TemplateMismatch(f"{side} block ({i},{j})", "not lower triangular Toeplitz")
        return TemplateMismatch(f"{side} grid", f"block ({i},{j}) is not symmetric to ({j},{i})")


def _expand(out: dict, entries, value) -> dict:
    # out += value * (the template matrix of one key), on sparse entries
    for pos, coeff in entries:
        x = value if coeff == 1 else coeff * value
        out[pos] = out[pos] + x if pos in out else x
    return out


def _is_toeplitz(entries: dict, r0: int, c0: int, w: int) -> bool:
    """Whether the w x w block at (r0, c0) is lower triangular Toeplitz."""
    block = {
        (r - r0, c - c0): x
        for (r, c), x in entries.items()
        if r0 <= r < r0 + w and c0 <= c < c0 + w
    }
    first = {r: x for (r, c), x in block.items() if c == 0}
    return block == {(r + c, c): x for r, x in first.items() for c in range(w - r)}


def match_template(m: int, k: int, mat: ExactMatrix):
    """Fit a matrix against the derivation template of h_m (x) A_k."""
    return _template(m, k).match(mat)


_template = cache(DerivationTemplate)


def sp_block_embedding(m: int, k: int) -> list[ExactMatrix]:
    """Images of the sp_2m basis inside End(h_m (x) A_k).

    Each basis matrix D goes to (D padded with a zero z row/column)
    tensored with the identity of A_k; the list is indexed like the
    basis of sp(m).
    """
    n, ident = 2 * m + 1, ExactMatrix.identity(k + 1)
    return [kron(ExactMatrix._from_ints(n, n, *d._int_rows()), ident) for d in sp(m).matrix_basis]


def levi_report(m: int, k: int, ca: CurrentAlgebra | None = None) -> DecompositionReport:
    """Run the full decomposition certificate for h_m (x) A_k."""
    from currentlie.current import certify

    return certify(truncated_heisenberg(m, k) if ca is None else ca)


def levi_factor(m: int, k: int, ca: CurrentAlgebra | None = None) -> EndoSubspace:
    """The certified Levi factor sp (x) 1 of der(h_m (x) A_k)."""
    report = levi_report(m, k, ca=ca)
    if not report.all_flags_true:
        bad = [name for name, val in report.flags.items() if not val]
        raise RuntimeError(f"Levi certification failed: {', '.join(bad)}")
    return report.levi_candidate

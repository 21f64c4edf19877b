"""lie.levi_decomposition on Lie algebras that are not der(g), and on der(g (x) A).

The lifting takes any Lie algebra's structure constants.  On small
algebras of every kind, in their own basis and in a dense one, it is
checked against independent oracles: the Cartan radical, and closure,
semisimplicity and the ideal property read off the brackets.

On der(g (x) A) with z(g) not inside [g, g], outside the paper's
hypothesis, it gives a Levi decomposition whose four flags all hold, and
the Levi factor's dimension follows a factor-level rule: with
p = dim z(g) - dim(z(g) n [g, g]), s_g the Levi factor of der(g) and S
the Wedderburn complement of A,

    dim s = (dim s_g - (p^2 - 1)) dim S + (p dim A)^2 - 1.

That rule is observed, not proved: a pair that breaks it is a finding.
"""

from __future__ import annotations

import pytest
from helpers import corpus_assoc, corpus_lie, rebased

from currentlie.assoc import truncated_polynomial, wedderburn_complement
from currentlie.current import _levi_flags, current_algebra, levi_split
from currentlie.lie import (
    LieAlgebra,
    center,
    derived_subalgebra,
    is_ideal,
    is_semisimple,
    is_subalgebra_closed,
    levi_decomposition,
    lie_from_endo_span,
    solvable_radical,
    sp,
    subalgebra,
)
from currentlie.linalg import EndoSubspace, linear_combination, subspace_intersection

LIE = {**corpus_lie(), "sp(2)": sp(2)}


@pytest.mark.parametrize("rebase", [False, True], ids=["own basis", "rebased"])
@pytest.mark.parametrize("name", list(LIE))
def test_levi_decomposition_against_independent_oracles(name, rebase):
    g = rebased(LIE[name], 5) if rebase else LIE[name]
    s, r = levi_decomposition(g)
    assert r == solvable_radical(g) and is_ideal(g, r)
    assert subspace_intersection(s, r).dim == 0 and s.dim + r.dim == g.dim
    assert is_subalgebra_closed(g, s) and is_semisimple(subalgebra(g, s))


def _lie(labels, entries) -> LieAlgebra:
    return LieAlgebra.from_bracket_entries(labels, entries)


# g with z(g) not inside [g, g]
OUTSIDE = {name: LIE[name] for name in ("sl_2 (+) Q", "h_1 (+) Q", "Q^2")}
OUTSIDE |= {
    "r_2 (+) Q": _lie(["x", "y", "c"], [(0, 1, 1, 1)]),
    "h_1 (+) Q^2": _lie(["e", "f", "z", "c1", "c2"], [(0, 1, 2, 1)]),
    "sl_2 (+) Q^2": _lie(["h", "e", "f", "c1", "c2"], [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]),
    "n_4 (+) Q": _lie(["e1", "e2", "e3", "e4", "c"], [(0, 1, 2, 1), (0, 2, 3, 1)]),
}
ASSOC = {**corpus_assoc(), "Q[t]/(t^4)": truncated_polynomial(3)}
PAIRS = [(g, a) for g in ("sl_2 (+) Q", "r_2 (+) Q", "h_1 (+) Q")
         for a in ("Q[t]/(t^3)", "Q[t]/(t^4)")]
PAIRS += [(g, a) for g in ("h_1 (+) Q^2", "sl_2 (+) Q^2", "n_4 (+) Q", "Q^2")
          for a in ("Q[t]/(t^2)", "Q (+) Q", "Q (+) Q[t]/(t^2)")]


@pytest.mark.parametrize("g_name, a_name", PAIRS, ids=[f"{g} x {a}" for g, a in PAIRS])
def test_generic_levi_decomposition_of_the_current_derivations(g_name, a_name):
    g, a = OUTSIDE[g_name], ASSOC[a_name]
    ca = current_algebra(g, a)
    der = ca.derivations()
    mats = der.basis_matrices()

    def endo(space):
        return EndoSubspace.from_matrices(
            [linear_combination(((v, mats[p]) for p, v in row), ca.dim, ca.dim)
             for _, row in space._rows], ca.dim)

    s, r = levi_decomposition(lie_from_endo_span(der))
    lev, rad = endo(s), endo(r)
    assert all(_levi_flags(der, rad, lev).values())
    z = center(g)
    p = z.dim - subspace_intersection(z, derived_subalgebra(g)).dim
    s_g = levi_split(g)[0]
    assert lev.dim == (s_g.dim - (p * p - 1)) * wedderburn_complement(a).dim + (p * a.dim) ** 2 - 1

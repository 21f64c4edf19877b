"""Current Lie algebras g (x) A and their derivation algebras.

A current Lie algebra is g (x) A for a Lie algebra g and a commutative
unital algebra A, with bracket [x (x) a, y (x) b] = [x,y] (x) ab.  Its
derivations are spanned by three families:

    h:  D (x) L_a      with D a derivation of g, L_a multiplication on A
    w:  T (x) rho      with T in the centroid of g, rho a derivation of A
    k:  T (x) f        with T : g/[g,g] -> z(g), f any endomorphism of A

This module builds the product algebra, embeds the families, verifies
the bracket rules between them, and certifies the radical / Levi
decomposition of the full derivation algebra.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Optional, Sequence

from currentlie.assoc import AssocAlgebra, jacobson_radical, wedderburn_complement
from currentlie.assoc import derivations as assoc_derivations
from currentlie.lie import (
    LieAlgebra,
    center,
    centroid,
    derivations,
    derived_subalgebra,
    hom_quotient_to_center,
    is_semisimple,
    is_solvable,
    is_subalgebra_closed,
    levi_decomposition,
    lie_from_endo_span,
)
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Subspace,
    _kron_space,
    _memoized,
    commutator,
    kron,
    linear_combination,
    subspace_intersection,
    subspace_sum,
)


class PreconditionError(ValueError):
    """A named hypothesis of the radical/Levi construction fails."""


class TableIdentityError(Exception):
    """A bracket-table identity failed; carries the counterexample."""

    def __init__(self, rule, message, lhs=None, rhs=None):
        super().__init__(f"bracket rule {rule}: {message}")
        self.rule = rule
        self.lhs = lhs
        self.rhs = rhs


class CurrentAlgebra:
    """g (x) A with basis x_i (x) a_j at flat index i*dim(A)+j.

    With that ordering, X (x) phi acts as the Kronecker product
    kron(X, phi), which is what the embed functions produce.
    """

    def __init__(self, g: LieAlgebra, a: AssocAlgebra, product: LieAlgebra):
        self.g = g
        self.a = a
        self.product = product
        self.dim = product.dim
        self._memo: dict = {}

    def index(self, i: int, j: int) -> int:
        return i * self.a.dim + j

    def unindex(self, flat: int) -> tuple[int, int]:
        return divmod(flat, self.a.dim)

    # views of the component algebras, each memoized on its algebra

    def der_g(self) -> EndoSubspace:
        return derivations(self.g)

    def centroid_g(self) -> EndoSubspace:
        return centroid(self.g)

    def hom0_g(self) -> EndoSubspace:
        return hom_quotient_to_center(self.g)

    def der_a(self) -> EndoSubspace:
        return assoc_derivations(self.a)

    def derivations(self) -> EndoSubspace:
        return derivations(self.product)

    def __repr__(self):
        return f"CurrentAlgebra(g={self.g.labels}, a={self.a.labels}, dim={self.dim})"


def current_algebra(g: LieAlgebra, a: AssocAlgebra) -> CurrentAlgebra:
    """Construct g (x) A and validate all axioms on the product."""
    if not g.check_lie_axioms():
        raise ValueError("g does not satisfy the Lie axioms")
    if not a.check_axioms():
        raise ValueError("A is not a commutative unital associative algebra")
    na = a.dim
    labels = [f"{gl}*{al}" for gl in g.labels for al in a.labels]
    # [x_i1 (x) a_j1, x_i2 (x) a_j2] = sum c_(i1 i2)^k d_(j1 j2)^l x_k (x) a_l,
    # in numerators over g.den * a.den; each target k*na + l arises once,
    # in increasing order
    products = {}
    for (i1, i2), gterms in g.products.items():
        for (j1, j2), aterms in a.products.items():
            products[i1 * na + j1, i2 * na + j2] = tuple(
                (k * na + l, ck * cl) for k, ck in gterms for l, cl in aterms
            )
    product = LieAlgebra._from_products(labels, g.den * a.den, dict(sorted(products.items())))
    if not product.check_lie_axioms():
        raise ValueError("product bracket violates the Lie axioms")
    return CurrentAlgebra(g, a, product)


def embed_h(ca: CurrentAlgebra, d: ExactMatrix, a_elem: Sequence) -> ExactMatrix:
    """D (x) L_a acting on g (x) A; D must be a derivation of g."""
    if not ca.der_g().contains(d):
        raise ValueError("matrix is not a derivation of g")
    return kron(d, ca.a.left_mult_matrix(a_elem))


def embed_w(ca: CurrentAlgebra, t: ExactMatrix, rho: ExactMatrix) -> ExactMatrix:
    """T (x) rho; T must be in the centroid of g, rho a derivation of A."""
    if not ca.centroid_g().contains(t):
        raise ValueError("matrix is not in the centroid of g")
    if not ca.der_a().contains(rho):
        raise ValueError("matrix is not a derivation of A")
    return kron(t, rho)


def embed_k(ca: CurrentAlgebra, t: ExactMatrix, f: ExactMatrix) -> ExactMatrix:
    """T (x) f; T must kill [g,g] and map into z(g), f is unrestricted."""
    if not ca.hom0_g().contains(t):
        raise ValueError("matrix does not map g/[g,g] into z(g)")
    if f.shape != (ca.a.dim, ca.a.dim):
        raise ValueError("endomorphism shape mismatch")
    return kron(t, f)


def summand_h(ca: CurrentAlgebra) -> EndoSubspace:
    """Span of der(g) (x) L(A) inside End(g (x) A), read off the factors' RREF bases."""
    return _memoized(ca, "summand_h", lambda: _kron_of(ca, ca.der_g(), _left_mult_span(ca)))


def summand_w(ca: CurrentAlgebra) -> EndoSubspace:
    """Span of centroid(g) (x) der(A), read off the factors' RREF bases."""
    return _memoized(ca, "summand_w", lambda: _kron_of(ca, ca.centroid_g(), ca.der_a()))


def summand_k(ca: CurrentAlgebra) -> EndoSubspace:
    """Span of Hom(g/[g,g], z(g)) (x) End(A), read off hom0(g)'s RREF basis and the units E_pq."""
    return _memoized(ca, "summand_k", lambda: _kron_of(
        ca, ca.hom0_g(), EndoSubspace(ca.a.dim, Subspace.full_space(ca.a.dim ** 2))))


def _kron_of(ca: CurrentAlgebra, x: EndoSubspace, y: EndoSubspace) -> EndoSubspace:
    # x (x) y inside End(g (x) A), from the RREF bases of x and y
    return _kron_space(x.basis_matrices(), y.basis_matrices(), ca.dim)


def _left_mult_span(ca: CurrentAlgebra, space: Optional[Subspace] = None) -> EndoSubspace:
    # L(U) = span{L_u : u in U} in End(A), U = A by default: eliminated at factor size
    space = Subspace.full_space(ca.a.dim) if space is None else space
    return EndoSubspace.from_matrices([ca.a.left_mult_matrix(u) for u in space.basis.rows], ca.a.dim)


class DecompositionReport(NamedTuple):
    """Outcome of the span and Levi checks on der(g (x) A)."""

    der_dim: int
    flags: dict
    der_full: Optional[EndoSubspace] = None
    summand_h: Optional[EndoSubspace] = None
    summand_w: Optional[EndoSubspace] = None
    summand_k: Optional[EndoSubspace] = None
    radical_candidate: Optional[EndoSubspace] = None
    levi_candidate: Optional[EndoSubspace] = None

    @property
    def all_flags_true(self) -> bool:
        return all(self.flags.values())


def _own_algebra(der: EndoSubspace, part: EndoSubspace) -> tuple[Optional[LieAlgebra], bool]:
    # (part's own Lie algebra, None if part is not closed under the
    # commutator; whether part is an ideal of der).  Inside der, part's
    # pivots are among der's, so der's basis rows off them span a
    # complement of part: [der, part] lies in part when part is closed and
    # each of those rows brackets part into it
    try:
        lie = lie_from_endo_span(part)
    except ValueError:
        return None, False
    if not part.space.is_subspace_of(der.space):
        return lie, False
    own = part.space._row_at
    rest = [m for p, m in zip(der.space.pivots, der.basis_matrices()) if p not in own]
    return lie, all(
        part.contains(commutator(x, y)) for x in rest for y in part.basis_matrices()
    )


def zusmanovich_span(ca: CurrentAlgebra) -> DecompositionReport:
    """Check that the three families span the full derivation algebra.

    The sum is generally not direct; only the span equality and the
    ideal property of the k family are asserted here, the latter on the
    commutators of k's basis matrices.
    """
    der = ca.derivations()
    h, w, k = summand_h(ca), summand_w(ca), summand_k(ca)
    total = subspace_sum(h.space, w.space, k.space)
    span_ok = total == der.space
    _, k_ideal = _own_algebra(der, k)

    return DecompositionReport(
        der_dim=der.dim,
        flags={"span_equals_der": span_ok, "k_is_ideal": k_ideal},
        der_full=der,
        summand_h=h,
        summand_w=w,
        summand_k=k,
    )


class TableReport(NamedTuple):
    """Outcome of the pairwise bracket-rule verification."""

    mode: str
    seed: Optional[int]
    checked: dict
    # the h-k rule can be displayed two ways: its dot-action reading is the
    # rule itself, so a returned report has matched it; record the other
    plain_reading_matches: bool = True

    @property
    def total_pairs(self) -> int:
        return sum(self.checked.values())


def verify_bracket_table(
    ca: CurrentAlgebra, sample_count: int = 20, seed: int = 42
) -> TableReport:
    """Verify the six pairwise bracket rules between the three families.

    A family lists factor pairs: (D, a) for h, embedded as D (x) L_a,
    and (T, rho) or (T, f) for w and k, embedded as T (x) Y.  When
    dim(g (x) A) <= 8 the lists hold every basis pair, and a rule checks
    every left x right pair.  Otherwise each holds sample_count seeded
    draws: a rule on two families pairs the i-th draw of one with the
    i-th draw of the other, a rule on one family the i-th draw with the
    next, cyclically, so that every draw is tested.  The rules draw in
    the order h*h, h*w, h*k, w*w, w*k, k*k, left family first.  Any
    failure raises TableIdentityError with the counterexample attached;
    component memberships (for example T . D being a derivation again)
    are part of the rules.
    """
    a, na = ca.a, ca.a.dim
    der_g, cent_g, hom0_g, der_a = ca.der_g(), ca.centroid_g(), ca.hom0_g(), ca.der_a()
    lmat = a.left_mult_matrix
    exhaustive = ca.dim <= 8
    rng = random.Random(seed)

    def coeffs(n):
        return [rng.randint(-3, 3) for _ in range(n)]

    def sample_mats(mats):
        cs = coeffs(len(mats))
        if not any(cs):
            cs[rng.randrange(len(mats))] = 1
        return linear_combination(zip(cs, mats), *mats[0].shape)

    # per family: its first factors (none when the family is empty), all
    # second factors of the basis pairs, and a draw of one second factor
    families = {
        "h": (der_g.basis_matrices(), lambda: ExactMatrix.identity(na).rows,
              lambda: tuple(coeffs(na))),
        "w": (cent_g.basis_matrices() if der_a.dim else (), der_a.basis_matrices,
              lambda: sample_mats(der_a.basis_matrices())),
        "k": (hom0_g.basis_matrices(),
              EndoSubspace(na, Subspace.full_space(na * na)).basis_matrices,
              lambda: ExactMatrix([coeffs(na) for _ in range(na)])),
    }

    def draw(family):
        firsts, all_seconds, draw_second = families[family]
        if exhaustive:
            return list(itertools.product(firsts, all_seconds()))
        return [(sample_mats(firsts), draw_second()) for _ in range(sample_count if firsts else 0)]

    def embed(family, x, y):
        return kron(x, lmat(y) if family == "h" else y)

    # each rule: the expected bracket, from the factors, and the memberships
    def hh(d1, a1, d2, a2):
        dd = commutator(d1, d2)
        return kron(dd, lmat(a.multiply(a1, a2))), [(der_g, dd, "[D1,D2] left der(g)")]

    def hw(d, av, t, rho):
        dt, a_rho, td = commutator(d, t), lmat(av) * rho, t * d
        return kron(dt, a_rho) - kron(td, lmat(rho.apply(av))), [
            (cent_g, dt, "[D,T] left the centroid"),
            (der_a, a_rho, "a * rho is not a derivation of A"),
            (der_g, td, "T D is not a derivation of g"),
        ]

    def hk(d, av, t, f):
        la, dt, td = lmat(av), d * t, t * d
        return kron(dt, la * f) - kron(td, f * la), [
            (hom0_g, dt, "D T left the k family"), (hom0_g, td, "T D left the k family")
        ]

    def ww(t1, rho1, t2, rho2):
        tt, rr = t2 * t1, commutator(rho1, rho2)
        return kron(commutator(t1, t2), rho1 * rho2) + kron(tt, rr), [
            (cent_g, tt, "T2 T1 left the centroid"), (der_a, rr, "[rho1,rho2] left der(A)")
        ]

    def wk(t, rho, t1, f1):
        return kron(t * t1, rho * f1) - kron(t1 * t, f1 * rho), [
            (hom0_g, t * t1, "T T1 left the k family"), (hom0_g, t1 * t, "T1 T left the k family")
        ]

    def kk(t1, f1, t2, f2):
        return kron(t1 * t2, f1 * f2) - kron(t2 * t1, f2 * f1), []

    # (name, rule, what the commutator must match), in the order of the draws
    rules = (("h*h", hh, "[D1,D2] (x) L_(a1 a2)"), ("h*w", hw, "the twisted rule"),
             ("h*k", hk, "the direct rule"), ("w*w", ww, "the centroid rule"),
             ("w*k", wk, "the composition rule"), ("k*k", kk, "the composition rule"))
    cent = cent_g.basis_matrices()
    centroid_commutative = all(commutator(s, t).is_zero() for s in cent for t in cent)
    z_in_derived = center(ca.g).is_subspace_of(derived_subalgebra(ca.g))
    plain_ok = True
    checked = {}
    for name, rule, what in rules:
        left, right = name.split("*")
        lefts = draw(left)
        if left != right:
            rights = draw(right)
        else:
            rights = lefts if exhaustive else lefts[1:] + lefts[:1]
        pairs = list(itertools.product(lefts, rights) if exhaustive else zip(lefts, rights))
        for (x1, y1), (x2, y2) in pairs:
            lhs = commutator(embed(left, x1, y1), embed(right, x2, y2))
            rhs, memberships = rule(x1, y1, x2, y2)
            if lhs != rhs:
                raise TableIdentityError(name, f"commutator does not match {what}", lhs, rhs)
            for space, m, message in memberships:
                if not space.contains(m):
                    raise TableIdentityError(name, message)
            if name == "h*k":
                # two displayed readings of the rule, [D,T] (x) L_a f minus
                # TD (x) (f L_a - L_a f) as a dot action, or TD (x) f L_a
                # plainly.  By bilinearity of kron the first is the rule's
                # right side, which lhs equals; the second differs from it
                # by TD (x) L_a f, which is zero iff TD or L_a f is
                plain_ok &= (x2 * x1).is_zero() or (lmat(y1) * y2).is_zero()
            elif name == "w*w" and centroid_commutative and not summand_w(ca).contains(lhs):
                raise TableIdentityError(
                    name, "bracket left the w family despite commutative centroid"
                )
            elif name == "k*k" and z_in_derived and not lhs.is_zero():
                raise TableIdentityError(name, "bracket nonzero although z(g) lies in [g,g]", lhs)
        checked[name] = len(pairs)

    mode = "exhaustive" if exhaustive else "sampled"
    return TableReport(mode, None if exhaustive else seed, checked, plain_reading_matches=plain_ok)


def levi_split(g: LieAlgebra) -> tuple[EndoSubspace, EndoSubspace]:
    """A Levi split s (+) r of der(g): r is its solvable radical, s a Levi factor.

    lie.levi_decomposition on der(g), each RREF row read on der(g)'s basis matrices.
    """
    der = derivations(g)
    mats, n = der.basis_matrices(), g.dim
    return tuple(
        EndoSubspace.from_matrices(
            [linear_combination(((v, mats[p]) for p, v in row), n, n) for _, row in part._rows], n)
        for part in levi_decomposition(lie_from_endo_span(der)))


def radical_subspace(
    ca: CurrentAlgebra,
    s: EndoSubspace,
    r: EndoSubspace,
    big_s: Subspace,
    big_j: Subspace,
) -> EndoSubspace:
    """Candidate radical (s (x) L(J)) + (r (x) L(A)) + w + k of der(g (x) A).

    The inputs are the Levi/radical split s (+) r of der(g) and the
    Wedderburn split S (+) J of A.  Every hypothesis is re-checked and a
    violated one is named in the raised PreconditionError.  The first two
    pieces are read off the factors' RREF bases, as the memoized w and k
    are, and only their sum is eliminated.
    """
    g, a = ca.g, ca.a
    der_g = ca.der_g()

    if s.n != g.dim or r.n != g.dim:
        raise PreconditionError("s and r must consist of endomorphisms of g")
    if big_s.ambient != a.dim or big_j.ambient != a.dim:
        raise PreconditionError("S and J must be subspaces of A")

    # every Levi flag of der(g) on s and r; a candidate outside der(g) raises
    try:
        flags = _levi_flags(der_g, r, s)
    except ValueError:
        flags = None
    if flags is None or not flags["direct_complement"]:
        raise PreconditionError("s (+) r does not decompose der(g)")
    # a solvable ideal with a semisimple complement is the solvable radical
    if not (flags["radical_is_ideal"] and flags["radical_solvable"]):
        raise PreconditionError("r is not the solvable radical of der(g)")
    if not flags["levi_semisimple"]:
        raise PreconditionError("s is not a semisimple subalgebra")

    if (
        subspace_sum(big_s, big_j).dim != a.dim
        or subspace_intersection(big_s, big_j).dim != 0
    ):
        raise PreconditionError("S (+) J does not decompose A")
    if big_j != jacobson_radical(a):
        raise PreconditionError("J is not the Jacobson radical of A")
    if not is_subalgebra_closed(a, big_s):
        raise PreconditionError("S is not closed under multiplication")

    der_a = ca.der_a()
    if der_a.dim > 0:
        try:
            der_a_lie = lie_from_endo_span(der_a)
        except ValueError:
            raise PreconditionError("der(A) is not closed under the commutator")
        if not is_solvable(der_a_lie):
            raise PreconditionError("der(A) is not solvable")

    if not center(g).is_subspace_of(derived_subalgebra(g)):
        raise PreconditionError("z(g) is not contained in [g,g]")

    pieces = (_kron_of(ca, s, _left_mult_span(ca, big_j)), _kron_of(ca, r, _left_mult_span(ca)),
              summand_w(ca), summand_k(ca))
    return EndoSubspace(ca.dim, subspace_sum(*(piece.space for piece in pieces)))


def verify_levi_decomposition(
    ca: CurrentAlgebra, radical: EndoSubspace, levi: EndoSubspace
) -> DecompositionReport:
    """Check the four defining properties of a Levi decomposition.

    radical must be a solvable ideal of der(g (x) A), levi a semisimple
    subalgebra, and the two must be complementary.  Results come back as
    flags; candidates lying outside der(g (x) A) raise ValueError.  The
    checks run on the commutators of the candidates' own basis matrices.
    """
    der = ca.derivations()
    return DecompositionReport(
        der_dim=der.dim,
        flags=_levi_flags(der, radical, levi),
        der_full=der,
        radical_candidate=radical,
        levi_candidate=levi,
    )


def _levi_flags(der: EndoSubspace, rad: EndoSubspace, lev: EndoSubspace) -> dict:
    # the four defining properties of a Levi decomposition rad (+) lev of
    # der: rad a solvable ideal, lev a semisimple subalgebra, complementary
    for name, part in (("radical", rad), ("levi", lev)):
        if not part.space.is_subspace_of(der.space):
            raise ValueError(f"{name} candidate is not inside der(g (x) A)")
    rad_lie, rad_ideal = _own_algebra(der, rad)
    try:
        semisimple = is_semisimple(lie_from_endo_span(lev))
    except ValueError:  # not closed under the commutator
        semisimple = False
    return {
        "radical_is_ideal": rad_ideal,
        "radical_solvable": rad_lie is not None and is_solvable(rad_lie),
        "levi_semisimple": semisimple,
        "direct_complement": (
            rad.dim + lev.dim == der.dim
            and subspace_intersection(rad.space, lev.space).dim == 0
        ),
    }


def levi_candidate_subspace(
    ca: CurrentAlgebra, s: EndoSubspace, big_s: Subspace
) -> EndoSubspace:
    """s (x) L(S): the Levi factor predicted for der(g (x) A), from the factors' RREF bases."""
    return _kron_of(ca, s, _left_mult_span(ca, big_s))


def certify_decomposition(
    ca: CurrentAlgebra,
    s: EndoSubspace,
    r: EndoSubspace,
    big_s: Subspace,
    big_j: Subspace,
) -> DecompositionReport:
    """Full pipeline: span check, radical candidate, Levi verification."""
    report = zusmanovich_span(ca)
    radical = radical_subspace(ca, s, r, big_s, big_j)
    levi = levi_candidate_subspace(ca, s, big_s)
    levi_report = verify_levi_decomposition(ca, radical, levi)
    report.flags.update(levi_report.flags)
    return report._replace(radical_candidate=radical, levi_candidate=levi)


def certify(ca: CurrentAlgebra) -> DecompositionReport:
    """certify_decomposition on the Levi split of der(g) and the Wedderburn split of A."""
    s, r = levi_split(ca.g)
    return certify_decomposition(ca, s, r, wedderburn_complement(ca.a), jacobson_radical(ca.a))

"""Current Lie algebras g (x) A and their derivation algebras.

A current Lie algebra is g (x) A for a Lie algebra g and a commutative
unital algebra A, with bracket [x (x) a, y (x) b] = [x,y] (x) ab.  Its
derivations are spanned (for perfect-or-centered g of the kind treated
here) by three families:

    h:  D (x) L_a      with D a derivation of g, L_a multiplication on A
    w:  T (x) rho      with T in the centroid of g, rho a derivation of A
    k:  T (x) f        with T : g/[g,g] -> z(g), f any endomorphism of A

This module builds the product algebra, embeds the families, verifies
the bracket rules between them, and certifies the radical / Levi
decomposition of the full derivation algebra.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from currentlie.assoc import AssocAlgebra, jacobson_radical
from currentlie.lie import (
    LieAlgebra,
    _memoized,
    center,
    centroid,
    derivations,
    derived_subalgebra,
    hom_quotient_to_center,
    is_semisimple,
    is_solvable,
    lie_from_endo_span,
    solvable_radical,
)
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    Subspace,
    _rref_sparse,
    commutator,
    kron,
    linear_combination,
    subspace_intersection,
    subspace_sum,
)

_ZERO = Q(0)


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

    # cached views of the component algebras

    def der_g(self) -> EndoSubspace:
        return _memoized(self, "der_g", lambda: derivations(self.g))

    def centroid_g(self) -> EndoSubspace:
        return _memoized(self, "centroid_g", lambda: centroid(self.g))

    def hom0_g(self) -> EndoSubspace:
        return _memoized(self, "hom0_g", lambda: hom_quotient_to_center(self.g))

    def der_a(self) -> EndoSubspace:
        from currentlie.assoc import derivations as assoc_derivations

        return _memoized(self, "der_a", lambda: assoc_derivations(self.a))

    def derivations(self) -> EndoSubspace:
        return _memoized(self, "der_full", lambda: derivations(self.product))

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
    # [x_i1 (x) a_j1, x_i2 (x) a_j2] = sum c_(i1 i2)^k d_(j1 j2)^l x_k (x) a_l;
    # each target k*na + l arises once, in increasing order
    products = {}
    for (i1, i2), gterms in g.products.items():
        for (j1, j2), aterms in a.products.items():
            products[i1 * na + j1, i2 * na + j2] = tuple(
                (k * na + l, ck * cl) for k, ck in gterms for l, cl in aterms
            )
    product = LieAlgebra._from_products(labels, dict(sorted(products.items())))
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
    """Span of der(g) (x) L(A) inside End(g (x) A)."""

    def compute():
        mats = []
        for d in ca.der_g().basis_matrices():
            for j in range(ca.a.dim):
                mats.append(kron(d, ca.a.left_mult_matrix(_unit_vector(ca.a.dim, j))))
        return EndoSubspace.from_matrices(mats, ca.dim) if mats else _zero_endo(ca.dim)

    return _memoized(ca, "summand_h", compute)


def summand_w(ca: CurrentAlgebra) -> EndoSubspace:
    """Span of centroid(g) (x) der(A)."""

    def compute():
        mats = [
            kron(t, rho)
            for t in ca.centroid_g().basis_matrices()
            for rho in ca.der_a().basis_matrices()
        ]
        return EndoSubspace.from_matrices(mats, ca.dim) if mats else _zero_endo(ca.dim)

    return _memoized(ca, "summand_w", compute)


def summand_k(ca: CurrentAlgebra) -> EndoSubspace:
    """Span of Hom(g/[g,g], z(g)) (x) End(A)."""

    def compute():
        na = ca.a.dim
        mats = []
        for t in ca.hom0_g().basis_matrices():
            for p in range(na):
                for q in range(na):
                    unit = ExactMatrix(
                        [
                            [Q(1) if (r, c) == (p, q) else _ZERO for c in range(na)]
                            for r in range(na)
                        ]
                    )
                    mats.append(kron(t, unit))
        return EndoSubspace.from_matrices(mats, ca.dim) if mats else _zero_endo(ca.dim)

    return _memoized(ca, "summand_k", compute)


def _unit_vector(n, j):
    return tuple(Q(1) if t == j else _ZERO for t in range(n))


def _zero_endo(n):
    return EndoSubspace(n, Subspace.zero_space(n * n))


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


def zusmanovich_span(ca: CurrentAlgebra) -> DecompositionReport:
    """Check that the three families span the full derivation algebra.

    The sum is generally not direct; only the span equality and the
    ideal property of the k family are asserted here.
    """
    der = ca.derivations()
    h, w, k = summand_h(ca), summand_w(ca), summand_k(ca)
    total = subspace_sum(subspace_sum(h.space, w.space), k.space)
    span_ok = total == der.space

    k_ideal = True
    for d in der.basis_matrices():
        for v in k.basis_matrices():
            if not k.contains(commutator(d, v)):
                k_ideal = False
                break
        if not k_ideal:
            break

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
    # the h-k rule can be displayed two ways; record which ones held
    dot_action_reading_matches: bool = True
    plain_reading_matches: bool = True

    @property
    def total_pairs(self) -> int:
        return sum(self.checked.values())


def verify_bracket_table(
    ca: CurrentAlgebra, sample_count: int = 20, seed: int = 42
) -> TableReport:
    """Verify the six pairwise bracket rules between the three families.

    Uses every basis pair when dim(g (x) A) <= 8, otherwise sample_count
    seeded random pairs per rule.  Any failure raises TableIdentityError
    with the counterexample attached; component memberships (for example
    T . D being a derivation again) are part of the rules.
    """
    a = ca.a
    der_g = ca.der_g().basis_matrices()
    cent_g = ca.centroid_g().basis_matrices()
    hom0_g = ca.hom0_g().basis_matrices()
    der_a = ca.der_a().basis_matrices()
    na = a.dim

    exhaustive = ca.dim <= 8
    rng = None if exhaustive else random.Random(seed)

    def sample_mats(mats):
        if not mats:
            return None
        coeffs = [Q(rng.randint(-3, 3)) for _ in mats]
        if not any(coeffs):
            coeffs[rng.randrange(len(mats))] = Q(1)
        return linear_combination(zip(coeffs, mats), *mats[0].shape)

    def sample_vec(n):
        return tuple(Q(rng.randint(-3, 3)) for _ in range(n))

    def sample_endo(n):
        return ExactMatrix([[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])

    def h_pairs():
        if exhaustive:
            return [
                (d, _unit_vector(na, j)) for d in der_g for j in range(na)
            ]
        return [(sample_mats(der_g), sample_vec(na)) for _ in range(sample_count)]

    def w_pairs():
        if not der_a or not cent_g:
            return []
        if exhaustive:
            return [(t, rho) for t in cent_g for rho in der_a]
        return [(sample_mats(cent_g), sample_mats(der_a)) for _ in range(sample_count)]

    def k_pairs():
        if not hom0_g:
            return []
        if exhaustive:
            units = [
                ExactMatrix(
                    [[Q(1) if (r, c) == (p, q) else _ZERO for c in range(na)] for r in range(na)]
                )
                for p in range(na)
                for q in range(na)
            ]
            return [(t, f) for t in hom0_g for f in units]
        return [(sample_mats(hom0_g), sample_endo(na)) for _ in range(sample_count)]

    def lmat(x):
        return a.left_mult_matrix(x)

    checked = {}
    centroid_commutative = all(
        commutator(s, t).is_zero() for s in cent_g for t in cent_g
    )
    z_in_derived = center(ca.g).is_subspace_of(derived_subalgebra(ca.g))
    dot_ok = True
    plain_ok = True

    def fail(rule, msg, lhs=None, rhs=None):
        raise TableIdentityError(rule, msg, lhs, rhs)

    def limit(pairs):
        if exhaustive or len(pairs) <= sample_count:
            return pairs
        return pairs[:sample_count]

    # rule 1: [D1 (x) L_a1, D2 (x) L_a2] = [D1,D2] (x) L_(a1 a2)
    count = 0
    hp = h_pairs()
    for d1, a1 in limit(hp):
        for d2, a2 in limit(hp):
            lhs = commutator(kron(d1, lmat(a1)), kron(d2, lmat(a2)))
            rhs = kron(commutator(d1, d2), lmat(a.multiply(a1, a2)))
            if lhs != rhs:
                fail("h*h", "commutator does not match [D1,D2] (x) L_(a1 a2)", lhs, rhs)
            if not ca.der_g().contains(commutator(d1, d2)):
                fail("h*h", "[D1,D2] left der(g)")
            count += 1
            if not exhaustive and count >= sample_count:
                break
        if not exhaustive and count >= sample_count:
            break
    checked["h*h"] = count

    # rule 2: [D (x) L_a, T (x) rho] = [D,T] (x) (L_a rho) - (T D) (x) L_(rho a)
    count = 0
    for (d, av), (t, rho) in _cross(limit(h_pairs()), limit(w_pairs()), exhaustive, sample_count):
        lhs = commutator(kron(d, lmat(av)), kron(t, rho))
        rho_a = rho.apply(av)
        rhs = kron(commutator(d, t), lmat(av) * rho) - kron(t * d, lmat(rho_a))
        if lhs != rhs:
            fail("h*w", "commutator does not match the twisted rule", lhs, rhs)
        if not ca.centroid_g().contains(commutator(d, t)):
            fail("h*w", "[D,T] left the centroid")
        if not ca.der_a().contains(lmat(av) * rho):
            fail("h*w", "a * rho is not a derivation of A")
        if not ca.der_g().contains(t * d):
            fail("h*w", "T D is not a derivation of g")
        count += 1
    checked["h*w"] = count

    # rule 3: [D (x) L_a, T (x) f] = (D T) (x) (L_a f) - (T D) (x) (f L_a)
    count = 0
    for (d, av), (t, f) in _cross(limit(h_pairs()), limit(k_pairs()), exhaustive, sample_count):
        la = lmat(av)
        lhs = commutator(kron(d, la), kron(t, f))
        rhs = kron(d * t, la * f) - kron(t * d, f * la)
        if lhs != rhs:
            fail("h*k", "commutator does not match the direct rule", lhs, rhs)
        if not ca.hom0_g().contains(d * t):
            fail("h*k", "D T left the k family")
        if not ca.hom0_g().contains(t * d):
            fail("h*k", "T D left the k family")
        # two displayed readings of the same rule
        dot = kron(commutator(d, t), la * f) - kron(t * d, f * la - la * f)
        if dot != lhs:
            dot_ok = False
        plain = kron(commutator(d, t), la * f) - kron(t * d, f * la)
        if plain != lhs:
            plain_ok = False
        count += 1
    checked["h*k"] = count

    # rule 4: [T1 (x) rho1, T2 (x) rho2] =
    #         [T1,T2] (x) (rho1 rho2) + (T2 T1) (x) [rho1,rho2]
    count = 0
    wp = w_pairs()
    for t1, rho1 in limit(wp):
        for t2, rho2 in limit(wp):
            lhs = commutator(kron(t1, rho1), kron(t2, rho2))
            rhs = kron(commutator(t1, t2), rho1 * rho2) + kron(
                t2 * t1, commutator(rho1, rho2)
            )
            if lhs != rhs:
                fail("w*w", "commutator does not match the centroid rule", lhs, rhs)
            if not ca.centroid_g().contains(t2 * t1):
                fail("w*w", "T2 T1 left the centroid")
            if not ca.der_a().contains(commutator(rho1, rho2)):
                fail("w*w", "[rho1,rho2] left der(A)")
            if centroid_commutative and not summand_w(ca).contains(lhs):
                fail("w*w", "bracket left the w family despite commutative centroid")
            count += 1
            if not exhaustive and count >= sample_count:
                break
        if not exhaustive and count >= sample_count:
            break
    checked["w*w"] = count

    # rule 5a: [T (x) rho, T1 (x) f1] = (T T1) (x) (rho f1) - (T1 T) (x) (f1 rho)
    count = 0
    for (t, rho), (t1, f1) in _cross(limit(w_pairs()), limit(k_pairs()), exhaustive, sample_count):
        lhs = commutator(kron(t, rho), kron(t1, f1))
        rhs = kron(t * t1, rho * f1) - kron(t1 * t, f1 * rho)
        if lhs != rhs:
            fail("w*k", "commutator does not match the composition rule", lhs, rhs)
        if not ca.hom0_g().contains(t * t1):
            fail("w*k", "T T1 left the k family")
        if not ca.hom0_g().contains(t1 * t):
            fail("w*k", "T1 T left the k family")
        count += 1
    checked["w*k"] = count

    # rule 5b: [T1 (x) f1, T2 (x) f2] = (T1 T2) (x) (f1 f2) - (T2 T1) (x) (f2 f1),
    # which vanishes whenever z(g) is contained in [g,g]
    count = 0
    kp = k_pairs()
    for t1, f1 in limit(kp):
        for t2, f2 in limit(kp):
            lhs = commutator(kron(t1, f1), kron(t2, f2))
            rhs = kron(t1 * t2, f1 * f2) - kron(t2 * t1, f2 * f1)
            if lhs != rhs:
                fail("k*k", "commutator does not match the composition rule", lhs, rhs)
            if z_in_derived and not lhs.is_zero():
                fail("k*k", "bracket nonzero although z(g) lies in [g,g]", lhs)
            count += 1
            if not exhaustive and count >= sample_count:
                break
        if not exhaustive and count >= sample_count:
            break
    checked["k*k"] = count

    return TableReport(
        mode="exhaustive" if exhaustive else "sampled",
        seed=None if exhaustive else seed,
        checked=checked,
        dot_action_reading_matches=dot_ok,
        plain_reading_matches=plain_ok,
    )


def _cross(left, right, exhaustive, sample_count):
    if not left or not right:
        return []
    if exhaustive:
        return [(l, r) for l in left for r in right]
    pairs = []
    for i in range(sample_count):
        pairs.append((left[i % len(left)], right[i % len(right)]))
    return pairs


def _endo_from_coords(space: EndoSubspace, coords: Subspace) -> Subspace:
    # the span of the matrices whose coordinates over space are the basis of coords
    mats = space.basis_matrices()
    rows = [
        linear_combination(((c, mats[i]) for i, c in vec), space.n, space.n)._flat_nonzeros()
        for vec in coords._nnz
    ]
    return Subspace._from_rref(space.n * space.n, _rref_sparse(rows))


def radical_subspace(
    ca: CurrentAlgebra,
    s: EndoSubspace,
    r: EndoSubspace,
    big_s: Subspace,
    big_j: Subspace,
) -> EndoSubspace:
    """Candidate radical (s (x) J) + (r (x) A) + w + k of der(g (x) A).

    The inputs are the Levi/radical split s (+) r of der(g) and the
    Wedderburn split S (+) J of A.  Every hypothesis is re-checked and a
    violated one is named in the raised PreconditionError.
    """
    g, a = ca.g, ca.a
    der_g = ca.der_g()

    if s.n != g.dim or r.n != g.dim:
        raise PreconditionError("s and r must consist of endomorphisms of g")
    if big_s.ambient != a.dim or big_j.ambient != a.dim:
        raise PreconditionError("S and J must be subspaces of A")

    if (
        subspace_sum(s.space, r.space) != der_g.space
        or subspace_intersection(s.space, r.space).dim != 0
    ):
        raise PreconditionError("s (+) r does not decompose der(g)")

    lie_der = lie_from_endo_span(der_g)
    rad_coords = solvable_radical(lie_der)
    expected_r = _endo_from_coords(der_g, rad_coords)
    if expected_r != r.space:
        raise PreconditionError("r is not the solvable radical of der(g)")

    try:
        s_lie = lie_from_endo_span(s)
    except ValueError:
        raise PreconditionError("s is not a subalgebra of der(g)")
    if not is_semisimple(s_lie):
        raise PreconditionError("s is not a semisimple subalgebra")

    if (
        subspace_sum(big_s, big_j).dim != a.dim
        or subspace_intersection(big_s, big_j).dim != 0
    ):
        raise PreconditionError("S (+) J does not decompose A")
    if big_j != jacobson_radical(a):
        raise PreconditionError("J is not the Jacobson radical of A")
    for u in big_s.basis.rows:
        for v in big_s.basis.rows:
            if not big_s.contains(a.multiply(u, v)):
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

    mats = []
    for sm in s.basis_matrices():
        for j in big_j.basis.rows:
            mats.append(kron(sm, a.left_mult_matrix(j)))
    for rm in r.basis_matrices():
        for j in range(a.dim):
            mats.append(kron(rm, a.left_mult_matrix(_unit_vector(a.dim, j))))
    mats.extend(summand_w(ca).basis_matrices())
    mats.extend(summand_k(ca).basis_matrices())
    if not mats:
        return _zero_endo(ca.dim)
    return EndoSubspace.from_matrices(mats, ca.dim)


def verify_levi_decomposition(
    ca: CurrentAlgebra, radical: EndoSubspace, levi: EndoSubspace
) -> DecompositionReport:
    """Check the four defining properties of a Levi decomposition.

    radical must be a solvable ideal of der(g (x) A), levi a semisimple
    subalgebra, and the two must be complementary.  Results come back as
    flags; candidates lying outside der(g (x) A) raise ValueError.
    """
    der = ca.derivations()
    for name, cand in (("radical", radical), ("levi", levi)):
        for m in cand.basis_matrices():
            if not der.contains(m):
                raise ValueError(f"{name} candidate is not inside der(g (x) A)")

    radical_is_ideal = all(
        radical.contains(commutator(d, v))
        for d in der.basis_matrices()
        for v in radical.basis_matrices()
    )

    try:
        radical_solvable = (
            radical.dim == 0 or is_solvable(lie_from_endo_span(radical))
        )
    except ValueError:
        radical_solvable = False

    try:
        levi_semisimple = is_semisimple(lie_from_endo_span(levi))
    except ValueError:
        levi_semisimple = False

    direct_complement = (
        subspace_sum(radical.space, levi.space) == der.space
        and subspace_intersection(radical.space, levi.space).dim == 0
    )

    return DecompositionReport(
        der_dim=der.dim,
        flags={
            "radical_is_ideal": radical_is_ideal,
            "radical_solvable": radical_solvable,
            "levi_semisimple": levi_semisimple,
            "direct_complement": direct_complement,
        },
        der_full=der,
        radical_candidate=radical,
        levi_candidate=levi,
    )


def levi_candidate_subspace(
    ca: CurrentAlgebra, s: EndoSubspace, big_s: Subspace
) -> EndoSubspace:
    """s (x) S: the Levi factor predicted for der(g (x) A)."""
    mats = [
        kron(sm, ca.a.left_mult_matrix(u))
        for sm in s.basis_matrices()
        for u in big_s.basis.rows
    ]
    if not mats:
        return _zero_endo(ca.dim)
    return EndoSubspace.from_matrices(mats, ca.dim)


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

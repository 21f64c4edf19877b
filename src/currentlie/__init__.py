"""Exact-arithmetic derivation algebras of current Lie algebras g (x) A.

Everything is computed over the rationals with no floating point:
structure constants in, certified subspaces out.  The top-level
namespace collects the main types and operations; `derivations` here
dispatches on the algebra kind, the per-kind versions live in
`currentlie.lie` and `currentlie.assoc`.
"""

from currentlie.assoc import (
    AssocAlgebra,
    direct_sum,
    jacobson_radical,
    rbar,
    truncated_polynomial,
    wedderburn_complement,
)
from currentlie.assoc import derivations as assoc_derivations
from currentlie.heisenberg import (
    DerivationTemplate,
    TemplateMatch,
    TemplateMismatch,
    der_dimension_formula,
    levi_factor,
    levi_report,
    match_template,
    sp_block_embedding,
    truncated_heisenberg,
)
from currentlie.lie import (
    LieAlgebra,
    center,
    centroid,
    derived_series,
    derived_subalgebra,
    heisenberg,
    hom_quotient_to_center,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    is_subalgebra_closed,
    killing_form,
    levi_decomposition,
    lie_from_endo_span,
    lower_central_series,
    solvable_radical,
    sp,
    subalgebra,
)
from currentlie.lie import derivations as lie_derivations
from currentlie.linalg import (
    EndoSubspace,
    ExactMatrix,
    Q,
    Subspace,
    commutator,
    kron,
    nullspace,
    rank,
    rat,
    rat_str,
    rref,
    subspace_intersection,
    subspace_sum,
)
from currentlie.serialize import (
    AxiomError,
    FormatError,
    algebra_from_dict,
    algebra_to_dict,
    dumps_canonical,
    first_axiom_violation,
    load_algebra,
    save_algebra,
)

__version__ = "0.1.0"

# currentlie.current and its names load on first use (PEP 562): the light
# CLI verbs never need that module, and every `currentlie` command imports
# this package first.  The names are looked up in currentlie.current on
# each use, not copied here, so they always are that module's objects.
# currentlie.heisenberg stays imported above, before `heisenberg` is bound
# to lie.heisenberg: the first import of a submodule sets the package
# attribute of its name to the module, so importing it later would
# replace the function.
_LAZY = frozenset({
    "current",
    "CurrentAlgebra",
    "DecompositionReport",
    "PreconditionError",
    "TableIdentityError",
    "TableReport",
    "certify",
    "certify_decomposition",
    "current_algebra",
    "embed_h",
    "embed_k",
    "embed_w",
    "levi_candidate_subspace",
    "levi_split",
    "radical_subspace",
    "verify_bracket_table",
    "verify_levi_decomposition",
    "zusmanovich_span",
})


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        current = import_module("currentlie.current")
        return current if name == "current" else getattr(current, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _LAZY)


def derivations(algebra):
    """Derivation algebra of a LieAlgebra, AssocAlgebra or CurrentAlgebra."""
    if isinstance(algebra, LieAlgebra):
        return lie_derivations(algebra)
    if isinstance(algebra, AssocAlgebra):
        return assoc_derivations(algebra)
    from currentlie.current import CurrentAlgebra

    if isinstance(algebra, CurrentAlgebra):
        return algebra.derivations()
    raise TypeError(f"no derivations for {type(algebra).__name__}")

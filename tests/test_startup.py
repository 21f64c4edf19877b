"""What importing the package loads, each check in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# every name the package namespace exported, by defining module and name
# there (an alias first when it differs)
EXPORTS = {
    "currentlie.assoc": [
        "AssocAlgebra", ("assoc_derivations", "derivations"), "direct_sum",
        "jacobson_radical", "rbar", "truncated_polynomial", "wedderburn_complement",
    ],
    "currentlie.current": [
        "CurrentAlgebra", "DecompositionReport", "PreconditionError", "TableIdentityError",
        "TableReport", "certify", "certify_decomposition", "current_algebra", "embed_h", "embed_k",
        "embed_w", "levi_candidate_subspace", "levi_split", "radical_subspace",
        "verify_bracket_table", "verify_levi_decomposition", "zusmanovich_span",
    ],
    "currentlie.heisenberg": [
        "DerivationTemplate", "TemplateMatch", "TemplateMismatch", "der_dimension_formula",
        "levi_factor", "levi_report", "match_template", "sp_block_embedding",
        "truncated_heisenberg",
    ],
    "currentlie.lie": [
        "LieAlgebra", "center", "centroid", "derived_series", "derived_subalgebra", "heisenberg",
        "hom_quotient_to_center", "is_ideal", "is_nilpotent", "is_semisimple", "is_solvable",
        "is_subalgebra_closed", "killing_form", ("lie_derivations", "derivations"),
        "levi_decomposition", "lie_from_endo_span", "lower_central_series", "solvable_radical",
        "sp", "subalgebra",
    ],
    "currentlie.linalg": [
        "EndoSubspace", "ExactMatrix", "Q", "Subspace", "commutator",
        "kron", "nullspace", "rank", "rat", "rat_str", "rref", "subspace_intersection",
        "subspace_sum",
    ],
    "currentlie.serialize": [
        "AxiomError", "FormatError", "algebra_from_dict", "algebra_to_dict", "dumps_canonical",
        "first_axiom_violation", "load_algebra", "save_algebra",
    ],
}


def fresh(code: str) -> str:
    """Run code in a new interpreter that imports currentlie from src/."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_current_and_dataclasses_unloaded():
    out = fresh("""
        import sys
        before = set(sys.modules)
        import currentlie.cli
        print(sorted({"currentlie.current", "dataclasses", "hashlib"} & (set(sys.modules) - before)))
        # the verbs that load currentlie.current still need no dataclasses
        import currentlie.current
        print("dataclasses" in set(sys.modules) - before)
    """)
    assert out.split("\n")[:2] == ["[]", "False"]


def test_heisenberg_stays_the_function_whatever_the_import_order():
    orders = [
        ("currentlie.heisenberg", "currentlie.current"),
        ("currentlie.current", "currentlie.heisenberg"),
        ("currentlie.cli", "currentlie.current", "currentlie.heisenberg"),
    ]
    for order in orders:
        out = fresh(f"""
            import importlib
            for name in {order!r}:
                importlib.import_module(name)
            import currentlie
            from currentlie import lie
            print(currentlie.heisenberg is lie.heisenberg, callable(currentlie.heisenberg))
        """)
        assert out.split() == ["True", "True"], order
    # and through the lazy names: reading one loads currentlie.current
    out = fresh("""
        import currentlie
        currentlie.current_algebra
        import currentlie.heisenberg
        print(currentlie.heisenberg is currentlie.lie.heisenberg)
    """)
    assert out.strip() == "True"


def test_package_names_resolve_to_their_defining_objects():
    out = fresh(f"""
        import importlib
        import sys
        import currentlie
        bad = []
        for module, names in {EXPORTS!r}.items():
            for entry in names:
                alias, name = entry if isinstance(entry, tuple) else (entry, entry)
                if getattr(currentlie, alias) is not getattr(importlib.import_module(module), name):
                    bad.append(alias)
        from currentlie import current, current_algebra, derivations
        if current is not sys.modules["currentlie.current"] or current_algebra is not current.current_algebra:
            bad.append("current")
        missing = {{n for names in {EXPORTS!r}.values() for n in names if isinstance(n, str)}} - set(dir(currentlie))
        print(bad, sorted(missing), hasattr(currentlie, "no_such_name"))
    """)
    assert out.strip() == "[] [] False"


def test_derivations_dispatch_loads_current_only_for_current_algebras():
    out = fresh("""
        import sys
        import currentlie
        from currentlie import derivations, heisenberg, truncated_polynomial
        dims = [derivations(heisenberg(1)).dim, derivations(truncated_polynomial(2)).dim]
        loaded = "currentlie.current" in sys.modules
        ca = currentlie.current_algebra(heisenberg(1), truncated_polynomial(1))
        dims.append(derivations(ca).dim)
        try:
            derivations(3)
        except TypeError:
            dims.append("TypeError")
        print(loaded, dims)
    """)
    assert out.strip() == "False [6, 2, 17, 'TypeError']"

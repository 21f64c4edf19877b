"""JSON structure-constant files for Lie and associative algebras.

An algebra file is a single JSON object:

    kind      "lie" or "assoc"
    dim       basis size, at most MAX_DIM
    basis     list of dim labels
    unit      list of dim rational strings (assoc only)
    products  list of [i, j, k, coeff] entries meaning
              e_i e_j = sum_k coeff * e_k

For "lie" only pairs i < j are stored (antisymmetry fills the rest);
for "assoc" only pairs i <= j (the product is commutative).  Rationals
travel as strings like "2/3" so files stay exact.  Serialization is
canonical: sorted keys, fixed indentation, entries ordered by (i, j, k),
so identical algebras produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from currentlie.assoc import AssocAlgebra, first_assoc_violation
from currentlie.lie import LieAlgebra, first_lie_violation
from currentlie.linalg import _products, rat, rat_str

# The largest dim a file may declare.  Loading keeps only the listed
# products and subspaces are stored sparse, but derivations of the algebra
# are a linear system in dim^2 unknowns, so a tiny file must not be able
# to ask for a larger one.
MAX_DIM = 200


class FormatError(ValueError):
    """The file is not a well-formed algebra file."""


class AxiomError(ValueError):
    """The file parsed but its structure constants violate the axioms."""


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _coeff_out(value) -> str:
    return rat_str(value)


def _coeff_in(value, where: str):
    # rationals travel as strings; bare ints are tolerated, floats are not
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"{where}: coefficient must be a rational string")
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad rational {value!r}") from exc


def algebra_to_dict(alg) -> dict:
    """Schema dict for a LieAlgebra or AssocAlgebra."""
    if isinstance(alg, LieAlgebra):
        kind = "lie"
    elif isinstance(alg, AssocAlgebra):
        kind = "assoc"
    else:
        raise TypeError(f"cannot serialize {type(alg).__name__}")
    # the stored pairs come in increasing order, so the entries are
    # ordered by (i, j, k)
    products = [
        [i, j, k, _coeff_out(coeff)]
        for (i, j), terms in alg.products.items()
        if i < j or (i == j and kind == "assoc")
        for k, coeff in terms
    ]
    doc = {
        "kind": kind,
        "dim": alg.dim,
        "basis": list(alg.labels),
        "products": products,
    }
    if kind == "assoc":
        doc["unit"] = [_coeff_out(v) for v in alg.unit]
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def algebra_from_dict(doc):
    """Rebuild the algebra; format validation only, no axiom check."""
    _require(isinstance(doc, dict), "top level must be a JSON object")
    kind = doc.get("kind")
    _require(kind in ("lie", "assoc"), 'kind must be "lie" or "assoc"')
    allowed = {"kind", "dim", "basis", "products"}
    if kind == "assoc":
        allowed.add("unit")
    extra = set(doc) - allowed
    _require(not extra, f"unknown keys: {sorted(extra)}")
    _require(set(doc) >= allowed, f"missing keys: {sorted(allowed - set(doc))}")

    dim = doc["dim"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             "dim must be a positive integer")
    _require(dim <= MAX_DIM, f"dim {dim} exceeds the supported maximum {MAX_DIM}")
    basis = doc["basis"]
    _require(
        isinstance(basis, list)
        and len(basis) == dim
        and all(isinstance(s, str) for s in basis),
        "basis must be a list of dim labels",
    )

    products = doc["products"]
    _require(isinstance(products, list), "products must be a list")
    entries = []
    seen = set()
    for pos, entry in enumerate(products):
        where = f"products[{pos}]"
        _require(
            isinstance(entry, list) and len(entry) == 4,
            f"{where}: expected [i, j, k, coeff]",
        )
        i, j, k, coeff = entry
        for name, idx in (("i", i), ("j", j), ("k", k)):
            _require(
                isinstance(idx, int) and not isinstance(idx, bool)
                and 0 <= idx < dim,
                f"{where}: index {name} out of range",
            )
        if kind == "lie":
            _require(i < j, f"{where}: lie entries need i < j")
        else:
            _require(i <= j, f"{where}: assoc entries need i <= j")
        _require((i, j, k) not in seen, f"{where}: duplicate entry ({i},{j},{k})")
        seen.add((i, j, k))
        c = _coeff_in(coeff, where)
        entries.append((i, j, k, c))
        if i != j:
            entries.append((j, i, k, -c if kind == "lie" else c))

    if kind == "lie":
        return LieAlgebra._from_products(basis, _products(entries))
    unit = doc["unit"]
    _require(
        isinstance(unit, list) and len(unit) == dim,
        "unit must be a list of dim coefficients",
    )
    unit_vec = [_coeff_in(v, f"unit[{p}]") for p, v in enumerate(unit)]
    return AssocAlgebra._from_products(basis, _products(entries), unit_vec)


def save_algebra(alg, path) -> None:
    Path(path).write_text(dumps_canonical(algebra_to_dict(alg)), encoding="utf-8")


def load_algebra(path, check: bool = True):
    """Read an algebra file.

    Raises FormatError for IO trouble or schema violations and, when
    check is set, AxiomError if the structure constants fail the Lie or
    associative axioms.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    alg = algebra_from_dict(doc)
    if check:
        violation = first_axiom_violation(alg)
        if violation is not None:
            raise AxiomError(f"{path}: {violation}")
    return alg


def first_axiom_violation(alg):
    """Name the first failed axiom instance, or None if all hold."""
    if isinstance(alg, LieAlgebra):
        return first_lie_violation(alg)
    return first_assoc_violation(alg)

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

import json
from pathlib import Path

from currentlie.assoc import AssocAlgebra, first_assoc_violation
from currentlie.lie import LieAlgebra, first_lie_violation
from currentlie.linalg import Q, _products, rat, rat_str

# The largest dim a file may declare.  Loading keeps only the listed
# products and subspaces are stored sparse, but derivations of the algebra
# are a linear system in dim^2 unknowns, so a tiny file must not be able
# to ask for a larger one.
MAX_DIM = 200

# The most pairs per rule `check table1 --samples` may ask for.  The draws
# of each family are built as full lists before the first check, and the
# time grows with the count: 200 is ten times the default of 20.
MAX_SAMPLES = 200


class FormatError(ValueError):
    """The file is not a well-formed algebra file, or cannot be read or written."""


class AxiomError(ValueError):
    """The file parsed but its structure constants violate the axioms."""


_encode_str = json.encoder.encode_basestring_ascii


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end.

    The text is exactly json.dumps(obj, sort_keys=True, indent=2) + "\\n",
    written by `_dump` rather than the json module's pure-Python indenting
    encoder, which costs a generator step per value.
    """
    return _dump(obj, "\n", {}) + "\n"


def _dump(value, newline: str, rows: dict) -> str:
    # newline: "\n" and the indent of the line value starts on; rows: the
    # text of each list of strings written so far, by (newline, *items)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if isinstance(value[0], str):
            # a matrix row: one join, and repeated rows from the memo; only
            # lists of strings are stored, and no other type equals a str
            try:
                key = (newline, *value)
                text = rows.get(key)
                if text is None:
                    inner = newline + "  "
                    text = "[" + inner + ("," + inner).join(map(_encode_str, value)) + newline + "]"
                    rows[key] = text
                return text
            except TypeError:  # an item that is not a str
                pass
        inner = newline + "  "
        items = [
            _encode_str(x) if type(x) is str
            else int.__repr__(x) if type(x) is int
            else _dump(x, inner, rows)
            for x in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            _encode_str(k if isinstance(k, str) else _key_text(k)) + ": " + _dump(v, inner, rows)
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    # a non-string key becomes the JSON text of its value, as in json.dumps
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def sha256_file(path) -> str:
    # imported here: loading OpenSSL is a few ms of start-up that the verbs
    # without an input digest (heisenberg, failed loads) need not pay
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _coeff_in(value, where: str):
    # rationals travel as strings, which rat reads only in the forms
    # "-?digits" and "-?digits/digits"; bare ints are tolerated, floats are not
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"{where}: coefficient must be a rational string")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad rational {_excerpt(value)}") from exc


def _excerpt(text: str) -> str:
    # a refused string is echoed whole only while it is short, so that a
    # huge coefficient cannot make a huge error line
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


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
        [i, j, k, rat_str(Q(v, alg.den))]
        for (i, j), terms in alg.products.items()
        if i < j or (i == j and kind == "assoc")
        for k, v in terms
    ]
    doc = {
        "kind": kind,
        "dim": alg.dim,
        "basis": list(alg.labels),
        "products": products,
    }
    if kind == "assoc":
        doc["unit"] = [rat_str(v) for v in alg.unit]
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
        return LieAlgebra._from_products(basis, *_products(entries))
    unit = doc["unit"]
    _require(
        isinstance(unit, list) and len(unit) == dim,
        "unit must be a list of dim coefficients",
    )
    unit_vec = [_coeff_in(v, f"unit[{p}]") for p, v in enumerate(unit)]
    return AssocAlgebra._from_products(basis, *_products(entries), unit_vec)


def save_algebra(alg, path) -> None:
    Path(path).write_text(dumps_canonical(algebra_to_dict(alg)), encoding="utf-8")


def load_algebra(path, check: bool = True):
    """Read an algebra file.

    Raises FormatError for IO trouble, text that is not UTF-8 or not
    JSON, or schema violations and, when check is set, AxiomError if the
    structure constants fail the Lie or associative axioms.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or deep nesting
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

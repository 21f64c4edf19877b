"""Command line front end.

Verbs:
  heisenberg   write a truncated Heisenberg current algebra file
  derive       compute the derivation algebra of an algebra file
  levi         certify the radical/Levi decomposition of der(g (x) A)
  check        table1 / axioms / radical verifications
  info         dimensions, center, series, radical summary

Exit codes: 0 all checks pass, 1 a mathematical check failed (the
report carries a counterexample), 2 input/IO/format error or out of
memory.  With identical inputs and seed the machine-readable report is
byte identical: sorted keys, no timestamps, sha256 digests of the inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from currentlie.assoc import AssocAlgebra, jacobson_radical
from currentlie.assoc import derivations as assoc_derivations
from currentlie.heisenberg import truncated_heisenberg
from currentlie.lie import (
    LieAlgebra,
    center,
    derived_series,
    lower_central_series,
    solvable_radical,
)
from currentlie.lie import derivations as lie_derivations
from currentlie.linalg import ExactMatrix, Q, rat_str
from currentlie.serialize import (
    AxiomError,
    FormatError,
    MAX_DIM,
    MAX_SAMPLES,
    algebra_to_dict,
    dumps_canonical,
    first_axiom_violation,
    load_algebra,
    sha256_file,
)


def _matrix_doc(mat: ExactMatrix) -> list:
    # entry strings, row by row, from the integer store: only the nonzero
    # entries are formatted, and a Fraction is built only over a den > 1
    den, nz = mat._int_rows()
    doc = []
    for i in range(mat.nrows):
        cells = ["0"] * mat.ncols
        for c, v in nz.get(i, ()):
            cells[c] = str(v) if den == 1 else rat_str(Q(v, den))
        doc.append(cells)
    return doc


def _format_matrix(cells: list) -> str:
    # cells: the entry strings of one matrix, as built by _matrix_doc
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _combo(labels, items) -> str:
    # items: the nonzero (index, coefficient) pairs of a vector, by index
    terms = [labels[p] if c == 1 else f"{rat_str(c)}*{labels[p]}" for p, c in items]
    return " + ".join(terms) if terms else "0"


def _envelope(args, input_paths, status: str, **fields) -> dict:
    doc = {
        "command": list(args.argv),
        "inputs": {str(p): sha256_file(p) for p in input_paths},
        "status": status,
        "exit_code": 0 if status == "pass" else 1,
    }
    doc.update(fields)
    return doc


def _emit(args, report: dict, text_lines) -> int:
    doc = dumps_canonical(report)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(doc, encoding="utf-8")
    if getattr(args, "json", False):
        sys.stdout.write(doc)
    else:
        for line in text_lines:
            print(line)
    return report["exit_code"]


def cmd_heisenberg(args) -> int:
    if args.m < 1 or args.k < 0:
        raise FormatError("need --m >= 1 and --k >= 0")
    dim = (2 * args.m + 1) * (args.k + 1)
    if dim > MAX_DIM:
        raise FormatError(f"dim {dim} exceeds the supported maximum {MAX_DIM}")
    ca = truncated_heisenberg(args.m, args.k)
    doc = dumps_canonical(algebra_to_dict(ca.product))
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
        print(f"wrote lie algebra file (dim {ca.dim}) to {args.out}")
    else:
        sys.stdout.write(doc)
    return 0


def cmd_derive(args) -> int:
    alg = load_algebra(args.path)
    if isinstance(alg, LieAlgebra):
        der = lie_derivations(alg)
    else:
        der = assoc_derivations(alg)
    dims = {"algebra": alg.dim, "derivations": der.dim}
    report = _envelope(args, [args.path], "pass", dimensions=dims, flags={})
    basis = []
    if args.basis:
        basis = report["basis"] = [_matrix_doc(m) for m in der.basis_matrices()]
    if args.dim:
        return _emit(args, report, [str(der.dim)])

    def lines():
        # a generator: _emit formats the text only when it prints it
        yield f"kind: {'lie' if isinstance(alg, LieAlgebra) else 'assoc'}"
        yield f"algebra dimension: {alg.dim}"
        yield f"derivation algebra dimension: {der.dim}"
        for idx, cells in enumerate(basis):
            yield f"basis[{idx}]:"
            yield _format_matrix(cells)

    return _emit(args, report, lines())


def _load_pair(g_path, a_path) -> tuple:
    """Load the lie and assoc files of g (x) A.  Both are parsed, and their kinds
    and product dim (at most MAX_DIM, the bound a file of it would meet)
    checked, before either axiom check: an input error exits 2."""
    g, a = load_algebra(g_path, check=False), load_algebra(a_path, check=False)
    if not isinstance(g, LieAlgebra):
        raise FormatError(f"{g_path}: expected a lie file")
    if not isinstance(a, AssocAlgebra):
        raise FormatError(f"{a_path}: expected an assoc file")
    if g.dim * a.dim > MAX_DIM:
        dims = f"{g.dim} * {a.dim} = {g.dim * a.dim}"
        raise FormatError(f"product dim {dims} exceeds the supported maximum {MAX_DIM}")
    for path, alg in ((g_path, g), (a_path, a)):
        if violation := first_axiom_violation(alg):
            raise AxiomError(f"{path}: {violation}")
    return g, a


def cmd_levi(args) -> int:
    # only levi and check table1 import currentlie.current, so that the
    # other verbs start without it
    from currentlie.current import PreconditionError, certify, current_algebra

    g, a = _load_pair(args.g_path, args.a_path)
    ca = current_algebra(g, a)
    inputs = [args.g_path, args.a_path]
    try:
        outcome = certify(ca)
    except PreconditionError as exc:
        report = _envelope(args, inputs, "fail", counterexample=str(exc))
        return _emit(args, report, [f"precondition failed: {exc}", "FAIL"])
    dims = {
        "g": g.dim,
        "A": a.dim,
        "product": ca.dim,
        "derivations": outcome.der_dim,
        "summand_h": outcome.summand_h.dim,
        "summand_w": outcome.summand_w.dim,
        "summand_k": outcome.summand_k.dim,
        "radical": outcome.radical_candidate.dim,
        "levi": outcome.levi_candidate.dim,
    }
    status = "pass" if outcome.all_flags_true else "fail"
    report = _envelope(args, inputs, status, dimensions=dims, flags=dict(outcome.flags))
    lines = [f"der(g (x) A) dimension: {outcome.der_dim}"]
    lines += [f"{name} dimension: {dims[name]}" for name in ("radical", "levi")]
    lines += [f"{name}: {str(val).lower()}" for name, val in sorted(outcome.flags.items())]
    lines.append(status.upper())
    return _emit(args, report, lines)


def _check_table1(args) -> int:
    from currentlie.current import TableIdentityError, current_algebra, verify_bracket_table

    if len(args.paths) != 2:
        raise FormatError("check table1 needs a lie file and an assoc file")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise FormatError(f"--samples must be between 1 and {MAX_SAMPLES}")
    g, a = _load_pair(*args.paths)
    ca = current_algebra(g, a)
    try:
        outcome = verify_bracket_table(ca, sample_count=args.samples, seed=args.seed)
    except TableIdentityError as exc:
        counterexample = {"rule": exc.rule, "message": str(exc)}
        if exc.lhs is not None:
            counterexample["lhs"] = _matrix_doc(exc.lhs)
        if exc.rhs is not None:
            counterexample["rhs"] = _matrix_doc(exc.rhs)
        report = _envelope(
            args, args.paths, "fail",
            flags={"table_identities": False},
            counterexample=counterexample,
        )
        return _emit(args, report, [f"counterexample: {exc}", "FAIL"])
    report = _envelope(
        args, args.paths, "pass",
        flags={
            "table_identities": True,
            # the dot-action reading is the h*k rule's right side, which
            # every h*k pair has matched, or verify_bracket_table raised
            "dot_action_reading_matches": True,
            "plain_reading_matches": outcome.plain_reading_matches,
        },
        mode=outcome.mode,
        seed=outcome.seed,
        checked=dict(sorted(outcome.checked.items())),
        total_pairs=outcome.total_pairs,
    )
    lines = [
        f"mode: {outcome.mode}",
        f"pairs checked: {outcome.total_pairs}",
        "PASS",
    ]
    return _emit(args, report, lines)


def _check_axioms(args) -> int:
    if len(args.paths) != 1:
        raise FormatError("check axioms needs exactly one algebra file")
    alg = load_algebra(args.paths[0], check=False)
    violation = first_axiom_violation(alg)
    if violation is None:
        report = _envelope(args, args.paths, "pass", flags={"axioms": True})
        return _emit(args, report, ["axioms: pass", "PASS"])
    report = _envelope(
        args, args.paths, "fail",
        flags={"axioms": False},
        counterexample=violation,
    )
    return _emit(args, report, [f"counterexample: {violation}", "FAIL"])


def _check_radical(args) -> int:
    if len(args.paths) != 1:
        raise FormatError("check radical needs exactly one algebra file")
    alg = load_algebra(args.paths[0])
    if isinstance(alg, AssocAlgebra):
        rad = jacobson_radical(alg)
        label = "jacobson radical"
    else:
        rad = solvable_radical(alg)
        label = "solvable radical"
    report = _envelope(
        args, args.paths, "pass",
        dimensions={"algebra": alg.dim, "radical": rad.dim},
        flags={},
        radical_basis=_matrix_doc(rad.basis),
    )
    combos = ", ".join(_combo(alg.labels, row) for row in rad.basis._fraction_rows())
    lines = [
        f"{label} dimension: {rad.dim}",
        f"basis: {combos}" if rad.dim else "basis: (zero)",
    ]
    return _emit(args, report, lines)


def cmd_check(args) -> int:
    if args.what == "table1":
        return _check_table1(args)
    if args.what == "axioms":
        return _check_axioms(args)
    return _check_radical(args)


def cmd_info(args) -> int:
    alg = load_algebra(args.path)
    if isinstance(alg, LieAlgebra):
        dseries = [sp.dim for sp in derived_series(alg)]
        lseries = [sp.dim for sp in lower_central_series(alg)]
        dims = {
            "algebra": alg.dim,
            "center": center(alg).dim,
            "derivations": lie_derivations(alg).dim,
        }
        flags = {"nilpotent": lseries[-1] == 0, "solvable": dseries[-1] == 0}
        report = _envelope(
            args, [args.path], "pass",
            dimensions=dims, flags=flags,
            derived_series=dseries, lower_central_series=lseries,
        )
        lines = [
            "kind: lie",
            f"dimension: {alg.dim}",
            f"center dimension: {dims['center']}",
            f"derivation algebra dimension: {dims['derivations']}",
            f"derived series dimensions: {dseries}",
            f"lower central series dimensions: {lseries}",
            f"nilpotent: {str(flags['nilpotent']).lower()}",
            f"solvable: {str(flags['solvable']).lower()}",
        ]
        return _emit(args, report, lines)
    rad = jacobson_radical(alg)
    dims = {
        "algebra": alg.dim,
        "radical": rad.dim,
        "derivations": assoc_derivations(alg).dim,
    }
    report = _envelope(args, [args.path], "pass", dimensions=dims, flags={})
    lines = [
        "kind: assoc",
        f"dimension: {alg.dim}",
        f"radical dimension: {rad.dim}",
        f"derivation algebra dimension: {dims['derivations']}",
    ]
    return _emit(args, report, lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currentlie",
        description="Exact derivation algebras of current Lie algebras g (x) A.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("heisenberg", help="write a truncated Heisenberg file")
    p.add_argument("--m", type=int, required=True, help="number of e/f pairs")
    p.add_argument("--k", type=int, required=True, help="truncation order")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("derive", help="compute the derivation algebra")
    p.add_argument("path", help="algebra file")
    p.add_argument("--dim", action="store_true", help="print only the dimension")
    p.add_argument("--basis", action="store_true", help="include basis matrices")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("levi", help="certify radical and Levi factor of der(g (x) A)")
    p.add_argument("g_path", help="lie algebra file")
    p.add_argument("a_path", help="associative algebra file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_levi)

    p = sub.add_parser("check", help="run a verification")
    p.add_argument(
        "what",
        choices=("table1", "axioms", "radical"),
        help="table1: bracket rules of the derivation summands; "
        "axioms: structure constant axioms; radical: radical basis",
    )
    p.add_argument("paths", nargs="+", help="algebra file(s)")
    p.add_argument("--samples", type=int, default=20, help=f"pairs per rule, 1 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("info", help="dimensions, center, series, radical summary")
    p.add_argument("path", help="algebra file")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except AxiomError as exc:
        print(f"axiom check failed: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        # loaded files passed their axiom checks, so a certificate built from
        # them failed (Newton's iteration for S, the bracket of g (x) A): exit 1
        print(f"certificate failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

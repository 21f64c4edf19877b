"""Seeded random algebra files through every verb: the exit-code contract.

Each pair of files is a Lie file of dim at most 4 and an associative
file of a truncated polynomial ring, both written in a randomly rescaled
(and, for the Lie file, permuted) basis.  Some files are broken: an entry
is perturbed, added or dropped, or a coefficient is malformed.  Every verb
runs in process on each pair, and `cli.main` must return 0, 1 or 2 and
never raise.  Where the outcome is known it is asserted too: a malformed
file exits 2 from every verb that reads it, and every single-file verb
passes on an unbroken one.  The seed never draws a non-Lie file together
with a malformed associative one, so that pair is added by hand, and so
are two files that are not JSON text at all: bytes that are not UTF-8,
and an array nested deeper than the JSON decoder's recursion limit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from currentlie.cli import main

# (dim, [(i, j, k, c)] with i < j) of small Lie algebras
LIE_SEEDS = [
    (1, []),
    (2, []),
    (2, [(0, 1, 1, 1)]),  # the affine algebra
    (3, [(0, 1, 2, 1)]),  # h_1
    (3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]),  # sl_2 = sp(1)
    (4, [(0, 1, 2, 1)]),  # h_1 (+) Q
    (4, []),
]

MALFORMED = ["1e3", "1/0", 1.5, True, "9" * 5000, " 1"]


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, -1]) * rng.randint(1, 6), rng.randint(1, 6))


def _coeff(rng: random.Random, c: Fraction):
    # an int coefficient travels as a JSON int or a string, others as "p/q"
    if c.denominator == 1 and rng.random() < 0.3:
        return c.numerator
    return str(c)


def _break(rng: random.Random, entries: list, dim: int, lower: bool) -> None:
    """Perturb, add or drop one entry (i, j, k, c) in place."""
    kind = rng.randrange(3)
    if kind == 0 and entries:
        t = rng.randrange(len(entries))
        i, j, k, c = entries[t]
        entries[t] = (i, j, k, c + _scale(rng))
    elif kind == 1 and entries:
        entries.pop(rng.randrange(len(entries)))
    else:
        i, j = sorted(rng.sample(range(dim), 2)) if dim > 1 else (0, 0)
        if lower and rng.random() < 0.5:
            j = i
        if lower or i < j:
            k = rng.randrange(dim)
            entries[:] = [e for e in entries if e[:3] != (i, j, k)] + [(i, j, k, _scale(rng))]


def _document(rng: random.Random, kind: str, dim: int, entries: list, extra: dict) -> tuple:
    """The file's JSON text, and whether a coefficient in it is malformed."""
    products = [[i, j, k, _coeff(rng, c)] for i, j, k, c in entries if c]
    malformed = bool(products) and rng.random() < 0.15
    if malformed:
        rng.choice(products)[3] = rng.choice(MALFORMED)
    doc = {"kind": kind, "dim": dim, "basis": [f"b{i}" for i in range(dim)],
           "products": products, **extra}
    return json.dumps(doc), malformed


def lie_file(rng: random.Random) -> tuple:
    """(text, malformed, broken) of a rescaled, permuted small Lie algebra."""
    dim, seed = rng.choice(LIE_SEEDS)
    perm = rng.sample(range(dim), dim)
    s = [_scale(rng) for _ in range(dim)]
    entries = []
    for i, j, k, c in seed:
        # [b_i, b_j] = s_i s_j / s_k c_ij^k b_k for b_i = s_i e_i, then permuted
        c = s[i] * s[j] / s[k] * c
        pi, pj = perm[i], perm[j]
        entries.append((pi, pj, perm[k], c) if pi < pj else (pj, pi, perm[k], -c))
    broken = rng.random() < 0.3
    if broken:
        _break(rng, entries, dim, lower=False)
    return (*_document(rng, "lie", dim, entries, {}), broken)


def assoc_file(rng: random.Random) -> tuple:
    """(text, malformed, broken) of Q[t]/(t^n), n <= 3, in the basis b_i = s_i t^i."""
    n = rng.randint(1, 3)
    s = [_scale(rng) for _ in range(n)]
    entries = [(i, j, i + j, s[i] * s[j] / s[i + j]) for i in range(n) for j in range(i, n - i)]
    unit = [1 / s[0]] + [Fraction(0)] * (n - 1)
    broken = rng.random() < 0.3
    if broken:
        if rng.random() < 0.25:
            unit[rng.randrange(n)] += 1
        else:
            _break(rng, entries, n, lower=True)
    text, malformed = _document(rng, "assoc", n, entries, {"unit": [str(u) for u in unit]})
    return text, malformed, broken


# (text, malformed, broken) of a non-Lie file, whose Jacobi sum on (b0, b1,
# b2) is -b1, and of Q[t]/(t^2) with a malformed coefficient
NON_LIE = (json.dumps({"kind": "lie", "dim": 3, "basis": ["b0", "b1", "b2"],
                       "products": [[0, 1, 0, "1"], [0, 2, 1, "1"]]}), False, True)
MALFORMED_A = (json.dumps({"kind": "assoc", "dim": 2, "basis": ["b0", "b1"],
                           "products": [[0, 0, 0, "1e3"], [0, 1, 1, "1"]],
                           "unit": ["1", "0"]}), True, False)
# (bytes, malformed, broken) of a file that is not UTF-8 and of one whose
# nesting exceeds the recursion limit of json.loads
NOT_UTF8 = (b"\xff\xfe{}", True, False)
TOO_DEEP = (b"[" * 100000 + b"\n", True, False)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_random_files_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(20261019)
    g_path, a_path = str(tmp_path / "g.json"), str(tmp_path / "a.json")
    seen = set()
    pairs = [(lie_file(rng), assoc_file(rng)) for _ in range(40)]
    # each unreadable file comes first once, so that the two-file verbs read it
    pairs += [(NON_LIE, MALFORMED_A), (NOT_UTF8, TOO_DEEP), (TOO_DEEP, NOT_UTF8)]
    for g_file, a_file in pairs:
        files = {g_path: g_file, a_path: a_file}
        for path, (text, _, _) in files.items():
            with open(path, "wb") as fh:
                fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        runs = []  # (the file a single-file verb reads, or None, argv)
        for path in files:
            runs += [
                (path, ["derive", path, "--dim"]),
                (path, ["info", path, "--json"]),
                (path, ["check", "axioms", path]),
                (path, ["check", "radical", path]),
            ]
        runs += [
            (None, ["levi", g_path, a_path]),
            (None, ["check", "table1", g_path, a_path, "--samples", "3"]),
        ]
        for path, argv in runs:
            code = _run(argv)
            assert code in (0, 1, 2), argv
            seen.add(code)
            # the two-file verbs parse both files before either axiom check,
            # so a malformed coefficient in either exits 2, whatever the axioms
            read = [path] if path else [g_path, a_path]
            if any(files[p][1] for p in read):
                assert code == 2, argv
            elif path and not files[path][2]:
                assert code == 0, (argv, files[path][0])
    assert seen == {0, 1, 2}


def test_unreadable_files_exit_2_with_one_error_line(tmp_path):
    # in a child process, as a user runs it: a decoding fault of either kind
    # must reach the exit-code contract, not the interpreter's traceback
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for name, (data, _, _) in (("not_utf8.json", NOT_UTF8), ("deep.json", TOO_DEEP)):
        path = tmp_path / name
        path.write_bytes(data)
        argv = [sys.executable, "-m", "currentlie.cli", "derive", str(path), "--dim"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines

"""Seeded round trips of algebra files, and reports that ignore entry order.

Each algebra is a small Lie algebra in a randomly rescaled and permuted
basis, or a rescaled truncated polynomial ring, alone or summed with
Q[t]/(t^2).  Its file lists the product entries in a
random order, with each coefficient in one of its accepted forms (a JSON
int, "p", or "p/q" not in lowest terms).  Loading that file must give
the algebra; saving it and loading again must give an equal algebra, and
saving that must repeat the first save byte for byte.  Two files of one
algebra, with the entries in two orders, must give `derive` and `info`
`--json` reports that differ only in the digest of the input.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from test_closed_forms import _rebased_lie, _rebased_truncated

from currentlie.assoc import direct_sum, truncated_polynomial
from currentlie.cli import main
from currentlie.current import current_algebra
from currentlie.lie import heisenberg, sp
from currentlie.serialize import algebra_to_dict, load_algebra, save_algebra

LIE_BASES = [
    heisenberg(1),
    heisenberg(2),
    sp(1),
    current_algebra(heisenberg(1), truncated_polynomial(1)).product,
]


def _algebra(rng: random.Random, trial: int):
    """A Lie algebra in a rescaled, permuted basis, or a rescaled truncated
    polynomial ring, or a direct sum of two."""
    if trial % 3 == 2:
        a = _rebased_truncated(trial % 4, rng)
        return direct_sum(a, truncated_polynomial(1)) if trial % 2 else a
    return _rebased_lie(LIE_BASES[trial % len(LIE_BASES)], rng)


def _coeff(rng: random.Random, c: str):
    # one of the forms the loader accepts for the rational c
    c, t = Fraction(c), rng.randint(1, 3)
    form = rng.randrange(3)
    if form == 0 and c.denominator == 1:
        return c.numerator
    if form == 1:
        return str(c)
    return f"{c.numerator * t}/{c.denominator * t}"


def _file(rng: random.Random, doc: dict) -> dict:
    """doc with its entries shuffled and each coefficient in a random form."""
    out = {**doc, "products": [[i, j, k, _coeff(rng, c)] for i, j, k, c in doc["products"]]}
    rng.shuffle(out["products"])
    if "unit" in doc:
        out["unit"] = [_coeff(rng, u) for u in doc["unit"]]
    return out


def _report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return json.loads(out.getvalue())


def test_files_round_trip_and_reports_ignore_entry_order(tmp_path):
    rng = random.Random(20261020)
    path, saved, again = (str(tmp_path / name) for name in ("in.json", "saved.json", "again.json"))
    kinds = set()
    for trial in range(24):
        alg = _algebra(rng, trial)
        doc = algebra_to_dict(alg)
        kinds.add(doc["kind"])

        reports = []
        for _ in range(2):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_file(rng, doc), fh)
            loaded = load_algebra(path)
            assert loaded == alg and hash(loaded) == hash(alg)
            save_algebra(loaded, saved)
            back = load_algebra(saved)
            assert back == loaded
            save_algebra(back, again)
            with open(saved, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
            reports.append([_report(["derive", path, "--json", "--basis"]),
                            _report(["info", path, "--json"])])
        # the same argv, so only the digest of the file may differ
        for first, second in zip(*reports):
            assert first.pop("inputs").keys() == second.pop("inputs").keys()
            assert first == second
    assert kinds == {"lie", "assoc"}

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from currentlie.cli import main
from currentlie.heisenberg import truncated_heisenberg
from currentlie.serialize import algebra_to_dict, dumps_canonical, save_algebra

DATA = Path(__file__).parent / "data"


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def python_reference(obj) -> str:
    # the same text from json's pure-Python indenting encoder, which
    # json.dumps(..., indent=2) runs up to Python 3.12; from 3.13 on it
    # runs a C encoder instead, so timings are taken against this one
    return "".join(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)) + "\n"


# quotes, backslashes, control characters, non-ASCII (a non-BMP character
# is written as a surrogate pair) and characters with short escapes
_CHARS = ['"', "\\", "/", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f",
          "é", "ß", "中", " ", "😀", "a", "Z", "0", " ", "*", "-"]


class _Int(int):
    # json writes the int value, not what __repr__ or __str__ say
    def __repr__(self):
        return "_Int"

    __str__ = __repr__


class _Str(str):
    def __repr__(self):
        return "_Str"


def _random_str(rng) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return _random_str(rng)
    if kind == 1:
        return rng.randint(-10, 10)
    if kind == 2:
        return rng.choice([-1, 1]) * rng.randint(2**64, 2**200)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice([0.5, -0.0, 1e300, 2.5e-8, float("inf"), float("-inf"), float("nan")])
    if kind == 6:
        return rng.choice(["0", "1", "-2/3", ""])
    return rng.choice([_Int(rng.randint(-3, 3)), _Str(_random_str(rng))])


def _random_key(rng, kind):
    if kind == "str":
        return _random_str(rng)
    # numbers of any kind sort together; json.dumps writes them as strings
    return rng.choice([rng.randint(-5, 5), rng.random(), True, False])


def _random_doc(rng, rows, depth=0):
    # rows: a pool of string lists, so that equal rows recur at one depth
    # and at different depths within a document
    kind = rng.randrange(9) if depth < 4 else 0
    if kind <= 2:
        return _random_scalar(rng)
    if kind == 3:
        return rng.choice(rows)
    if kind == 4:
        return tuple(_random_doc(rng, rows, depth + 1) for _ in range(rng.randint(0, 3)))
    if kind in (5, 6):
        # a list that may start with a string and then hold anything
        return [_random_doc(rng, rows, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = rng.choice(["str", "str", "number", "none"])
    if keys == "none":
        return {None: _random_doc(rng, rows, depth + 1)}
    return {_random_key(rng, keys): _random_doc(rng, rows, depth + 1)
            for _ in range(rng.randint(0, 4))}


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(61)
    rows = [[rng.choice(["0", "1", "-1", "1/2", _random_str(rng)]) for _ in range(3)]
            for _ in range(5)]
    kinds = set()
    for _ in range(600):
        doc = _random_doc(rng, rows)
        kinds.add(type(doc).__name__)
        assert dumps_canonical(doc) == reference(doc)
    assert kinds >= {"str", "int", "bool", "NoneType", "float", "list", "tuple", "dict"}
    # the same rows twice in one document and at two depths
    doc = {"a": [rows[0], rows[0], [rows[0]]], "b": rows[0], "c": (rows[1], list(rows[1]))}
    assert dumps_canonical(doc) == reference(doc)


def test_writer_matches_json_dumps_on_corpus_reports(tmp_path, capsys):
    # every JSON file in tests/data (inputs and golden reports), and the
    # report of each verb on files written here
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert dumps_canonical(doc) == reference(doc), path.name
    h = tmp_path / "h11.json"
    save_algebra(truncated_heisenberg(1, 1).product, h)
    a, g = str(DATA / "a4.json"), str(DATA / "h2.json")
    for argv in (
        ["derive", str(h), "--json", "--basis"],
        ["derive", a, "--json", "--basis"],
        ["info", str(h), "--json"],
        ["info", a, "--json"],
        ["check", "axioms", str(h), "--json"],
        ["check", "radical", a, "--json"],
        ["check", "table1", g, a, "--json", "--seed", "5"],
        ["levi", g, str(DATA / "a1.json"), "--json"],
        ["heisenberg", "--m", "2", "--k", "3"],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == reference(json.loads(out)), argv


@pytest.mark.parametrize("bad", [
    {1, 2}, b"bytes", Fraction(1, 2), 1j, object(), [{"a": frozenset()}],
    {(1, 2): 0}, {1: 0, "a": 1}, {None: 0, "a": 1},
])
def test_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        dumps_canonical(bad)


def _best_times(docs_by_writer, repeats):
    best = {name: float("inf") for name in docs_by_writer}
    for _ in range(repeats):  # alternating, best of each
        for name, (write, doc) in docs_by_writer.items():
            start = time.perf_counter()
            write(doc)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_writer_is_faster_than_json_dumps(tmp_path, capsys):
    # the report of `derive --json --basis` on h_{2,4}: 159 matrices of
    # 25 string rows, few of them distinct
    path = tmp_path / "h24.json"
    save_algebra(truncated_heisenberg(2, 4).product, path)
    assert main(["derive", str(path), "--json", "--basis"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert dumps_canonical(report) == python_reference(report) == reference(report)
    best = _best_times({"ours": (dumps_canonical, report), "json": (python_reference, report)}, 7)
    assert 2 * best["ours"] <= best["json"], best
    # the h_{9,9} algebra document: lists that mix ints and strings
    doc = algebra_to_dict(truncated_heisenberg(9, 9).product)
    assert dumps_canonical(doc) == python_reference(doc) == reference(doc)
    best = _best_times({"ours": (dumps_canonical, doc), "json": (python_reference, doc)}, 15)
    assert best["ours"] <= best["json"], best

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from currentlie.assoc import (
    AssocAlgebra,
    direct_sum,
    jacobson_radical,
    truncated_polynomial,
    wedderburn_complement,
)
from currentlie.assoc import derivations as assoc_derivations
from currentlie.cli import main
from currentlie.current import current_algebra, levi_candidate_subspace, levi_split
from currentlie.heisenberg import DerivationTemplate, truncated_heisenberg
from currentlie.lie import (
    LieAlgebra,
    centroid,
    derivations,
    heisenberg,
    hom_quotient_to_center,
    lie_from_endo_span,
    solvable_radical,
    sp,
)
from currentlie.linalg import ExactMatrix, rat
from currentlie.serialize import (
    AxiomError,
    FormatError,
    MAX_DIM,
    MAX_SAMPLES,
    algebra_from_dict,
    algebra_to_dict,
    dumps_canonical,
    load_algebra,
    save_algebra,
)
from helpers import nonassociative_current, polynomial_quotient, sl2_ltimes_q2
from test_closed_forms import _rebased_lie


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, alg in (
        ("h1", heisenberg(1)),
        ("a1", truncated_polynomial(1)),
        ("a2", truncated_polynomial(2)),
        ("sp1", sp(1)),
        ("h11", truncated_heisenberg(1, 1).product),
    ):
        path = tmp_path / f"{name}.json"
        save_algebra(alg, path)
        paths[name] = str(path)
    return paths


def test_heisenberg_file_roundtrips(tmp_path, capsys):
    out = tmp_path / "h11.json"
    code, stdout, _ = run(["heisenberg", "--m", "1", "--k", "1", "--out", str(out)], capsys)
    assert code == 0
    assert "dim 6" in stdout
    alg = load_algebra(out)
    assert alg == truncated_heisenberg(1, 1).product


def test_heisenberg_stdout_document(capsys):
    code, stdout, _ = run(["heisenberg", "--m", "2", "--k", "0"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["kind"] == "lie" and doc["dim"] == 5
    # h_2 itself: only [e_i, f_i] = z survive
    assert sorted(doc["products"]) == [[0, 2, 4, "1"], [1, 3, 4, "1"]]


def test_heisenberg_bad_arguments(capsys):
    code, _, stderr = run(["heisenberg", "--m", "0", "--k", "1"], capsys)
    assert code == 2
    assert "--m" in stderr


def test_heisenberg_dimension_cap(capsys, monkeypatch):
    # refused before anything is built; the stub keeps a missing cap from
    # allocating the huge algebra
    def refuse(m, k):
        raise AssertionError("algebra built past the cap")

    monkeypatch.setattr("currentlie.cli.truncated_heisenberg", refuse)
    for m, k in ((10**6, 0), (1, 10**9), (100, 0)):
        code, stdout, stderr = run(["heisenberg", "--m", str(m), "--k", str(k)], capsys)
        assert code == 2 and not stdout
        assert f"maximum {MAX_DIM}" in stderr


def test_algebra_file_dimension_cap(tmp_path, capsys):
    dim = MAX_DIM + 1
    doc = {"kind": "lie", "dim": dim, "basis": [f"x{i}" for i in range(dim)], "products": []}
    with pytest.raises(FormatError, match=f"dim {dim} exceeds the supported maximum {MAX_DIM}"):
        algebra_from_dict(doc)
    # the CLI maps the refusal to exit code 2; the --dim report never runs
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, stdout, stderr = run(["check", "axioms", str(path)], capsys)
    assert code == 2 and not stdout
    assert "exceeds the supported maximum" in stderr


@pytest.mark.parametrize("verb", [["levi"], ["check", "table1"]], ids=["levi", "check-table1"])
def test_two_file_verbs_refuse_products_over_the_cap(verb, tmp_path, capsys, monkeypatch):
    # g (x) A is refused before der(g) or the product is built; the stubs
    # keep a missing cap from building h_9 (x) Q[t]/(t^31), of dim 589
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    monkeypatch.setattr("currentlie.current.levi_split", built)
    monkeypatch.setattr("currentlie.current.current_algebra", built)

    def abelian(n):
        return LieAlgebra.from_bracket_entries([f"x{i}" for i in range(n)], [])

    paths = {}
    for name, alg in (
        ("h9", heisenberg(9)),
        ("t31", truncated_polynomial(30)),
        ("ab67", abelian(67)),
        ("t3", truncated_polynomial(2)),
        ("ab100", abelian(100)),
        ("t2", truncated_polynomial(1)),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        save_algebra(alg, paths[name])
    for g, a, dims in (("h9", "t31", "19 * 31 = 589"), ("ab67", "t3", "67 * 3 = 201")):
        code, stdout, stderr = run([*verb, paths[g], paths[a]], capsys)
        assert code == 2 and not stdout
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert f"product dim {dims} exceeds the supported maximum {MAX_DIM}" in stderr
    # dim 100 * 2 = MAX_DIM itself is admitted, and the verb goes on to build
    with pytest.raises(Built):
        main([*verb, paths["ab100"], paths["t2"]])


@pytest.mark.parametrize("verb", [["levi"], ["check", "table1"]], ids=["levi", "check-table1"])
def test_two_file_verbs_report_a_malformed_a_before_a_broken_g(verb, tmp_path, capsys):
    # [e,f] = z and [f,z] = f break the Jacobi identity on (e, f, z), which
    # alone exits 1; an A file holding "1e3" is an input error, exit 2, and
    # both files are parsed before either axiom check
    lie = {"kind": "lie", "dim": 3, "basis": ["e", "f", "z"],
           "products": [[0, 1, 2, "1"], [1, 2, 1, "1"]]}
    assoc = {"kind": "assoc", "dim": 2, "basis": ["1", "t"], "unit": ["1", "0"],
             "products": [[0, 0, 0, "1"], [0, 1, 1, "1"]]}
    paths = {}
    for name, doc in (("g", lie), ("a", assoc)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
        bad = json.loads(json.dumps(doc))
        bad["products"][-1][3] = "1e3"
        paths[name + "_bad"] = tmp_path / f"{name}_bad.json"
        paths[name + "_bad"].write_text(json.dumps(bad), encoding="utf-8")

    code, stdout, stderr = run([*verb, str(paths["g"]), str(paths["a"])], capsys)
    assert code == 1 and not stdout and "Jacobi fails" in stderr
    for g, a in (("g", "a_bad"), ("g_bad", "a"), ("g_bad", "a_bad")):
        code, stdout, stderr = run([*verb, str(paths[g]), str(paths[a])], capsys)
        assert code == 2 and not stdout, (g, a, stderr)
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "bad rational '1e3'" in stderr


def test_max_dim_files_load_and_check_in_little_memory(tmp_path):
    # only the listed products are stored: no dim^3 table on the way in,
    # and the axiom checks visit only what those products reach
    basis = [f"x{i}" for i in range(MAX_DIM)]
    docs = {
        "lie": {"kind": "lie", "dim": MAX_DIM, "basis": basis, "products": [[0, 1, 2, "1"]]},
        # Q + (square-zero ideal): the unit x0 times each x_j, nothing else
        "assoc": {
            "kind": "assoc",
            "dim": MAX_DIM,
            "basis": basis,
            "unit": ["1"] + ["0"] * (MAX_DIM - 1),
            "products": [[0, j, j, "1"] for j in range(MAX_DIM)],
        },
    }
    for kind, doc in docs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            alg = load_algebra(path, check=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (kind, peak)
        assert alg.dim == MAX_DIM
        assert algebra_to_dict(alg)["products"] == doc["products"]


def test_derive_dim_of_abelian_max_dim_file_in_little_memory(tmp_path, capsys):
    # der of an abelian g is all of gl(g): a nullspace of MAX_DIM^2 = 40000
    # unknowns with no equations, stored as 40000 one-entry sparse rows
    # (measured peak: 37 MB); a dense basis would need 40000^2 pointers
    doc = {"kind": "lie", "dim": MAX_DIM, "basis": [f"x{i}" for i in range(MAX_DIM)],
           "products": []}
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code, stdout, _ = run(["derive", str(path), "--dim"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and stdout.strip() == str(MAX_DIM**2)
    assert peak < 80 * 2**20, peak


def test_failed_certificates_exit_1(files, capsys, monkeypatch):
    # no known file reaches these raises, so stubs stand in for them: a
    # loaded file has passed its axiom checks, and a certificate step that
    # then fails is a mathematical failure, not a traceback
    def no_complement(a):
        raise RuntimeError("Newton's iteration for the semisimple parts did not converge")

    def bad_product(g, a):
        raise ValueError("product bracket violates the Lie axioms")

    monkeypatch.setattr("currentlie.current.wedderburn_complement", no_complement)
    code, stdout, stderr = run(["levi", files["h1"], files["a1"]], capsys)
    assert code == 1 and not stdout and "Newton's iteration" in stderr
    monkeypatch.setattr("currentlie.current.current_algebra", bad_product)
    code, stdout, stderr = run(["check", "table1", files["h1"], files["a1"]], capsys)
    assert code == 1 and not stdout and "violates the Lie axioms" in stderr


def test_derive_dim_flag(files, capsys):
    code, stdout, _ = run(["derive", files["h11"], "--dim"], capsys)
    assert code == 0
    assert stdout.strip() == "17"


def test_derive_json_report(files, capsys):
    code, stdout, _ = run(["derive", files["h11"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dimensions"] == {"algebra": 6, "derivations": 17}
    assert doc["status"] == "pass" and doc["exit_code"] == 0
    assert doc["command"][0] == "derive"
    assert len(doc["inputs"]) == 1
    digest = next(iter(doc["inputs"].values()))
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_derive_one_dimensional_abelian(tmp_path, capsys):
    path = tmp_path / "ab.json"
    save_algebra(LieAlgebra(["x"], [[[0]]]), path)
    code, stdout, _ = run(["derive", str(path), "--dim"], capsys)
    assert code == 0 and stdout.strip() == "1"


def test_derive_assoc_file(files, capsys):
    code, stdout, _ = run(["derive", files["a2"], "--dim"], capsys)
    assert code == 0 and stdout.strip() == "2"


def test_derive_basis_matrices_fit_template(files, capsys):
    code, stdout, _ = run(["derive", files["h11"], "--json", "--basis"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["basis"]) == 17
    tpl = DerivationTemplate(1, 1)
    for rows in doc["basis"]:
        mat = ExactMatrix([[rat(c) for c in row] for row in rows])
        assert tpl.match(mat).ok


def test_derive_text_prints_the_basis_cells_right_justified(capsys):
    # the text report prints the cells of --json --basis, each matrix's
    # right-justified to its widest cell and joined with two spaces
    path = str(DATA / "h1.json")
    code, stdout, _ = run(["derive", path, "--basis"], capsys)
    assert code == 0
    _, doc, _ = run(["derive", path, "--json", "--basis"], capsys)
    basis = json.loads(doc)["basis"]
    lines = ["kind: lie", "algebra dimension: 3", f"derivation algebra dimension: {len(basis)}"]
    for idx, cells in enumerate(basis):
        width = max(len(c) for row in cells for c in row)
        lines.append(f"basis[{idx}]:")
        lines += ["  ".join(c.rjust(width) for c in row) for row in cells]
    assert stdout == "\n".join(lines) + "\n"


def test_levi_heisenberg_passes(files, capsys):
    code, stdout, _ = run(["levi", files["h1"], files["a1"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "pass"
    assert all(doc["flags"].values())
    assert set(doc["flags"]) == {
        "span_equals_der",
        "k_is_ideal",
        "radical_is_ideal",
        "radical_solvable",
        "levi_semisimple",
        "direct_complement",
    }
    assert doc["dimensions"]["derivations"] == 17
    assert doc["dimensions"]["levi"] == 3
    assert doc["dimensions"]["radical"] == 14


def test_levi_semisimple_g(files, capsys):
    code, stdout, _ = run(["levi", files["sp1"], files["a2"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "pass"
    assert doc["dimensions"]["levi"] == 3
    assert doc["dimensions"]["radical"] == 8
    assert doc["dimensions"]["derivations"] == 11


# A/J is Q(sqrt 2), Q(i) and Q(sqrt 2) (+) Q: not split over Q, and the
# Wedderburn-Malcev complement S exists all the same
NONSPLIT = {
    "sqrt2_squared": lambda: polynomial_quotient([4, 0, -4, 0, 1]),
    "gauss": lambda: polynomial_quotient([1, 0, 1]),
    "sqrt2_plus_dual": lambda: direct_sum(polynomial_quotient([-2, 0, 1]), truncated_polynomial(1)),
}


@pytest.mark.parametrize("a_name", sorted(NONSPLIT))
@pytest.mark.parametrize("m", [1, 2])
def test_levi_passes_when_the_quotient_does_not_split(m, a_name, tmp_path, capsys):
    g, a = heisenberg(m), NONSPLIT[a_name]()
    g_path, a_path = tmp_path / "g.json", tmp_path / "a.json"
    save_algebra(g, g_path)
    save_algebra(a, a_path)
    code, stdout, _ = run(["levi", str(g_path), str(a_path), "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "pass"
    assert len(doc["flags"]) == 6 and all(doc["flags"].values())
    if m == 1:
        # the centroid of the Levi factor s (x) S is centroid(s) (x) S: it
        # sees the field in S, which the dimension of s (x) S does not
        s, _ = levi_split(g)
        big_s = wedderburn_complement(a)
        levi = levi_candidate_subspace(current_algebra(g, a), s, big_s)
        assert centroid(lie_from_endo_span(levi)).dim == centroid(sp(1)).dim * big_s.dim


def test_levi_passes_on_affine_and_rescaled_h1(tmp_path, capsys):
    a1 = tmp_path / "a1.json"
    save_algebra(truncated_polynomial(1), a1)
    # the affine algebra, and h_1 with [e,f] = 2z or (1/2)z: the last has
    # h_1's numerators over den 2
    for name, labels, coeff, der_dim in (
        ("affine", ["x", "y"], 1, 5),
        ("h1_2z", ["e", "f", "z"], 2, 17),
        ("h1_half_z", ["e", "f", "z"], rat("1/2"), 17),
    ):
        path = tmp_path / f"{name}.json"
        target = len(labels) - 1
        save_algebra(LieAlgebra.from_bracket_entries(labels, [(0, 1, target, coeff)]), path)
        code, stdout, _ = run(["levi", str(path), str(a1), "--json"], capsys)
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "pass", name
        assert len(doc["flags"]) == 6 and all(doc["flags"].values()), name
        assert doc["dimensions"]["derivations"] == der_dim, name


def _lie(labels, entries) -> LieAlgebra:
    return LieAlgebra.from_bracket_entries(labels, entries)


def _plus_line(g: LieAlgebra) -> LieAlgebra:
    # g (+) Q, with the new basis vector c central
    entries = [(i, j, k, x) for i in range(g.dim) for j in range(i + 1, g.dim)
               for k, x in enumerate(g.structure[i][j]) if x]
    return _lie([*g.labels, "c"], entries)


# g with z(g) in [g, g], none of them heisenberg(m)
LEVI_CORPUS = {
    "h1_permuted": lambda: _lie(["z", "e", "f"], [(1, 2, 0, 1)]),
    "h2_rebased": lambda: _rebased_lie(heisenberg(2), random.Random(24)),
    "sl2_x_Q2": sl2_ltimes_q2,
    "filiform_n4": lambda: _lie(["e1", "e2", "e3", "e4"], [(0, 1, 2, 1), (0, 2, 3, 1)]),
    "Q_x_Q2_diag12": lambda: _lie(["x", "y1", "y2"], [(0, 1, 1, 1), (0, 2, 2, 2)]),
    "sp1": lambda: sp(1),
}


@pytest.mark.parametrize("g_name", sorted(LEVI_CORPUS))
def test_levi_oracle_beyond_heisenberg(g_name, tmp_path, capsys):
    g = LEVI_CORPUS[g_name]()
    g_path = tmp_path / "g.json"
    save_algebra(g, g_path)
    der_g = derivations(g).dim
    h, cent = hom_quotient_to_center(g).dim, centroid(g).dim
    levi_g = der_g - solvable_radical(lie_from_endo_span(derivations(g))).dim
    for a in (truncated_polynomial(2), direct_sum(truncated_polynomial(1), truncated_polynomial(1))):
        a_path = tmp_path / "a.json"
        save_algebra(a, a_path)
        code, stdout, _ = run(["levi", str(g_path), str(a_path), "--json"], capsys)
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "pass"
        assert len(doc["flags"]) == 6 and all(doc["flags"].values())
        # dim der(g (x) A) from the factors, and the Levi factor s (x) S
        want = (der_g - h) * a.dim + (cent - h) * assoc_derivations(a).dim + h * a.dim**2
        assert doc["dimensions"]["derivations"] == want
        assert doc["dimensions"]["levi"] == levi_g * (a.dim - jacobson_radical(a).dim)


@pytest.mark.parametrize(
    "g",
    [_plus_line(sp(1)), _plus_line(_lie(["x", "y"], [(0, 1, 1, 1)])), _plus_line(heisenberg(1))],
    ids=["sl2+Q", "r2+Q", "h1+Q"],
)
def test_levi_refuses_a_center_outside_the_derived_algebra(g, tmp_path, capsys):
    # then k = hom0(g) (x) End(A) holds sl(A), and der(g (x) A) has no
    # solvable radical of the predicted form
    g_path, a_path = tmp_path / "g.json", tmp_path / "a.json"
    save_algebra(g, g_path)
    save_algebra(truncated_polynomial(2), a_path)
    code, stdout, _ = run(["levi", str(g_path), str(a_path)], capsys)
    assert code == 1
    assert stdout == "precondition failed: z(g) is not contained in [g,g]\nFAIL\n"


def test_levi_missing_file_exits_2(files, capsys):
    code, _, stderr = run(["levi", files["h1"], "/nonexistent/a.json"], capsys)
    assert code == 2
    assert "cannot read" in stderr


def test_levi_kind_mismatch_exits_2(files, capsys):
    code, _, stderr = run(["levi", files["a1"], files["h1"]], capsys)
    assert code == 2
    assert "expected a lie file" in stderr


def test_check_table1_exhaustive_pass(files, capsys):
    code, stdout, _ = run(["check", "table1", files["h1"], files["a1"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["mode"] == "exhaustive"
    assert doc["flags"]["table_identities"] is True
    assert doc["flags"]["dot_action_reading_matches"] is True
    assert doc["flags"]["plain_reading_matches"] is False


def test_check_table1_sampled_and_deterministic(files, capsys):
    argv = ["check", "table1", files["h1"], files["a2"], "--json", "--seed", "7"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["mode"] == "sampled" and doc["seed"] == 7
    assert doc["total_pairs"] == 120  # six rules, twenty samples each


def test_check_table1_samples_bound(files, capsys, monkeypatch):
    # --samples past the bound is refused before the files are even read;
    # the bound itself reaches the table, which the stub stands in for
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached(kwargs.get("sample_count"))

    argv = ["check", "table1", files["h1"], files["a1"], "--samples"]
    with monkeypatch.context() as patch:
        patch.setattr("currentlie.cli._load_pair", reached)
        for samples in (0, MAX_SAMPLES + 1):
            code, stdout, stderr = run([*argv, str(samples)], capsys)
            assert code == 2 and not stdout
            assert stderr.startswith("error: --samples") and stderr.count("\n") == 1
    monkeypatch.setattr("currentlie.current.verify_bracket_table", reached)
    with pytest.raises(Reached) as exc:
        main([*argv, str(MAX_SAMPLES)])
    assert exc.value.args == (MAX_SAMPLES,)


def test_check_table1_failed_rule_exits_1(files, capsys, monkeypatch):
    # a file over a non-associative A fails its axiom checks on loading, so
    # the stub builds h_1 (x) A over one in place of the loaded h_1 (x) Q[t]/(t^3)
    monkeypatch.setattr(
        "currentlie.current.current_algebra", lambda g, a: nonassociative_current(g)
    )
    code, stdout, _ = run(["check", "table1", files["h1"], files["a2"], "--json"], capsys)
    doc = json.loads(stdout)
    assert code == 1 and doc["status"] == "fail" and doc["exit_code"] == 1
    assert doc["flags"] == {"table_identities": False}
    counterexample = doc["counterexample"]
    assert counterexample["rule"] == "h*h"
    assert counterexample["message"].startswith("bracket rule h*h: commutator does not match")
    lhs, rhs = counterexample["lhs"], counterexample["rhs"]
    assert len(lhs) == len(rhs) == 9 and lhs != rhs


def test_check_table1_wrong_paths(files, capsys):
    code, _, stderr = run(["check", "table1", files["h1"]], capsys)
    assert code == 2 and "table1" in stderr


def test_check_axioms_pass(files, capsys):
    code, stdout, _ = run(["check", "axioms", files["sp1"]], capsys)
    assert code == 0 and "PASS" in stdout


def test_check_axioms_corrupted_file(files, tmp_path, capsys):
    doc = json.loads(Path(files["h1"]).read_text(encoding="utf-8"))
    doc["products"] = [[0, 1, 0, "1"], [0, 2, 1, "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, stdout, _ = run(["check", "axioms", str(bad), "--json"], capsys)
    assert code == 1
    report = json.loads(stdout)
    assert report["status"] == "fail" and report["exit_code"] == 1
    assert "Jacobi" in report["counterexample"]
    # other commands refuse the same file with the axiom failure
    code, _, stderr = run(["derive", str(bad)], capsys)
    assert code == 1 and "Jacobi" in stderr


def test_check_radical_assoc(files, capsys):
    code, stdout, _ = run(["check", "radical", files["a2"]], capsys)
    assert code == 0
    assert "jacobson radical dimension: 2" in stdout
    assert "t, t^2" in stdout


def test_check_radical_lie(files, capsys):
    code, stdout, _ = run(["check", "radical", files["h1"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dimensions"]["radical"] == 3  # nilpotent, so everything


def test_info_heisenberg(files, capsys):
    code, stdout, _ = run(["info", files["h1"]], capsys)
    assert code == 0
    assert "nilpotent: true" in stdout
    assert "center dimension: 1" in stdout


def test_info_current_center(files, capsys):
    code, stdout, _ = run(["info", files["h11"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dimensions"]["center"] == 2
    assert doc["flags"]["nilpotent"] is True


def test_info_assoc(files, capsys):
    code, stdout, _ = run(["info", files["a2"], "--json"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dimensions"]["radical"] == 2
    assert doc["dimensions"]["derivations"] == 2


def test_out_flag_writes_same_bytes(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        ["check", "radical", files["a2"], "--json", "--out", str(out)], capsys
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_assoc_file_roundtrip(tmp_path):
    a2 = truncated_polynomial(2)
    path = tmp_path / "a2.json"
    save_algebra(a2, path)
    assert load_algebra(path) == a2
    # canonical serialization is stable
    assert dumps_canonical(algebra_to_dict(a2)) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(kind="group"), "kind"),
        (lambda d: d.update(dim="3"), "dim"),
        (lambda d: d.update(basis=["x"]), "basis"),
        (lambda d: d["products"].append([2, 1, 0, "1"]), "i < j"),
        (lambda d: d["products"].append([0, 9, 0, "1"]), "out of range"),
        (lambda d: d["products"].append([0, 1, 2, "1"]), "duplicate"),
        (lambda d: d["products"].append([0, 2, 0, "1/0"]), "bad rational"),
        (lambda d: d["products"].append([0, 2, 0, 2.5]), "rational string"),
        # only the "p" and "p/q" forms that rat_str writes
        (lambda d: d["products"].append([0, 2, 0, "1e400"]), r"products\[1\]: bad rational"),
        (lambda d: d["products"].append([0, 2, 0, "1.5"]), r"products\[1\]: bad rational"),
        (lambda d: d["products"].append([0, 2, 0, " 1"]), r"products\[1\]: bad rational"),
        (lambda d: d.update(algebra_to_dict(truncated_polynomial(1)), unit=["1e400", "0"]),
         r"unit\[0\]: bad rational"),
        (lambda d: d.update(algebra_to_dict(truncated_polynomial(1)), unit=["1", "1.5"]),
         r"unit\[1\]: bad rational"),
        (lambda d: d.update(algebra_to_dict(truncated_polynomial(1)), unit=[" 1", "0"]),
         r"unit\[0\]: bad rational"),
        (lambda d: d.update(unit=["1", "0", "0"]), "unknown keys"),
        (lambda d: d.pop("products"), "missing keys"),
    ],
)
def test_format_violations(tmp_path, mutate, message):
    doc = algebra_to_dict(heisenberg(1))
    mutate(doc)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_algebra(path)


@pytest.mark.parametrize(
    "coeff, message",
    # Fraction would read "1e50000000" and spend minutes expanding it; the
    # JSON reader refuses an int of more than 4300 digits with a ValueError,
    # and so does Fraction a string of them.  A refused string is echoed
    # only in part, so the error line stays short
    [
        ('"1e50000000"', "products[0]: bad rational"),
        ("9" * 5000, "invalid JSON"),
        ('"%s"' % ("9" * 5000), "products[0]: bad rational '99999"),
        ('"1.5%s"' % ("0" * 5000), "products[0]: bad rational '1.500"),
    ],
    ids=["decimal exponent", "5000-digit int", "5000-digit string", "long decimal string"],
)
def test_oversized_coefficient_exits_2_at_once(tmp_path, capsys, monkeypatch, coeff, message):
    monkeypatch.chdir(tmp_path)
    Path("coeff.json").write_text(
        '{"kind":"lie","dim":2,"basis":["x","y"],"products":[[0,1,1,%s]]}' % coeff
    )
    start = time.perf_counter()
    code, stdout, stderr = run(["derive", "coeff.json", "--dim"], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert message in stderr and len(stderr) < 200


def test_assoc_requires_unit(tmp_path):
    doc = algebra_to_dict(truncated_polynomial(1))
    del doc["unit"]
    path = tmp_path / "nounit.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="missing keys"):
        load_algebra(path)


def test_axiom_error_reports_counterexample(tmp_path):
    doc = algebra_to_dict(truncated_polynomial(1))
    doc["products"] = [[0, 1, 1, "1"], [1, 1, 0, "1"]]  # t*t = 1 breaks associativity
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AxiomError, match="associativity|unit"):
        load_algebra(path)
    alg = load_algebra(path, check=False)
    assert alg.dim == 2


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["levi", "h2.json", "a1.json", "--json"], "levi_h2_a1.json"),
        (["check", "table1", "h2.json", "a4.json", "--json", "--seed", "1"],
         "table1_h2_a4_seed1.json"),
        (["derive", "a4.json", "--json", "--basis"], "derive_a4_basis.json"),
        # an algebra document: lists that mix ints and strings
        (["heisenberg", "--m", "1", "--k", "1"], "heisenberg_m1_k1.json"),
        # dim 6: every basis pair, not samples
        (["check", "table1", "h1.json", "a1.json", "--json"], "table1_h1_a1.json"),
    ],
)
def test_json_reports_match_golden_files(argv, golden):
    # golden files hold the byte-exact stdout of these commands, run in tests/data
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "currentlie.cli", *argv],
        cwd=DATA, env=env, capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / golden).read_bytes()


def test_levi_of_split_algebra_with_huge_coefficient(files, tmp_path, capsys):
    # h_1 (x) Q[x]/(x^2 - n x): finding S must not scale with n
    n = 10**12
    split = AssocAlgebra(["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, n]]], [1, 0])
    path = tmp_path / "split.json"
    save_algebra(split, path)
    start = time.perf_counter()
    code, out, _ = run(["levi", files["h1"], str(path), "--json"], capsys)
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["dimensions"]["levi"] == 6 and doc["dimensions"]["radical"] == 10
    assert elapsed < 2.0


def test_out_of_memory_exits_2(files, capsys, monkeypatch):
    # running out of memory is neither a traceback nor a mathematical
    # failure: a one-line error and the input-error exit code
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("currentlie.cli.cmd_derive", exhausted)
    code, stdout, stderr = run(["derive", files["h11"], "--dim"], capsys)
    assert code == 2 and not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr


def _child(argv, cwd, **kwargs):
    # currentlie.cli in a fresh interpreter that imports the package from src/
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.Popen([sys.executable, "-m", "currentlie.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing_dir", "dir"])
@pytest.mark.parametrize("verb", [
    ["levi", "h1.json", "a1.json"],
    ["info", "h1.json"],
    ["heisenberg", "--m", "1", "--k", "1"],
], ids=["levi", "info", "heisenberg"])
def test_unwritable_out_exits_2_with_empty_stdout(verb, target, files, tmp_path):
    # into a missing directory, or onto a directory: an environment error,
    # named on one stderr line, and nothing left behind
    before = sorted(tmp_path.iterdir())
    stdout, stderr = _child([*verb, "--out", target], tmp_path).communicate()
    assert stdout == b""
    assert stderr.decode() == f"error: cannot write {target}: " + (
        "Is a directory\n" if target == "." else "No such file or directory\n")
    assert sorted(tmp_path.iterdir()) == before


def test_levi_refuses_an_unwritable_out_before_it_certifies(files, tmp_path, capsys, monkeypatch):
    def certify(ca):
        raise AssertionError("certify ran")

    monkeypatch.setattr("currentlie.current.certify", certify)
    out = tmp_path / "missing" / "x.json"
    code, stdout, stderr = run(["levi", files["h1"], files["a1"], "--out", str(out)], capsys)
    assert code == 2 and not stdout
    assert stderr == f"error: cannot write {out}: No such file or directory\n"


def test_out_is_written_whole_or_not_at_all(files, tmp_path, capsys):
    # the report goes to a temporary file beside PATH, renamed over it at the
    # end: a run that fails leaves neither PATH nor the temporary file
    out = tmp_path / "report.txt"
    out.write_text("old", encoding="utf-8")
    code, _, _ = run(["levi", files["h1"], str(tmp_path / "none.json"), "--out", str(out)], capsys)
    assert code == 2 and out.read_text(encoding="utf-8") == "old"
    code, _, _ = run(["levi", files["h1"], files["a1"], "--json", "--out", str(out)], capsys)
    assert code == 0 and json.loads(out.read_text(encoding="utf-8"))["status"] == "pass"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["report.txt", *(Path(p).name for p in files.values())])


@pytest.mark.parametrize("flags", [["--basis"], ["--basis", "--json"]], ids=["text", "json"])
def test_closed_stdout_exits_2_without_a_traceback(flags, tmp_path):
    # der(h_{2,3}) prints 111 matrices of size 20, more than a pipe holds,
    # so the child writes into a pipe whose reader is gone
    save_algebra(truncated_heisenberg(2, 3).product, tmp_path / "h23.json")
    proc = _child(["derive", "h23.json", *flags], tmp_path)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert stderr == b""


def test_ctrl_c_exits_130_with_one_line(files, tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("currentlie.cli.cmd_derive", interrupted)
    out = tmp_path / "report.json"
    code, stdout, stderr = run(["derive", files["h11"], "--out", str(out)], capsys)
    assert code == 130 and not stdout
    assert stderr == "interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(p).name for p in files.values())

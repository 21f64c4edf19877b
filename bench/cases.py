"""The three workloads: their cases and the answer each case must give.

A case runs once per pass and returns a dict of observed facts; the
case's `expect` dict names the facts it must show.  An expected value of
FIRST means "identical to what this case showed in the first pass of the
run", which is how byte-identical `--json` output is checked.  Expected
values come from closed formulas or from isomorphism invariants, not
from the program's own answers.

Every case builds fresh algebra objects, so the per-object memos are
paid in every case, as users pay them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import inputs

FIRST = "<same as first pass>"

WORKLOADS = ("derive", "certify", "cli")


@dataclass
class Case:
    name: str
    run: Callable[[], dict]
    expect: dict
    largest: bool = False
    _first: dict = field(default_factory=dict, init=False, repr=False)

    def check(self, facts: dict):
        """None when every expected fact holds, else a description of the misses."""
        misses = []
        for key, want in self.expect.items():
            got = facts.get(key)
            if want == FIRST:
                want = self._first.setdefault(key, got)
            if got != want:
                misses.append(f"{key}={got!r}, expected {want!r}")
        return "; ".join(misses) or None


def der_dim_formula(m: int, k: int) -> int:
    """dim der(h_m (x) Q[t]/(t^(k+1))) = m(2m+1)(k+1) + 2m(k+1)^2 + 2k + 1."""
    return m * (2 * m + 1) * (k + 1) + 2 * m * (k + 1) ** 2 + 2 * k + 1


def sp_dim(m: int) -> int:
    return m * (2 * m + 1)


# -- derive -----------------------------------------------------------------


def derive_cases(cl) -> list:
    """current_algebra + derivations (+ match_template for Heisenberg g).

    The largest case comes first, so that it is the likeliest to fit in
    the last, partial pass of a run.
    """

    def heisenberg_case(m, k, largest=False):
        def run():
            ca = cl.current_algebra(cl.heisenberg(m), cl.truncated_polynomial(k))
            der = cl.derivations(ca)
            misses = sum(not cl.match_template(m, k, mat).ok for mat in der.basis_matrices())
            return {"dim": der.dim, "template_misses": misses}

        expect = {"dim": der_dim_formula(m, k), "template_misses": 0}
        return Case(f"h_{m},{k}", run, expect, largest)

    def sp_case(m, k):
        def run():
            ca = cl.current_algebra(cl.sp(m), cl.truncated_polynomial(k))
            return {"dim": cl.derivations(ca).dim}

        # semisimple g: der(g (x) A) = g (x) A + der(A), and dim der(A_k) = k
        return Case(f"sp({m})(x)A_{k}", run, {"dim": sp_dim(m) * (k + 1) + k})

    return [
        heisenberg_case(3, 4, largest=True),
        heisenberg_case(2, 4),
        heisenberg_case(3, 2),
        sp_case(2, 1),
        sp_case(1, 3),
    ]


# -- certify ----------------------------------------------------------------


def _levi_facts(report) -> dict:
    return {
        "false_flags": sorted(k for k, v in report.flags.items() if not v),
        "flag_count": len(report.flags),
        "der": report.der_dim,
        "levi": report.levi_candidate.dim,
        "radical": report.radical_candidate.dim,
    }


def _levi_expect(der: int, levi: int) -> dict:
    return {"false_flags": [], "flag_count": 6, "der": der, "levi": levi,
            "radical": der - levi}


def certify_cases(cl, seed: int) -> list:
    """levi_report / certify_decomposition on four (g, A) pairs."""

    def heisenberg_case(m, k, largest=False):
        def run():
            return _levi_facts(cl.levi_report(m, k))

        # Levi factor sp_2m (x) S with S = Q*1
        expect = _levi_expect(der_dim_formula(m, k), sp_dim(m))
        return Case(f"levi_report({m},{k})", run, expect, largest)

    a_prime = inputs.a_prime_doc(seed)

    def run_a_prime():
        ca = cl.current_algebra(cl.heisenberg(1), cl.algebra_from_dict(a_prime))
        return _levi_facts(cl.levi_report(1, 1, ca=ca))

    def run_semisimple():
        g, a = cl.sp(1), cl.truncated_polynomial(3)
        ca = cl.current_algebra(g, a)
        s = cl.lie_derivations(g)  # der(g) is semisimple: s = der(g), r = 0
        r = cl.EndoSubspace(g.dim, cl.Subspace.zero_space(g.dim * g.dim))
        report = cl.certify_decomposition(
            ca, s, r, cl.wedderburn_complement(a), cl.jacobson_radical(a)
        )
        return _levi_facts(report)

    return [
        heisenberg_case(1, 3, largest=True),
        heisenberg_case(2, 1),
        # A' is isomorphic to A_1 (+) A_1, so h_1 (x) A' is h_{1,1} (+) h_{1,1}:
        # der = 2 * 17 + 2 * dim Hom(Q^4, Q^2) = 50 (abelianisation 4, centre 2).
        # S is spanned by the two idempotents, so the Levi factor is sp_2 (x) S
        Case("h_1(x)A'", run_a_prime, _levi_expect(50, 2 * sp_dim(1))),
        Case("sp(1)(x)A_3", run_semisimple, _levi_expect(sp_dim(1) * 4 + 3, sp_dim(1))),
    ]


# -- cli --------------------------------------------------------------------

SPLIT_N = 10**7


def cli_files(workdir, seed: int) -> None:
    """Write every input file of the cli workload into workdir."""
    h = {m: inputs.heisenberg_doc(m) for m in (1, 2)}
    a = {k: inputs.truncated_doc(k) for k in (1, 2, 4)}
    files = {
        "h1.json": h[1],
        "h2.json": h[2],
        "a1.json": a[1],
        "a4.json": a[4],
        "h24.json": inputs.current_doc(h[2], a[4]),
        "h22.json": inputs.current_doc(h[2], a[2]),
        "a_prime.json": inputs.a_prime_doc(seed),
        "split.json": inputs.split_doc(SPLIT_N),
        "bad_jacobi.json": inputs.bad_jacobi_doc(),
        "bad_schema.json": inputs.bad_schema_doc(),
    }
    for name, doc in files.items():
        inputs.write_doc(doc, os.path.join(workdir, name))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliRunner:
    """Runs `currentlie` argv either as a child process or via cli.main."""

    def __init__(self, workdir, src_dir, in_process: bool):
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def __call__(self, argv) -> tuple:
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "currentlie.cli", *argv],
                cwd=self.workdir, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
            )
            return proc.returncode, proc.stdout
        from currentlie import cli

        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        finally:
            os.chdir(here)
        return code, out.getvalue().encode("utf-8")


def cli_cases(runner: CliRunner, seed: int) -> list:
    """One `currentlie` invocation per case, on the files from cli_files.

    The largest case comes first, so that it is the likeliest to fit in
    the last, partial pass of a run.
    """

    def case(name, argv, expect, parse=None, largest=False):
        def run():
            code, out = runner(argv)
            facts = {"exit": code, "stdout_sha256": _sha(out), "stdout_bytes": len(out)}
            if parse is not None and code in (0, 1):
                facts.update(parse(json.loads(out)))
            return facts

        return Case(name, run, {"exit": 0, **expect}, largest)

    def written_file(name):
        path = os.path.join(runner.workdir, name)

        def run():
            if os.path.exists(path):  # the file must be written again in every pass
                os.remove(path)
            code, out = runner(["heisenberg", "--m", "3", "--k", "4", "--out", name])
            with open(path, "rb") as fh:
                data = fh.read()
            return {"exit": code, "file_sha256": _sha(data), "stdout_bytes": len(out),
                    "dim": json.loads(data)["dim"]}

        return Case("heisenberg --m 3 --k 4 --out", run,
                    {"exit": 0, "dim": 35, "file_sha256": FIRST})

    def report(doc):
        facts = {"status": doc["status"], "exit_field": doc["exit_code"]}
        facts.update({f"dim.{k}": v for k, v in doc.get("dimensions", {}).items()})
        facts["false_flags"] = sorted(k for k, v in doc.get("flags", {}).items() if not v)
        facts["basis_len"] = len(doc.get("basis", ()))
        return facts

    passed = {"status": "pass", "exit_field": 0, "false_flags": [], "stdout_sha256": FIRST}
    # h_1 (x) Q[x]/(x^2-Nx) is h_1 (+) h_1: der = 2 der(h_1) + 2 Hom(Q^2, Q) = 2*6 + 2*2,
    # and the Levi factor is sp_2 (x) S with S spanned by x/N and 1 - x/N
    levi_h1 = sp_dim(1) * 2
    return [
        case("derive --json --basis", ["derive", "h24.json", "--json", "--basis"],
             {**passed, "dim.derivations": der_dim_formula(2, 4),
              "basis_len": der_dim_formula(2, 4)}, report, largest=True),
        written_file("h34.json"),
        case("check axioms", ["check", "axioms", "h34.json", "--json"], passed,
             report),
        case("check table1", ["check", "table1", "h2.json", "a4.json", "--json",
                              "--seed", str(seed)],
             # the h-k rule holds read as a dot action, not read plainly
             {**passed, "false_flags": ["plain_reading_matches"]}, report),
        case("check radical", ["check", "radical", "a_prime.json", "--json"],
             {**passed, "dim.radical": 2}, report),
        case("info", ["info", "h22.json", "--json"],
             {**passed, "dim.derivations": der_dim_formula(2, 2), "dim.center": 3},
             report),
        case("levi Q[x]/(x^2-Nx)", ["levi", "h1.json", "split.json", "--json"],
             {**passed, "dim.derivations": 16, "dim.levi": levi_h1,
              "dim.radical": 16 - levi_h1}, report),
        case("levi h_2 A_1", ["levi", "h2.json", "a1.json", "--json"],
             {**passed, "dim.derivations": der_dim_formula(2, 1),
              "dim.levi": sp_dim(2), "dim.radical": der_dim_formula(2, 1) - sp_dim(2)},
             report),
        case("Jacobi violation", ["derive", "bad_jacobi.json", "--dim"],
             {"exit": 1, "stdout_bytes": 0}),
        case("schema violation", ["derive", "bad_schema.json", "--dim"],
             {"exit": 2, "stdout_bytes": 0}),
    ]

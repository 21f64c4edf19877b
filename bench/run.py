"""Benchmark of currentlie: one workload per run, answers checked.

    python3 bench/run.py --workload derive|certify|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src and nothing is installed.  Each run sets up its inputs (timed as
`setup_s`), then runs passes over the workload's cases in a closed loop,
one case at a time, until S seconds have gone by (at least one pass).
After the first pass a case starts only if it would end within S seconds
when it takes as long as it did the time before.  Every case's answer is
checked; a wrong answer or an exception counts as a failed case.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans around the calls into each module (see spans.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A record of the raw values goes to .bench_out/runs/, the spans of a
traced run to .bench_out/spans/.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import cases
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
STARTUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "case_p50_s": "s",
    "largest_case_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span names whose calls and self time it sums
LAYER_SPANS = {
    "lie.derivations": ["lie.derivations"],
    "lie.check_lie_axioms": ["lie.LieAlgebra.check_lie_axioms"],
    "current.current_algebra": ["current.current_algebra"],
    "linalg.matmul": ["linalg.ExactMatrix.matmul"],
    "linalg.commutator": ["linalg.commutator"],
    "linalg.kron": ["linalg.kron"],
    "linalg.coordinates": ["linalg.Subspace.coordinates"],
    "linalg.contains": ["linalg.Subspace.contains"],
    "linalg.from_vectors": ["linalg.Subspace.from_vectors"],
    "linalg.subspace_sum": ["linalg.subspace_sum"],
    "linalg.subspace_intersection": ["linalg.subspace_intersection"],
    "lie.lie_from_endo_span": ["lie.lie_from_endo_span"],
    "lie.killing_form": ["lie.killing_form"],
    "lie.is_solvable": ["lie.is_solvable"],
    "lie.is_semisimple": ["lie.is_semisimple"],
    "lie.solvable_radical": ["lie.solvable_radical"],
    "current.zusmanovich_span": ["current.zusmanovich_span"],
    "current.radical_subspace": ["current.radical_subspace"],
    "current.verify_levi_decomposition": ["current.verify_levi_decomposition"],
    "current.summands": ["current.summand_h", "current.summand_w", "current.summand_k"],
    "current.verify_bracket_table": ["current.verify_bracket_table"],
    "assoc.wedderburn_complement": ["assoc.wedderburn_complement"],
    "assoc.jacobson_radical": ["assoc.jacobson_radical"],
    "assoc.derivations": ["assoc.derivations"],
    "heisenberg.match_template": ["heisenberg.match_template",
                                  "heisenberg.DerivationTemplate.match"],
    "heisenberg.heisenberg_der_blocks": ["heisenberg.heisenberg_der_blocks"],
    "serialize.load_algebra": ["serialize.load_algebra"],
    "serialize.dumps_canonical": ["serialize.dumps_canonical"],
    "cli.main": ["cli.main"],
}
COUNTERS = (
    "lie.derivations.unknowns",
    "lie.derivations.nullity",
    "current.verify_bracket_table.pairs",
    "serialize.bytes_written",
)
MODULE_NAMES = ("linalg", "lie", "assoc", "current", "heisenberg", "serialize", "cli")

# The per-layer metrics in the result line (and in BENCHMARK.json).  A time
# is listed only if every workload spends some of it, so that none reads 0
# on every run; the times of the other layers are printed and recorded.
PER_LAYER = (
    "lie.derivations.calls", "lie.derivations.self_s",
    "lie.derivations.unknowns", "lie.derivations.nullity",
    "lie.check_lie_axioms.calls", "lie.check_lie_axioms.self_s",
    "current.current_algebra.calls", "current.current_algebra.self_s",
    "linalg.matmul.calls", "linalg.matmul.self_s",
    "linalg.from_vectors.calls", "linalg.from_vectors.self_s",
    "linalg.commutator.calls", "linalg.kron.calls",
    "linalg.coordinates.calls", "linalg.contains.calls",
    "lie.lie_from_endo_span.calls",
    "current.zusmanovich_span.calls", "current.verify_levi_decomposition.calls",
    "current.verify_bracket_table.calls", "current.verify_bracket_table.pairs",
    "assoc.wedderburn_complement.calls",
    "heisenberg.match_template.calls",
    "serialize.load_algebra.calls", "serialize.bytes_written",
    "cli.main.calls", "cli.stdout_bytes", "cli.startup_s",
    "linalg.self_s", "lie.self_s", "assoc.self_s", "current.self_s", "heisenberg.self_s",
    "trace.overhead_ratio",
)


def layer_units() -> dict:
    """Name -> unit of every per-layer metric, in print order."""
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in MODULE_NAMES:
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if "bytes" in name else "count"
    units["cli.stdout_bytes"] = "bytes"
    units["cli.startup_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- set-up -----------------------------------------------------------------


def import_package():
    """Import currentlie from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "currentlie", "__init__.py")):
        raise SystemExit(f"error: no currentlie sources under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("currentlie")
    importlib.import_module("currentlie.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: currentlie imported from {package.__file__}, not {SRC}")
    return package


def prepare(package, workload: str, seed: int, workdir: str, in_process_cli: bool) -> list:
    """Generate the workload's inputs and return its cases."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "derive":
        return cases.derive_cases(package)
    if workload == "certify":
        return cases.certify_cases(package, seed)
    cases.cli_files(workdir, seed)
    return cases.cli_cases(cases.CliRunner(workdir, SRC, in_process_cli), seed)


def timed_children(argv_list) -> list:
    """Wall time of each child process, run one after another."""
    times = []
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in argv_list:
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def measure_setup(args) -> list:
    """Set-up time of fresh interpreters: start, import, input generation."""
    argv_list = []
    for rep in range(SETUP_REPEATS):
        workdir = os.path.join(OUT, "setup", str(rep))
        argv_list.append([sys.executable, os.path.abspath(__file__), "--setup-into",
                          workdir, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", "0"])
    return timed_children(argv_list)


# -- passes -----------------------------------------------------------------


def run_pass(case_list, index: int, tracer=None, fits=None) -> dict:
    """One closed-loop pass: each case once, in order, answers checked.

    A case for which fits(case) is false is left out of the pass.  The
    garbage of the case before is collected before a case starts, outside
    its time.
    """
    times, errors, stdout_bytes = {}, {}, 0
    start = time.perf_counter()
    for case in case_list:
        if fits is not None and not fits(case):
            continue
        if tracer is not None:
            tracer.case = f"{index}:{case.name}"
        gc.collect()
        t0 = time.perf_counter()
        try:
            facts = case.run()
        except Exception as exc:  # a crash is a failed case, not a failed run
            facts = {}
            errors[case.name] = f"{type(exc).__name__}: {exc}"
        times[case.name] = time.perf_counter() - t0
        stdout_bytes += facts.get("stdout_bytes", 0)
        miss = None if case.name in errors else case.check(facts)
        if miss:
            errors[case.name] = miss
    total = time.perf_counter() - start
    return {"total_s": total, "case_s": times, "errors": errors,
            "stdout_bytes": stdout_bytes}


def loop(seconds: float, body) -> list:
    """Call body(call index) until `seconds` have passed, at least once.

    No call starts that would end after `seconds` if it took as long as
    the one before, so a slow machine makes fewer calls, not longer runs.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def timed_passes(case_list, seconds: float) -> list:
    """Passes over the cases until `seconds` have passed, at least one.

    After the first pass a case starts only if it would end within
    `seconds` when it takes as long as its run before, so the cases that
    fit fill the end of the run and the run does not overshoot.
    """
    start = time.perf_counter()
    last = {}

    def fits(case):
        return time.perf_counter() - start + last[case.name] <= seconds

    passes = [run_pass(case_list, 0)]
    while True:
        last.update(passes[-1]["case_s"])
        more = run_pass(case_list, len(passes), fits=fits)
        if not more["case_s"]:
            return passes
        passes.append(more)


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(passes, case_list, setup_times, workload) -> dict:
    """Timings from each case's mean over the passes that ran it.

    The mean spreads each case over all the time it ran, so a burst of
    load from outside moves it less than it moves a single run of it.
    case_p50_s is the median over the cases of these means.
    """
    mean_case = {c.name: statistics.fmean(p["case_s"][c.name] for p in passes
                                          if c.name in p["case_s"])
                 for c in case_list}
    largest = next(c.name for c in case_list if c.largest)
    return {
        "setup_s": statistics.median(setup_times),
        "total_s": sum(mean_case.values()),
        "case_p50_s": statistics.median(mean_case.values()),
        "largest_case_s": mean_case[largest],
        "peak_rss_mb": peak_rss_mb(include_children=workload == "cli"),
    }


def tally(passes) -> tuple:
    """(cases attempted, cases failed or wrong) over all passes."""
    attempted = sum(len(p["case_s"]) for p in passes)
    return attempted, sum(len(p["errors"]) for p in passes)


def layer_values(tracer: Tracer, traced: dict, startup_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    values = {}
    for name, span_names in LAYER_SPANS.items():
        values[f"{name}.calls"] = tracer.calls.get(span_names[0], 0)
        values[f"{name}.self_s"] = sum(tracer.self_ns.get(s, 0) for s in span_names) / 1e9
    for module in MODULE_NAMES:
        values[f"{module}.self_s"] = sum(
            ns for s, ns in tracer.self_ns.items() if s.split(".", 1)[0] == module) / 1e9
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    values["cli.startup_s"] = startup_s
    return values


def traced_run(args, case_list):
    """Pairs of passes, plain then traced, until args.seconds have passed."""
    startup = timed_children(
        [[sys.executable, "-c", "import currentlie.cli"]] * STARTUP_REPEATS)
    tracer = Tracer()
    pairs, notes = [], []

    def traced_pair(i):
        plain = run_pass(case_list, 2 * i)
        tracer.reset()
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced = run_pass(case_list, 2 * i + 1, tracer)
        finally:
            tracer.uninstall()
        values = layer_values(tracer, traced, statistics.median(startup))
        values["trace.overhead_ratio"] = traced["total_s"] / plain["total_s"]
        pairs.append((plain, traced))
        if i == 0:
            notes.extend(split_notes(args.workload, tracer, first_span, traced["total_s"]))
        return values

    per_pass = loop(args.seconds, traced_pair)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in layer_units()}
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.json")
    tracer.dump(spans_path)
    raw = {"startup_s": startup, "per_pass": per_pass, "spans_file": spans_path,
           "passes": [p for pair in pairs for p in pair]}
    return metrics, raw["passes"], notes, raw


# the certify prediction: small dense products and coordinate solves
# inside these two certificate checks dominate the run
CERTIFY_PARENTS = {"current.verify_levi_decomposition", "current.zusmanovich_span"}
CERTIFY_WORK = {"linalg.ExactMatrix.matmul", "linalg.Subspace.coordinates"}


def split_notes(workload, tracer, first_span, total_s) -> list:
    """Where the first traced pass spent its time, and whether the
    workload's predicted split held."""
    spans = tracer.spans[first_span:]
    self_ns = [end - start for _, start, end, _, _ in spans]
    under = [False] * len(spans)  # has an ancestor in CERTIFY_PARENTS
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= first_span:
            p = parent - first_span
            self_ns[p] -= end - start
            under[i] = under[p] or spans[p][0] in CERTIFY_PARENTS
    by_name = {}
    for (name, *_), ns in zip(spans, self_ns):
        by_name[name] = by_name.get(name, 0) + ns
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:6]
    total_ns = total_s * 1e9
    notes = ["largest self times in the first traced pass:"]
    notes += [f"  {name:<48} {ns / 1e9:>10.4f} s {100 * ns / total_ns:5.1f} %"
              for name, ns in top]
    if workload == "derive":
        share = by_name.get("lie.derivations", 0) / total_ns
        held = top[0][0] == "lie.derivations" and share > 0.5
        notes.append(f"predicted split {'HELD' if held else 'DID NOT HOLD'}: "
                     f"lie.derivations self time is {100 * share:.1f} % of the pass"
                     f"{' and the largest' if top[0][0] == 'lie.derivations' else ''}")
    elif workload == "certify":
        ns = sum(t for (name, *_), t, u in zip(spans, self_ns, under)
                 if u and name in CERTIFY_WORK)
        share = ns / total_ns
        notes.append(f"predicted split {'HELD' if share > 0.5 else 'DID NOT HOLD'}: "
                     "matmul + coordinates under verify_levi_decomposition and "
                     f"zusmanovich_span take {100 * share:.1f} % of the pass")
    return notes


# -- output -----------------------------------------------------------------


def run_record(args, started: dict, payload: dict) -> str:
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f"-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**started, **payload}, fh, indent=1, sort_keys=True)
    return path


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "argv": sys.argv[1:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_into:  # one timed set-up in a fresh interpreter
        prepare(import_package(), args.workload, args.seed, args.setup_into,
                in_process_cli=False)
        return 0

    started = environment()
    package = import_package()  # fails before any work when the sources are missing
    setup_times = measure_setup(args)
    workdir = os.path.join(OUT, "work", args.workload)
    case_list = prepare(package, args.workload, args.seed, workdir,
                        in_process_cli=bool(args.trace))

    if not args.trace:
        passes = timed_passes(case_list, args.seconds)
        metrics = end_to_end(passes, case_list, setup_times, args.workload)
        units, declared, notes = END_TO_END, list(END_TO_END), []
        raw = {"passes": passes}
    else:
        metrics, passes, notes, raw = traced_run(args, case_list)
        units, declared = layer_units(), list(PER_LAYER)
    raw["setup_s"] = setup_times

    attempted, failed = tally(passes)
    record = run_record(args, started, {"metrics": metrics, "attempted": attempted,
                                        "failed": failed, **raw})

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"trace {args.trace}, record {os.path.relpath(record, ROOT)}")
    for p in passes:
        for name, err in p["errors"].items():
            print(f"  FAILED {name}: {err}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} ratio")
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

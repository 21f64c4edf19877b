"""Spans around the calls into currentlie's public functions.

The tracer wraps every public function and public method defined in the
seven modules of the package, and rebinds every module-level name that
refers to one of them, so that `from ... import` aliases (for example
`current.commutator` or `cli.lie_derivations`) are traced as well.  Each
call becomes one span: (name, start_ns, end_ns, parent index, case id),
kept in memory and written out by `Tracer.dump`.  Self time is a span's
duration minus the durations of its direct child spans.

A span is named "<module>.<function>" for module functions and
"<module>.<Class>.<method>" for methods.  Dunder methods and the scalar
coercions in UNTRACED are not wrapped; their time counts to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref

MODULES = ("linalg", "lie", "assoc", "current", "heisenberg", "serialize", "cli")

# scalar coercions, called once per matrix entry: a span each would cost
# more than the work they time and describe no layer boundary
UNTRACED = frozenset({"linalg.rat", "linalg.rat_str"})


def _public_callables(mod):
    """(owner, attribute, span name, function, is classmethod) per public callable."""
    short = mod.__name__.rsplit(".", 1)[1]
    found = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if f"{short}.{name}" in UNTRACED:
                continue
            found.append((mod, name, f"{short}.{name}", obj, False))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                span = f"{short}.{obj.__name__}.{attr}"
                if inspect.isfunction(member):
                    found.append((obj, attr, span, member, False))
                elif isinstance(member, classmethod):
                    found.append((obj, attr, span, member.__func__, True))
    return found


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, case)
        self.self_ns: dict = {}
        self.calls: dict = {}
        self.counters: dict = {}
        self.case = None
        self._stack: list = []  # [span index, child ns]
        self._patches: list = []  # (owner, attribute, original value)
        self._solved = weakref.WeakValueDictionary()

    # -- counters ---------------------------------------------------------

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe(self, name, args, result) -> None:
        # size counters read from arguments and results at the boundary
        if name == "lie.derivations":
            g = args[0]
            if id(g) not in self._solved:  # each algebra object counts once
                self._solved[id(g)] = g
                self.count("lie.derivations.unknowns", g.dim * g.dim)
                self.count("lie.derivations.nullity", result.dim)
        elif name == "current.verify_bracket_table":
            self.count("current.verify_bracket_table.pairs", result.total_pairs)
        elif name == "serialize.dumps_canonical":
            self.count("serialize.bytes_written", len(result.encode("utf-8")))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, self.case)
                self_ns[name] = self_ns.get(name, 0) + duration - frame[1]
                calls[name] = calls.get(name, 0) + 1
            observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public callable and rebind all aliases to the wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"currentlie.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for owner, attr, span, fn, is_classmethod in _public_callables(mod):
                wrapped = self._wrap(span, fn)
                wrappers[id(fn)] = wrapped
                if owner is not mod:
                    self._patch(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        # module globals: the defining module's own name and every alias
        namespaces = [importlib.import_module("currentlie")] + modules
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Start new per-pass totals; recorded spans are kept for `dump`."""
        self.self_ns.clear()
        self.calls.clear()
        self.counters.clear()
        self._solved = weakref.WeakValueDictionary()

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, case] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "case"],
                       "spans": self.spans}, fh, separators=(",", ":"))

"""Outside-in layer tracer: wraps the program's public entry points from here.

Nothing in the program changes.  Each entry point in ENTRY_POINTS is replaced,
for the duration of a traced run, by a wrapper that times the call and keeps
per-name totals: calls, inclusive time (outermost activations only, so
recursion is not counted twice) and self time (duration minus the time of
wrapped calls made inside it).  Methods are patched on their class; functions
are rebound in every ``siltcheck.*`` namespace that holds them, so callers that
imported the name see the wrapper too.

Spans of the coarse layers (everything outside HOT) are kept in memory with
their parent span and the case they belong to, and written out by
``write_spans`` at the end of the run.  The hot leaf calls are only totalled,
which keeps the span list small.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

# module -> entry points; "Class.method" names are patched on the class.
ENTRY_POINTS = {
    "linalg": ["Matrix.rref", "Subquotient.reduce", "subquotient_from_maps"],
    "algebra": ["hom_space"],
    "complexes": ["hom_complex", "cone", "is_acyclic", "proj_replacement"],
    "dg": ["dg_end", "h0_algebra", "smart_truncate", "dg_hom_module",
           "DgAlgebra.validate", "DgModule.validate"],
    "semifree": ["semifree_resolve", "derived_tensor"],
    "silting": ["silting_report", "coresolve_A", "presilting_witness",
                "goodify"],
    "verifier": ["verify_weak_nonpositive", "verify_E_iso", "verify_delta",
                 "verify_counit", "verify_fully_faithful", "classify_Xi",
                 "verify_corollary_roundtrip", "functoriality_probe",
                 "naturality_probe", "probe_complexes",
                 "verify_tilting_theorem"],
    "instances": ["load_instance"],
    "cli": ["main"],
}

# Called so often that a span each would dwarf the run; totals only.
HOT = {"linalg.Matrix.rref", "linalg.Subquotient.reduce",
       "linalg.subquotient_from_maps", "algebra.hom_space",
       "dg.DgAlgebra.validate", "dg.DgModule.validate"}


# Counts computed at the boundaries, reported even when they stay 0.
COUNTS = ("linalg.Matrix.rref.cells", "semifree.generators",
          "silting.coresolve_A.presilting_inputs")


class TraceError(RuntimeError):
    """An entry point named in ENTRY_POINTS does not exist in the program."""


class _Frame:
    """One active wrapped call: its span (or nearest recorded ancestor's) and
    the time its wrapped children took so far."""
    __slots__ = ("span", "child_s")

    def __init__(self, span):
        self.span = span
        self.child_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []          # (id, parent id, name, case, start, end)
        self.case = None
        self.generators = defaultdict(int)   # case -> sum of resolution generators
        self.coresolve_inputs = []            # complexes given to coresolve_A
        self._presilting = weakref.WeakKeyDictionary()
        self._stack = []
        self._active = defaultdict(int)
        self._paused = [False]
        self._patches = []

    # -- installing -----------------------------------------------------------

    def install(self, package):
        """Wrap every entry point of the imported package; raise if one is missing."""
        modules = {name: getattr(package, name, None) for name in ENTRY_POINTS}
        namespaces = [package] + [m for m in modules.values() if m is not None]
        for modname, entries in ENTRY_POINTS.items():
            module = modules[modname]
            if module is None:
                raise TraceError(f"module siltcheck.{modname} not found")
            for entry in entries:
                full = f"{modname}.{entry}"
                self.calls[full] += 0
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(module, cls_name, None)
                    original = getattr(cls, meth, None) if cls else None
                    if not callable(original):
                        raise TraceError(f"entry point {full} not found")
                    self._patch(cls, meth, original, self._wrap(full, original))
                else:
                    original = getattr(module, entry, None)
                    if not callable(original):
                        raise TraceError(f"entry point {full} not found")
                    wrapper = self._wrap(full, original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        clock, stack, active, paused = (self.clock, self._stack, self._active,
                                        self._paused)
        record = name not in HOT
        after = {"linalg.Matrix.rref": self._after_rref,
                 "semifree.semifree_resolve": self._after_resolve,
                 "silting.presilting_witness": self._after_presilting,
                 "silting.coresolve_A": self._after_coresolve}.get(name)

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = len(self.spans) if record else (parent.span if parent else None)
            if record:
                self.spans.append(None)
            frame = _Frame(span)
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame.child_s
                if not active[name]:
                    self.incl_s[name] += dur
                if parent is not None:
                    parent.child_s += dur
                if record:
                    self.spans[span] = (span, parent.span if parent else None,
                                        name, self.case, start, end)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_rref(self, args, result):
        m = args[0]
        self.counts["linalg.Matrix.rref.cells"] += m.nrows * m.ncols

    def _after_resolve(self, args, result):
        n = sum(result.gen_counts().values())
        self.counts["semifree.generators"] += n
        self.generators[self.case] += n

    def _after_presilting(self, args, result):
        self._presilting[args[0]] = result is None

    def _after_coresolve(self, args, result):
        self.coresolve_inputs.append(args[0])

    def end_case(self, presilting_witness):
        """Count coresolve_A calls on presilting inputs, outside any timing.

        A call whose input went through presilting_witness is settled by that
        answer; for the rest presilting_witness decides here, with recording
        paused and after the case has finished, so no timing includes it.
        """
        self._paused[0] = True
        try:
            for U in self.coresolve_inputs:
                known = self._presilting.get(U)
                if known is None:
                    known = presilting_witness(U) is None
                self.counts["silting.coresolve_A.presilting_inputs"] += known
        finally:
            self._paused[0] = False
        self.coresolve_inputs.clear()

    # -- reporting --------------------------------------------------------------

    def metrics(self) -> dict:
        """calls / incl_s / self_s for every entry point, called or not."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.incl_s"] = self.incl_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, parent, name, case, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "case": case, "start": start,
                                     "end": end}) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a plain call."""
    def plain(x):
        return x

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer._wrap("probe", plain)
        t0 = time.perf_counter()
        for i in range(calls):
            plain(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)

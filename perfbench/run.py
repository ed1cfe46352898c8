"""Benchmark runner for siltcheck: one workload, one process, one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload a3-verify --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in and
from nowhere else.  A run sets the workload up SETUP_REPEATS times (fresh
import of ``siltcheck``, seeded instance written with ``dump_instance`` and
read back with ``load_instance``), then walks the workload's fixed case list
in the seed's order: closed loop, one case at a time, no threads.  Every case
is checked against its known answer (see workloads.py).  ``--seconds`` sets
how many whole passes over the case list a run makes, from the nominal pass
length of the workload and never from a clock, so every run of a workload
does the same work.

With ``--trace 0`` the result carries the end-to-end metrics, measured with
nothing wrapped.  Their times are wall seconds scaled to a fixed reference
speed (see reference_samples); the raw wall figures are printed too.  With ``--trace 1`` the entry points of every layer are
wrapped (tracing.py) and the result carries the per-layer metrics instead; the
spans go to ``.perfbench-work/``.  Each run also leaves the digest of every
case's output there, and a run whose counterpart with the other trace setting
already ran on the same seed checks that both digests agree.

The last line of standard output is the JSON result; the lines before it list
every case and every metric with its unit and sample count.  The metric names
and units are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
# Seconds one reference sample takes at the speed the bounds were set at
# (a 2-vCPU 2.1 GHz VM); see reference_samples().
REFERENCE_S = 0.0030
# nominal seconds of one pass over a workload's case list
PASS_SECONDS = {"a3-two-term-check": 15, "a3-verify": 80, "a3-window-sweep": 25}


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def import_program():
    """Import siltcheck freshly from this checkout's src/, nowhere else."""
    init = SRC / "siltcheck" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program source at {init.parent}")
    for name in [n for n in sys.modules
                 if n == "siltcheck" or n.startswith("siltcheck.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sc = importlib.import_module("siltcheck")
    importlib.import_module("siltcheck.cli")
    if Path(sc.__file__).resolve() != init.resolve():
        raise BenchError(f"imported siltcheck from {sc.__file__}, not {init}")
    return sc


def set_up(workload: str, seed: int):
    """One set-up: import, write the seeded instance, read it back."""
    start = time.perf_counter()
    sc = import_program()
    path = WORK / f"{workload}-{seed}.json"
    sc.dump_instance(workloads.make_instance(sc, workload, seed), path)
    inst = sc.load_instance(path)
    return time.perf_counter() - start, sc, inst, path


def _reference_work():
    """Fixed pure-Python work like the program's hot loop: modular row
    reduction of one 24x24 matrix, done here so no program change can speed
    it up."""
    p, n = 101, 24
    rows = [[(i * 7 + j * 13 + 1) % p for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [inv * x % p for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[col])]


def reference_samples() -> list:
    """Seconds ten rounds of the reference work take now, three times.

    The speed of the VM the bounds were set on drifts by up to 20 % between
    runs a minute apart, and a fixed loop drifts with it.  Samples are taken
    around every set-up and every case; all timings of a run are scaled by
    REFERENCE_S over the median sample, so they read as seconds at a fixed
    reference speed.  Single samples jitter by a factor of two, hence the
    median over the whole run.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(10):
            _reference_work()
        samples.append(time.perf_counter() - start)
    return samples


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """Everything one run measured."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.passes = max(1, seconds // PASS_SECONDS[workload])
        self.setups = []
        self.refs = []           # reference samples around set-ups and cases
        self.results = []        # (pass, case, outcome, wall seconds)
        self.tracer = None
        self.traced_wall = 0.0
        self.per_call = 0.0

    def execute(self):
        WORK.mkdir(exist_ok=True)
        self.refs.extend(reference_samples())
        for _ in range(SETUP_REPEATS):
            gc.collect()
            elapsed, sc, inst, path = set_up(self.workload, self.seed)
            self.setups.append(elapsed)
            self.refs.extend(reference_samples())
        case_list = workloads.cases(self.workload, self.seed)
        presilting_witness = sc.silting.presilting_witness
        if self.traced:
            self.per_call = tracing.wrapper_cost()
            self.tracer = tracing.Tracer()
            self.tracer.install(sc)
        traced_start = time.perf_counter()
        try:
            for p in range(self.passes):
                for case in case_list:
                    if self.workload == "a3-window-sweep":
                        inst = sc.load_instance(path)   # fresh algebra per case
                    gc.collect()
                    if self.tracer is not None:
                        self.tracer.case = case.name
                    start = time.perf_counter()
                    outcome = workloads.run_case(sc, self.workload, case, inst,
                                                 path)
                    wall = time.perf_counter() - start
                    if self.tracer is not None:
                        self.tracer.end_case(presilting_witness)
                    self.refs.extend(reference_samples())
                    self.results.append((p, case, outcome, wall))
        finally:
            self.traced_wall = time.perf_counter() - traced_start
            if self.tracer is not None:
                self.tracer.uninstall()
                self.tracer.write_spans(
                    WORK / f"spans-{self.workload}-{self.seed}.jsonl")

    # -- end-to-end ----------------------------------------------------------------

    def end_to_end(self) -> dict:
        """name -> (value, sample count); times in reference seconds."""
        k = REFERENCE_S / percentile(self.refs, 0.5)
        walls = [w * k for *_, w in self.results]
        setups = [w * k for w in self.setups]
        n = len(walls)
        return {
            "setup_s": (percentile(setups, 0.5), len(setups)),
            "cases_per_s": (n / sum(walls), n),
            "case_s.p50": (percentile(walls, 0.5), n),
            "case_s.p85": (percentile(walls, 0.85), n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, 1),
        }

    # -- per layer -----------------------------------------------------------------

    def per_layer(self) -> dict:
        t = self.tracer
        values = dict(t.metrics())
        values.update(t.counts)
        calls = t.calls["silting.coresolve_A"]
        values["silting.coresolve_A.useful_ratio"] = (
            t.counts["silting.coresolve_A.presilting_inputs"] / calls
            if calls else 0.0)
        # Estimated, not the wall difference of a traced and an untraced run:
        # on the VM the bounds were set on, runs drift by more than the
        # tracer costs.
        values["trace.overhead_s"] = self.per_call * sum(t.calls.values())
        return values

    def self_time_ok(self) -> bool:
        """Self times of all entry points never add up to more than wall time."""
        return sum(self.tracer.self_s.values()) <= self.traced_wall

    # -- traced and untraced outputs agree -------------------------------------------

    def digest_mismatches(self) -> list:
        """Record this run's output digests; return the cases whose digest
        differs from the same seed's run under the other trace setting, if
        that run happened in this checkout."""
        mine = {f"{p}/{c.name}": o.digest for p, c, o, _ in self.results}
        stem = f"digests-{self.workload}-{self.seed}-{self.passes}"
        (WORK / f"{stem}-trace{int(self.traced)}.json").write_text(
            json.dumps(mine, sort_keys=True))
        other = WORK / f"{stem}-trace{int(not self.traced)}.json"
        if not other.is_file():
            return []
        theirs = json.loads(other.read_text())
        return sorted(k for k in mine.keys() | theirs.keys()
                      if mine.get(k) != theirs.get(k))


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return ([m["name"] for m in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]], units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        names, e2e, layers, units = declared_metrics()
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose one of {names}")
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        run.execute()
    except (BenchError, OSError, tracing.TraceError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2

    attempted = len(run.results)
    failed = sum(not o.ok for _, _, o, _ in run.results)
    mismatches = run.digest_mismatches()
    correct = not mismatches
    print(f"workload {run.workload} seed {run.seed} trace {int(run.traced)} "
          f"passes {run.passes} cases {attempted} (closed loop, "
          f"one case at a time)")
    for p, case, o, wall in run.results:
        status = "ok" if o.ok else f"FAILED (expected {case.expected})"
        print(f"case {case.name} pass {p}: {wall:.4f} s, {o.result}, {status}, "
              f"digest {o.digest}")
    if mismatches:
        print(f"CHECK FAILED: traced and untraced outputs differ on "
              f"{', '.join(mismatches)}")
    print(f"metric failed_share {failed / attempted:.6g} share "
          f"(samples {attempted}; {failed} failed, carried as failed/attempted)")
    metrics = {}
    if run.traced:
        values = run.per_layer()
        for name in sorted(n for n in values if n not in layers):
            print(f"extra {name} {values[name]:.6g}")
        for case, gens in sorted(run.tracer.generators.items()):
            print(f"extra semifree.generators[{case}] {gens}")
        if not run.self_time_ok():
            print("CHECK FAILED: self times add up to more than the traced wall")
            correct = False
        names = layers
    else:
        values = run.end_to_end()
        names = e2e
        walls = [w for *_, w in run.results]
        print(f"wall seconds before scaling to the reference speed: cases "
              f"{sum(walls):.3f}, case p50 {percentile(walls, 0.5):.4f}, set-up "
              f"p50 {percentile(run.setups, 0.5):.4f}; median of "
              f"{len(run.refs)} reference samples "
              f"{percentile(run.refs, 0.5):.6f} s")
    for name in names:
        if name not in values:
            raise tracing.TraceError(f"no value for metric {name}")
        value, samples = (values[name] if isinstance(values[name], tuple)
                          else (values[name], None))
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} {value:.6g} {units[name]}"
              + (f" (samples {samples})" if samples else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

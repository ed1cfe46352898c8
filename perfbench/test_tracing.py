"""Self-checks of the benchmark: its tracer and its known answers.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import itertools

import pytest

import run
import tracing
import workloads


@pytest.fixture()
def sc():
    return run.import_program()


@pytest.fixture()
def instances(sc, tmp_path):
    """One loaded instance per workload, with the file it was read from."""
    out = {}
    for name in run.PASS_SECONDS:
        path = tmp_path / f"{name}.json"
        sc.dump_instance(workloads.make_instance(sc, name, 7), path)
        out[name] = (sc.load_instance(path), path)
    return out


def _case(workload, name):
    (case,) = [c for c in workloads.cases(workload, 7) if c.name == name]
    return case


def _run_cases(sc, instances, picks, tracer=None):
    if tracer is not None:
        tracer.install(sc)
    try:
        out = []
        for workload, name in picks:
            inst, path = instances[workload]
            out.append(workloads.run_case(sc, workload, _case(workload, name),
                                          inst, path))
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_oracle_counts_catalan_many_silting_sums():
    good = workloads.silting_triples()
    assert len(workloads.triples()) == 84
    assert len(good) == 14
    for x, y in itertools.combinations(workloads.INDECOMPOSABLES, 2):
        assert workloads.compatible(x, y) == workloads.compatible(y, x)
    # the free module and its shift are silting, a projective with its own
    # shift is not
    assert ("P0", "P1", "P2") in good
    assert ("P0[1]", "P1[1]", "P2[1]") in good
    assert ("P0", "P1", "P0[1]") not in good


def test_seed_changes_order_and_scalars_but_not_the_case_set():
    for workload in run.PASS_SECONDS:
        a, b = workloads.cases(workload, 1), workloads.cases(workload, 2)
        assert sorted(c.name for c in a) == sorted(c.name for c in b)
        assert a == workloads.cases(workload, 1)
    assert ([c.name for c in workloads.cases("a3-two-term-check", 1)]
            != [c.name for c in workloads.cases("a3-two-term-check", 2)])


def test_every_entry_point_resolves_and_uninstall_restores(sc):
    before = sc.silting.coresolve_A
    tracer = tracing.Tracer()
    tracer.install(sc)
    try:
        assert sc.silting.coresolve_A is not before
        assert sc.coresolve_A is sc.silting.coresolve_A
        assert sc.verifier.silting_report is sc.silting.silting_report
    finally:
        tracer.uninstall()
    assert sc.silting.coresolve_A is before
    expected = {f"{m}.{e}" for m, es in tracing.ENTRY_POINTS.items() for e in es}
    assert set(tracer.calls) == expected


def test_a_renamed_entry_point_fails_loudly(sc, monkeypatch):
    monkeypatch.delattr(sc.silting, "goodify")
    with pytest.raises(tracing.TraceError, match="silting.goodify"):
        tracing.Tracer().install(sc)


def test_uncalled_layers_report_zero_and_self_time_fits_in_wall(sc, instances):
    tracer = tracing.Tracer()
    clock = tracer.clock
    start = clock()
    (outcome,) = _run_cases(sc, instances,
                            [("a3-two-term-check", "P0+P1+P2")], tracer)
    wall = clock() - start
    assert outcome.ok
    metrics = tracer.metrics()
    assert metrics["silting.silting_report.calls"] == 1
    assert metrics["semifree.semifree_resolve.calls"] == 0
    assert metrics["semifree.semifree_resolve.incl_s"] == 0
    assert tracer.counts["semifree.generators"] == 0
    assert tracer.counts["linalg.Matrix.rref.cells"] > 0
    assert 0 < sum(tracer.self_s.values()) <= wall
    for name in tracer.calls:
        assert tracer.self_s[name] <= tracer.incl_s[name] + 1e-9


def test_spans_nest_inside_their_parents(sc, instances):
    tracer = tracing.Tracer()
    tracer.case = "P0+P1+P2"
    _run_cases(sc, instances, [("a3-two-term-check", "P0+P1+P2")], tracer)
    spans = {s[0]: s for s in tracer.spans}
    assert spans
    for sid, parent, name, case, start, end in spans.values():
        assert case == "P0+P1+P2" and start <= end
        if parent is not None:
            assert spans[parent][4] <= start and end <= spans[parent][5]
    assert not any(s[2] in tracing.HOT for s in spans.values())


def test_tracing_leaves_every_output_unchanged(sc, instances):
    picks = [("a3-two-term-check", "P0+P1+P2"),
             ("a3-two-term-check", "P0+P1+P0[1]"),
             ("a3-window-sweep", "window+-0"),
             ("a3-verify", "P0+P1+P2"),
             ("a3-verify", "P1toP0+P1[1]+P2[1]")]
    plain = _run_cases(sc, instances, picks)
    tracer = tracing.Tracer()
    traced = _run_cases(sc, instances, picks, tracer)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert [o.result for o in plain] == ["silting", "not presilting",
                                         "all pass", "exit 0", "exit 1"]
    assert tracer.calls["cli.main"] == 2
    assert tracer.counts["semifree.generators"] > 0


def test_coresolve_useful_ratio_counts_presilting_inputs(sc, instances):
    tracer = tracing.Tracer()
    picks = [("a3-two-term-check", "P0+P1+P2"),
             ("a3-two-term-check", "P0+P1+P0[1]")]
    tracer.install(sc)
    try:
        for workload, name in picks:
            inst, path = instances[workload]
            workloads.run_case(sc, workload, _case(workload, name), inst, path)
            tracer.end_case(sc.silting.presilting_witness.__wrapped__)
    finally:
        tracer.uninstall()
    assert tracer.calls["silting.coresolve_A"] == 2
    assert tracer.counts["silting.coresolve_A.presilting_inputs"] == 1

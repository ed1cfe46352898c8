"""Byte-identical benchmark outputs: replay every benchmark case in-process.

``benchmark_digests.json`` maps "<workload> <seed> <case>" to the digest
``perfbench/workloads.run_case`` computes for that case's output, for the
three workloads at seeds 1 and 2.  The cases run as ``perfbench/run.py``
runs them: the seeded instance is written with ``dump_instance`` and read
back with ``load_instance``, and every window-sweep case reads a fresh copy.
A change to any report byte shows up here as a differing case.  A change
that means to alter report bytes re-records the table with

    PYTHONPATH=src python tests/test_benchmark_digests.py

and names the cases that changed.
"""

import json
import pathlib
import sys

import siltcheck
import siltcheck.cli  # noqa: F401 - the verify workload calls siltcheck.cli.main

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

RECORDED = pathlib.Path(__file__).resolve().parent / "benchmark_digests.json"
WORKLOADS = ("a3-two-term-check", "a3-verify", "a3-window-sweep")
SEEDS = (1, 2)


def digests(directory: pathlib.Path) -> dict:
    """The digest of every case of every workload and seed."""
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            path = directory / f"{workload}-{seed}.json"
            siltcheck.dump_instance(workloads.make_instance(siltcheck, workload, seed), path)
            inst = siltcheck.load_instance(path)
            for case in workloads.cases(workload, seed):
                if workload == "a3-window-sweep":
                    inst = siltcheck.load_instance(path)
                outcome = workloads.run_case(siltcheck, workload, case, inst, path)
                out[f"{workload} {seed} {case.name}"] = outcome.digest
    return out


def test_every_benchmark_case_matches_its_recorded_digest(tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    now = digests(tmp_path)
    differing = sorted(k for k in recorded.keys() | now.keys()
                       if recorded.get(k) != now.get(k))
    print("differing cases:", differing)
    assert len(recorded) == 204
    assert differing == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(pathlib.Path(tmp))
    RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} digests in {RECORDED}")

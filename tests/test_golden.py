"""Byte-identical CLI reports: replay recorded stdout digests in-process.

``golden_cli.json`` maps "<instance> <complex> <command>" to the exit code
and the sha256 of stdout of ``siltcheck <command> instances/<instance>.json
<complex>`` with default flags, for every complex in every instance file
under the commands check, goodify, verify and report.  Any change to a
report byte or a verdict shows up here as a digest or exit-code mismatch.
A run stopped by a cap exits 2 with empty stdout.  This replay writes to a
StringIO; CI replays the same cases through ``python -m siltcheck.cli``
subprocesses and hashes the bytes they write.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from siltcheck.cli import main

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                     / "golden_cli.json").read_text(encoding="utf-8"))
COMMANDS = ("check", "goodify", "verify", "report")


def _all_cases():
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for name in sorted(data["complexes"]):
            for cmd in COMMANDS:
                yield f"{path.stem} {name} {cmd}"


def test_golden_cases_cover_every_instance_complex_and_command():
    assert sorted(GOLDEN) == sorted(_all_cases())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_report_matches_recorded_digest(case):
    instance, name, cmd = case.split(" ")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([cmd, str(INSTANCE_DIR / f"{instance}.json"), name])
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert [code, digest] == GOLDEN[case]

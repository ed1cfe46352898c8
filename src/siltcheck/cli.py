"""Command line front end: check, goodify, verify and report.

Every command reads an instance file, picks one named complex, and prints a
JSON report with sorted keys so reruns are byte-identical.  The bytes come
from instances.json_text and equal json.dumps(..., indent=2, sort_keys=True)
plus a newline; verification reports go in as their raw fields
(VerificationReport.as_raw_dict), not as as_dict() copies.  Exit codes: 0 all
checks passed, 1 a check failed with a witness, 2 the run (or the reading of
the instance) hit a cap or step bound before reaching a verdict, 3 the
instance file or arguments were malformed, the --output file cannot be
written, the input is unsupported (a field whose characteristic is too small
for an exact radical), or an internal consistency check failed.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import DimensionCapError
from .complexes import ResolutionCapError
from .instances import (SCHEMA, Instance, InstanceError, json_text, load_instance,
                        serialize_instance)
from .semifree import SemifreeCapError
from .silting import (SiltingReport, SmallCharacteristicError, goodify,
                      silting_equivalent, silting_report)
from .verifier import SiltingContext, UnknownProbeError, verify_all

DEFAULTS = {"window": (-4, 4), "pair_degrees": (-2, 2), "max_steps": 8,
            "cap": 16, "extra_margin": 0}


class UsageError(Exception):
    """Bad arguments or object references, or an --output path that cannot be
    written; maps to exit code 3."""


def _parse_window(text: str):
    parts = text.split(":")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"window {text!r} is not of the form lo:hi") from None
    if lo > hi:
        raise UsageError(f"window {text!r} has lo > hi")
    return lo, hi


def _effective(inst: Instance, args) -> dict:
    """Flag beats per-file option beats module default."""
    opts = inst.options
    eff = {}
    if args.window is not None:
        eff["window"] = _parse_window(args.window)
    else:
        eff["window"] = tuple(opts.get("window", DEFAULTS["window"]))
    eff["pair_degrees"] = tuple(opts.get("pair_degrees",
                                         DEFAULTS["pair_degrees"]))
    for key in ("max_steps", "cap"):
        flag = getattr(args, key)
        eff[key] = flag if flag is not None else opts.get(key, DEFAULTS[key])
        if eff[key] <= 0:
            raise UsageError(f"{key} must be positive")
    eff["extra_margin"] = opts.get("extra_margin", DEFAULTS["extra_margin"])
    if args.probes is not None:
        eff["probes"] = [p for p in args.probes.split(",") if p]
        if not eff["probes"]:
            raise UsageError("empty probe list")
    else:
        eff["probes"] = opts.get("probes")
    return eff


def _echo(eff: dict) -> dict:
    return {"window": list(eff["window"]),
            "pair_degrees": list(eff["pair_degrees"]),
            "max_steps": eff["max_steps"], "cap": eff["cap"],
            "extra_margin": eff["extra_margin"],
            "probes": eff["probes"] if eff["probes"] is not None else "all"}


def _pick_complex(inst: Instance, name: str):
    if name not in inst.complexes:
        raise UsageError(f"no complex named {name!r} in instance "
                         f"{inst.name!r}; complexes: {sorted(inst.complexes)}")
    return inst.complexes[name]


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None


def _emit(payload: dict, output):
    text = json_text(payload)
    if output:
        _write(output, text)
    sys.stdout.write(text)


def _check_payload(name: str, srep: SiltingReport) -> tuple[dict, int]:
    if srep.presilting_witness is not None:
        verdict, code = "fail", 1
    elif srep.n is None:
        verdict, code = "inconclusive", 2
    else:
        verdict, code = "pass", 0
    payload = {
        "object": name,
        "presilting": srep.presilting,
        "witness": list(srep.presilting_witness)
                   if srep.presilting_witness else None,
        "coresolution_steps": srep.n,
        "multiplicities": srep.multiplicities,
        "good": srep.good,
        "tilting": srep.tilting,
        "module_form": srep.module_form,
        "inconclusive": srep.inconclusive,
        "equivalence_criterion": srep.equivalence_criterion,
        "verdict": verdict,
    }
    return payload, code


def cmd_check(inst: Instance, args) -> int:
    eff = _effective(inst, args)
    srep = silting_report(_pick_complex(inst, args.object), eff["max_steps"])
    payload, code = _check_payload(args.object, srep)
    payload.update({"schema": SCHEMA, "command": "check",
                    "instance": inst.name, "effective": _echo(eff)})
    _emit(payload, args.output)
    return code


def cmd_goodify(inst: Instance, args) -> int:
    eff = _effective(inst, args)
    U = _pick_complex(inst, args.object)
    srep = silting_report(U, eff["max_steps"])
    payload = {"schema": SCHEMA, "command": "goodify",
               "instance": inst.name, "object": args.object,
               "effective": _echo(eff)}
    if srep.presilting_witness is not None:
        payload["verdict"] = "inconclusive"
        payload["failed_step"] = "presilting"
        payload["witness"] = list(srep.presilting_witness)
        _emit(payload, None)
        return 2
    V = goodify(U, eff["max_steps"], srep)
    if V is None:
        payload["verdict"] = "inconclusive"
        payload["failed_step"] = "coresolution"
        _emit(payload, None)
        return 2
    out_name = f"{args.object}-good"
    out_inst = Instance(f"{inst.name}-goodified", inst.field, inst.quiver,
                        inst.relations, inst.algebra,
                        {out_name: V}, {}, {}, dict(inst.options))
    payload["verdict"] = "pass"
    payload["good_object"] = out_name
    payload["already_good"] = srep.good
    vrep = silting_report(V, eff["max_steps"])
    payload["checks"] = {
        "output_presilting": vrep.presilting,
        "silting_equivalent_to_input": silting_equivalent(U, V, eff["max_steps"],
                                                          (srep, vrep)),
    }
    payload["goodified"] = serialize_instance(out_inst)
    if args.output:
        _write(args.output, json_text(payload["goodified"]))
        payload["output"] = args.output
    _emit(payload, None)
    return 0


def _verification_reports(ctx: SiltingContext, eff: dict) -> list:
    return verify_all(ctx.U, window=eff["window"], pair_degrees=eff["pair_degrees"],
                      ctx=ctx, probe_names=eff["probes"])


def _verdict_code(reports: list) -> tuple[str, int]:
    failed = [c for r in reports for c in r.checks if not c.passed]
    if any(not c.at_bound for c in failed):
        return "fail", 1
    if failed:
        return "inconclusive", 2
    return "pass", 0


def cmd_verify(inst: Instance, args) -> int:
    eff = _effective(inst, args)
    ctx = SiltingContext(_pick_complex(inst, args.object), eff["max_steps"],
                         eff["extra_margin"], eff["cap"])
    reports = _verification_reports(ctx, eff)
    verdict, code = _verdict_code(reports)
    payload = {"schema": SCHEMA, "command": "verify",
               "instance": inst.name, "object": args.object,
               "effective": _echo(eff), "verdict": verdict,
               "reports": [r.as_raw_dict() for r in reports]}
    _emit(payload, args.output)
    return code


def cmd_report(inst: Instance, args) -> int:
    eff = _effective(inst, args)
    ctx = SiltingContext(_pick_complex(inst, args.object), eff["max_steps"],
                         eff["extra_margin"], eff["cap"])
    check_payload, check_code = _check_payload(args.object, ctx.report)
    payload = {"schema": SCHEMA, "command": "report",
               "instance": inst.name, "object": args.object,
               "effective": _echo(eff), "check": check_payload}
    if check_code == 0:
        reports = _verification_reports(ctx, eff)
        verdict, verify_code = _verdict_code(reports)
        payload["verification"] = [r.as_raw_dict() for r in reports]
        payload["verdict"] = verdict
        code = verify_code
    else:
        payload["verification"] = None
        payload["verdict"] = check_payload["verdict"]
        code = check_code
    _emit(payload, args.output)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siltcheck",
        description="exact checks for silting complexes over quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("check", cmd_check, "presilting and coresolution tests for a complex"),
        ("goodify", cmd_goodify, "rewrite a silting complex with one degree per summand"),
        ("verify", cmd_verify, "full equivalence verification battery"),
        ("report", cmd_report, "check plus verification in one document"),
    ]
    for name, fn, helptext in specs:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("instance", help="instance file (JSON, schema 1)")
        p.add_argument("object", help="name of a complex in the instance")
        p.add_argument("--window", default=None, metavar="LO:HI",
                       help="cohomological degree window")
        p.add_argument("--max-steps", type=int, default=None,
                       help="coresolution step bound")
        p.add_argument("--cap", type=int, default=None,
                       help="resolution length cap")
        p.add_argument("--probes", default=None, metavar="NAMES",
                       help="comma separated probe names")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="also write the result to this file")
        p.set_defaults(fn=fn)
    return parser


_PARSER = _build_parser()  # built once: every main call parses with it


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad arguments; fold into the input-error code
        return 0 if e.code == 0 else 3
    try:
        inst = load_instance(args.instance)
        return args.fn(inst, args)
    except (InstanceError, UsageError, UnknownProbeError,
            SmallCharacteristicError) as e:
        sys.stderr.write(f"siltcheck: {e}\n")
        return 3
    except (DimensionCapError, ResolutionCapError, SemifreeCapError) as e:
        sys.stderr.write(f"siltcheck: {e}\n")
        return 2
    except AssertionError as e:
        # a validator refused an object the run built: no witness exists
        sys.stderr.write(f"siltcheck: internal check failed: {e}\n")
        return 3
    except (MemoryError, RecursionError) as e:
        # the run outgrew the machine before a verdict: inconclusive
        sys.stderr.write(f"siltcheck: no verdict, the run hit a {type(e).__name__}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

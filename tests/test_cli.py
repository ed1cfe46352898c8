"""End-to-end command line tests: parsing, exit codes, report contents."""

import copy
import inspect
import json
import pathlib
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import zero_on_summand
from siltcheck.algebra import DimensionCapError, Quiver, hom_space, path_algebra
from siltcheck.cli import DEFAULTS, main
from siltcheck.complexes import (cone, direct_sum_complexes, identity_chain_map,
                                 projective_cache,
                                 projective_complex)
from siltcheck.fields import PRIME_BOUND, PrimeField, field_from_json
from siltcheck.instances import (Instance, InstanceError, dump_instance,
                                 instance_text, json_text, load_instance,
                                 parse_instance, serialize_instance)
from siltcheck.verifier import (CheckRecord, SiltingContext, VerificationReport, _plain,
                                verify_all)

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
FIXTURE_FILES = sorted(INSTANCE_DIR.glob("*.json"))
FIX_K = str(INSTANCE_DIR / "fix_k.json")
FIX_A2 = str(INSTANCE_DIR / "fix_a2.json")
FIX_DUAL = str(INSTANCE_DIR / "fix_dual.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def a2_data():
    with open(FIX_A2, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- parser -----------------------------------------------------------------


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
def test_parse_serialize_round_trip_is_identity(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert instance_text(load_instance(path)) == text


def test_parsed_objects_have_expected_shapes():
    inst = load_instance(FIX_A2)
    assert inst.algebra.dim == 3
    U = inst.complexes["U-tilt"]
    assert {n: U.h_dim(n) for n in U.degrees() if U.h_dim(n)} == {0: 3}
    assert inst.complexes["U-silt2"].lo == -1
    assert inst.modules["S1"].dim == 1
    assert inst.modules["A"].dim == 3
    assert inst.options["window"] == [-4, 4]


def test_relations_are_applied():
    inst = load_instance(FIX_DUAL)
    # one loop squared to zero: basis e, x
    assert inst.algebra.dim == 2


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(schema=2), "$.schema"),
    (lambda d: d.pop("name"), "$.name"),
    (lambda d: d.update(field={"prime": 6}), "$.field"),
    (lambda d: d.update(surprise=1), "$"),
    (lambda d: d["quiver"]["arrows"].append(["b", "1", "3"]), "$.quiver"),
    (lambda d: d["complexes"]["U-tilt"][0]["types"].update({"0": ["7"]}),
     "$.complexes.U-tilt[0].types.0"),
    (lambda d: d["complexes"]["U-tilt"][0]["types"].update({"x": ["1"]}),
     "$.complexes.U-tilt[0].types.x"),
    (lambda d: d["complexes"]["U-tilt"][1]["diffs"].update({"-1": [[0]]}),
     "$.complexes.U-tilt[1].diffs.-1"),
    (lambda d: d["complexes"]["U-tilt"][1]["diffs"].update({"-1": [["?"]]}),
     "$.complexes.U-tilt[1].diffs.-1[0]"),
    (lambda d: d["modules"].update({"U-tilt": {"free": True}}),
     "$.modules.U-tilt"),
    (lambda d: d["modules"].update({"M": {"nonsense": 1}}), "$.modules.M"),
    (lambda d: d["options"].update(window=[3, -3]), "$.options.window"),
    (lambda d: d["options"].update(cap=0), "$.options.cap"),
    # a prime that is not a JSON integer, and booleans where integers go
    *(pytest.param(lambda d, p=p: d.update(field={"prime": p}), "$.field", id=f"prime-{name}")
      for p, name in (([7], "list"), (None, "null"), (float("inf"), "inf"), (7.5, "float"),
                      ("7", "string"), (True, "true"), (10**400, "huge"))),
    pytest.param(lambda d: d["options"].update(max_steps=True), "$.options.max_steps",
                 id="max_steps-true"),
    pytest.param(lambda d: d["options"].update(window=[False, True]), "$.options.window",
                 id="window-bools"),
    pytest.param(lambda d: d["options"].update(extra_margin=False), "$.options.extra_margin",
                 id="extra_margin-false"),
    pytest.param(lambda d: d["modules"].update(M={"dim": True, "action": [[[0]]] * 3}),
                 "$.modules.M.dim", id="dim-true"),
])
def test_parse_errors_name_the_json_path(mutate, fragment):
    data = copy.deepcopy(a2_data())
    mutate(data)
    with pytest.raises(InstanceError) as exc:
        parse_instance(data)
    assert exc.value.path.startswith(fragment)


def _instance_data(name):
    with open(INSTANCE_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _value_slots(x):
    """(container, key) for the values nested in x, parents first: every
    value of an object, and the first and last element of a list, whose
    elements all have one schema."""
    if isinstance(x, dict):
        keys = list(x)
    elif isinstance(x, list):
        keys = sorted({0, len(x) - 1}) if x else []
    else:
        keys = []
    for k in keys:
        yield x, k
        yield from _value_slots(x[k])


WRONG_KINDS = ([], {}, "x", 1, None, True, [[]], {"a": 1})


def test_every_value_of_the_wrong_kind_is_an_input_error():
    # each value of each fixture file, the whole file too, replaced in turn
    # by JSON values of every kind: the reader returns or raises only its
    # own errors, never a crash that would leave the CLI with exit 1
    tried = 0
    for path in FIXTURE_FILES:
        data = _instance_data(path.stem)
        slots = [({"root": data}, "root"), *_value_slots(data)]
        for parent, key in slots:
            kept = parent[key]
            for wrong in WRONG_KINDS:
                parent[key] = copy.deepcopy(wrong)
                try:
                    parse_instance(slots[0][0]["root"])
                except (InstanceError, DimensionCapError):
                    pass
                tried += 1
            parent[key] = kept
    assert tried >= 2000


def test_complexes_that_are_no_object_exit_3_naming_the_path(tmp_path, capsys):
    data = a2_data()
    data["complexes"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path), "U-tilt")
    assert (code, out) == (3, "")
    assert "$.complexes" in err and len(err.strip().splitlines()) == 1, err


# e_0 A over kA_3 (0 -a-> 1 -b-> 2), written out on its basis e_0, a, a*b:
# one matrix per basis element of the algebra, e_0, e_1, e_2, a, b, a*b
P0_OVER_A3 = {"dim": 3, "action": [
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]}


def test_a_written_out_module_parses_and_round_trips():
    # e_1 A over kA_2, on its basis e_1, a, with a matrix for e_1, e_2 and a
    data = a2_data()
    M = {"dim": 2, "action": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]]}
    data["modules"]["M"] = M
    inst = parse_instance(data)
    assert inst.algebra.labels == ("e_1", "e_2", "a")
    assert inst.modules["M"].dimension_vector() == (1, 1)
    assert serialize_instance(inst)["modules"]["M"] == M
    assert serialize_instance(parse_instance(serialize_instance(inst))) == serialize_instance(inst)
    data = _instance_data("a3")
    data["modules"] = {"M": P0_OVER_A3}
    inst = parse_instance(data)
    assert inst.algebra.labels == ("e_0", "e_1", "e_2", "a", "b", "a*b")
    assert inst.modules["M"].action(5) == inst.algebra.projective(0).action(5)
    assert serialize_instance(inst)["modules"]["M"] == P0_OVER_A3


def test_a_module_matrix_off_the_product_along_its_path_names_the_module():
    # a*b is no generator of kA_3: its given matrix must be a's times b's
    data = _instance_data("a3")
    data["modules"] = {"M": copy.deepcopy(P0_OVER_A3)}
    data["modules"]["M"]["action"][5] = [[0, 0, 0]] * 3
    with pytest.raises(InstanceError, match="a\\*b is not the product along its path") as exc:
        parse_instance(data)
    assert exc.value.path == "$.modules.M"


@pytest.mark.parametrize("x, ok", [(0, True), (1, False)])
def test_a_module_breaking_a_relation_names_the_module(x, ok):
    # over the dual numbers x*x = 0, so x may act on a line as 0 and not as 1
    data = _instance_data("fix_dual")
    data["modules"]["M"] = {"dim": 1, "action": [[[1]], [[x]]]}
    if ok:
        assert parse_instance(data).modules["M"].dim == 1
        return
    with pytest.raises(InstanceError, match="relation 0 does not act as zero") as exc:
        parse_instance(data)
    assert exc.value.path == "$.modules.M"


def test_bad_relation_arrow_names_the_path():
    data = copy.deepcopy(a2_data())
    data["quiver"]["relations"] = [[[1, ["a", "zz"]]]]
    with pytest.raises(InstanceError) as exc:
        parse_instance(data)
    assert "$.quiver.relations[0][0][1]" == exc.value.path


def test_nonsquaring_differential_is_rejected():
    data = copy.deepcopy(a2_data())
    data["complexes"]["bad"] = [{
        "types": {"-2": ["2"], "-1": ["1"], "0": ["1"]},
        "diffs": {"-2": [[0, 1]],
                  "-1": [[1, 0], [0, 1]]},
    }]
    with pytest.raises(InstanceError) as exc:
        parse_instance(data)
    assert exc.value.path.startswith("$.complexes.bad[0]")
    # a block past the first, whose differential sends e_1 to e_2 although
    # Hom(P1, P2) is zero: not a module map, named at its own block
    data = copy.deepcopy(a2_data())
    data["complexes"]["bad"] = [{"types": {"0": ["1"]}},
                                {"types": {"-1": ["1"], "0": ["2"]}, "diffs": {"-1": [[1], [0]]}}]
    with pytest.raises(InstanceError, match="does not commute") as exc:
        parse_instance(data)
    assert exc.value.path == "$.complexes.bad[1]"


def test_missing_file_and_invalid_json(tmp_path):
    with pytest.raises(InstanceError) as exc:
        load_instance(tmp_path / "nope.json")
    assert "cannot read" in str(exc.value)
    broken = tmp_path / "broken.json"
    broken.write_text(pathlib.Path(FIX_A2).read_text(encoding="utf-8")[:200])
    with pytest.raises(InstanceError) as exc:
        load_instance(broken)
    assert "invalid JSON" in str(exc.value)


# -- check ------------------------------------------------------------------


def test_check_one_point_instance_passes(capsys):
    code, payload, _ = run_json(capsys, "check", FIX_K, "A")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["verdict"] == "pass"
    assert payload["coresolution_steps"] == 0
    assert payload["tilting"] is True


def test_check_two_term_silting_passes(capsys):
    code, payload, _ = run_json(capsys, "check", FIX_A2, "U-silt2")
    assert code == 0
    assert payload["coresolution_steps"] == 1
    assert payload["good"] is True
    assert payload["tilting"] is False


def test_check_wrong_orientation_fails_with_witness(capsys):
    code, payload, _ = run_json(capsys, "check", FIX_A2,
                                "silt2-wrong-orientation")
    assert code == 1
    assert payload["verdict"] == "fail"
    assert payload["witness"][0] == 1
    assert payload["witness"][1] >= 1


def test_check_fused_free_complex_is_inconclusive(capsys):
    # one undecomposed block hides the summand multiplicities
    code, payload, _ = run_json(capsys, "check", FIX_A2, "regular-fused")
    assert code == 2
    assert payload["verdict"] == "inconclusive"
    assert payload["presilting"] is True


def test_check_truncated_file_is_an_input_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(pathlib.Path(FIX_A2).read_text(encoding="utf-8")[:200])
    code, out, err = run_cli(capsys, "check", str(broken), "A")
    assert code == 3
    assert out == ""
    assert "invalid JSON" in err


def test_check_unknown_object_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "check", FIX_A2, "nonexistent")
    assert code == 3
    assert "U-tilt" in err


@pytest.mark.parametrize("prime", [
    "[7]", "null", "1e400", "7.5", '"7"',
    # Carmichael numbers, strong pseudoprimes to the first bases, a small
    # composite, and moduli at or above psi_13, where primality is not decided
    *(pytest.param(str(p), id=name) for p, name in (
        (561, "561"), (2047, "2047"), (41041, "41041"), (3215031751, "3215031751"),
        (PRIME_BOUND, "psi13"), (6, "6"), (10**400, "10**400")))])
def test_a_malformed_field_is_an_input_error(tmp_path, capsys, prime):
    text = pathlib.Path(FIX_A2).read_text(encoding="utf-8")
    assert text.count('"prime": 101') == 1
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"prime": 101', f'"prime": {prime}'), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path), "U-tilt")
    assert (code, out) == (3, "")
    assert "$.field" in err and len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


def test_large_primes_are_accepted_at_once():
    # a 19- or 20-digit prime is decided in a handful of modular powers, not
    # by trial division up to its square root
    start = time.perf_counter()
    for p in (2**61 - 1, 2**64 - 59, 10**18 + 9):
        assert field_from_json({"prime": p}).characteristic == p
    assert time.perf_counter() - start < 0.5


def test_bad_flags_are_input_errors(capsys):
    assert run_cli(capsys, "verify", FIX_K, "A", "--window=oops")[0] == 3
    assert run_cli(capsys, "verify", FIX_K, "A", "--probes=bogus")[0] == 3
    assert run_cli(capsys, "check", FIX_K, "A", "--cap=-1")[0] == 3
    assert run_cli(capsys, "nonsense")[0] == 3
    # a window with lo > hi and a probe list with no name: one line, no traceback
    for flag, message in (("--window=3:-3", "has lo > hi"), ("--probes=,", "empty probe list")):
        code, out, err = run_cli(capsys, "verify", FIX_K, "A", flag)
        assert (code, out) == (3, ""), flag
        assert message in err and len(err.strip().splitlines()) == 1, (flag, err)
        assert "Traceback" not in err


# -- goodify ----------------------------------------------------------------


def test_goodify_free_complex_returns_the_input(tmp_path, capsys):
    out_file = tmp_path / "reg.json"
    code, payload, _ = run_json(capsys, "goodify", FIX_A2, "regular",
                                "--output", str(out_file))
    assert code == 0
    blocks = payload["goodified"]["complexes"]["regular-good"]
    assert blocks == a2_data()["complexes"]["regular"]
    assert payload["checks"] == {"output_presilting": True,
                                 "silting_equivalent_to_input": True}
    # the written file parses and passes check
    assert instance_text(load_instance(out_file)) == out_file.read_text()
    code, payload, _ = run_json(capsys, "check", str(out_file), "regular-good")
    assert code == 0
    assert payload["good"] is True


@pytest.mark.parametrize("name", ["U-tilt", "U-silt2"])
def test_goodify_output_passes_check_as_good(tmp_path, capsys, name):
    out_file = tmp_path / "good.json"
    code, payload, _ = run_json(capsys, "goodify", FIX_A2, name,
                                "--output", str(out_file))
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["checks"]["output_presilting"] is True
    assert payload["checks"]["silting_equivalent_to_input"] is True
    code, payload, _ = run_json(capsys, "check", str(out_file), f"{name}-good")
    assert code == 0
    assert payload["good"] is True


def test_goodify_records_the_failing_step(capsys):
    code, payload, _ = run_json(capsys, "goodify", FIX_A2,
                                "silt2-wrong-orientation")
    assert code == 2
    assert payload["failed_step"] == "presilting"
    assert payload["witness"][0] == 1
    code, payload, _ = run_json(capsys, "goodify", FIX_A2, "regular-fused")
    assert code == 2
    assert payload["failed_step"] == "coresolution"


# -- verify -----------------------------------------------------------------


def test_verify_two_term_silting_reports_negative_cohomology(capsys):
    code, payload, _ = run_json(capsys, "verify", FIX_A2, "U-silt2",
                                "--window=-3:3")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["effective"]["window"] == [-3, 3]
    wk = [r for r in payload["reports"] if r["kind"] == "weak-nonpositivity"]
    table = wk[0]["checks"][1]["details"]["h_table"]
    assert table == {"-1": 1, "0": 2}


def test_verify_module_form_adds_the_tilting_theorem(capsys):
    code, payload, _ = run_json(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    kinds = {r["kind"] for r in payload["reports"]}
    assert "tilting-theorem" in kinds
    tt = [r for r in payload["reports"] if r["kind"] == "tilting-theorem"][0]
    assert tt["passed"]


def test_verify_passes_a_tilting_module_with_a_probe_in_neither_class(tmp_path,
                                                                      capsys):
    # T = P0 + P2 + S0 over kA_3 (0 -> 1 -> 2), with S0 resolved as P1 -> P0.
    # P1 is neither generated by T nor free of maps from it; the theorem
    # promises its canonical sequence 0 -> S2 -> P1 -> S1 -> 0, whose ends
    # return in degrees 0 and 1
    F = PrimeField(101)
    quiver = Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")])
    A = path_algebra(quiver, F)
    (f,) = hom_space(projective_cache(A, 1), projective_cache(A, 0))
    T = direct_sum_complexes([projective_complex(A, {0: [0]}),
                              projective_complex(A, {0: [2]}),
                              projective_complex(A, {-1: [1], 0: [0]}, {-1: f.mat})])
    path = tmp_path / "a3.json"
    dump_instance(Instance("a3-mixed", F, quiver, [], A, {"T": T}, {}, {},
                           {"window": [-1, 1], "pair_degrees": [-1, 1]}), path)
    code, payload, _ = run_json(capsys, "verify", str(path), "T")
    assert code == 0
    (tt,) = [r for r in payload["reports"] if r["kind"] == "tilting-theorem"]
    (probe,) = [c for c in tt["checks"] if c["name"] == "probe proj1 returns"]
    assert probe["passed"]
    assert probe["details"] == {
        "class": None, "ext_dims": {"0": 1, "1": 1},
        "torsion": {"dimension_vector": [0, 0, 1], "class": 0, "returns": True},
        "torsion_free": {"dimension_vector": [0, 1, 0], "class": 1, "returns": True}}


def test_verify_failure_and_report_aggregation(capsys):
    code, payload, _ = run_json(capsys, "verify", FIX_A2,
                                "silt2-wrong-orientation")
    assert code == 1
    assert payload["verdict"] == "fail"
    code, payload, _ = run_json(capsys, "report", FIX_A2,
                                "silt2-wrong-orientation")
    assert code == 1
    assert payload["check"]["verdict"] == "fail"
    assert payload["verification"] is None


@pytest.mark.parametrize("at_bound, code, verdict", [(True, 2, "inconclusive"),
                                                      (False, 1, "fail")])
def test_a_failed_record_exits_2_only_when_it_says_a_bound_stopped_it(capsys, monkeypatch,
                                                                      at_bound, code, verdict):
    # the verdict reads the record's own at_bound field, not its name: the
    # same failed check exits 2 as a bound and 1 otherwise
    import siltcheck.cli

    record = CheckRecord("coresolution terminates", False, {}, at_bound=at_bound)
    monkeypatch.setattr(siltcheck.cli, "verify_all", lambda *args, **kwargs: [
        VerificationReport("silting", "input complex", [record])])
    got, payload, _ = run_json(capsys, "verify", FIX_A2, "U-tilt")
    assert (got, payload["verdict"]) == (code, verdict)
    assert payload["reports"][0]["checks"] == [
        {"name": "coresolution terminates", "passed": False, "details": {}}]


def test_report_aggregates_check_and_verification(capsys):
    code, payload, _ = run_json(capsys, "report", FIX_K, "A")
    assert code == 0
    assert payload["check"]["verdict"] == "pass"
    kinds = {r["kind"] for r in payload["verification"]}
    assert "counit" in kinds and "silting" in kinds
    assert payload["verdict"] == "pass"


def test_verify_output_is_byte_identical_across_runs(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, out1, _ = run_cli(capsys, "verify", FIX_K, "A",
                             "--output", str(f1))
    code2, out2, _ = run_cli(capsys, "verify", FIX_K, "A",
                             "--output", str(f2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()


def _canonical(text: str) -> bool:
    """Sorted keys, two-space indent, trailing newline."""
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _isolated_points(tmp_path, n: int) -> str:
    """An instance with n vertices, no arrows, and the free module of them."""
    vs = [str(i) for i in range(n)]
    data = {"schema": 1, "name": f"points-{n}", "field": {"prime": 101},
            "quiver": {"vertices": vs, "arrows": []},
            "complexes": {"free": [{"types": {"0": [v]}} for v in vs]}}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("instance,name,command",
                         [(FIX_K, "A", "verify")]
                         + [(FIX_A2, "U-tilt", c)
                            for c in ("check", "goodify", "verify", "report")])
def test_every_command_prints_canonical_json(tmp_path, capsys, instance, name, command):
    out_file = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, command, instance, name, "--output", str(out_file))
    written = out_file.read_text(encoding="utf-8")
    assert code == 0
    assert _canonical(out) and _canonical(written)
    # goodify writes the goodified instance to --output, the others the report
    if command == "goodify":
        assert json.loads(out)["goodified"] == json.loads(written)
    else:
        assert written == out


@pytest.mark.parametrize("command", ["check", "report"])
def test_int_keyed_multiplicities_sort_as_strings(tmp_path, capsys, command):
    # eleven summands: summand 10 sorts between 1 and 2, as json.loads reads it
    code, out, _ = run_cli(capsys, command, _isolated_points(tmp_path, 11), "free")
    assert code == 0
    assert _canonical(out)
    payload = json.loads(out)
    check = payload["check"] if command == "report" else payload
    assert list(check["multiplicities"][0]) == ["0", "1", "10"] + [str(i) for i in range(2, 10)]


@pytest.mark.parametrize("command", ["verify", "report"])
def test_reports_are_written_without_an_as_dict_copy_or_json_dumps(capsys, monkeypatch,
                                                                   command):
    from siltcheck.verifier import VerificationReport

    def refuse(*args, **kwargs):
        raise RuntimeError("the command line writes reports with json_text")

    monkeypatch.setattr(VerificationReport, "as_dict", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run_cli(capsys, command, FIX_A2, "U-tilt")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "pass"


# -- report text --------------------------------------------------------------


# Keys that collide after str() (1 and "1", True and "True") are left out:
# such a dict has no single JSON form, and which value survives is an accident
# of insertion order, in json.dumps(_plain(x)) and in json_text alike.
# Prime-field entries are plain ints; a PrimeField itself stands for a scalar
# that is neither a number nor a string and is written as its str().
_KEYS = st.one_of(st.integers(-12, 12), st.integers(), st.booleans(), st.text(max_size=3))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),
    st.text(st.characters(min_codepoint=0x80), max_size=4),
    st.fractions(), st.builds(PrimeField, st.sampled_from([2, 3, 101, 1009])))
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.lists(st.tuples(_KEYS, children), max_size=4,
                 unique_by=lambda kv: str(kv[0])).map(dict)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({9: [], 10: {}, -2: None, 0: (), -1: [0, 1, True, False, -7]})
@example([Fraction(-3, 4), PrimeField(5), "\x00\n\u00e9\U0001f600", {"": [[]]}])
def test_json_text_equals_indented_json_dumps_of_the_plain_copy(x):
    assert json_text(x) == json.dumps(_plain(x), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["verify", "report"])
def test_unknown_probe_exits_3_with_a_one_line_diagnostic(capsys, command):
    code, out, err = run_cli(capsys, command, FIX_A2, "U-tilt", "--probes", "nosuch")
    assert (code, out) == (3, "")
    assert err.startswith("siltcheck: unknown probes ['nosuch']")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "verify", "report", "goodify"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_exits_3_with_a_one_line_diagnostic(tmp_path, capsys, command,
                                                              target):
    path = tmp_path / "no" / "such.json" if target == "missing" else tmp_path
    code, out, err = run_cli(capsys, command, FIX_K, "A", "--output", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"siltcheck: cannot write {path}: ") and err.count("\n") == 1


def test_unselected_probes_are_not_built(capsys, monkeypatch):
    # the simple probe of the dual numbers would hit its replacement cap
    code, payload, _ = run_json(capsys, "verify", FIX_DUAL, "A", "--probes", "free")
    assert code == 0
    assert [r["subject"] for r in payload["reports"]
            if r["kind"] == "counit"] == ["free"]
    _, calls = _count_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt", "--probes", "free")
    assert code == 0
    assert _totals(calls)["proj_replacement"] == 0


def test_probe_filter_limits_the_battery(capsys):
    code, payload, _ = run_json(capsys, "verify", FIX_K, "A",
                                "--probes=free,simple0")
    assert code == 0
    assert payload["effective"]["probes"] == ["free", "simple0"]
    subjects = [r["subject"] for r in payload["reports"]
                if r["kind"] == "counit"]
    assert subjects == ["free", "simple0"]


def test_flags_override_instance_options(capsys):
    code, payload, _ = run_json(capsys, "check", FIX_K, "A",
                                "--max-steps", "3", "--cap", "5")
    assert code == 0
    assert payload["effective"]["max_steps"] == 3
    assert payload["effective"]["cap"] == 5
    # defaults come from the instance file otherwise
    code, payload, _ = run_json(capsys, "check", FIX_K, "A")
    assert payload["effective"]["max_steps"] == 8
    assert payload["effective"]["cap"] == 16


def test_exit_codes_stay_in_contract(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    seen = {
        run_cli(capsys, "check", FIX_K, "A")[0],
        run_cli(capsys, "check", FIX_A2, "silt2-wrong-orientation")[0],
        run_cli(capsys, "check", FIX_A2, "regular-fused")[0],
        run_cli(capsys, "check", str(broken), "A")[0],
    }
    assert seen == {0, 1, 2, 3}


# the checks whose failure is a bound reached; a record says so in its
# at_bound field, which the JSON report leaves out
BOUND_CHECKS = {"coresolution terminates"}


def _carries_a_witness(command: str, payload: dict) -> bool:
    """Whether a report holds a failed check that no bound explains."""
    if command == "report":
        if payload["verification"] is None:
            return _carries_a_witness("check", payload["check"])
        reports = payload["verification"]
    elif command == "check":
        return payload["witness"] is not None
    else:
        reports = payload["reports"]
    return any(not c["passed"] and c["name"] not in BOUND_CHECKS
               for r in reports for c in r["checks"])


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_small_characteristic_keeps_the_exit_code_contract(tmp_path, capsys, prime):
    data = a2_data()
    data["field"] = {"prime": prime}
    path = tmp_path / f"fix_a2_f{prime}.json"
    path.write_text(json.dumps(data))
    for name in sorted(data["complexes"]):
        for command in ("check", "verify", "report"):
            code, out, err = run_cli(capsys, command, str(path), name)
            assert code in (0, 1, 2, 3), (name, command)
            if code == 1:
                assert _carries_a_witness(command, json.loads(out)), (name, command)
            if code == 3:
                # unsupported input: a one-line diagnostic, no report
                assert out == "" and err.startswith("siltcheck: ")
                assert err.count("\n") == 1
            if name == "silt2-wrong-orientation":
                # the presilting witness decides before any radical is needed
                payload = json.loads(out)
                witness = {"check": lambda: payload["witness"],
                           "report": lambda: payload["check"]["witness"],
                           "verify": lambda: payload["reports"][0]["checks"][0]
                           ["details"]["witness"]}[command]()
                assert (code, witness) == (1, [1, 1]), command



def _linear_instance(n: int, complexes: dict):
    """An instance over linear A_n, 0 -> 1 -> ... -> n-1 over F_101, with the
    complexes each built from the algebra by complexes[name](A)."""
    F = PrimeField(101)
    quiver = Quiver([str(v) for v in range(n)],
                    [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)])
    A = path_algebra(quiver, F)
    return Instance(f"a{n}-contractible", F, quiver, [], A,
                    {name: build(A) for name, build in complexes.items()}, {}, {},
                    {"window": [-1, 1], "pair_degrees": [-1, 1]})


def _stalk(A, v):
    return projective_complex(A, {0: [v]})


def _contractible(A, v):
    return cone(identity_chain_map(_stalk(A, v)))


def test_a_contractible_complex_is_proven_stuck(tmp_path, capsys):
    # U = 0 in the homotopy category has no unit class in H^0 End(U); the
    # coresolution of A by U is stuck from its first step, so every command
    # reports it inconclusive, without a traceback
    stuck = {2: {"cone-id-P0": lambda A: _contractible(A, 0)},
             3: {"sum-of-cones": lambda A: direct_sum_complexes(
                 [_contractible(A, v) for v in range(3)])}}
    for n, complexes in stuck.items():
        path = tmp_path / f"a{n}.json"
        dump_instance(_linear_instance(n, complexes), path)
        for name in complexes:
            for command in ("check", "verify", "report", "goodify"):
                code, out, err = run_cli(capsys, command, str(path), name)
                assert (code, err) == (2, ""), (name, command)
                assert json.loads(out)["verdict"] == "inconclusive", (name, command)


def test_a_contractible_summand_leaves_a_silting_complex_silting(tmp_path, capsys):
    path = tmp_path / "a2.json"
    dump_instance(_linear_instance(2, {"P0+P1+cone-id-P1": lambda A: direct_sum_complexes(
        [_stalk(A, 0), _stalk(A, 1), _contractible(A, 1)])}), path)
    for command in ("check", "verify", "report", "goodify"):
        code, out, err = run_cli(capsys, command, str(path), "P0+P1+cone-id-P1")
        assert (code, err) == (0, ""), command
        assert json.loads(out)["verdict"] == "pass", command


# -- caps and the one analysis per run ----------------------------------------


@pytest.mark.parametrize("n", [300, 1200])
def test_a_long_linear_quiver_is_refused_by_the_enumeration_cap(tmp_path, capsys, n):
    # linear A_n has n(n+1)/2 paths, past the cap of 32,768 for both; a
    # quiver deeper than the interpreter's recursion limit is read all the
    # same.  A cap, even one met while reading, is no verdict: exit 2
    data = json.loads(pathlib.Path(FIX_K).read_text())
    data["quiver"] = {"vertices": [str(v) for v in range(n)],
                      "arrows": [[f"a{v}", str(v), str(v + 1)] for v in range(n - 1)]}
    data["complexes"] = {"A": [{"types": {"0": ["0"]}}]}
    data["modules"] = {"k": {"simple": "0"}}
    path = tmp_path / f"linear{n}.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", str(path), "A")
    assert (code, out) == (2, "")
    assert err == "siltcheck: $.quiver: path enumeration exceeded 32768\n"


@pytest.mark.parametrize("command", ["verify", "report"])
def test_resolution_cap_exits_2_with_a_one_line_diagnostic(capsys, command):
    # the simple probe of the dual numbers has no finite projective resolution
    code, out, err = run_cli(capsys, command, FIX_DUAL, "A")
    assert code == 2
    assert out == ""
    assert err.startswith("siltcheck: ") and err.count("\n") == 1
    assert "cap 16" in err


def test_semifree_cap_exits_2(capsys, monkeypatch):
    import siltcheck.cli
    from siltcheck.semifree import SemifreeCapError

    def capped(*args, **kwargs):
        raise SemifreeCapError("resolution exceeded 7 generators")

    monkeypatch.setattr(siltcheck.cli, "verify_all", capped)
    code, out, err = run_cli(capsys, "verify", FIX_K, "A")
    assert (code, out) == (2, "")
    assert err == "siltcheck: resolution exceeded 7 generators\n"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_exhausted_machine_exits_2_without_a_traceback(capsys, monkeypatch, error):
    import siltcheck.cli

    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(siltcheck.cli, "verify_all", exhausted)
    code, out, err = run_cli(capsys, "verify", FIX_K, "A")
    assert (code, out) == (2, "")
    assert err == f"siltcheck: no verdict, the run hit a {error.__name__}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "verify"])
def test_a_failed_internal_check_exits_3_without_a_traceback(capsys, monkeypatch,
                                                             command):
    # a validator's AssertionError is no witness: it must not exit 1.  check
    # builds no dg-end, so its failure goes into the validation of H^0
    # End(U), an ordinary algebra; verify's into the dg-end's
    from siltcheck import dg

    if command == "check":
        message = "associativity fails on (p0, p0)"
        target = dg.H0Algebra
    else:
        message = "associativity fails on degrees (0, 0, 0)"
        target = dg.DgAlgebra

    def refuse(self):
        raise AssertionError(message)

    monkeypatch.setattr(target, "validate", refuse)
    code, out, err = run_cli(capsys, command, FIX_A2, "U-tilt")
    assert (code, out) == (3, "")
    assert err == f"siltcheck: internal check failed: {message}\n"
    assert "Traceback" not in err


COUNTED = ("silting_report", "coresolve_A", "dg_end", "smart_truncate", "h0_algebra",
           "proj_replacement")


def _rebind(monkeypatch, fn, wrapper):
    """Point every siltcheck namespace that binds fn at wrapper."""
    import types

    import siltcheck

    for ns in [siltcheck] + [m for m in vars(siltcheck).values()
                             if isinstance(m, types.ModuleType)]:
        for attr, value in list(vars(ns).items()):
            if value is fn:
                monkeypatch.setattr(ns, attr, wrapper)


def _count_calls(monkeypatch):
    """Wrap the COUNTED functions in every siltcheck module that binds them.

    Returns on(name), the per-function call counts on the loaded complex of
    that name, and calls, the counts keyed by (function, complex) for every
    complex the run touched; h0_algebra and smart_truncate count against the
    complex U of the hom complex Hom(U, U) they read.
    """
    import siltcheck.cli
    from siltcheck import complexes, dg, silting

    loaded = []
    calls = {}
    load = siltcheck.cli.load_instance

    def loading(path):
        inst = load(path)
        loaded.append(inst)
        return inst

    monkeypatch.setattr(siltcheck.cli, "load_instance", loading)
    for fn in (silting.silting_report, silting.coresolve_A, dg.dg_end,
               dg.smart_truncate, dg.h0_algebra, complexes.proj_replacement):
        def counted(U, *args, _fn=fn, **kwargs):
            key = (_fn.__name__,
                   U.X if _fn.__name__ in ("h0_algebra", "smart_truncate") else U)
            calls[key] = calls.get(key, 0) + 1
            return _fn(U, *args, **kwargs)
        _rebind(monkeypatch, fn, counted)

    def on(name):
        (inst,) = loaded
        U = inst.complexes[name]
        return {fn: calls.get((fn, U), 0) for fn in COUNTED}
    return on, calls


def _totals(calls) -> dict:
    out = dict.fromkeys(COUNTED, 0)
    for (fn, _), n in calls.items():
        out[fn] += n
    return out


@pytest.mark.parametrize("command,name", [("check", "U-tilt"),
                                          ("verify", "U-tilt"),
                                          ("report", "U-silt2"),
                                          ("goodify", "U-tilt")])
def test_one_run_analyses_the_input_complex_once(capsys, monkeypatch,
                                                 command, name):
    # the coresolution reads H^0 End(U) off Hom(U, U); only the battery of
    # verify and report builds the truncation, straight off that same
    # Hom(U, U), and it shares that H^0 algebra; nothing builds a dg-end
    on, calls = _count_calls(monkeypatch)
    code, _, _ = run_cli(capsys, command, FIX_A2, name)
    assert code == 0
    counts = on(name)
    assert counts["silting_report"] == 1
    assert counts["coresolve_A"] == 1
    assert counts["dg_end"] == 0
    assert counts["smart_truncate"] == (command in ("verify", "report"))
    assert counts["h0_algebra"] == 1
    # nor is any other complex, such as goodify's output, analysed twice
    assert all(n == 1 for (fn, _), n in calls.items()
               if fn in ("silting_report", "coresolve_A"))


@pytest.mark.parametrize("command", ["check", "verify", "report"])
def test_a_refuted_input_is_never_coresolved(capsys, monkeypatch, command):
    # the witness, read off Hom(U, U), decides the verdict, so coresolve_A
    # returns at its presilting gate and no dg-end, truncation or H^0
    # algebra is built
    on, _ = _count_calls(monkeypatch)
    code, _, _ = run_cli(capsys, command, FIX_A2, "silt2-wrong-orientation")
    assert code == 1
    assert on("silt2-wrong-orientation") == {
        "silting_report": 1, "coresolve_A": 1, "dg_end": 0, "smart_truncate": 0,
        "h0_algebra": 0, "proj_replacement": 0}


def test_verify_of_a_tilting_module_resolves_only_the_simple_probes(capsys,
                                                                     monkeypatch):
    # the tilting-theorem report reads the battery, so the run coresolves
    # the input alone; the one non-projective probe, the simple at the
    # source (the simple at the sink is P1), is the only one resolved
    _, calls = _count_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    totals = _totals(calls)
    assert totals["coresolve_A"] == 1
    assert totals["proj_replacement"] == 1
    assert totals["dg_end"] == 0
    assert totals["smart_truncate"] == 1
    assert totals["h0_algebra"] == 1


def test_verify_builds_each_probe_module_once(capsys, monkeypatch):
    # the probe complexes are read off the module probes verify_all built,
    # so each vertex simple is built and validated once per run, and the
    # simple at the sink is not built at all: it is the projective P1
    from siltcheck import verifier

    built = Counter()
    simple_module = verifier.simple_module

    def counted(A, v):
        built[v] += 1
        return simple_module(A, v)

    monkeypatch.setattr(verifier, "simple_module", counted)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    assert built == {0: 1}


def test_verify_resolves_each_module_degree_once(capsys, monkeypatch):
    # every cutoff of a module is served from one resolution, so no cone
    # pass repeats; each degree's pass reads the cone's dimension once
    from siltcheck.semifree import SemifreeModule

    passes = Counter()
    cone_dim = SemifreeModule.cone_dim

    def counting(self, n):
        passes[(self.target, n)] += 1
        return cone_dim(self, n)

    monkeypatch.setattr(SemifreeModule, "cone_dim", counting)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    assert passes and set(passes.values()) == {1}


def test_verify_serves_the_sum_of_both_summands_from_the_counit_of_u(capsys, monkeypatch):
    # U-tilt has two summands, so the functoriality probe's one sum is U
    # itself: "silting" is the sum of the counits of U's two summands, both
    # blocks of the one counit check at the window, and "counit on sum01"
    # reads those same counits, making no verify_counit call of its own;
    # the roundtrips read the same batch, at a window widened up to the
    # largest shift, so it is the one verify_counit of the context
    from siltcheck import verifier

    counits, during = [], []
    verify_counit, functoriality_probe = verifier.verify_counit, verifier.functoriality_probe

    def counted_counit(ctx, X, window, *args, **kwargs):
        counits.append((ctx, X, window))
        return verify_counit(ctx, X, window, *args, **kwargs)

    def counted_probe(*args, **kwargs):
        before = len(counits)
        rep = functoriality_probe(*args, **kwargs)
        during.append(len(counits) - before)
        return rep

    _rebind(monkeypatch, verify_counit, counted_counit)
    _rebind(monkeypatch, functoriality_probe, counted_probe)
    code, out, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    assert during == [0]
    ((ctx, _, _),) = counits
    first = counits[0][1].summands
    assert [sum(s is t for t in first) for s in ctx.U.summands] == [1, 1]
    assert all(t.summands is None for t in first)
    reports = json.loads(out)["reports"]
    (silting,) = [r for r in reports if r["kind"] == "counit" and r["subject"] == "silting"]
    (sums,) = [r for r in reports if r["kind"] == "functoriality"]
    assert [c["name"] for c in sums["checks"]] == ["counit on sum01"]
    assert sums["checks"][0]["details"] == silting["checks"][0]["details"]


def test_verify_exits_1_when_one_summand_of_u_breaks(capsys, monkeypatch):
    # the evaluation map zero on the block of the second declared summand
    # of U-tilt alone: the sum that U's counit reads fails, and so does verify
    from siltcheck import verifier

    evaluation = verifier._evaluation_chain_map

    def broken(T, gh, X):
        # gh is Hom(U, X), so gh.X is U
        return zero_on_summand(evaluation, gh.X.summands[1])(T, gh, X)

    monkeypatch.setattr(verifier, "_evaluation_chain_map", broken)
    code, out, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 1
    reports = json.loads(out)["reports"]
    (silting,) = [r for r in reports if r["kind"] == "counit" and r["subject"] == "silting"]
    (sums,) = [r for r in reports if r["kind"] == "functoriality"]
    assert not silting["passed"] and not sums["checks"][0]["passed"]


def _target_key(Y):
    """A module placed in one degree is keyed by (module, degree), since
    each wrapping of it is a new complex; any other target by itself."""
    if Y.proj_types is None and len(Y.terms) == 1 and not Y.diffs:
        ((degree, M),) = Y.terms.items()
        return (M, degree)
    return Y


def test_verify_builds_each_hom_complex_once(capsys, monkeypatch):
    # the context owns one hom complex per (source, target) pair, Hom(U, U)
    # is the truncation's own, and a module is wrapped once, in degree 0
    from siltcheck import complexes

    _, calls = _count_calls(monkeypatch)
    homs = Counter()
    hom_complex = complexes.hom_complex

    def counted_hom(X, Y):
        homs[(X, _target_key(Y))] += 1
        return hom_complex(X, Y)

    _rebind(monkeypatch, hom_complex, counted_hom)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    (U,) = [X for fn, X in calls if fn == "smart_truncate"]
    assert homs[(U, U)] == 1
    assert any(isinstance(Y, tuple) for _, Y in homs)
    assert set(homs.values()) == {1}


def test_verify_computes_the_radical_once(capsys, monkeypatch):
    # the coresolution and the H^0 check share the radical kept on the dg-end
    from siltcheck import silting

    calls = []
    radical_rows = silting.radical_rows

    def counted(E):
        calls.append(E)
        return radical_rows(E)

    _rebind(monkeypatch, radical_rows, counted)
    code, _, _ = run_cli(capsys, "verify", FIX_A2, "U-tilt")
    assert code == 0
    assert len(calls) == 1


def test_the_cli_and_the_library_share_one_set_of_defaults():
    # the depth settings are SiltingContext's, the degrees verify_all's: a
    # run with no flag and no per-file option runs as the library does
    context = inspect.signature(SiltingContext).parameters
    battery = inspect.signature(verify_all).parameters
    assert DEFAULTS == {**{k: context[k].default for k in ("max_steps", "extra_margin", "cap")},
                        **{k: battery[k].default for k in ("window", "pair_degrees")}}

"""Instance files: a field, a quiver algebra, and named complexes and modules.

Schema 1.  The JSON layout keeps everything explicit so files diff cleanly:
matrices are lists of rows, prime-field entries are plain integers, rational
entries are integers or "p/q" strings, and the field itself is spelled
{"prime": p} or "rational".  A complex is stored as a list of summand blocks,
each a shifted projective presentation (projective types per degree plus the
differentials), so direct-sum structure survives a round trip.  Parse errors
carry the JSON path of the offending value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape  # the C escaper

from .algebra import (AdmissibilityError, Algebra, DimensionCapError, Module,
                      Quiver, path_algebra, simple_module)
from .complexes import (Complex, direct_sum_complexes, projective_cache,
                        projective_complex)
from .fields import field_from_json
from .linalg import Matrix

SCHEMA = 1

_OPTION_KEYS = {"window", "max_steps", "cap", "probes", "pair_degrees",
                "extra_margin"}


class InstanceError(ValueError):
    """A malformed instance file; .path names the offending JSON value."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class Instance:
    """A parsed instance file with its algebra and named objects built."""

    def __init__(self, name, field, quiver, relations, algebra,
                 complexes, modules, module_specs, options):
        self.name = name
        self.field = field
        self.quiver = quiver
        self.relations = relations
        self.algebra = algebra
        self.complexes = complexes
        self.modules = modules
        self.module_specs = module_specs
        self.options = options


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InstanceError(path, message)


def _object(data, path: str, keys=None) -> dict:
    """data, checked to be a JSON object with no key outside keys (any key
    when keys is None)."""
    _expect(isinstance(data, dict), path, "expected an object")
    extra = set(data) - keys if keys is not None else ()
    _expect(not extra, path, f"unknown keys {sorted(extra)}")
    return data


def _coerce_entry(field, value, path: str):
    try:
        return field.coerce(value)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InstanceError(path, f"bad scalar {value!r}: {e}") from None


def _parse_matrix(field, rows, nrows: int, ncols: int, path: str) -> Matrix:
    _expect(isinstance(rows, list), path, "matrix must be a list of rows")
    _expect(len(rows) == nrows, path,
            f"expected {nrows} rows, found {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list), f"{path}[{i}]", "row must be a list")
        _expect(len(row) == ncols, f"{path}[{i}]",
                f"expected {ncols} entries, found {len(row)}")
        out.append([_coerce_entry(field, v, f"{path}[{i}][{j}]")
                    for j, v in enumerate(row)])
    return Matrix(field, nrows, ncols, out)


def _matrix_to_json(m: Matrix) -> list:
    f = m.field
    return [[f.to_json(v) for v in row] for row in m.rows]


def _parse_degree(key, path: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise InstanceError(path, f"degree key {key!r} is not an integer") from None


def _parse_quiver(data, path: str) -> Quiver:
    _object(data, path, {"vertices", "arrows", "relations"})
    verts = data.get("vertices")
    _expect(isinstance(verts, list) and verts, f"{path}.vertices",
            "need a nonempty list of vertex names")
    arrows = data.get("arrows", [])
    _expect(isinstance(arrows, list), f"{path}.arrows", "arrows must be a list")
    parsed = []
    for i, arr in enumerate(arrows):
        _expect(isinstance(arr, list) and len(arr) == 3,
                f"{path}.arrows[{i}]", "arrow must be [name, source, target]")
        parsed.append(tuple(str(x) for x in arr))
    try:
        return Quiver([str(v) for v in verts], parsed)
    except ValueError as e:
        raise InstanceError(path, str(e)) from None


def _parse_relations(field, quiver, data, path: str) -> list:
    _expect(isinstance(data, list), path, "relations must be a list")
    out = []
    for i, rel in enumerate(data):
        _expect(isinstance(rel, list) and rel, f"{path}[{i}]",
                "relation must be a nonempty list of [coeff, path] terms")
        terms = []
        for j, term in enumerate(rel):
            tp = f"{path}[{i}][{j}]"
            _expect(isinstance(term, list) and len(term) == 2, tp,
                    "term must be [coeff, [arrow names]]")
            coeff = _coerce_entry(field, term[0], f"{tp}[0]")
            names = term[1]
            _expect(isinstance(names, list) and names
                    and all(isinstance(n, str) for n in names), f"{tp}[1]",
                    "path must be a nonempty list of arrow names")
            for n in names:
                _expect(n in quiver.aindex, f"{tp}[1]", f"unknown arrow {n!r}")
            terms.append((coeff, list(names)))
        out.append(terms)
    return out


def _parse_complex(A: Algebra, quiver: Quiver, data, path: str) -> Complex:
    _expect(isinstance(data, list) and data, path,
            "complex must be a nonempty list of summand blocks")
    blocks = []
    for k, block in enumerate(data):
        bp = f"{path}[{k}]"
        _object(block, bp, {"types", "diffs"})
        types_raw = block.get("types")
        _expect(isinstance(types_raw, dict) and types_raw, f"{bp}.types",
                "need a nonempty object of degree -> projective types")
        types = {}
        for key, vs in types_raw.items():
            tp = f"{bp}.types.{key}"
            n = _parse_degree(key, tp)
            _expect(isinstance(vs, list) and vs, tp,
                    "need a nonempty list of vertex names")
            idx = []
            for v in vs:
                _expect(isinstance(v, str) and v in quiver.vindex, tp,
                        f"unknown vertex {v!r}")
                idx.append(quiver.vindex[v])
            types[n] = idx
        dims = {n: A.projective_sum(vs).dim for n, vs in types.items()}
        diffs = {}
        for key, rows in _object(block.get("diffs", {}), f"{bp}.diffs").items():
            dp = f"{bp}.diffs.{key}"
            n = _parse_degree(key, dp)
            _expect(n in dims and n + 1 in dims, dp,
                    f"differential at degree {n} needs terms in degrees {n} and {n + 1}")
            diffs[n] = _parse_matrix(A.field, rows, dims[n], dims[n + 1], dp)
        try:
            blocks.append(projective_complex(A, types, diffs))
        except (ValueError, AssertionError) as e:
            raise InstanceError(bp, str(e)) from None
    if len(blocks) == 1:
        return blocks[0]
    return direct_sum_complexes(blocks)


def _parse_module(A: Algebra, quiver: Quiver, data, path: str):
    """Returns (module, canonical spec)."""
    _expect(isinstance(data, dict) and len(data) >= 1, path,
            "module must be an object")
    if set(data) == {"simple"} or set(data) == {"projective"}:
        kind, v = next(iter(data.items()))
        _expect(isinstance(v, str) and v in quiver.vindex, f"{path}.{kind}",
                f"unknown vertex {v!r}")
        build = simple_module if kind == "simple" else projective_cache
        return build(A, quiver.vindex[v]), {kind: v}
    if set(data) == {"free"}:
        _expect(data["free"] is True, f"{path}.free", "expected true")
        return A.projective_sum(range(len(A.idempotents))), {"free": True}
    if set(data) == {"dim", "action"}:
        dim = data["dim"]
        _expect(type(dim) is int and dim >= 0, f"{path}.dim",
                "dim must be a nonnegative integer")
        action_raw = data["action"]
        _expect(isinstance(action_raw, list) and len(action_raw) == A.dim,
                f"{path}.action",
                f"need one {dim}x{dim} matrix per algebra basis element ({A.dim})")
        action = [_parse_matrix(A.field, rows, dim, dim, f"{path}.action[{i}]")
                  for i, rows in enumerate(action_raw)]
        try:
            mod = Module(A, dim, [action[g] for g in A.generators])
        except (ValueError, AssertionError) as e:
            raise InstanceError(path, str(e)) from None
        for i, m in enumerate(action):
            _expect(m == mod.action(i), path,
                    f"the action of {A.labels[i]} is not the product along its path")
        spec = {"dim": dim, "action": [_matrix_to_json(m) for m in action]}
        return mod, spec
    raise InstanceError(path, "module must be one of {\"simple\": v}, "
                              "{\"projective\": v}, {\"free\": true} or "
                              "{\"dim\": d, \"action\": [...]}")


def _parse_options(data, path: str) -> dict:
    _object(data, path, _OPTION_KEYS)
    out = {}
    for key in ("window", "pair_degrees"):
        if key in data:
            w = data[key]
            _expect(isinstance(w, list) and len(w) == 2
                    and all(type(x) is int for x in w) and w[0] <= w[1],
                    f"{path}.{key}", "expected [lo, hi] with lo <= hi")
            out[key] = [w[0], w[1]]
    for key in ("max_steps", "cap"):
        if key in data:
            v = data[key]
            _expect(type(v) is int and v > 0, f"{path}.{key}",
                    "expected a positive integer")
            out[key] = v
    if "extra_margin" in data:
        v = data["extra_margin"]
        _expect(type(v) is int and v >= 0, f"{path}.extra_margin",
                "expected a nonnegative integer")
        out["extra_margin"] = v
    if "probes" in data:
        ps = data["probes"]
        _expect(isinstance(ps, list) and ps
                and all(isinstance(p, str) for p in ps), f"{path}.probes",
                "expected a nonempty list of probe names")
        out["probes"] = list(ps)
    return out


def parse_instance(data, path: str = "$") -> Instance:
    _object(data, path, {"schema", "name", "field", "quiver", "modules", "complexes", "options"})
    _expect(data.get("schema") == SCHEMA, f"{path}.schema",
            f"unsupported schema {data.get('schema')!r}; this reader handles {SCHEMA}")
    name = data.get("name")
    _expect(isinstance(name, str) and name, f"{path}.name",
            "need a nonempty instance name")
    try:
        field = field_from_json(data.get("field"))
    except ValueError as e:
        raise InstanceError(f"{path}.field", str(e)) from None
    quiver = _parse_quiver(data.get("quiver"), f"{path}.quiver")
    relations = _parse_relations(field, quiver,
                                 data["quiver"].get("relations", []),
                                 f"{path}.quiver.relations")
    try:
        A = path_algebra(quiver, field,
                         relations=[[(c, ns) for c, ns in rel]
                                    for rel in relations])
    except DimensionCapError as e:
        # a cap met while reading is no malformed input: it keeps its class
        raise DimensionCapError(f"{path}.quiver: {e}") from None
    except (AdmissibilityError, ValueError) as e:
        raise InstanceError(f"{path}.quiver", str(e)) from None

    complexes = {}
    for cname, cdata in _object(data.get("complexes", {}), f"{path}.complexes").items():
        complexes[cname] = _parse_complex(A, quiver, cdata,
                                          f"{path}.complexes.{cname}")
    modules, module_specs = {}, {}
    for mname, mdata in _object(data.get("modules", {}), f"{path}.modules").items():
        mp = f"{path}.modules.{mname}"
        _expect(mname not in complexes, mp,
                "name already used by a complex")
        modules[mname], module_specs[mname] = _parse_module(A, quiver, mdata, mp)
    options = _parse_options(data.get("options", {}), f"{path}.options")
    return Instance(name, field, quiver, relations, A,
                    complexes, modules, module_specs, options)


def load_instance(filename) -> Instance:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InstanceError("$", f"cannot read {filename}: {e.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError("$", f"invalid JSON: {e}") from None
    return parse_instance(data)


# -- serialization ----------------------------------------------------------


def encode_complex(X: Complex, quiver: Quiver) -> list:
    """Summand blocks for a projective complex, flattening direct sums."""
    if not X.is_projective_complex():
        raise ValueError("only complexes of projectives can be serialized")
    if X.summands is not None:
        return [b for s in X.summands for b in encode_complex(s, quiver)]
    types = {str(n): [quiver.vertices[v] for v in X.proj_types[n]]
             for n in sorted(X.proj_types) if X.term(n).dim > 0}
    block = {"types": types}
    diffs = {str(n): _matrix_to_json(X.diffs[n]) for n in sorted(X.diffs)}
    if diffs:
        block["diffs"] = diffs
    return [block]


def serialize_instance(inst: Instance) -> dict:
    out = {
        "schema": SCHEMA,
        "name": inst.name,
        "field": inst.field.describe(),
        "quiver": {
            "vertices": list(inst.quiver.vertices),
            "arrows": [[a, inst.quiver.vertices[s], inst.quiver.vertices[t]]
                       for a, s, t in inst.quiver.arrows],
        },
    }
    if inst.relations:
        out["quiver"]["relations"] = [
            [[inst.field.to_json(c), list(ns)] for c, ns in rel]
            for rel in inst.relations]
    if inst.complexes:
        out["complexes"] = {name: encode_complex(X, inst.quiver)
                            for name, X in inst.complexes.items()}
    if inst.modules:
        out["modules"] = {name: inst.module_specs[name]
                          for name in inst.modules}
    if inst.options:
        out["options"] = inst.options
    return out


def instance_text(inst: Instance) -> str:
    return json_text(serialize_instance(inst))


def json_text(x) -> str:
    """x as indented JSON text with sorted keys, written in one walk.

    Equal to json.dumps(verifier._plain(x), indent=2, sort_keys=True) + "\n":
    keys are str()-ed and sorted, tuples are lists, bool, int, str and None
    stay as they are, and every other scalar (a field element, a Fraction)
    is the JSON string of its str().  json.dumps drops to its pure-Python
    encoder whenever indent is set and needs the _plain copy first; this
    walk reads x as it is, escapes strings in C and joins a list of plain
    ints in one step.
    """
    return _json_value(x, "\n") + "\n"


def _json_value(x, nl: str) -> str:
    """x as JSON text; nl is the newline and indent of x's own line."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        named = {str(k): v for k, v in x.items()}
        return ("{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _json_value(named[k], inner) for k in sorted(named)])
            + nl + "}")
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        if all(type(v) is int for v in x):
            items = map(str, x)
        else:
            items = [_json_value(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return _escape(x)
    if x is None:
        return "null"
    return _escape(str(x))


def dump_instance(inst: Instance, filename):
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(instance_text(inst))

"""The package namespace lists only names that exist, no source file imports
a name it never uses, and every definition in src/, and every defaulted
parameter of one, has a caller in the program or the benchmark (checked on
the syntax tree, so the suite needs no linter)."""

import ast
import pathlib

import siltcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = (sorted((ROOT / "src" / "siltcheck").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def test_every_exported_name_resolves():
    assert [n for n in siltcheck.__all__ if not hasattr(siltcheck, n)] == []


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of every name an import binds that is never read, either
    as a name, as the root of an attribute chain or as an entry of __all__."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): _unused_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


# Kept in src/ with no caller there: documented constructors that tests use
# to build their inputs.
UNCALLED_BY_DESIGN = {
    "complexes.Complex.shift": "shifted inputs; the README library example builds one",
    "linalg.Matrix.from_rows": "a matrix from its rows; tests build inputs with it",
}


def _definitions_and_references(tree: ast.Module, module: str | None) -> tuple:
    """The definitions of a source module, and every reference in tree.

    Definitions (with module given) are the top-level functions and classes,
    as "module.name", and the non-dunder methods of top-level classes, as
    "module.Class.method", each mapped to whether it is a method.  A
    reference is (name, is an attribute, the definitions it sits inside): a
    name read, an attribute named, or, outside src/, each dotted part of a
    string constant (the benchmark tracer names its entry points in strings).
    """
    defs, refs = {}, []

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            inner = owners
            if module is not None and node is tree and isinstance(
                    child, (ast.FunctionDef, ast.ClassDef)):
                inner = (f"{module}.{child.name}",)
                defs[inner[0]] = False
            elif (module is not None and isinstance(node, ast.ClassDef) and node in tree.body
                  and isinstance(child, ast.FunctionDef)
                  and not (child.name.startswith("__") and child.name.endswith("__"))):
                inner = owners + (f"{owners[0]}.{child.name}",)
                defs[inner[1]] = True
            if isinstance(child, ast.Name):
                refs.append((child.id, False, owners))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, True, owners))
            elif module is None and isinstance(child, ast.Constant) and isinstance(child.value, str):
                refs.extend((part, True, ()) for part in child.value.split("."))
            visit(child, inner)

    visit(tree, ())
    return defs, refs


def _uncalled_definitions() -> list:
    """Definitions in src/siltcheck that neither src/ outside their own body
    nor perfbench/ refers to, by name: a method counts as called when any
    attribute carries its name.  Run to a fixed point, so a definition called
    only from uncalled ones is uncalled too."""
    defs, refs = {}, []
    for path in sorted((ROOT / "src" / "siltcheck").glob("*.py")):
        d, r = _definitions_and_references(ast.parse(path.read_text()), path.stem)
        defs.update(d)
        refs += r
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs += _definitions_and_references(ast.parse(path.read_text()), None)[1]
    uncalled = set()
    while True:
        calls = {}
        for name, attr, owners in refs:
            if not uncalled.intersection(owners):
                calls.setdefault((name, attr), []).append(owners)
        newly = set()
        for qual, is_method in defs.items():
            if qual in uncalled:
                continue
            leaf = qual.rsplit(".", 1)[1]
            sites = calls.get((leaf, True), []) + ([] if is_method else calls.get((leaf, False), []))
            if not any(qual not in owners for owners in sites):
                newly.add(qual)
        if not newly:
            return sorted(uncalled)
        uncalled |= newly


def test_every_src_definition_has_a_caller():
    assert _uncalled_definitions() == sorted(UNCALLED_BY_DESIGN)


# Defaulted parameters that no call in src/ or perfbench/ passes, each kept
# for its reason; any other such parameter is a setting no caller varies
DEFAULTED_BY_DESIGN = {
    "semifree.derived_tensor.extra_margin": "the benchmark traces derived_tensor; "
                                            "it goes with the function",
    "dg.dg_end.gh": "the benchmark traces dg_end; it goes with the function",
    "linalg.Matrix.from_rows.ncols": "a test constructor: a matrix with no rows",
}


def _defaulted_parameters(tree: ast.Module, module: str) -> dict:
    """Each defaulted parameter of the top-level functions and of the
    methods of top-level classes, as "module.function.parameter" (a class
    names its __init__'s as "module.Class.parameter"), mapped to the name a
    call uses and the parameter's position after self, or None when it is
    keyword-only."""
    out = {}

    def add(fn, qual, is_method):
        a = fn.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        positional = [p.arg for p in a.posonlyargs + a.args][is_method and not static:]
        for pos in range(len(positional) - len(a.defaults), len(positional)):
            out[f"{qual}.{positional[pos]}"] = (qual.rsplit(".", 1)[1], pos)
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out[f"{qual}.{p.arg}"] = (qual.rsplit(".", 1)[1], None)

    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            add(top, f"{module}.{top.name}", False)
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    add(fn, f"{module}.{top.name}", True)
                elif isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    add(fn, f"{module}.{top.name}.{fn.name}", True)
    return out


def _call_shapes(tree: ast.Module) -> set:
    """(name called, positional count or "*", keywords) of every call by a
    name or an attribute; a * or ** argument may pass anything."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out.add((name, "*" if starred else len(node.args),
                     frozenset(k.arg for k in node.keywords)))
    return out


def test_every_defaulted_parameter_has_a_caller():
    params, calls = {}, set()
    for path in sorted((ROOT / "src" / "siltcheck").glob("*.py")):
        tree = ast.parse(path.read_text())
        params.update(_defaulted_parameters(tree, path.stem))
        calls |= _call_shapes(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        calls |= _call_shapes(ast.parse(path.read_text()))
    unpassed = [qual for qual, (callee, pos) in params.items()
                if not any(name == callee and (npos == "*" or qual.rsplit(".", 1)[1] in kws
                                               or pos is not None and npos > pos)
                           for name, npos, kws in calls)]
    assert sorted(unpassed) == sorted(DEFAULTED_BY_DESIGN)


def test_dg_composes_in_one_table_builder():
    # every product of End(U), of its truncation, of H^0 and of their
    # action on hom modules is one after call in dg._composition_tables;
    # any other mention of after in dg.py would be a second route
    tree = ast.parse((ROOT / "src" / "siltcheck" / "dg.py").read_text())
    mentions = {}
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else top.lineno
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "after":
                mentions[name] = mentions.get(name, 0) + 1
    assert mentions == {"_composition_tables": 1}


# the maps out of a projective that have to be matrices: an honest chain
# map into a complex of general modules, the evaluation onto X, the
# evaluation action of End(U) on U, the naturality map g and the map from
# the cycles of U in the canonical sequence
COMPONENT_MAP_CALLERS = {
    "complexes.GradedHom.chain_map_from_cocycle", "verifier._evaluation_chain_map",
    "dg.evaluation_left_module", "verifier.naturality_probe", "verifier._canonical_sequence"}


def test_maps_out_of_a_projective_have_one_form():
    # a map out of e_v A is its generator value: no class or cache keeps the
    # basis maps as matrices, and complexes.yoneda_rows is the one place that
    # expands a value through the Yoneda action into matrix rows, for the
    # component maps of a hom complex element and for the differentials and
    # chain maps of complexes of projectives alike.  A map applies to an
    # element by cutting it along the generators (GradedHom.cut) and acting
    # on the values (apply): every product composes so, and component_maps
    # is called only where a map has to be a matrix.  A complex of
    # projectives keeps its differential as generator values, so the hom
    # complex reads d_X with no cut, and an approximation is handed to its
    # cone as values
    defs, callers = {}, {}
    for path in sorted((ROOT / "src" / "siltcheck").glob("*.py")):
        d, refs = _definitions_and_references(ast.parse(path.read_text()), path.stem)
        defs.update(d)
        for name, attr, owners in refs:
            if name in ("yoneda", "component_maps", "cut", "yoneda_rows") and (
                    attr or name == "yoneda_rows"):
                callers.setdefault(name, set()).add((owners or (path.stem,))[-1])
    assert not [q for q in defs if q.rsplit(".", 1)[-1] == "ProjectiveHoms"]
    assert "algebra.Module.homs_from" not in defs and "algebra.Module.yoneda" in defs
    assert "complexes.GradedHom.basis" not in defs
    assert not [q for q in defs if q.rsplit(".", 1)[-1] in ("postcomposed",
                                                            "_postcomposed_augmentations")]
    assert callers["yoneda"] == {"complexes.yoneda_rows"}
    assert callers["yoneda_rows"] == {"complexes.expand", "complexes.GradedHom.component_maps"}
    assert callers["component_maps"] == COMPONENT_MAP_CALLERS
    assert "complexes.GradedHom.gen_dcomps" not in callers["cut"]
    assert "complexes.Complex.linear_diff" not in defs


def _reads_cell_coordinates(node) -> bool:
    """Whether node is a call x.coords(...) or x.matrix.apply_entries(...)."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and (
        func.attr == "coords" or func.attr == "apply_entries"
        and isinstance(func.value, ast.Attribute) and func.value.attr == "matrix")


def test_only_the_layout_reads_cell_coordinates():
    # complexes.Layout converts between coordinates and cell elements for
    # every object made of cells; resolution_tensor reads the action on a
    # cell of U as a submodule, which no layout holds
    readers = set()
    for path in sorted((ROOT / "src" / "siltcheck").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(_reads_cell_coordinates(node) for node in ast.walk(top)):
                readers.add((path.stem, getattr(top, "name", top.lineno)))
    assert readers == {("complexes", "Layout"), ("semifree", "resolution_tensor")}


PROBES = {"hasattr", "getattr", "setattr", "delattr"}


def _builds_own_instance(value, cls) -> bool:
    """Whether value is cls(...), object.__new__(cls) or cls.__new__(cls),
    with cls the enclosing class or the name cls."""
    if not isinstance(value, ast.Call) or cls is None:
        return False
    func, own = value.func, (cls, "cls")
    if isinstance(func, ast.Name):
        return func.id in own
    return (isinstance(func, ast.Attribute) and func.attr == "__new__" and bool(value.args)
            and isinstance(value.args[0], ast.Name) and value.args[0].id in own)


def _undeclared_structure(tree: ast.Module, module: str) -> list:
    """(line, source) of every attribute probe (hasattr, getattr, setattr,
    delattr), apart from getattr on cli's argparse namespace args, and of
    every assignment to an attribute of an object other than self or to an
    entry of such an attribute, as X._cache[key] = value.  Inside
    a method of a class C, an object the method itself made with C(...),
    cls(...) or object.__new__(C) counts as self: an alternate constructor."""
    found = []

    def visit(node, cls, made):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, set())
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, cls, {t.id for n in ast.walk(child) if isinstance(n, ast.Assign)
                                   and _builds_own_instance(n.value, cls)
                                   for t in n.targets if isinstance(t, ast.Name)})
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in PROBES
                    and not (module == "cli" and child.func.id == "getattr"
                             and isinstance(child.args[0], ast.Name)
                             and child.args[0].id == "args")):
                found.append((child.lineno, ast.unparse(child)))
            targets = (child.targets if isinstance(child, ast.Assign) else
                       [child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Subscript):
                        t = t.value
                    if isinstance(t, ast.Attribute) and not (
                            isinstance(t.value, ast.Name) and t.value.id in {"self"} | made):
                        found.append((child.lineno, ast.unparse(t)))
            visit(child, cls, made)

    visit(tree, None, set())
    return found


def test_the_structure_checker_finds_probes_and_outside_writes():
    bad = ast.parse("def f(X, args):\n    X.summands = []\n    return hasattr(X, 'a')\n"
                    "class C:\n    def g(self, Y):\n        Y.n, self.m = 1, 2\n"
                    "        Y._cache[0] = self._cache[1] = 3\n")
    assert [line for line, _ in _undeclared_structure(bad, "cli")] == [2, 3, 6, 7]
    good = ast.parse("class M:\n    @staticmethod\n    def new():\n"
                     "        m = object.__new__(M)\n        m.rows = ()\n        m._memo[0] = 1\n"
                     "        return m\n"
                     "def main(args):\n    return getattr(args, 'cap')\n")
    assert _undeclared_structure(good, "cli") == []


def test_every_object_declares_its_structure():
    # each object's fields are set by its own class, so its type is read off
    # declared fields: no probe for an attribute, no attribute written from
    # outside
    found = {path.stem: _undeclared_structure(ast.parse(path.read_text()), path.stem)
             for path in sorted((ROOT / "src" / "siltcheck").glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}

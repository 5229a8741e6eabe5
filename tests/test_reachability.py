"""Every function and class in src/sumrank is reached from production.

The roots are the CLI entry points, the `@_recipe` and `@_kind`
registrations, dunder methods, `sumrank.__all__`, the statements a module
runs on import, every name that the benchmark or its tests (`bench/`) read
as a name, an attribute or an import, and each definition whose
`module.qualname` is a whole string there (the span and counter targets); a
word inside other text, such as a docstring, roots nothing, and neither does
an attribute that a builtin type has (`text.encode()` roots no `encode`).  From a reached definition
the walk follows each Name and Attribute in its body; docstrings and other
strings are not followed.  A name reaches every definition of that name,
in any module or class, so the walk can only over-approximate what runs.
Test-only helpers belong in `tests/oracles.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sumrank"

# Public constructors that no production path calls yet.
RESERVED = {"hamming.zero_code", "hamming.bch_binary"}

ENTRY_POINTS = {"cli.main", "cli.run"}
REGISTRARS = {"_recipe", "_kind"}
# attributes of the builtin types, which bench reads on its own values
BUILTIN_ATTRS = {name for kind in (str, bytes, dict, list, set, tuple, int, float, object)
                 for name in dir(kind)}


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _definitions(modules):
    """(qualified name, simple name, node) of each module-level or class-level def."""
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _names(nodes) -> set[str]:
    """The Name ids and Attribute names read anywhere under `nodes`."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _import_time_statements(modules):
    """Statements outside any def: module bodies and class bodies, which run on import."""
    for _, tree in modules:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield from node.decorator_list
                yield from node.bases
                yield from (item for item in node.body if not isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                yield from node.decorator_list
            else:
                yield node


def _bench_roots() -> tuple[set[str], set[str]]:
    """What `bench/` reads: its names, its attributes that no builtin type has, the
    identifiers of its imports, and its strings that are a whole dotted `module.qualname`."""
    names, quals = set(), set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in BUILTIN_ATTRS:
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {part for alias in node.names for part in alias.name.split(".")}
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", node.value)):
                quals.add(node.value)
    return names, quals


def _exported(modules) -> set[str]:
    tree = dict(modules)["__init__"]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("sumrank.__init__ has no __all__")


def unreached(modules=None) -> set[str]:
    """Qualified names of the defs in `modules` (default: src/sumrank's) that no root reaches."""
    modules = _modules() if modules is None else modules
    defs = list(_definitions(modules))
    by_name: dict[str, list[int]] = {}
    for i, (_, name, _) in enumerate(defs):
        by_name.setdefault(name, []).append(i)
    registered = {i for i, (_, _, node) in enumerate(defs)
                  if _names(node.decorator_list) & REGISTRARS}
    dunders = {i for i, (_, name, _) in enumerate(defs)
               if name.startswith("__") and name.endswith("__")}
    bench_names, bench_quals = _bench_roots()
    entry = {i for i, (qual, _, _) in enumerate(defs) if qual in ENTRY_POINTS | bench_quals}
    named = _names(_import_time_statements(modules)) | _exported(modules) | bench_names
    todo = list(registered | dunders | entry) + [i for n in named for i in by_name.get(n, ())]
    seen: set[int] = set()
    while todo:
        i = todo.pop()
        if i in seen:
            continue
        seen.add(i)
        node = defs[i][2]
        if isinstance(node, ast.FunctionDef):  # a class body runs on import: it is a root
            todo += [j for n in _names([node]) for j in by_name.get(n, ())]
    return {qual for i, (qual, _, _) in enumerate(defs) if i not in seen}


def test_src_holds_only_reached_code():
    assert unreached() == RESERVED


def test_a_builtin_attribute_roots_nothing():
    """bench's `text.encode()` reaches no src def named `encode`; bench's own names do."""
    probe = ast.parse("def encode(words):\n    pass\n\n\ndef digest(doc):\n    pass\n")
    assert {"probe.encode", "probe.digest"} & unreached([*_modules(), ("probe", probe)]) == {
        "probe.encode"}

"""Guards against unreached library code.

Every name a library module imports is used in that module (the package's
`__init__` re-exports and is exempt), every private definition is used, and
every public definition is exported, used, or timed by the benchmark.
"""

import ast
import json
import pathlib

SOURCES = sorted(
    path
    for path in (pathlib.Path(__file__).resolve().parents[1] / "src" / "horofan").glob("*.py")
    if path.name != "__init__.py"
)


def annotations(tree: ast.AST):
    """The annotation expressions of a module: of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names bound by a module's imports that nothing else in it refers to, by line.

    A reference is a bare name, which is also the head of an attribute chain,
    in code or in an annotation; a quoted annotation such as "Cone" is parsed
    and read too.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_sources_found():
    assert any(path.name == "dictionary.py" for path in SOURCES)


def test_an_unused_import_is_found():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = 1\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Sequence"]
    assert unused_imports("from __future__ import annotations\nimport os.path\ny = os.path.join\n") == []
    quoted = "from .polyhedra import Cone\ndef f(c: list['Cone']) -> 'Cone':\n    'Cone'\n"
    assert unused_imports(quoted) == []
    docstring_only = "from .polyhedra import Cone\ndef f():\n    'Cone'\n"
    assert unused_imports(docstring_only) == ["line 1: Cone"]


def test_library_modules_use_every_name_they_import():
    found = [f"{path.name} {entry}" for path in SOURCES for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found


# Every private definition is used: a private module-level function or class, or
# a private method, that nothing in the library refers to outside its own body is
# a leftover, dead code that still has to be read.

LIBRARY = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "horofan").glob("*.py"))


def private_definitions(tree: ast.Module):
    """The private functions and classes defined at module level, and the private methods of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        scopes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        for definition in scopes:
            name = getattr(definition, "name", "")
            if isinstance(definition, kinds) and name.startswith("_") and not name.startswith("__"):
                yield definition


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """The private definitions of these modules that no code in any of them names outside the definition itself.

    A name is referred to by a bare name or an attribute, in code; a name in
    a string, a docstring included, is no reference.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    ]
    dead = []
    for module, tree in trees.items():
        for definition in private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                getattr(node, "id", None) == definition.name or getattr(node, "attr", None) == definition.name
                for node in references
                if id(node) not in inside
            ):
                dead.append(f"{module} line {definition.lineno}: {definition.name}")
    return dead


def test_a_dead_definition_is_found():
    source = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return _dead()\n"
        "class _Box:\n"
        "    def _kept(self):\n        return _used()\n"
        "    def _unused(self):\n        '''_unused, _Gone'''\n        return self._kept()\n"
        "    def __repr__(self):\n        return ''\n"
        "class _Gone:\n    pass\n"
        "box = _Box()\n"
    )
    assert dead_definitions({"m.py": source}) == ["m.py line 3: _dead", "m.py line 8: _unused", "m.py line 13: _Gone"]
    assert dead_definitions({"a.py": "def _helper():\n    pass\n", "b.py": "from a import _helper\n_helper()\n"}) == []


def test_library_has_no_dead_private_definitions():
    assert not dead_definitions({path.name: path.read_text(encoding="utf-8") for path in LIBRARY})


# Every public definition is reached: a public module-level function or class is
# exported by the package, named by library code outside its own body, or timed
# by a per-layer metric of the benchmark.  Anything else is a second route that
# only the tests walk.

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def exported_names(init_source: str) -> set[str]:
    """`module.name` for each name the package's `__init__` imports from one of its modules."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def timed_functions(benchmark: dict) -> set[str]:
    """`module.name` for each function a per-layer metric times: `ratlp.maximize.calls` times `ratlp.maximize`."""
    return {".".join(parts[:2]) for parts in (m["name"].split(".") for m in benchmark["per_layer"]) if len(parts) > 2}


def unreached_definitions(sources: dict[str, str], exported: set[str], timed: set[str]) -> list[str]:
    """The public module-level functions and classes that are neither exported, named outside their body, nor timed.

    A name is referred to by a bare name or an attribute, in code of any of
    these modules; a name in a string, a docstring included, is no reference.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    ]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreached = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, kinds) or definition.name.startswith("_"):
                continue
            qualified = f"{module.removesuffix('.py')}.{definition.name}"
            if qualified in exported or qualified in timed:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                getattr(node, "id", None) == definition.name or getattr(node, "attr", None) == definition.name
                for node in references
                if id(node) not in inside
            ):
                unreached.append(f"{module} line {definition.lineno}: {definition.name}")
    return unreached


def test_an_unreached_definition_is_found():
    source = (
        "def used():\n    return 1\n"
        "def shown():\n    pass\n"
        "def timed():\n    pass\n"
        "def lonely():\n    '''used'''\n    return lonely()\n"
        "class Box:\n    def method(self):\n        return used()\n"
        "class Orphan:\n    pass\n"
    )
    sources = {"m.py": source, "n.py": "import m\nm.Box()\n"}
    assert unreached_definitions(sources, {"m.shown"}, {"m.timed"}) == ["m.py line 7: lonely", "m.py line 13: Orphan"]
    assert exported_names("from .m import shown, Box\nfrom . import n\nimport os\n") == {"m.shown", "m.Box"}
    metrics = {"per_layer": [{"name": "m.calls"}, {"name": "m.timed.calls"}, {"name": "m.Box.make.calls"}]}
    assert timed_functions(metrics) == {"m.timed", "m.Box"}


def test_library_has_no_unreached_public_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in LIBRARY}
    exported = exported_names(sources["__init__.py"])
    timed = timed_functions(json.loads(BENCHMARK.read_text(encoding="utf-8")))
    assert not unreached_definitions(sources, exported, timed)

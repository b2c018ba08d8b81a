"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import wordlogic

MODULES = sorted(p for p in Path(wordlogic.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(tree) -> list:
    """Names a module imports and never mentions again."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "from re import match, sub\nnp.zeros(match)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "sub")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def private_imports(tree) -> list:
    """(line, name) of every ``_private`` name a module imports from another
    module of the package."""
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or node.module.split(".")[0] == "wordlogic")
                  for alias in node.names if alias.name.startswith("_"))


def test_private_imports_are_found():
    tree = ast.parse("from .logic import _atom, parse\nfrom os import _exit\n"
                     "from wordlogic.regular import _rows\n"
                     "if 1:\n    from . import _caps\n")
    assert private_imports(tree) == [(1, "_atom"), (3, "_rows"), (5, "_caps")]


@pytest.mark.parametrize("path", MODULES + [Path(wordlogic.__file__)],
                         ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def is_private(name) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree) -> set:
    """The ``_private`` names a module defines: its functions, methods and
    classes, the names it assigns at module or class level, and the
    attributes it assigns to."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for body in [tree.body] + [node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef)]:
        for stmt in body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store))
    return set(filter(is_private, names))


def private_reads(tree, foreign) -> list:
    """(line, name) of every read of an attribute named in ``foreign``."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load) and node.attr in foreign)


def test_private_reads_are_found():
    owner = ast.parse("class A:\n    _x: int = 0\n    _t = 1\n"
                      "    def _m(self):\n        self._y = self.__len__()\n")
    assert private_definitions(owner) == {"_x", "_t", "_m", "_y"}
    reader = ast.parse("def f(a):\n    a._z = a._x\n"
                       "    return a._m() + a._z + a.__len__() + a._w\n")
    foreign = private_definitions(owner) - private_definitions(reader)
    assert private_reads(reader, foreign) == [(2, "_x"), (3, "_m")]


DEFINITIONS = {p: private_definitions(ast.parse(p.read_text(encoding="utf-8")))
               for p in MODULES + [Path(wordlogic.__file__)]}


@pytest.mark.parametrize("path", list(DEFINITIONS), ids=lambda p: p.name)
def test_no_module_reads_a_private_attribute_another_module_defines(path):
    # a name the module defines itself may be read, even if another module
    # defines the same name
    foreign = set().union(*(names for other, names in DEFINITIONS.items()
                            if other != path)) - DEFINITIONS[path]
    assert private_reads(ast.parse(path.read_text(encoding="utf-8")), foreign) == []


def assert_statements(tree) -> list:
    """Lines of ``assert`` statements, which ``python -O`` strips."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_assert_statements_are_found():
    assert assert_statements(ast.parse("x = 1\nassert x\nif x:\n    assert x, 'y'\n")) \
        == [2, 4]


@pytest.mark.parametrize("path", MODULES + [Path(wordlogic.__file__)],
                         ids=lambda p: p.name)
def test_no_correctness_guard_is_a_bare_assert(path):
    assert assert_statements(ast.parse(path.read_text(encoding="utf-8"))) == []


def assertion_raises(tree) -> list:
    """Lines that raise AssertionError, which reads as a bare assert."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                           if isinstance(n, ast.Name)})


def test_assertion_raises_are_found():
    tree = ast.parse("raise AssertionError('x')\nraise ValueError\n"
                     "if 1:\n    raise AssertionError\n")
    assert assertion_raises(tree) == [1, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_guard_raises_assertion_error(path):
    assert assertion_raises(ast.parse(path.read_text(encoding="utf-8"))) == []


def environment_reads(tree) -> list:
    """(enclosing top-level definition or None, line) of every mention of
    ``from_env``, ``environ`` or ``getenv``."""
    reads = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            field = {ast.Name: "id", ast.Attribute: "attr",
                     ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) in ("from_env", "environ", "getenv"):
                reads.append((owner, node.lineno))
    return reads


def test_environment_reads_are_found():
    tree = ast.parse("import os\nfrom os import environ\ndef f():\n"
                     "    return os.environ.get('X')\nclass C:\n"
                     "    c = caps.from_env()\ny = os.getenv('Y')\n")
    assert environment_reads(tree) == [(None, 2), ("f", 4), ("C", 6),
                                       (None, 7)]


# caps.from_env parses WORDLOGIC_CAPS; only the command line calls it
ENVIRONMENT_READERS = {"caps.py": {"from_env"}, "cli.py": {"main"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_command_line_reads_the_environment(path):
    owners = {owner for owner, _ in
              environment_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert owners <= ENVIRONMENT_READERS.get(path.name, set())


REFUSALS = ("CapExceeded", "BoundTooSmall", "InvariantViolated")


def refusals_without_stage(tree) -> list:
    """Lines that raise a size or bound refusal, or a failed consistency
    check, without a ``stage=`` keyword naming the construction that
    reached the limit or failed."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  and isinstance(node.exc, ast.Call)
                  and getattr(node.exc.func, "id", None) in REFUSALS
                  and "stage" not in {k.arg for k in node.exc.keywords})


def test_refusals_without_stage_are_found():
    tree = ast.parse("raise CapExceeded('x', cap=3)\n"
                     "raise CapExceeded('x', stage='s', cap=3)\n"
                     "if 1:\n    raise BoundTooSmall('y', bound=2)\n"
                     "raise ParseError('z')\n"
                     "raise InvariantViolated('w')\n"
                     "raise InvariantViolated('w', stage='s')\n")
    assert refusals_without_stage(tree) == [1, 4, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_refusal_names_its_stage(path):
    assert refusals_without_stage(ast.parse(path.read_text(encoding="utf-8"))) == []


#: the line count of ``src/wordlogic/*.py`` (as ``wc -l`` counts) may not
#: pass this ceiling; like the time budgets of the acceptance tests, it may
#: only go down, so lower it whenever the package shrinks
SRC_LINE_CEILING = 5902


def test_src_does_not_grow():
    paths = MODULES + [Path(wordlogic.__file__)]
    lines = sum(p.read_text(encoding="utf-8").count("\n") for p in paths)
    assert lines <= SRC_LINE_CEILING, \
        f"src/wordlogic has {lines} lines, above the ceiling of {SRC_LINE_CEILING}"

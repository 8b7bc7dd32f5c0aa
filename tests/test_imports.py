"""Import rules for the modules of src/bsideal, read with `ast`.

Every name a module imports is used in it.  No linter is installed, so an
imported name must appear in the module as a `Name`, which covers the base
of an attribute chain such as ``math.comb``.  ``from __future__ import
annotations`` is exempt, and so is ``__init__.py``, whose imports are the
package's exports.

One module renders the report: only ``cli`` and ``polynomials``, where the
polynomial printers live beside `parse_poly`, import a printer or the
parameter names.
"""

import ast
import os

import bsideal

PACKAGE = os.path.dirname(os.path.abspath(bsideal.__file__))
PRINTERS = {"format_poly", "format_terms", "format_operator", "scalar_text", "s_names"}
RENDERERS = {"cli.py", "polynomials.py"}


def modules():
    """(file name, source) of every module of the package."""
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                yield fname, fh.read()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def printer_imports(source: str) -> list[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return sorted(names & PRINTERS)


def test_unused_imports_are_found():
    source = "from operator import attrgetter, mul\nimport math\nmath.comb(mul(1, 2), 1)\n"
    assert unused_imports(source) == ["attrgetter"]


def test_every_import_is_used():
    unused = {}
    for fname, source in modules():
        if fname != "__init__.py" and (names := unused_imports(source)):
            unused[fname] = names
    assert unused == {}


def test_printer_imports_are_found():
    source = "from .polynomials import MPoly, format_poly\nfrom .cli import format_operator as f\n"
    assert printer_imports(source) == ["format_operator", "format_poly"]


def test_only_the_renderer_imports_printers():
    found = {}
    for fname, source in modules():
        if fname not in RENDERERS and (names := printer_imports(source)):
            found[fname] = names
    assert found == {}

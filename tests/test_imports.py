"""Every name a module of src/bsideal imports is used in it.

No linter is installed, so this reads each module with `ast`: an imported
name must appear in the module as a `Name`, which covers the base of an
attribute chain such as ``math.comb``.  ``from __future__ import
annotations`` is exempt, and so is ``__init__.py``, whose imports are the
package's exports.
"""

import ast
import os

import bsideal

PACKAGE = os.path.dirname(os.path.abspath(bsideal.__file__))


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


def test_unused_imports_are_found():
    source = "from operator import attrgetter, mul\nimport math\nmath.comb(mul(1, 2), 1)\n"
    assert unused_imports(source) == ["attrgetter"]


def test_every_import_is_used():
    unused = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                if names := unused_imports(fh.read()):
                    unused[fname] = names
    assert unused == {}

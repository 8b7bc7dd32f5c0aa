"""README's library session runs as written."""

import ast
import contextlib
import io
import os
import re

import bsideal

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def session():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    found = re.search(r"A small session:\s*```python\n(.*?)```", text, re.S)
    assert found is not None
    return found.group(1)


def test_small_session_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(session(), "README.md", "exec"), {})
    assert out.getvalue() == "s^2 + 2*s + 1\n"


def test_package_exports_only_what_the_session_imports():
    # everything else is imported from its submodule
    imported = {
        alias.name
        for node in ast.walk(ast.parse(session()))
        if isinstance(node, ast.ImportFrom) and node.module == "bsideal"
        for alias in node.names
    }
    with open(bsideal.__file__, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    bound = {
        alias.asname or alias.name
        for node in body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets}
    assert bound - {"__version__"} == imported

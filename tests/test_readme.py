"""README's library session runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_small_session_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    session = re.search(r"A small session:\s*```python\n(.*?)```", text, re.S)
    assert session is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(session.group(1), "README.md", "exec"), {})
    assert out.getvalue() == "s^2 + 2*s + 1\n"

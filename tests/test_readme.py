"""README's library example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1].endswith("pass")

"""The README's Python example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Python example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_example(), str(README), "exec"), {})
    ids, diversity = out.getvalue().rsplit("] ", 1)
    assert ids.count("cand-") == 8
    assert float(diversity) > 0.0

"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    # Each print's comment up to an " == " gloss is the line it writes.
    expected = [line.split("#", 1)[1].split(" == ")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["(x2^2 + x3^2)/(x1^2 + x2^2 + x3^2)", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected

"""README's Quickstart block runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code():
    section = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_what_its_comments_say():
    """Each print's output equals its comment; a comment ending in ", ...]" gives a prefix."""
    code = quickstart_code()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    assert "(2, 3, 4, 5, 6, 7, 8, 9)" in comments
    for line, comment in zip(printed, comments):
        if comment.endswith(", ...]"):
            assert line.startswith(comment.removesuffix(", ...]"))
        else:
            assert line == comment

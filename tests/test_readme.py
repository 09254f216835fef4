"""README's quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Quick start"
    return match.group(1)


def _matches(expected: str, actual: str) -> bool:
    """Token by token; a token ending in '...' matches any continuation."""
    want, got = expected.split(), actual.split()
    return len(want) == len(got) and all(
        g.startswith(w[:-3]) if w.endswith("...") else g == w for w, g in zip(want, got)
    )


def test_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected, "quick start has no commented print lines"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for want, got in zip(expected, printed):
        assert _matches(want, got), f"README says {want!r}, code printed {got!r}"

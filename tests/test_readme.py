"""The README's library sketch runs and prints what its comments claim."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_prints_its_claims():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), str(README), "exec"), {})
    fitted, same_and_passed, monotone, residual = out.getvalue().splitlines()
    assert abs(float(fitted) - 6.0 / 7.0) <= 0.1
    assert round(float(fitted), 2) == 0.92
    assert same_and_passed == "True True"
    assert monotone == "True"
    assert float(residual) < 1e-5

"""README's library quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
RELATION = "X[1] + X[2] - X[1]*X[2]*U[1][1] + X[1]*X[2]*Y[1]*U[2][2] - X[1]*X[2]*Y[1]*U[3][2]"


def test_quick_start_prints_the_relation_it_shows():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    # the block shows its one printed line as the comment under the print
    assert f"print(g.to_polynomial())\n# {RELATION}\n" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == RELATION + "\n"

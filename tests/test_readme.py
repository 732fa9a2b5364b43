"""The README's Python examples run as written.

Every ```python block of README.md is executed in a fresh namespace, and
each line it prints must appear in the block as a `# ` comment, so that
an API change cannot leave the Quick tour stale without a failure here.
"""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    block = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    comments = {line.strip() for line in block.splitlines()}
    for line in out.getvalue().splitlines():
        assert f"# {line}" in comments, line

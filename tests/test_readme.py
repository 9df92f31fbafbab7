"""The README's ``python`` blocks run as written, in order, in one namespace.

A line that ends in ``# <ErrorName>`` (a class of :mod:`depthprune.errors`
or a builtin exception) is one statement that must raise that error.
"""

import builtins
import re
from pathlib import Path

import pytest

from depthprune import errors

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
RAISES = re.compile(r"^(?P<code>[^#\s].*?)\s+# (?P<error>[A-Z]\w*)$")


def _run(lines, namespace):
    exec(compile("\n".join(lines), str(README), "exec"), namespace)


def test_readme_python_blocks_run():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        pending = []
        for line in block.splitlines():
            match = RAISES.match(line)
            if match is None:
                pending.append(line)
                continue
            _run(pending, namespace)
            pending = []
            name = match["error"]
            with pytest.raises(getattr(errors, name, None) or getattr(builtins, name)):
                _run([match["code"]], namespace)
        _run(pending, namespace)

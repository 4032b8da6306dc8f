"""The package's public surface: every exported name has a use outside the tests."""

import ast
import re
from pathlib import Path

import ergodic_vc

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(ergodic_vc.__file__)


def _non_test_lines():
    """Lines of src/ (but ``__init__``), demos/ and bench/ (but its tests)."""
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.samefile(INIT) or "tests" in path.relative_to(ROOT).parts:
                continue
            yield from path.read_text().splitlines()


def test_every_reexported_name_has_a_non_test_caller():
    """Each name ``__init__`` imports appears as a word on some line outside
    its own def or class line, so none is kept alive by tests alone."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set()
    for line in _non_test_lines():
        words = set(re.findall(r"\w+", line))
        defined = re.match(r"\s*(?:def|class)\s+(\w+)", line)
        if defined:
            words.discard(defined.group(1))
        used |= words
    assert [name for name in exported if name not in used] == []

"""The package's public surface: every exported name has a use outside the
tests, and importing it loads nothing a serial CLI call does not use."""

import ast
import os
import re
import subprocess
import sys
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


def test_cli_import_needs_neither_jsonschema_nor_the_process_pool():
    """A fresh interpreter imports the package and its CLI without loading
    jsonschema (a test dependency), the pool module (loaded by fan_out) or
    the suite (loaded by the ``suite`` subcommand)."""
    probe = (
        "import sys, ergodic_vc, ergodic_vc.cli; print([m for m in "
        "('jsonschema', 'concurrent.futures.process', 'ergodic_vc.suite') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(INIT.parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

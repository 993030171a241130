"""Every ``examples/*.py`` runs to completion.

The examples read engine and record internals (HCVT rows, the link
table, record stats), so a refactor that renames one of those breaks
them without failing any other test.  Each example runs in its own
interpreter with ``PYTHONPATH=src``; ``TMPDIR`` points into the test's
``tmp_path`` because ``library_startup.py`` and
``shared_library_cache.py`` write under ``tempfile.gettempdir()`` and the
second never removes its directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(tmp_path),
        PYTHONDONTWRITEBYTECODE="1",
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=100,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr

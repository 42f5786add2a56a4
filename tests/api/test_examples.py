"""Every example runs: each ``examples/*.py`` is started as a user would
start it, in its own interpreter, and must exit 0.

The examples print their own checks; a deletion or an API change that
breaks one fails here, not in a user's terminal.  All seven take a few
seconds together.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(example):
    done = subprocess.run(
        [sys.executable, str(example)],
        cwd=REPO, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, (
        f"{example.name} exited {done.returncode}:\n{done.stderr[-4000:]}"
    )

"""Every demo script, and the README's quick start, runs to completion
against the package in src/.

They use the public API end to end, so a deleted or renamed public name
fails here even where no unit test imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_quick_start() -> str:
    """The README's `python` quick-start block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = {d.stem: [str(d)] for d in DEMOS}
SCRIPTS["readme_quick_start"] = ["-c", _readme_quick_start()]


@pytest.mark.parametrize("argv", SCRIPTS.values(), ids=SCRIPTS.keys())
def test_demo_runs(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

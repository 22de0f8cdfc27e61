"""The quick examples run to completion against the current API.

Each example is a standalone script; it runs here in a subprocess, as a
reader would run it (``python examples/<name>.py``), and must exit 0.
The heavier examples (1M objects, worker pools) stay out of this suite.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["quickstart.py", "territory_analysis.py"])
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

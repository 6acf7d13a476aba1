"""Each walkthrough in demos/ runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

import holant

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holant.__file__)))
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env, timeout=300)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr

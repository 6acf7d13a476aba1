"""The traced benchmark run wraps the engine from outside: its entry points
must stay plain module attributes that ``perfbench/tracer.py`` can replace."""

import os
import subprocess
import sys

import holant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(holant.__file__)))

SCRIPT = """
import sys
from fractions import Fraction
sys.path.insert(0, "perfbench")
import tracer
rec = tracer.install()
import holant
inst = holant.build_model(holant.ModelSpec("matchings", {}), holant.grid_graph(3, 5))
assert holant.fptas_hol(inst, Fraction(1, 10), holant.RadiusPolicy.whole_graph()).value == 5096
print(rec.span_table()["approx.marginal"][0])
"""


def test_tracer_installs_and_records_marginal_spans():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert "RuntimeError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0

import glob
import os
import subprocess
import sys

import pytest

import picontrol

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_and_exits_0(demo, tmp_path):
    # the package this suite imports, and a temp dir the test removes
    src = os.path.dirname(os.path.dirname(picontrol.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]

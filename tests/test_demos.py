"""Every demo runs to completion.

The demos read public names that a simplification could remove, such as
``Graph.edge_count`` and ``check_moment_assumption``. Each one runs in a
fresh working directory, because demos 03 and 04 write CSV files there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdpgtest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(rdpgtest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout

"""Every demo script runs to completion and prints something.

Each demo runs in its own interpreter with ``src`` on PYTHONPATH, the way
the README tells a reader to run them, and with TMPDIR pointed at the
test's temporary directory so demos that write files leave nothing behind
elsewhere; a demo's own work directory must be gone when it exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert not list(tmp_path.glob("hdbprep_demo_*")), "demo left its work directory"

"""Starting the command line stays cheap.

Every command starts a fresh interpreter, so what `import hdbprep.cli`
loads is paid on each run. The `dataclasses` module alone loads `inspect`,
`ast`, `dis` and `tokenize`, and generates each class's methods with
`exec`; the synthetic generator is imported by `hdbprep synth` alone.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_generator():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, hdbprep.cli; print(' '.join(sorted("
         "name for name in ('dataclasses', 'inspect', 'hdbprep.synth') if name in sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []

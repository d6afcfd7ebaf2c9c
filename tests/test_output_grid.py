"""Smoke test of tools/output_grid.py, the byte-identity grid."""

import importlib.util
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CASES = ["s3-letters-years-anomalies-continuous/run/plain",
         "fault-unknown-letter-after-bad-age/aggregate/sentinel",
         "shuffled-s3-numeric-years-clean-continuous/run/dmp"]

spec = importlib.util.spec_from_file_location("output_grid", ROOT / "tools" / "output_grid.py")
output_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_grid)


def interpreter(version):
    """The path of ``python<version>`` on PATH if it runs and reports that
    version, else None."""
    path = shutil.which(f"python{version}")
    if path is None:
        return None
    done = subprocess.run([path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                          capture_output=True, text=True, timeout=60)
    return path if done.returncode == 0 and done.stdout.strip() == version else None


def test_source_tree_matches_itself(capsys):
    assert output_grid.main([str(SRC), str(SRC), *(f"--case={case}" for case in CASES)]) == 0
    assert capsys.readouterr().out == "3 corpora, 0 differ; 3 cases, 0 differ\n"


def test_a_changed_output_byte_is_reported(tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    model = changed / "hdbprep" / "model.py"
    model.write_text(model.read_text().replace('NO_CHIEF_LABEL = "XXX"', 'NO_CHIEF_LABEL = "YYY"'))
    assert output_grid.main([str(SRC), str(changed), f"--case={CASES[0]}"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"DIFF {CASES[0]}: file households.csv, file labelgender.txt "
                          "(exit 0 -> 0)\n")
    assert out.endswith("1 corpora, 0 differ; 1 cases, 1 differ\n")


def test_a_changed_corpus_byte_is_reported(tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    synth = changed / "hdbprep" / "synth.py"
    synth.write_text(synth.read_text().replace('region_tok + " x"', 'region_tok + " y"'))
    assert output_grid.main([str(SRC), str(changed), f"--case={CASES[0]}"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"DIFF corpus {CASES[0].split('/')[0]}: file region.txt\n"
                          f"DIFF {CASES[0]}: file households.csv, file identhousehold.txt, "
                          "file labelregion.txt (exit 0 -> 0)\n")
    assert out.endswith("1 corpora, 1 differ; 1 cases, 1 differ\n")


def test_the_change_side_runs_under_the_given_interpreter(tmp_path, capsys):
    log = tmp_path / "calls.log"
    python = tmp_path / "python"
    python.write_text(f'#!/bin/sh\necho "$@" >> {shlex.quote(str(log))}\n'
                      f'exec {shlex.quote(sys.executable)} "$@"\n')
    python.chmod(0o755)
    assert output_grid.main([str(SRC), str(SRC), f"--case={CASES[0]}",
                             f"--python={python}"]) == 0
    assert capsys.readouterr().out == "1 corpora, 0 differ; 1 cases, 0 differ\n"
    # the change side's synth and its one case; the parent side keeps its own
    calls = log.read_text().splitlines()
    assert [call.split()[:3] for call in calls] == [["-m", "hdbprep.cli", "synth"],
                                                     ["-m", "hdbprep.cli", "run"]]
    assert "/corpora/change/" in calls[0] and "/out/0-change" in calls[1]


def test_a_stopped_grid_removes_its_work_directory(tmp_path):
    argv = [sys.executable, str(ROOT / "tools" / "output_grid.py"), str(SRC), str(SRC),
            f"--case={CASES[0]}"]
    with subprocess.Popen(argv, env=dict(os.environ, TMPDIR=str(tmp_path)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as grid:
        try:
            # the grid is building its first corpus inside its work directory
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("output_grid_*/corpora")):
                assert grid.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            grid.send_signal(signal.SIGTERM)
            assert grid.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            if grid.poll() is None:
                grid.kill()
    assert not list(tmp_path.glob("output_grid_*"))


def test_a_failing_synth_is_reported_as_a_differing_corpus(tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "hdbprep" / "cli.py"
    head = "def _cmd_synth(args: argparse.Namespace) -> int:\n"
    cli.write_text(cli.read_text().replace(
        head, head + '    print("synth broken", file=sys.stderr)\n    return 2\n'))
    assert output_grid.main([str(SRC), str(changed), *(f"--case={case}" for case in CASES)]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    corpora = sorted({case.split("/")[0] for case in CASES})
    assert lines == [f"DIFF corpus {name}: change synth exit 2: synth broken"
                     for name in corpora] + ["3 corpora, 3 differ; 3 cases, 3 differ"]


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_another_interpreter_gives_the_same_outputs(version, capsys):
    # the fault case and the shuffled-table case, the change side under it
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no working python{version} on PATH")
    assert output_grid.main([str(SRC), str(SRC), f"--python={python}",
                             *(f"--case={case}" for case in CASES[1:])]) == 0
    assert capsys.readouterr().out == "2 corpora, 0 differ; 2 cases, 0 differ\n"

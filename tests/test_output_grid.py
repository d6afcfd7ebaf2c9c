"""Smoke test of tools/output_grid.py, the byte-identity grid."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CASES = ["s3-letters-years-anomalies-continuous/run/plain",
         "fault-unknown-letter-after-bad-age/aggregate/sentinel",
         "shuffled-s3-numeric-years-clean-continuous/run/dmp"]

spec = importlib.util.spec_from_file_location("output_grid", ROOT / "tools" / "output_grid.py")
output_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_grid)


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

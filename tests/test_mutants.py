"""`tools/mutants.py`'s list stays in step with the code: each mutant's
old text occurs exactly once in its file, and each of its test node ids
names a test file that exists. Running the mutants is the tool's job."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        assert (ROOT / node.partition("::")[0]).is_file(), node

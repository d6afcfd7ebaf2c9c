"""The code table: the README lists it, and the source raises only its codes."""

import ast
import re
from pathlib import Path

from hdbprep.errors import CODES, HdbError

ROOT = Path(__file__).resolve().parent.parent


def test_readme_table_equals_codes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Errors and warnings\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| (.+) \|$", section, re.MULTILINE)
    assert [(code, int(exit_code), meaning) for code, exit_code, meaning in rows] == [
        (code, exit_code, meaning) for code, (exit_code, meaning) in CODES.items()]


def test_source_raises_and_warns_with_table_codes():
    # a warning is an HdbError appended to the warnings list, never raised
    used = set()
    for path in sorted((ROOT / "src" / "hdbprep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        collected = {id(node.args[0]) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "append" and node.args}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "HdbError"):
                first = node.args[0]
                assert isinstance(first, ast.Constant), f"{path.name}:{node.lineno}"
                assert first.value in CODES, f"{path.name}:{node.lineno}: {first.value}"
                warning = id(node) in collected
                assert (CODES[first.value][0] == 0) == warning, f"{path.name}:{node.lineno}"
                used.add(first.value)
    assert used == set(CODES)


def test_exit_code_is_read_from_the_table():
    error = HdbError("NOT_UTF8", "bytes b'\\xe9' are not valid UTF-8", source="a.txt", line=6)
    assert error.exit_code == 1
    assert str(error.at(stage="ingest")) == (
        "[ingest] NOT_UTF8 (a.txt:6): bytes b'\\xe9' are not valid UTF-8")
    assert HdbError("ERROR", "config file is not valid UTF-8").exit_code == 2

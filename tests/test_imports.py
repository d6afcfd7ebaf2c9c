"""The package's imports: starting the command line stays cheap, no
module imports a name it does not use, no private helper goes without a
caller, and the package and the test oracle stay apart.

Every command starts a fresh interpreter, so what `import hdbprep.cli`
loads is paid on each run. The `dataclasses` module alone loads `inspect`,
`ast`, `dis` and `tokenize`, and generates each class's methods with
`exec`; the synthetic generator is imported by `hdbprep synth` alone.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


def module_level_imports(nodes):
    """The import statements among ``nodes``, looking into ``if`` and
    ``try`` blocks but not into functions or classes."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            yield from module_level_imports(ast.iter_child_nodes(node))


def test_no_module_level_import_goes_unused():
    unused = []
    for path in sorted((SRC / "hdbprep").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        for node in module_level_imports(tree.body):
            if (getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def imported_modules(path):
    """The top-level name of every module that ``path`` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_oracle_imports_nothing_from_the_package():
    assert "hdbprep" not in set(imported_modules(TESTS / "oracle.py"))


def test_no_package_module_imports_from_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    found = [f"{path.name}: {name}" for path in sorted((SRC / "hdbprep").glob("*.py"))
             for name in imported_modules(path) if name in test_modules]
    assert found == []


def referenced_names(node):
    """Every name that ``node`` and the nodes under it use: a name read or
    bound, an attribute, or a name imported from a module."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_every_private_helper_has_a_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "hdbprep").glob("*.py"))]
    uses = Counter(name for tree in trees for name in referenced_names(tree))
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and uses[node.name] == Counter(referenced_names(node))[node.name]]
    assert unused == []

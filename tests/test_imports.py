"""No module under ``src/curvlab`` or ``tests`` imports a name it never uses,
and importing the command line stays cheap.

An import that nothing reads keeps a dependency alive after its last caller
is gone, so deleted code leaves no trace in the imports.  Names listed in a
module's ``__all__`` are its re-exports and count as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import curvlab

SRC = Path(curvlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by a string annotation such as ``-> "Tensor4"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read there."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in ast.walk(node.args):
                if isinstance(arg, ast.arg) and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Mapping, Sequence\n\nx: Sequence = ()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Mapping"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from a import T\ndef f() -> 'T': pass\n") == []


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[f"{path.parent.name}/{path.name}"] = names
    assert found == {}


def test_cli_import_leaves_out_dataclasses():
    """Every ``curvlab`` command is a fresh process, and ``dataclasses`` pulls
    in ``inspect``, ``ast`` and ``dis``: several milliseconds of each start."""
    script = "import sys, curvlab.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

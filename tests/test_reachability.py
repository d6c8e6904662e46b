"""Every function under ``src/curvlab`` is reached by a command or a benchmark entry point.

A fixed set of command lines, and the entry points ``perfbench`` calls in
process, run under ``sys.setprofile``; the test fails on any ``def`` that none
of them enters.  A function that only tests call is not part of the program:
move it to ``tests/oracles.py`` or delete it.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import curvlab
from curvlab import cli, curvature, tensors
from curvlab.cli import main
from curvlab.spaces import generating_set, lie_algebra_basis, make_standard, random_lie_elements
from test_cli import _break_lie_basis

SRC = Path(curvlab.__file__).resolve().parent

# sec5 needs n >= 6, so at n = 4 it is a bad request
CLAIM_CODES_N4 = {
    "thm4.1": 0, "thm4.2": 0, "thm1.5": 0, "sec5": 2, "eq4c": 0, "eq4d": 0, "lemma4.9": 0,
}

# (argv, expected exit code)
COMMANDS = [
    *((["verify", claim, "--n", "4", "--kind", kind], code)
      for kind in ("complex", "para") for claim, code in CLAIM_CODES_N4.items()),
    *((["dims", "--n", "4", "--kind", kind], 0) for kind in ("complex", "para", "none")),
    (["dims", "--n", "4", "--kind", "complex", "--format", "md"], 0),
    (["verify", "thm1.5", "--n", "4", "--kind", "para", "--format", "md"], 0),
    (["dims", "--n", "4", "--kind", "complex", "--sig", "2,2"], 0),
    (["verify", "thm4.2", "--n", "4", "--kind", "para", "--eps=-,+,-,+"], 0),
    (["verify", "sec5", "--n", "6"], 0),
    *((["eval", "sigma", "--n", "4", "--psi", form], 0) for form in ("omega", "opposed", "aligned")),
    # psi_map takes only opposed forms: the others fail its input check
    *((["eval", "psi", "--n", "4", "--psi", form], 0 if form == "opposed" else 2)
      for form in ("omega", "opposed", "aligned")),
    (["eval", "psi", "--n", "4"], 0),
    *((["eval", "invariant", "--n", "4", "--tensor", t, "--word", w], 0)
      for t, w in (("hxh", "00"), ("omegaxomega", "11"))),
    (["eval", "nijenhuis", "--n", "4"], 0),
    (["eval", "nijenhuis", "--n", "4", "--kind", "para", "--plane", "1,2", "--rotation", "hyperbolic"], 0),
    (["eval", "nijenhuis", "--n", "4", "--slope", "0"], 0),
    (["sweep", "--ns", "4", "--kinds", "complex", "--claims", "thm4.2,sec5", "--format", "md"], 0),
]


def _defined() -> set[tuple[str, str]]:
    """(file name, qualified name) of every ``def`` under ``src/curvlab``."""
    out = set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((path.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return out


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _benchmark_entry_points() -> None:
    """What the benchmark's certificate workloads call in process."""
    space = make_standard(4, "complex")
    extra = {"O": random_lie_elements(space, "O", 1), "Ustar": random_lie_elements(space, "U", 1)}
    for name, sub in curvature.build_catalog(space).all_spaces():
        group = "O" if name in ("affine", "weyl", "riemann", "conformal", "sigma_image") else "Ustar"
        assert curvature.invariance_witness(sub, space, group, extra_lie=extra[group]) is None


def test_every_def_is_reached(monkeypatch):
    # a catalog, Lie basis, generating set, grouping of the rank-2 coordinates
    # or parser left by another test would skip its builders
    cli._build_parser.cache_clear()
    tensors._pair_groups.cache_clear()
    curvature.catalog.cache_clear()
    lie_algebra_basis.cache_clear()
    generating_set.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exits = [(argv, _run(argv), want) for argv, want in COMMANDS]
        _benchmark_entry_points()
        with monkeypatch.context() as patch:
            _break_lie_basis(patch)  # the failure path: eq4d on a module that is not invariant
            exits.append((["verify", "eq4d", "--n", "4"], _run(["verify", "eq4d", "--n", "4"]), 1))
    finally:
        sys.setprofile(None)
        curvature.catalog.cache_clear()

    assert [(argv, got) for argv, got, want in exits if got != want] == []
    entered = {(Path(c.co_filename).name, c.co_qualname) for c in codes
               if Path(os.path.realpath(c.co_filename)).parent == SRC}
    unreached = sorted(f"{name}: {qualname}" for name, qualname in _defined() - entered)
    assert not unreached, "no command reaches:\n" + "\n".join(unreached)

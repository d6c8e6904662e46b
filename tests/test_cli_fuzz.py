"""The exit-code contract of ``main(argv)`` under generated command lines.

Any ``dims``, ``verify`` or ``eval`` command at n = 2..6, in every kind,
with well-formed and malformed ``--sig``, ``--eps``, ``--perm``, ``--word``
and map arguments, and any ``sweep`` over well-formed and malformed
``--ns``, ``--kinds`` and ``--claims`` lists, exits 0, 1, 2 or 3.  No
exception escapes ``main`` except argparse's ``SystemExit(2)`` for an
argument it rejects itself.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.cli import main
from curvlab.curvature import CLAIMS

INTS = st.integers(min_value=-1, max_value=8)


def int_list(min_size, max_size):
    return st.lists(INTS, min_size=min_size, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


def junk(alphabet):
    return st.text(alphabet=alphabet, max_size=6)


PERM = st.one_of(st.permutations([1, 2, 3, 4]).map(lambda p: ",".join(map(str, p))), int_list(0, 5), junk("0123456789,"))
WORD = st.one_of(st.sampled_from(["00", "01", "10", "11"]), junk("0123"))
FORMS = st.sampled_from(["omega", "opposed", "aligned", "bogus"])
EVAL_MAPS = {
    "sigma": {"--psi": FORMS, "--idx": int_list(3, 5)},
    "psi": {"--psi": FORMS, "--idx": int_list(3, 5)},
    "invariant": {"--perm": PERM, "--word": WORD, "--tensor": st.sampled_from(["hxh", "omegaxomega", "bogus"])},
    "nijenhuis": {
        "--plane": int_list(1, 3),
        "--xy": int_list(1, 3),
        "--slope": st.sampled_from(["0", "1", "-3/4", "2", "1/0", "x"]),
        "--rotation": st.sampled_from(["circular", "hyperbolic", "spiral"]),
    },
}
SWEEP_FLAGS = {
    "--ns": st.one_of(st.lists(st.integers(2, 6), max_size=2).map(lambda xs: ",".join(map(str, xs))),
                      junk("0123456789, x")),
    "--kinds": st.one_of(st.lists(st.sampled_from(["complex", "para"]), min_size=1, max_size=2),
                         st.lists(st.sampled_from(["complex", "para", "none", "foo", ""]), max_size=2)).map(",".join),
    "--claims": st.lists(st.sampled_from(sorted(CLAIMS) + ["bogus"]), max_size=2).map(",".join),
}
FORMAT = st.sampled_from(["json", "md"])


def optional_flags(draw, flags):
    """Each flag with probability one half, written as --flag=value."""
    return [f"{flag}={draw(values)}" for flag, values in flags.items() if draw(st.booleans())]


@st.composite
def command_lines(draw):
    """A command line, valid more often than not: each optional flag is
    given with probability one half, and a flag's value is malformed in
    about half the draws."""
    command = draw(st.sampled_from(["dims", "verify", "eval", "sweep"]))
    if command == "sweep":
        return ["sweep", *optional_flags(draw, {**SWEEP_FLAGS, "--format": FORMAT})]
    n = draw(st.integers(min_value=2, max_value=6))
    argv = [command]
    flags = {}
    if command == "verify":
        argv.append(draw(st.sampled_from(sorted(CLAIMS) + ["bogus"])))
    elif command == "eval":
        what = draw(st.sampled_from(sorted(EVAL_MAPS)))
        argv.append(what)
        flags.update(EVAL_MAPS[what])
        if what in ("sigma", "psi"):
            flags["--idx"] = st.one_of(st.lists(st.integers(1, n), min_size=4, max_size=4).map(
                lambda xs: ",".join(map(str, xs))), int_list(3, 5))
    signs = st.lists(st.sampled_from(["+", "-"]), min_size=n, max_size=n).map(",".join)
    flags["--sig"] = st.one_of(st.integers(0, n).map(lambda p: f"{p},{n - p}"), int_list(0, 3),
                               junk("0123456789,-+ x"))
    flags["--eps"] = st.one_of(signs, st.lists(st.sampled_from(["+", "-", "+1", "-1", "1", "0", "x", ""]),
                                               max_size=7).map(",".join))
    flags["--format"] = FORMAT
    argv += ["--n", str(n), "--kind", draw(st.sampled_from(["complex", "para", "none"]))]
    return argv + optional_flags(draw, flags)


@settings(max_examples=200)
@given(command_lines())
def test_every_command_line_keeps_the_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv

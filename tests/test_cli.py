"""Command-line surface: subcommands, exit codes, output stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvlab
from curvlab import cli, curvature, spaces
from curvlab.cli import main
from curvlab.spaces import generating_set, make_standard
from curvlab.report import VerificationReport, exit_code_for
from oracles import Matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_plain_space(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--kind", "none", "--sig", "3,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["affine"] == 24
    assert payload["dims"]["weyl"] == 9
    assert "kaehler_weyl" not in payload["dims"]  # no structure, no structure rows


def test_dims_structured(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "4", "--kind", "para")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims["kaehler_weyl"] == 14
    assert dims["alt_opposed"] == 2


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm4.2", "--n", "4", "--kind", "complex")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_expected_failure_n4(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1.5", "--n", "4", "--kind", "para")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantities"]["gap"] == 5
    assert payload["witnesses"]


def test_verify_unknown_claim_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "thm3.14", "--n", "4")
    assert code == 2
    assert "unknown claim" in err


def test_unknown_claim_has_one_message(capsys):
    """verify, sweep and run_claim name an unknown claim with one message,
    listing the known ones, and the CLI exits 2 with it."""
    message = "unknown claim 'bogus'; known: eq4c, eq4d, lemma4.9, sec5, thm1.5, thm4.1, thm4.2"
    for argv in (("verify", "bogus", "--n", "4"), ("sweep", "--ns", "4", "--claims", "thm4.1,bogus")):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    with pytest.raises(curvature.UnknownClaim, match=message):
        curvature.run_claim("bogus", make_standard(4, "complex"))


def test_bad_signature_usage_error(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "4", "--kind", "complex", "--sig", "nope")
    assert code == 2


def test_invalid_model_config_exit_two(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "5", "--kind", "complex")
    assert code == 2


def test_eval_sigma_value(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "sigma", "--psi", "omega", "--idx", "1,4,3,1", "--n", "6", "--kind", "complex"
    )
    assert code == 0
    assert json.loads(out)["value"] == "-1"


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_eval_maps_default_forms(capsys, kind):
    """Without --psi, sigma takes the fundamental form and psi the opposed probe form."""
    for what, form in (("sigma", "omega"), ("psi", "opposed")):
        code, bare, _ = run_cli(capsys, "eval", what, "--idx", "5,6,1,4", "--n", "6", "--kind", kind)
        assert code == 0
        assert json.loads(bare)["form"] == form
        code, explicit, _ = run_cli(capsys, "eval", what, "--psi", form, "--idx", "5,6,1,4", "--n", "6", "--kind", kind)
        assert (code, explicit) == (0, bare)


@pytest.mark.parametrize("form", ["omega", "aligned"])
def test_eval_psi_rejects_a_form_that_is_not_opposed(capsys, form):
    code, out, err = run_cli(capsys, "eval", "psi", "--psi", form, "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: psi_map input must be an opposed 2-form")


@pytest.mark.parametrize("argv,flag", [
    (("eval", "nijenhuis", "--slope", "1/0"), "--slope"),
    (("eval", "nijenhuis", "--slope", "x"), "--slope"),
    (("eval", "sigma", "--psi", "opposed", "--kind", "none"), "--kind"),
    (("eval", "psi", "--kind", "none"), "--kind"),
    (("eval", "nijenhuis", "--kind", "none"), "--kind"),
    (("eval", "invariant", "--word", "01", "--kind", "none"), "--kind"),
    (("eval", "invariant", "--tensor", "omegaxomega", "--kind", "none"), "--kind"),
    (("eval", "sigma", "--psi", "bogus", "--kind", "none"), "--psi"),
    (("eval", "psi", "--psi", "bogus", "--kind", "none"), "--psi"),
    (("eval", "sigma", "--psi", "bogus"), "--psi"),
])
def test_eval_bad_input_names_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--n", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("argv", [
    ("--n", "4", "--plane", "1,1"),
    ("--n", "6", "--rotation", "hyperbolic"),
])
def test_eval_nijenhuis_checks_the_twist_at_slope_zero(capsys, argv):
    """A slope-0 twist is still a twist: a plane it cannot rotate is a bad
    request at slope 0 exactly as at slope 1."""
    results = [run_cli(capsys, "eval", "nijenhuis", *argv, "--slope", slope) for slope in ("0", "1")]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_eval_negative_fractional_slope_is_written_with_equals(capsys):
    """argparse reads ``-3/4`` after a space as an option, so the help text
    asks for ``--slope=-3/4``, and that form is accepted."""
    code, out, _ = run_cli(capsys, "eval", "nijenhuis", "--n", "4", "--slope=-3/4")
    assert code == 0
    assert json.loads(out)["angle_slope"] == "-3/4"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nijenhuis", "--n", "4", "--slope", "-3/4"])
    assert exc.value.code == 2
    assert "--slope" in capsys.readouterr().err


def test_eval_sigma_malformed_indices(capsys):
    code, _, err = run_cli(capsys, "eval", "sigma", "--idx", "1,4,3", "--n", "6")
    assert code == 2


def test_eval_indices_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eval", "sigma", "--idx", "1,4,3,9", "--n", "6")
    assert code == 2


def test_eval_invariant(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "invariant", "--tensor", "hxh", "--perm", "1,2,3,4", "--word", "00", "--n", "6"
    )
    assert code == 0
    assert json.loads(out)["value"] == "36"


def test_eval_invariant_form_word(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "invariant", "--tensor", "omegaxomega", "--perm", "1,2,3,4",
        "--word", "11", "--n", "6", "--kind", "para",
    )
    assert code == 0
    assert json.loads(out)["value"] == "36"


def test_eval_nijenhuis_breakdown(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "nijenhuis", "--plane", "1,3", "--xy", "1,3", "--n", "6", "--kind", "complex"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"][0] == "1"
    assert payload["terms"][2][0] == "1"
    assert all(v == "0" for v in payload["terms"][0])


def test_sweep_matrix(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--ns", "4,6", "--kinds", "complex,para", "--claims", "thm1.5")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells) == 4
    statuses = {(c["n"], c["kind"]): c["status"] for c in cells}
    assert statuses[(4, "complex")] == "pass (expected failure exhibited)"
    assert statuses[(4, "para")] == "pass (expected failure exhibited)"
    assert statuses[(6, "complex")] == "pass"
    assert statuses[(6, "para")] == "pass"
    assert all(c["mode"] == "exact" for c in cells)  # mode echoed in every cell


def test_sweep_empty_range(capsys):
    """A sweep of no cells would pass having checked nothing: a bad request."""
    code, out, err = run_cli(capsys, "sweep", "--ns", "", "--kinds", "complex")
    assert code == 2
    assert out == ""
    assert "--ns" in err


@pytest.mark.parametrize("argv", [("--ns", "4", "--kinds", ""), ("--kinds", "")])
def test_sweep_empty_kinds_rejected(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert "--kinds" in err


@pytest.mark.parametrize("ns,kinds", [("4", "complex,foo"), ("", "foo")])
def test_sweep_bad_kind_rejected_before_any_cell(capsys, monkeypatch, ns, kinds):
    def no_cell(claim, space):
        raise AssertionError("a cell ran before the kinds were validated")

    monkeypatch.setattr("curvlab.cli.run_claim", no_cell)
    code, out, err = run_cli(capsys, "sweep", "--ns", ns, "--kinds", kinds)
    assert code == 2
    assert out == ""
    assert "sweep kinds" in err


def _break_lie_basis(monkeypatch):
    """Replace the Lie elements of every generating set, which the
    certificates read, by the matrix unit E13 (1-based) at basis index 0,
    keeping the set's cycles and representatives.  E13 preserves no opposed
    2-form module at n = 4.  The patch replaces the cached function itself,
    so no generating set cached before it is read, and the catalog cache is
    emptied, so no representation matrices built before it are read."""
    curvature.catalog.cache_clear()
    e13 = Matrix.from_rows([[1 if (i, j) == (0, 2) else 0 for j in range(4)] for i in range(4)]).to_dict()
    monkeypatch.setattr("curvlab.curvature.generating_set",
                        lambda space, group: generating_set(space, group)._replace(lie=((0, e13),)))


@pytest.mark.parametrize("claim", ["eq4d", "lemma4.9"])
def test_verify_non_invariant_module_is_a_failed_claim(capsys, monkeypatch, claim):
    _break_lie_basis(monkeypatch)
    code, out, err = run_cli(capsys, "verify", claim, "--n", "4", "--kind", "complex")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["quantities"] == {"alt_opposed_invariant": False}
    assert payload["witnesses"] == [{"action": "lie", "element": 0, "basis_vector": 1}]


BROKEN_REPORT_SHA256 = {
    ("eq4d", "json"): "41b0f1545cf8217dca5ab01efe8b5f8b31619d88a7715fae018a2877d02ef528",
    ("eq4d", "md"): "d41534a1a8c7b96a3c2fbce758c82faac20542ac12c41a53e1220b5d94b46d6d",
    ("lemma4.9", "json"): "18cc9256e67f6b0d5ca3d9ca4e67532f22ec3fc910c649c4573f05319c3b2dfe",
    ("lemma4.9", "md"): "ff62b2481a5ff8d56643c2e8ffe4f1cca9b4b243b2e60129f05b9843df9ffd30",
    ("thm4.1", "json"): "6952a6ab8ec5dbb6595df0750ddf8a6f14ecb349119387d18db18442412467d9",
    ("thm4.1", "md"): "5475aaae64a8b615716fa674767becf2a686217d53c23cbd14ee0cd4681762b9",
}


@pytest.mark.parametrize("claim,fmt", sorted(BROKEN_REPORT_SHA256))
def test_failed_certificate_report_bytes_unchanged(capsys, monkeypatch, claim, fmt):
    """The failed reports of the three claims that read a certificate, in
    both formats, keep their bytes: eq4d's notes stay on its failed report,
    and thm4.1's keeps every quantity beside its witness."""
    _break_lie_basis(monkeypatch)
    code, out, err = run_cli(capsys, "verify", claim, "--n", "4", "--kind", "complex", "--format", fmt)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BROKEN_REPORT_SHA256[claim, fmt]


def test_sweep_non_invariant_module_is_a_failed_cell(capsys, monkeypatch):
    _break_lie_basis(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--ns", "4", "--kinds", "complex", "--claims", "eq4d,lemma4.9")
    assert code == 1
    assert [cell["status"] for cell in json.loads(out)["cells"]] == ["fail", "fail"]


def test_sweep_skips_invalid_combinations(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--ns", "4", "--kinds", "complex", "--claims", "sec5")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert cells[0]["status"] == "skipped (needs n >= 6)"


def test_sweep_does_not_skip_an_internal_error(capsys, monkeypatch):
    """Only a claim's own precondition makes a skipped cell; a ValueError
    from inside a verifier is not read as one."""
    def broken(a, b):
        raise ValueError("internal failure")

    monkeypatch.setattr("curvlab.curvature.subspace_sum", broken)
    code, out, err = run_cli(capsys, "sweep", "--ns", "4", "--kinds", "complex", "--claims", "thm4.2")
    assert code == 3
    assert "skipped" not in out
    assert err == "internal error: ValueError: internal failure\n"


def test_verify_internal_value_error_exits_three(capsys, monkeypatch):
    """A ValueError from inside a verifier is a fault, not a bad request."""
    def broken(a, b):
        raise ValueError("internal failure")

    monkeypatch.setattr("curvlab.curvature.subspace_sum", broken)
    code, out, err = run_cli(capsys, "verify", "thm4.2", "--n", "4")
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: internal failure\n"


def test_sweep_invalid_space_is_a_bad_request(capsys):
    code, out, err = run_cli(capsys, "sweep", "--ns", "5", "--kinds", "complex")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag", [["--n", "99"], ["--kind", "none"], ["--sig", "3,1"], ["--eps=+,+,+,+"]])
def test_sweep_rejects_space_flags(capsys, flag):
    """sweep builds its spaces from --ns and --kinds; a space flag would be ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ns", "4", "--kinds", "complex", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "thm4.2", "--n", "4"],
    ["sweep", "--ns", "4", "--kinds", "complex", "--claims", "thm4.2"],
])
def test_internal_error_exits_three(capsys, monkeypatch, argv):
    """A fault inside curvlab is neither a failed claim (1) nor a bad request (2)."""
    def broken(a, b):
        raise RuntimeError("internal failure")

    monkeypatch.setattr("curvlab.curvature.subspace_sum", broken)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err == "internal error: RuntimeError: internal failure\n"


@pytest.fixture
def fresh_generators():
    """Empty generator and catalog caches before and after the test, so a
    generating set, or a catalog's representation matrices, made under a
    patch are neither read from nor left in a cache."""
    generating_set.cache_clear()
    curvature.catalog.cache_clear()
    yield
    generating_set.cache_clear()
    curvature.catalog.cache_clear()


@pytest.mark.parametrize("argv", [
    ["verify", "thm4.1", "--n", "4"],
    ["verify", "eq4d", "--n", "4", "--kind", "para"],
    ["sweep", "--ns", "4", "--kinds", "complex", "--claims", "lemma4.9"],
])
def test_failed_closure_proof_exits_three(capsys, monkeypatch, fresh_generators, argv):
    """A generating set whose bracket-and-conjugation closure misses part of
    the Lie algebra is a fault, never a failed claim or a not-invariant
    module: here the set loses its last Lie element."""
    pick = spaces._lie_picks
    monkeypatch.setattr(spaces, "_lie_picks", lambda space, group: pick(space, group)[:-1])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: RuntimeError: the bracket-and-conjugation closure of the ")


@pytest.mark.parametrize("claim,kind,sig,group", [
    ("thm4.1", "none", "4,2", "O"),
    ("thm4.1", "complex", "4,2", "O"),
    ("eq4d", "complex", "4,2", "Ustar"),
    ("eq4d", "complex", "6,0", "Ustar"),
])
def test_cycle_that_is_not_a_group_element_exits_three(capsys, monkeypatch, fresh_generators, claim, kind, sig, group):
    """The cycle of all six axes is a fault, caught before the closure is
    read: at --sig 4,2 it maps a positive axis to a negative one, so it is
    no isometry; at --sig 6,0 it is one, but it does not commute with J."""
    monkeypatch.setattr(spaces, "sign_block_cycles", lambda space, group: [(1, 2, 3, 4, 5, 0)])
    code, out, err = run_cli(capsys, "verify", claim, "--n", "6", "--kind", kind, "--sig", sig)
    assert (code, out) == (3, "")
    assert err == f"internal error: RuntimeError: cycle 0 of {group} is not a group element\n"


def test_representative_that_is_not_a_sign_diagonal_exits_three(capsys, monkeypatch, fresh_generators):
    """The generating set hands the certificates each representative as the
    axes it negates, so one that is not a sign diagonal is a fault."""
    swap = Matrix.from_rows([[1 if j == (i ^ 1) else 0 for j in range(4)] for i in range(4)]).to_dict()
    monkeypatch.setattr(spaces, "component_reps", lambda space, group: [swap])
    code, out, err = run_cli(capsys, "verify", "thm4.1", "--n", "4")
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: component representative 0 of O is not a sign diagonal\n"


def test_block_certificate_failing_where_the_union_passes_exits_three(capsys, monkeypatch):
    """A failure of thm4.1's certificate on the parity blocks is a failure of
    the walk over their union, which names the witness; a block failure the
    union does not repeat is a fault of curvlab, never a failed claim."""
    curvature.catalog.cache_clear()
    monkeypatch.setattr(curvature, "conformal_o_invariant", lambda axes: False)
    code, out, err = run_cli(capsys, "verify", "thm4.1", "--n", "4")
    assert (code, out) == (3, "")
    assert err == ("internal error: RuntimeError: conformal's O-certificate fails on the parity blocks "
                   "but not on their union\n")


def test_json_output_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "thm4.2", "--n", "4", "--kind", "para")
    code2, out2, _ = run_cli(capsys, "verify", "thm4.2", "--n", "4", "--kind", "para")
    assert code1 == code2 == 0
    assert out1 == out2


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "eq4d", "--n", "6", "--kind", "para", "--format", "md")
    assert code == 0
    assert out.startswith("## eq4d: PASS")
    assert "| commutant_dimension | `1` |" in out


def test_exit_code_contract_for_failures():
    passing = VerificationReport("a", "", {}, {}, True)
    failing = VerificationReport("b", "", {}, {}, False)
    assert exit_code_for([passing, passing]) == 0
    assert exit_code_for([passing, failing]) == 1


def test_mode_is_not_an_option(capsys):
    """All arithmetic is exact, so no option chooses it: argparse rejects
    any --mode value, and the reports still name the exact mode."""
    commands = [
        ["verify", "thm1.5", "--n", "4"],
        ["dims", "--n", "4"],
        ["sweep", "--ns", "4", "--kinds", "para"],
        ["eval", "sigma", "--n", "4"],
    ]
    for argv in commands:
        for mode in ("exact", "float:1e-8", "floaty"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--mode", mode])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --mode" in err and "Traceback" not in err
    verify, dims, sweep = (json.loads(run_cli(capsys, *argv)[1]) for argv in commands[:3])
    assert verify["space"]["mode"] == dims["mode"] == sweep["mode"] == "exact"
    assert [cell["mode"] for cell in sweep["cells"]] == ["exact"]


@pytest.mark.parametrize("argv,message", [
    (("verify", "bogus", "--n", "4", "--sig", "x"), "bad signature 'x'; expected p,q"),
    (("verify", "bogus", "--n", "5", "--kind", "complex"),
     "unknown claim 'bogus'; known: eq4c, eq4d, lemma4.9, sec5, thm1.5, thm4.1, thm4.2"),
    (("verify", "sec5", "--n", "4", "--kind", "none"), "needs a structured space"),
], ids=["sig-before-claim", "claim-before-space", "structure-before-n"])
def test_bad_inputs_are_reported_in_order(capsys, argv, message):
    """A command line with several faults names the first of: --sig and
    --eps, the claim name, the space, the claim's need of a structure, its
    least n."""
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("word", ["2", "22", "012"])
def test_eval_invariant_bad_word_usage_error(capsys, word):
    code, out, err = run_cli(capsys, "eval", "invariant", "--word", word)
    assert code == 2
    assert out == ""
    assert "bad word" in err and "Traceback" not in err


def test_cli_runs_without_numpy():
    script = (
        "import sys\n"
        "from curvlab.cli import main\n"
        "assert main(['verify', 'thm1.5', '--n', '4']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(curvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_parser_serves_a_rejected_parse_and_the_commands_after_it(capsys):
    """main builds its parser once per process: a command line that argparse
    rejects, then a verify and an eval, in one process, exit and print as they
    do each in a fresh process."""
    commands = [
        ["verify", "thm4.2", "--n", "4", "--kind", "bogus"],
        ["verify", "thm4.2", "--n", "4", "--kind", "para"],
        ["eval", "sigma", "--n", "4", "--psi", "omega"],
    ]
    cli._build_parser.cache_clear()
    in_process = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    src = str(Path(curvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "curvlab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in in_process] == [2, 0, 0]
    assert in_process == fresh


@pytest.mark.parametrize("argv,message", [
    (("--n", "-2", "--kind", "none"), "need n >= 2"),
    (("--n", "-2", "--kind", "para"), "structures require even n >= 4"),
    (("--n", "5"), "structures require even n >= 4"),
    (("--n", "3", "--kind", "para"), "structures require even n >= 4"),
])
def test_invalid_n_named_whatever_the_signature(capsys, argv, message):
    assert run_cli(capsys, "dims", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("perm", ["0,1,2,3", "1,2,3", "1,1,2,3", "a,b,c,d"])
def test_eval_invariant_bad_perm_usage_error(capsys, perm):
    code, out, err = run_cli(capsys, "eval", "invariant", "--perm", perm)
    assert code == 2
    assert out == ""
    assert "permutation of 1,2,3,4" in err and "Traceback" not in err

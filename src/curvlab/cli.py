"""Command-line front end: configure a model space, run builders and claim
verifiers, evaluate individual maps, and sweep configurations.

Subcommands: dims | verify | eval | sweep.  Each ``cmd_*`` takes the parsed
arguments and returns its JSON payload, a function rendering that payload as
markdown, and its exit code; ``main`` prints the one format asked for.  All
indices on the command line are 1-based (matching the basis notation e1,
e2, ...); JSON payloads carry 0-based indices with an explicit
``index_base`` field.  Results go to stdout, diagnostics to stderr.  Exit
codes: 0 = all claims pass (expected-failure claims passing as such), 1 =
some claim fails, 2 = usage or config error, 3 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import curvature, nijenhuis, report
from .curvature import CLAIMS, ClaimNotApplicable, UnknownClaim, catalog, claim_entry, run_claim
from .report import scalar_to_str
from .spaces import ModelSpace, make_standard
from .tensors import (
    flatten4,
    invariant_contraction_row,
    kaehler_form,
    metric_tensor2,
    psi_map,
    sigma,
)


class UsageError(ValueError):
    pass


def _standard(n: int, kind: str, signature=None, eps=None) -> ModelSpace:
    """The configured space; a configuration ``make_standard`` rejects is a bad request."""
    try:
        return make_standard(n, kind, signature=signature, eps=eps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_sig(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad signature {text!r}; expected p,q") from exc
    return (p, q)


def _parse_eps(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    table = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}
    try:
        return tuple(table[tok.strip()] for tok in text.split(","))
    except KeyError as exc:
        raise UsageError(f"bad eps layout {text!r}; expected comma-separated +/-") from exc


def _parse_indices(text: str, count: int, n: int) -> tuple[int, ...]:
    try:
        idx = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad index list {text!r}") from exc
    if len(idx) != count:
        raise UsageError(f"expected {count} indices, got {len(idx)}")
    if any(not (1 <= i <= n) for i in idx):
        raise UsageError(f"indices must be 1-based and at most {n}")
    return tuple(i - 1 for i in idx)


def _parse_slope(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --slope {text!r}; expected a rational number, e.g. 1, -2 or 3/4") from exc


def _parse_word(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(c not in "01" for c in text):
        raise UsageError(f"bad word {text!r}; expected two characters from 0,1, e.g. 00 or 11")
    return (int(text[0]), int(text[1]))


def _parse_perm(text: str) -> tuple[int, ...]:
    """A 1-based slot permutation such as 1,3,2,4, returned 0-based."""
    message = f"bad perm {text!r}; expected a permutation of 1,2,3,4, e.g. 1,3,2,4"
    try:
        perm = tuple(int(x) - 1 for x in text.split(","))
    except ValueError as exc:
        raise UsageError(message) from exc
    if sorted(perm) != [0, 1, 2, 3]:
        raise UsageError(message)
    return perm


def _markdown_table(obj: dict) -> str:
    lines = ["| key | value |", "| --- | --- |"]
    for key, value in obj.items():
        lines.append(f"| {key} | `{json.dumps(value, sort_keys=False)}` |")
    return "\n".join(lines)


def _sweep_table(payload: dict) -> str:
    lines = ["| n | kind | signature | claim | status |", "| - | - | - | - | - |"]
    for c in payload["cells"]:
        lines.append(f"| {c['n']} | {c['kind']} | {c['signature']} | {c['claim']} | {c['status']} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands: each returns (payload, markdown renderer, exit code)
# ---------------------------------------------------------------------------


def cmd_dims(args):
    space = _standard(args.n, args.kind, _parse_sig(args.sig), _parse_eps(args.eps))
    payload = {
        "space": space.describe(),
        "mode": "exact",
        "dims": catalog(space).dims(),
    }
    return payload, _markdown_table, 0


def cmd_verify(args):
    signature, eps = _parse_sig(args.sig), _parse_eps(args.eps)
    claim_entry(args.claim)
    rep = run_claim(args.claim, _standard(args.n, args.kind, signature, eps))
    return rep.to_json_dict(), lambda _: report.render_markdown(rep), report.exit_code_for([rep])


BUILTIN_FORMS = {
    "omega": kaehler_form,
    "opposed": curvature.probe_opposed_form,
    "aligned": curvature.probe_aligned_form,
}


def cmd_eval(args):
    """One map on inputs the user chose: any ``ValueError`` it raises is a bad request."""
    try:
        return _eval(args), _markdown_table, 0
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _needs_structure(space: ModelSpace, what: str) -> None:
    if space.kind == "none":
        raise UsageError(f"{what} needs --kind complex or para, not --kind none")


def _eval(args) -> dict:
    space = _standard(args.n, args.kind, _parse_sig(args.sig), _parse_eps(args.eps))
    what = args.map
    if what in ("sigma", "psi"):
        # sigma takes any 2-form, psi only an opposed one
        form = args.psi or ("omega" if what == "sigma" else "opposed")
        if form not in BUILTIN_FORMS:
            raise UsageError(f"unknown --psi form {form!r}; known: {', '.join(BUILTIN_FORMS)}")
        _needs_structure(space, f"eval {what} --psi {form}")  # every built-in form does
        psi = BUILTIN_FORMS[form](space)
        idx = _parse_indices(args.idx, 4, space.n)
        tensor = sigma(psi, space) if what == "sigma" else psi_map(psi, space)
        value = tensor.get(flatten4(space.n, *idx), Fraction(0))
        return {
            "map": what,
            "form": form,
            "indices_1based": [i + 1 for i in idx],
            "index_base": 0,
            "value": scalar_to_str(value),
        }
    if what == "invariant":
        perm = _parse_perm(args.perm)
        word = _parse_word(args.word)
        theta_name = args.tensor
        if theta_name == "hxh":
            theta, phi = metric_tensor2(space), metric_tensor2(space)
        elif theta_name == "omegaxomega":
            _needs_structure(space, "eval invariant --tensor omegaxomega")
            theta, phi = kaehler_form(space), kaehler_form(space)
        else:
            raise UsageError("tensor must be hxh or omegaxomega")
        if 1 in word:  # a 1 contracts a pair through the fundamental form
            _needs_structure(space, f"eval invariant --word {args.word}")
        n2 = space.n ** 2  # the row on theta (x) phi: theta at c // n^2, phi at c % n^2
        row = invariant_contraction_row(perm, word, space)
        value = sum((v * theta.get(c // n2, 0) * phi.get(c % n2, 0) for c, v in row.items()), Fraction(0))
        return {
            "map": "invariant",
            "tensor": theta_name,
            "perm_1based": [p + 1 for p in perm],
            "word": args.word,
            "value": scalar_to_str(value),
        }
    # nijenhuis: argparse's choices admit no other map
    _needs_structure(space, "eval nijenhuis")
    plane = _parse_indices(args.plane, 2, space.n)
    xy = _parse_indices(args.xy, 2, space.n)
    slope = _parse_slope(args.slope)
    generator = nijenhuis.twist(space, plane, args.rotation)
    value = nijenhuis.nijenhuis_at(space, generator, slope, xy[0], xy[1])
    return {
        "map": "nijenhuis",
        "plane_1based": [plane[0] + 1, plane[1] + 1],
        "directions_1based": [xy[0] + 1, xy[1] + 1],
        "rotation": args.rotation,
        "angle_slope": scalar_to_str(slope),
        "terms": [[scalar_to_str(v) for v in t] for t in value.terms],
        "total": [scalar_to_str(v) for v in value.total],
    }


def cmd_sweep(args):
    try:
        ns = [int(x) for x in args.ns.split(",")] if args.ns else []
    except ValueError as exc:
        raise UsageError(f"bad dimension list {args.ns!r}") from exc
    kinds = [k.strip() for k in args.kinds.split(",")] if args.kinds else []
    claims = [c.strip() for c in args.claims.split(",")]
    for c in claims:
        claim_entry(c)
    if any(kind not in ("complex", "para") for kind in kinds):
        raise UsageError("sweep kinds must be complex and/or para")
    # an empty list would sweep no cells: a pass that checked nothing
    if not ns:
        raise UsageError("empty --ns; expected dimensions, e.g. 4,6")
    if not kinds:
        raise UsageError("empty --kinds; expected complex and/or para")
    # every space is built, and so validated, before the first cell runs
    spaces = [_standard(n, kind) for n in ns for kind in kinds]
    cells, reports = [], []
    for space in spaces:
        for claim in claims:
            cell = {
                "n": space.n,
                "kind": space.kind,
                "signature": list(space.signature),
                "claim": claim,
                "mode": "exact",
            }
            try:
                rep = run_claim(claim, space)
            except ClaimNotApplicable as exc:
                cell["status"] = f"skipped ({exc})"
                cells.append(cell)
                continue
            reports.append(rep)
            if rep.verdict and "gap" in rep.quantities:
                cell["status"] = "pass (expected failure exhibited)"
            elif rep.verdict:
                cell["status"] = "pass"
            else:
                cell["status"] = "fail"
            cells.append(cell)
    return {"mode": "exact", "cells": cells}, _sweep_table, report.exit_code_for(reports)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@cache  # argparse keeps no state between parses, and building costs about 0.7 ms
def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "md"), default="json")
    # sweep builds its own spaces from --ns and --kinds, so only dims, verify
    # and eval take the space flags
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=6, help="dimension of the model space")
    common.add_argument("--kind", choices=("complex", "para", "none"), default="complex")
    common.add_argument("--sig", default=None, help="signature p,q (defaults: definite / neutral)")
    common.add_argument("--eps", default=None, help="explicit diagonal sign layout, e.g. +,-,+,-; "
                        "write one that starts with - as --eps=-,+,...")

    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="exact curvature-tensor decomposition laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("dims", parents=[common, output], help="dimension table of every cataloged subspace")

    p_verify = sub.add_parser("verify", parents=[common, output], help="run one claim verifier")
    p_verify.add_argument("claim", help=f"one of: {', '.join(sorted(CLAIMS))}")

    p_eval = sub.add_parser("eval", parents=[common, output], help="evaluate one map at explicit arguments")
    p_eval.add_argument("map", choices=("sigma", "psi", "invariant", "nijenhuis"))
    p_eval.add_argument("--psi", help="omega | opposed | aligned (default: omega for sigma, opposed for psi)")
    p_eval.add_argument("--idx", default="1,4,3,1", help="four 1-based indices i,j,k,l")
    p_eval.add_argument("--perm", default="1,2,3,4", help="slot pairing for invariant contractions")
    p_eval.add_argument("--word", default="00", help="pair word, e.g. 00 or 11")
    p_eval.add_argument("--tensor", default="hxh", help="product tensor: hxh | omegaxomega")
    p_eval.add_argument("--plane", default="1,3", help="twist plane for nijenhuis")
    p_eval.add_argument("--xy", default="1,3", help="probe directions for nijenhuis")
    p_eval.add_argument("--slope", default="1", help="angle slope at the origin, e.g. 1 or 3/4; "
                        "write a negative fraction as --slope=-3/4")
    p_eval.add_argument("--rotation", choices=("circular", "hyperbolic"), default="circular")

    # no abbreviations, or --n and --kind would be read as --ns and --kinds
    p_sweep = sub.add_parser("sweep", parents=[output], allow_abbrev=False, help="cartesian sweep of claims")
    p_sweep.add_argument("--ns", default="4,6", help="dimensions, e.g. 4,6")
    p_sweep.add_argument("--kinds", default="complex,para")
    p_sweep.add_argument("--claims", default="thm1.5")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"dims": cmd_dims, "verify": cmd_verify, "eval": cmd_eval, "sweep": cmd_sweep}[args.command]
    try:
        payload, markdown, code = command(args)
        print(json.dumps(payload, indent=2) if args.format == "json" else markdown(payload))
        return code
    except (UsageError, UnknownClaim, ClaimNotApplicable) as exc:  # a bad request; any other ValueError is a fault
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in curvlab itself must not read as a failed claim
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

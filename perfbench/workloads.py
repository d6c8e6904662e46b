"""The benchmark's workloads: which cells each one runs, and why.

A cell is one unit of checked work.  In the command workloads a cell is one
``curvlab`` command line; in ``certs`` workloads it is one
``invariance_witness`` call on one catalog space.
"""

from __future__ import annotations

CLAIMS = ("thm4.1", "thm4.2", "thm1.5", "sec5", "eq4c", "eq4d", "lemma4.9")
KINDS = ("complex", "para")

# ROADMAP item 5 fixes these; until then they are counted as failed cells.
KNOWN_DEFECTS = {
    "eval invariant --word 2": "uncaught IndexError exits 1 instead of a usage error",
    "eval invariant --word 22": "word is not validated and is read as a form word (exit 0)",
}


def cell(argv: list[str], expect_rc: int = 0) -> dict:
    """One command line, its documented exit code and the claim_s.* bucket
    it is timed in (the claim, ``dims``, ``eval`` or ``bad_request``)."""
    cid = " ".join(argv)
    if expect_rc != 0:
        claim = "bad_request"
    else:
        claim = argv[1] if argv[0] == "verify" else argv[0]
    return {"id": cid, "argv": argv, "expect_rc": expect_rc, "claim": claim,
            "known_defect": KNOWN_DEFECTS.get(cid)}


def verify_cells(n: int, claims, kinds=KINDS, dims: bool = False) -> list[dict]:
    out = []
    for kind in kinds:
        for claim in claims:
            out.append(cell(["verify", claim, "--n", str(n), "--kind", kind]))
        if dims:
            out.append(cell(["dims", "--n", str(n), "--kind", kind]))
    return out


def cold_cells() -> list[dict]:
    cells = verify_cells(6, CLAIMS)
    cells += [cell(["verify", "thm1.5", "--n", "4", "--kind", k]) for k in KINDS]
    cells += [cell(["dims", "--n", "6", "--kind", k]) for k in KINDS]
    cells += [
        cell(["eval", "sigma", "--psi", "omega", "--idx", "1,4,3,1", "--n", "6"]),
        cell(["eval", "psi", "--psi", "opposed", "--idx", "5,6,1,4", "--n", "6"]),
        cell(["eval", "invariant", "--tensor", "omegaxomega", "--perm", "1,3,2,4", "--word", "11"]),
        cell(["eval", "nijenhuis", "--plane", "1,3", "--xy", "1,3", "--n", "6"]),
    ]
    # bad requests: the documented answer is a usage error, exit 2
    cells += [
        cell(["verify", "thm9.9", "--n", "6"], expect_rc=2),
        cell(["verify", "sec5", "--n", "4"], expect_rc=2),
        cell(["eval", "sigma", "--idx", "1,2,3"], expect_rc=2),
        cell(["eval", "invariant", "--word", "2"], expect_rc=2),
        cell(["eval", "invariant", "--word", "22"], expect_rc=2),
    ]
    return cells


WORKLOADS: dict[str, dict] = {
    "sweep-n8": {
        "mode": "inproc",
        "why": "all seven claims plus dims at n = 8, both kinds, in one warm process: every layer works",
        "cells": verify_cells(8, CLAIMS, dims=True),
    },
    "kernels-n10": {
        "mode": "inproc",
        "why": "thm1.5 and thm4.2 at n = 10: subspace construction dominates, certificates do nothing",
        "cells": verify_cells(10, ("thm1.5", "thm4.2")),
    },
    "certs-n6": {
        "mode": "certs",
        "why": "invariance certificates on the n = 6 catalog: membership reads against fixed subspaces",
        "n": 6,
        "random_elements": 2,
    },
    "cli-cold": {
        "mode": "cold",
        "why": "one fresh process per command at n <= 6, with bad requests: fixed per-invocation costs",
        "cells": cold_cells(),
    },
}


def mini_workloads() -> dict[str, dict]:
    """Small n = 4 variants of each mode, used by the self-test."""
    return {
        "mini-inproc": {"mode": "inproc",
                        "cells": verify_cells(4, ("thm1.5", "thm4.2"), kinds=("complex",), dims=True)},
        "mini-certs": {"mode": "certs", "n": 4, "random_elements": 1},
        "mini-cold": {"mode": "cold",
                      "cells": [cell(["verify", "thm1.5", "--n", "4", "--kind", "para"]),
                                cell(["verify", "sec5", "--n", "4"], expect_rc=2)]},
    }

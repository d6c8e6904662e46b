"""Record the values the oracle compares against into expected.json.

    python3 perfbench/record.py

Runs every command cell of every workload (and of the self-test's small
workloads) once through ``curvlab.cli.main`` and stores each integer and
boolean quantity plus a digest of the whole output; for certificate
workloads it stores the dimension of every catalog space.  Bad requests are
not recorded: their documented exit code lives in workloads.py.  Recording
stops, writing nothing, if a result contradicts a closed form.
"""

from __future__ import annotations

import json
import sys

import child  # puts the checkout's src on sys.path
import oracle
from workloads import WORKLOADS, mini_workloads


def main() -> int:
    import curvlab.cli as cli
    from curvlab.curvature import build_catalog
    from curvlab.spaces import make_standard

    expected: dict = {}
    problems = []
    for workload in {**WORKLOADS, **mini_workloads()}.values():
        if workload["mode"] == "certs":
            n = workload["n"]
            for kind in ("complex", "para"):
                catalog = build_catalog(make_standard(n, kind))
                dims = {name: sub.dim for name, sub in catalog.all_spaces()}
                forms = oracle.closed_form_dims(n, kind)
                problems += [f"certs n={n} {kind} {k}" for k, v in forms.items() if dims.get(k) != v]
                expected[f"certs n={n} {kind}"] = dims
            continue
        for cell in workload["cells"]:
            if cell["expect_rc"] != 0 or cell["id"] in expected:
                continue
            res = child.run_command(cli, cell["argv"])
            if res["rc"] != 0:
                problems.append(f"{cell['id']}: exit {res['rc']}")
                continue
            payload = json.loads(res["stdout"])
            if cell["argv"][0] in ("verify", "dims"):
                problems += [f"{cell['id']}: {e}" for e in oracle.closed_form_errors(cell["argv"], payload)]
            expected[cell["id"]] = {"values": oracle.checked_values(cell["argv"], payload),
                                    "digest": oracle.digest(res["stdout"])}
    if problems:
        print("not recorded:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} entries in {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness on small n = 4 workloads (seconds).

    python3 perfbench/selftest.py

Checks that every metric prints with its unit, that a deliberately wrong
expected value counts as a failed cell rather than a crash, and that a wrap
name the program does not have is reported as missing without stopping the
run.  Exit 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys

import run
from workloads import mini_workloads

MISSING = ("curvlab.linalg:NoSuchFunction", "curvlab.no_such_module:thing")


def metric_errors(res: dict, wanted: dict[str, str]) -> list[str]:
    errors = []
    line = run.result_line(res)
    report = run.format_report(res).splitlines()
    for name, unit in wanted.items():
        got = line["metrics"].get(name)
        if got is None or got["unit"] != unit:
            errors.append(f"{name}: result line has {got}")
        if not any(r.split()[:1] == [name] and unit in r.split() for r in report):
            errors.append(f"{name}: no report line with unit {unit}")
    if set(line["metrics"]) != set(wanted):
        errors.append(f"unexpected metrics {sorted(set(line['metrics']) - set(wanted))}")
    if line["attempted"] < 1:
        errors.append("no cell attempted")
    return errors


def main() -> int:
    run.preflight()
    expected = run.oracle.load_expected()
    checks: list[tuple[str, list[str]]] = []
    for name, workload in mini_workloads().items():
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            res = run.run_workload(name, workload, 7, 0, trace, expected)
            errors = metric_errors(res, wanted)
            if res["failed"] or not res["correct"]:
                errors.append(f"{res['failed']} failed cells: {res['failures'][:1]}")
            checks.append((f"{name} trace={int(trace)}: every metric with its unit", errors))

    wrong = copy.deepcopy(expected)
    wrong["verify thm1.5 --n 4 --kind complex"]["values"]["quantities.gap"] += 1
    wrong["certs n=4 para"]["affine"] += 1
    for name in ("mini-inproc", "mini-certs"):
        try:
            res = run.run_workload(name, mini_workloads()[name], 7, 0, False, wrong)
        except Exception as exc:  # the point of the check: this must not happen
            checks.append((f"{name}: wrong expected value", [f"raised {exc!r}"]))
            continue
        ok = res["failed"] == res["samples"]["wall_rel"] and not res["correct"]
        checks.append((f"{name}: wrong expected value is one failed cell per pass",
                       [] if ok else [f"failed={res['failed']} correct={res['correct']}"]))

    res = run.run_workload("mini-inproc", mini_workloads()["mini-inproc"], 7, 0, True, expected,
                           extra_wraps=MISSING)
    errors = [] if set(MISSING) <= set(res["layers"]["missing"]) else [f"missing={res['layers']['missing']}"]
    if res["metrics"]["trace.missing_names"] != len(MISSING) or not res["correct"]:
        errors.append(f"trace.missing_names={res['metrics']['trace.missing_names']} correct={res['correct']}")
    checks.append(("missing wrap names are reported and tolerated", errors))

    for label, errors in checks:
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        for e in errors:
            print(f"     {e}")
    return 1 if any(errors for _, errors in checks) else 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process.  Started by run.py; not meant to be run by hand.

    child.py inproc --workload NAME --seed N [--trace] [--setup-only] [--extra-wrap MOD:NAME]
    child.py cold [--extra-wrap MOD:NAME] -- CURVLAB-ARGS...

``inproc`` imports ``curvlab.cli``, does the workload's set-up, and runs its
cells in this process.  ``cold`` runs one command under the tracer, standing
in for ``python -m curvlab.cli``.  Either way the last line on stdout is one
JSON object for run.py; the commands' own output is captured and passed on.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from probe import Probe  # noqa: E402

# catalog spaces certified against the orthogonal group; all others use the
# extended structure group, as in the acceptance suite's invariance sweep
O_ONLY = ("affine", "weyl", "riemann", "conformal", "sigma_image")


def _tracer(extra_wraps: list[str]):
    from tracer import GLUE, WRAPS, Tracer

    wraps = list(WRAPS)
    for label in extra_wraps:
        module, _, qualname = label.partition(":")
        wraps.append((module, qualname, GLUE, (), None))
    tracer = Tracer()
    tracer.install(wraps)
    return tracer


def run_command(cli, argv: list[str]) -> dict:
    """Run one command line through ``curvlab.cli.main``; a raise is recorded."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = 1  # what an uncaught exception gives ``python -m curvlab.cli``
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "seconds": seconds}


def certs_setup(workload: dict, seed: int) -> dict:
    from curvlab import curvature, spaces

    n, count = workload["n"], workload["random_elements"]
    state = {}
    for kind in ("complex", "para"):
        space = spaces.make_standard(n, kind)
        state[kind] = {
            "space": space,
            "catalog": curvature.build_catalog(space),
            # the only seeded inputs of the benchmark
            "extra": {"O": spaces.random_lie_elements(space, "O", count, seed=seed),
                      "Ustar": spaces.random_lie_elements(space, "U", count, seed=seed)},
        }
    return state


def certs_cells(n: int, state: dict) -> list[dict]:
    from curvlab import curvature

    cells = []
    for kind, st in state.items():
        for name, sub in st["catalog"].all_spaces():
            group = "O" if name in O_ONLY else "Ustar"
            error = witness = None
            t0 = time.perf_counter()
            try:
                witness = curvature.invariance_witness(sub, st["space"], group, extra_lie=st["extra"][group])
            except Exception:
                error = traceback.format_exc(limit=-3)
            cells.append({"id": f"certs n={n} {kind} {name}", "kind": kind, "name": name,
                          "dim": sub.dim, "witness": witness, "error": error,
                          "seconds": time.perf_counter() - t0})
    return cells


def inproc(args) -> dict:
    from workloads import WORKLOADS, mini_workloads

    workload = {**WORKLOADS, **mini_workloads()}[args.workload]
    t0 = time.perf_counter()
    import curvlab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = _tracer(args.extra_wrap) if args.trace else None
    state = None
    if workload["mode"] == "certs":
        if tracer:
            tracer.begin("setup")
        state = certs_setup(workload, args.seed)
        if tracer:
            tracer.end()
    result = {"import_s": import_s, "t_first_mono": time.monotonic()}
    if args.setup_only:
        return result
    if tracer:
        tracer.begin("timed")
    # no probe under the tracer: per-layer figures are shares of one pass
    probe = None if tracer else Probe()
    t_first = time.perf_counter()
    with probe or contextlib.nullcontext():
        if state is not None:
            cells = certs_cells(workload["n"], state)
        else:
            cells = [dict(run_command(cli, c["argv"]), id=c["id"]) for c in workload["cells"]]
    result["wall_s"] = time.perf_counter() - t_first - (probe.total_s if probe else 0.0)
    if probe:
        result["probe_mean_s"] = probe.mean_s
    if tracer:
        tracer.end()
        result["trace"] = tracer.snapshot()
    result["cells"] = cells
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def cold(args) -> dict:
    t0 = time.perf_counter()
    import curvlab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = _tracer(args.extra_wrap)
    tracer.begin("timed")
    result = run_command(cli, args.argv)
    tracer.end()
    if result["error"]:
        result["stderr"] += result["error"]
    trace = tracer.snapshot()
    # this script's own work in the process: its imports, installing the
    # tracer; everything but interpreter start, curvlab's import and the command
    trace["harness_s"] = time.perf_counter() - T_START - import_s - trace["phases"]["timed"]["wall_s"]
    result.update(import_s=import_s, trace=trace)
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("inproc", "cold"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--extra-wrap", action="append", default=[])
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    result = inproc(args) if args.mode == "inproc" else cold(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()

"""curvlab time-to-verdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all ...        # every workload in turn
    python3 perfbench/selftest.py                      # seconds-long check of this harness

Run from the root of a checkout: the program is imported from ``src``.
Workloads (see workloads.py): sweep-n8, kernels-n10, certs-n6, cli-cold.

Every workload pass runs in a fresh process, so nothing cached in one pass
helps the next.  With ``--trace 0`` the run makes passes while the next one
would end within ``--seconds`` (at least one); it times set-up alone
before, between and after them, checks every cell against the oracle, and
reports medians over passes and over the set-up samples.  Time to solution
is reported as ``wall_rel``, the pass's wall time in units of the host-speed
probe (probe.py), because the plain wall time drifts with the load other
machines put on a shared host; the plain ``wall_s`` is in the report.  With
``--trace 1`` it runs one untraced pass and one pass under the outside-in
tracer (tracer.py) and reports the per-layer split.

The report lists every metric with its unit and sample count; the last line
on stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A program that cannot be imported gives exit 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import GLUE, LAYERS  # noqa: E402
from workloads import WORKLOADS, mini_workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# set-up-only processes started before, between and after the passes
SETUP_REPEATS = {"inproc": 3, "certs": 1, "cold": 3}

END_TO_END = {  # name -> unit; every workload reports each of them
    "wall_rel": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {  # per-layer metric -> tracer layer whose self time it is
    "linalg.eliminate_s": "linalg.eliminate",
    "linalg.backsub_s": "linalg.backsub",
    "linalg.meet_s": "linalg.meet",
    "linalg.membership_s": "linalg.membership",
    "linalg.gram_s": "linalg.gram",
    "tensors.rows_s": "tensors.rows",
    "tensors.image_s": "tensors.image",
    "tensors.operator_s": "tensors.operator",
    "tensors.group_apply_s": "tensors.group_apply",
    "tensors.contract_s": "tensors.contract",
    "tensors.recheck_s": "tensors.recheck",
    "curvature.certs_s": "curvature.certs",
    "curvature.commutant_s": "curvature.commutant",
    "spaces.s": "spaces",
    "nijenhuis.s": "nijenhuis",
    "report.serialise_s": "report.serialise",
    "cli.self_s": "cli",
}

CALL_METRICS = {  # per-layer count -> wrapped names whose calls it sums
    "linalg.membership_calls": ("curvlab.linalg:SubspaceReducer.residual",),
    "tensors.image_calls": ("curvlab.tensors:sigma", "curvlab.tensors:psi_map"),
    "tensors.group_apply_calls": ("curvlab.tensors:lie_apply_vec", "curvlab.tensors:pullback_apply_vec"),
    "tensors.contract_calls": ("curvlab.tensors:invariant_contraction_product",),
}

PER_LAYER = {
    **{name: "s" for name in LAYER_METRICS},
    "linalg.rows_in": "count",
    "linalg.pivots": "count",
    "linalg.useful_row_ratio": "ratio",
    "linalg.kernel_dim": "count",
    "linalg.nnz_out": "count",
    "linalg.max_coeff_bits": "bits",
    "linalg.membership_calls": "count",
    "tensors.rows_count": "count",
    "tensors.rows_nnz": "count",
    "tensors.image_calls": "count",
    "tensors.group_apply_calls": "count",
    "tensors.contract_calls": "count",
    "report.bytes_out": "B",
    "report.json_digest_mismatches": "count",
    "cli.import_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.missing_names": "count",
}


class HarnessError(RuntimeError):
    """The program could not be run at all; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run one child to completion; returns it with its monotonic start and end."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, t0, time.monotonic()


def child_json(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"benchmark child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def preflight() -> None:
    """Import the program once; this also leaves its bytecode cache warm."""
    if not os.path.isfile(os.path.join(ROOT, "src", "curvlab", "cli.py")):
        raise HarnessError(f"no curvlab sources under {os.path.join(ROOT, 'src')}")
    proc, _, _ = spawn([sys.executable, "-m", "curvlab.cli", "--help"])
    if proc.returncode != 0:
        raise HarnessError(f"python -m curvlab.cli --help exited {proc.returncode}: {proc.stderr[-2000:]}")


# ---------------------------------------------------------------------------
# passes


def check_cells(workload: dict, raw_cells: list[dict], expected: dict) -> list[dict]:
    """Attach ok/errors/digest_mismatch to every cell a pass produced."""
    checked = []
    if workload["mode"] == "certs":
        for c in raw_cells:
            errors = [c["error"]] if c["error"] else oracle.check_certs(
                workload["n"], c["kind"], c["name"], c["dim"], c["witness"], expected)
            checked.append({"id": c["id"], "claim": "certs", "seconds": c["seconds"],
                            "errors": errors, "digest_mismatch": False, "bytes": 0, "known_defect": None})
        return checked
    by_id = {c["id"]: c for c in workload["cells"]}
    for c in raw_cells:
        spec = by_id[c["id"]]
        if c.get("error") and spec["expect_rc"] == 0:
            errors, mismatch = [c["error"].strip().splitlines()[-1]], False
        else:
            errors, mismatch = oracle.check_command(spec, c["rc"], c["stdout"], expected)
        checked.append({"id": c["id"], "claim": spec["claim"], "seconds": c["seconds"],
                        "errors": errors, "digest_mismatch": mismatch,
                        "bytes": len(c["stdout"].encode("utf-8")), "known_defect": spec["known_defect"]})
    return checked


def crashed_cells(workload: dict, message: str) -> list[dict]:
    """Every cell of a pass whose process died counts as failed."""
    ids = ([c["id"] for c in workload["cells"]] if "cells" in workload else ["certs pass"])
    return [{"id": i, "claim": "crash", "seconds": 0.0, "errors": [message],
             "digest_mismatch": False, "bytes": 0, "known_defect": None} for i in ids]


def inproc_pass(name: str, workload: dict, seed: int, expected: dict, trace: bool = False,
                extra_wraps: tuple[str, ...] = ()) -> dict:
    argv = [sys.executable, CHILD, "inproc", "--workload", name, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    for label in extra_wraps:
        argv += ["--extra-wrap", label]
    try:
        proc, t0, _ = spawn(argv)
        data = child_json(proc)
    except (HarnessError, subprocess.TimeoutExpired, ValueError) as exc:
        return {"crashed": True, "cells": crashed_cells(workload, str(exc)[-500:])}
    return {
        "crashed": False,
        "wall_s": data["wall_s"],
        "probe_mean_s": data.get("probe_mean_s"),
        "setup_s": data["t_first_mono"] - t0,
        "import_s": data["import_s"],
        "rss_mb": data["rss_kb"] / 1024,
        "cells": check_cells(workload, data["cells"], expected),
        "trace": data.get("trace"),
    }


def cold_pass(workload: dict, expected: dict, trace: bool = False,
              extra_wraps: tuple[str, ...] = ()) -> dict:
    raw, traces, import_s = [], [], 0.0
    # the commands run in other processes, so the host-speed probe runs here
    # between them, on the same processor (see run_workload)
    probe = None if trace else Probe()
    for spec in workload["cells"]:
        if probe:
            probe.sample()
            probe.sample()
        if trace:
            argv = [sys.executable, CHILD, "cold"]
            for label in extra_wraps:
                argv += ["--extra-wrap", label]
            argv += ["--", *spec["argv"]]
        else:
            argv = [sys.executable, "-m", "curvlab.cli", *spec["argv"]]
        try:
            proc, t0, t1 = spawn(argv)
        except subprocess.TimeoutExpired as exc:
            raw.append({"id": spec["id"], "rc": None, "stdout": "", "seconds": CHILD_TIMEOUT_S,
                        "error": f"timed out: {exc}"})
            continue
        cell = {"id": spec["id"], "rc": proc.returncode, "stdout": proc.stdout,
                "seconds": t1 - t0, "error": None}
        if trace:
            try:
                data = child_json(proc)
            except (HarnessError, ValueError) as exc:
                cell.update(rc=None, error=str(exc)[-500:])
            else:
                cell.update(rc=data["rc"], stdout=data["stdout"])
                traces.append(data["trace"])
                import_s += data["import_s"]
        raw.append(cell)
    return {
        "crashed": False,
        "wall_s": sum(c["seconds"] for c in raw),
        "probe_mean_s": probe.mean_s if probe else None,
        "import_s": import_s,
        "cells": check_cells(workload, raw, expected),
        "traces": traces,
    }


def setup_samples(name: str, workload: dict, seed: int) -> list[float]:
    out = []
    repeats = SETUP_REPEATS[workload["mode"]]
    if workload["mode"] == "cold":
        for _ in range(repeats):
            proc, t0, t1 = spawn([sys.executable, "-m", "curvlab.cli", "--help"])
            if proc.returncode != 0:
                raise HarnessError(f"curvlab --help exited {proc.returncode}")
            out.append(t1 - t0)
        return out
    for _ in range(repeats):
        proc, t0, _ = spawn([sys.executable, CHILD, "inproc", "--workload", name,
                             "--seed", str(seed), "--setup-only"])
        out.append(child_json(proc)["t_first_mono"] - t0)
    return out


# ---------------------------------------------------------------------------
# metrics


def percentile_tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    k = n - 10  # rank with ten samples above it
    if 100 * k // n <= 50:
        return None
    return 100 * k // n, sorted(values)[k - 1]


def summarize_cells(passes: list[dict]) -> dict:
    cells = [c for p in passes for c in p["cells"]]
    failed = [c for c in cells if c["errors"]]
    return {
        "attempted": len(cells),
        "failed": len(failed),
        "unexpected": [c for c in failed if not c["known_defect"]],
        "failures": failed,
        "digest_mismatches": sum(c["digest_mismatch"] for c in cells),
    }


def median_cell_seconds(passes: list[dict]) -> dict[str, float]:
    """Each cell's median time over the passes of a run."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for c in p["cells"]:
            times.setdefault(c["id"], []).append(c["seconds"])
    return {cid: statistics.median(ts) for cid, ts in times.items()}


def claim_seconds(passes: list[dict], cell_s: dict[str, float]) -> dict[str, tuple[float, int]]:
    """Per claim, the summed median time of its cells and the number of cells."""
    out: dict[str, tuple[float, int]] = {}
    for c in passes[0]["cells"]:
        total, count = out.get(c["claim"], (0.0, 0))
        out[c["claim"]] = (total + cell_s[c["id"]], count + 1)
    return out


def merge_traces(traces: list[dict]) -> dict:
    """Sum the timed phase of several traced processes into one."""
    layer_self: dict[str, float] = {}
    layer_spans: dict[str, int] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    wall = counter_s = harness_s = 0.0
    missing: set[str] = set()
    wrapped = 0
    for tr in traces:
        harness_s += tr.get("harness_s", 0.0)
        wrapped = max(wrapped, tr["wrapped"])
        ph = tr["phases"]["timed"]
        wall += ph["wall_s"]
        counter_s += ph["counter_s"]
        for _parent, layer, spans, _total, own in ph["edges"]:
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            layer_spans[layer] = layer_spans.get(layer, 0) + spans
        for k, v in ph["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in ph["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "linalg.max_coeff_bits" else counters.get(k, 0) + v
        missing.update(tr["missing"])
    return {"wall_s": wall, "counter_s": counter_s, "harness_s": harness_s, "layer_self": layer_self,
            "layer_spans": layer_spans, "calls": calls, "counters": counters, "wrapped": wrapped, "missing": sorted(missing)}


def layer_metrics(merged: dict, wall: float, untraced_wall: float, import_s: float,
                  bytes_out: int, digest_mismatches: int, cold: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose timed part took ``wall`` s.

    A cold pass times whole processes, so curvlab's import and the harness's
    own work in each process fall inside ``wall``; neither counts as
    unattributed, while interpreter start-up does.
    """
    m: dict[str, float] = {}
    for name, layer in LAYER_METRICS.items():
        m[name] = merged["layer_self"].get(layer, 0.0)
    counters = merged["counters"]
    for key in ("linalg.rows_in", "linalg.pivots", "linalg.kernel_dim", "linalg.nnz_out",
                "linalg.max_coeff_bits", "tensors.rows_count", "tensors.rows_nnz"):
        m[key] = counters.get(key, 0)
    m["linalg.useful_row_ratio"] = (m["linalg.pivots"] / m["linalg.rows_in"]) if m["linalg.rows_in"] else 0.0
    for name, labels in CALL_METRICS.items():
        m[name] = sum(merged["calls"].get(label, 0) for label in labels)
    m["report.bytes_out"] = bytes_out
    m["report.json_digest_mismatches"] = digest_mismatches
    m["cli.import_s"] = import_s
    attributed = sum(s for layer, s in merged["layer_self"].items() if layer != GLUE) + merged["counter_s"]
    if cold:
        attributed += import_s + merged["harness_s"]
    m["trace.unattributed_frac"] = max(0.0, 1.0 - attributed / wall) if wall else 0.0
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0 if untraced_wall else 0.0
    m["trace.missing_names"] = len(merged["missing"])
    return m


# ---------------------------------------------------------------------------
# a run


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 expected: dict, extra_wraps: tuple[str, ...] = ()) -> dict:
    cold = workload["mode"] == "cold"
    if cold:
        # keep the cli processes and the probe between them on one processor
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def one_pass(traced: bool = False) -> dict:
        if cold:
            return cold_pass(workload, expected, traced, extra_wraps)
        return inproc_pass(name, workload, seed, expected, traced, extra_wraps)

    result: dict = {"workload": name, "seed": seed, "trace": trace}
    if trace:
        plain = one_pass()
        traced = one_pass(traced=True)
        passes = [plain, traced]
        if plain["crashed"] or traced["crashed"]:
            raise HarnessError(f"{name}: a pass crashed: {passes[-1]['cells'][0]['errors']}")
        merged = merge_traces(traced["traces"] if cold else [traced["trace"]])
        wall = traced["wall_s"] if cold else merged["wall_s"]
        summary = summarize_cells(passes)
        result["metrics"] = layer_metrics(
            merged, wall, plain["wall_s"], traced["import_s"],
            sum(c["bytes"] for c in traced["cells"]), summary["digest_mismatches"], cold)
        result["units"] = PER_LAYER
        result["samples"] = {k: 1 for k in PER_LAYER}
        result["layers"] = merged
        result["traced_wall_s"] = wall
        if not cold:
            result["setup_trace"] = traced["trace"]["phases"].get("setup")
    else:
        # Set-up samples are taken before, between and after the passes, so
        # that their median spans the run rather than one moment of it.
        setups, passes = [], []
        t0 = time.monotonic()
        while True:
            setups += setup_samples(name, workload, seed)
            passes.append(one_pass())
            if passes[-1]["crashed"]:
                break
            spent = time.monotonic() - t0
            if spent + statistics.median(p["wall_s"] for p in passes) > seconds:
                break
        setups += setup_samples(name, workload, seed)
        good = [p for p in passes if not p["crashed"]]
        if not good:
            raise HarnessError(f"{name}: every pass crashed: {passes[-1]['cells'][0]['errors']}")
        summary = summarize_cells(passes)
        setups += [p["setup_s"] for p in good if "setup_s" in p]
        if cold:
            # high-water mark over every child this process waited for: the
            # largest cli process (the import check and --help runs are smaller)
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            rss_mb = max(p["rss_mb"] for p in good)
        cell_s = median_cell_seconds(good)
        result["wall_s"] = statistics.median(p["wall_s"] for p in good)
        result["probe_mean_s"] = statistics.median(p["probe_mean_s"] for p in good)
        result["metrics"] = {
            "wall_rel": statistics.median(p["wall_s"] / p["probe_mean_s"] for p in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        result["units"] = END_TO_END
        result["samples"] = {"wall_rel": len(good), "setup_s": len(setups), "peak_rss_mb": len(good)}
        result["cmd_s"] = sorted(cell_s.values())
        result["claim_s"] = claim_seconds(good, cell_s)
    result["attempted"] = summary["attempted"]
    result["failed"] = summary["failed"]
    result["failures"] = summary["failures"]
    result["correct"] = not summary["unexpected"]
    result["digest_mismatches"] = summary["digest_mismatches"]
    return result


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": platform.processor() or platform.machine(), "git_revision": "unknown"}
    try:
        env["loadavg_start"] = list(os.getloadavg())
    except OSError:
        env["loadavg_start"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        env["git_revision"] = ref
    except OSError:
        pass
    return env


# ---------------------------------------------------------------------------
# output


def format_report(res: dict) -> str:
    lines = [f"== {res['workload']}  seed={res['seed']}  trace={int(res['trace'])}"]
    lines.append(f"{'metric':32} {'value':>14} {'unit':6} {'samples':>7}")
    for key, unit in res["units"].items():
        lines.append(f"{key:32} {res['metrics'][key]:14.6g} {unit:6} {res['samples'][key]:7d}")
    frac = res["failed"] / res["attempted"]
    lines.append(f"{'failed_frac':32} {frac:14.6g} {'ratio':6} {res['attempted']:7d}")
    if not res["trace"]:
        lines.append(f"{'wall_s':32} {res['wall_s']:14.6g} {'s':6} {res['samples']['wall_rel']:7d}")
        lines.append(f"{'probe_s':32} {res['probe_mean_s']:14.6g} {'s':6} {res['samples']['wall_rel']:7d}")
        cmd = res["cmd_s"]
        lines.append(f"{'cmd_s.p50':32} {statistics.median(cmd):14.6g} {'s':6} {len(cmd):7d}")
        tail = percentile_tail(cmd)
        if tail:
            lines.append(f"{f'cmd_s.p{tail[0]}':32} {tail[1]:14.6g} {'s':6} {len(cmd):7d}")
        for claim, (total, count) in sorted(res["claim_s"].items()):
            if claim != "certs":
                lines.append(f"{'claim_s.' + claim:32} {total:14.6g} {'s':6} {count:7d}")
    else:
        wall = res["traced_wall_s"]
        lines.append(f"layer split of the traced pass ({wall:.3f} s timed):")
        lines.append(f"  {'layer':24} {'self_s':>10} {'share':>7} {'spans':>9}")
        layers = res["layers"]
        for layer in LAYERS:
            own = layers["layer_self"].get(layer, 0.0)
            spans = layers["layer_spans"].get(layer, 0)
            lines.append(f"  {layer:24} {own:10.4f} {own / wall if wall else 0:7.1%} {spans:9d}")
        lines.append(f"  {'tracer counters':24} {layers['counter_s']:10.4f} "
                     f"{layers['counter_s'] / wall if wall else 0:7.1%}")
        lines.append(f"wrapped names: {layers['wrapped']}; missing: {', '.join(layers['missing']) or 'none'}")
        setup = res.get("setup_trace")
        if setup:
            own: dict[str, float] = {}
            for _parent, layer, _n, _tot, s in setup["edges"]:
                own[layer] = own.get(layer, 0.0) + s
            top = sorted(own.items(), key=lambda kv: -kv[1])[:5]
            lines.append(f"set-up phase ({setup['wall_s']:.3f} s): "
                         + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    if res["digest_mismatches"]:
        lines.append(f"output digest differs from the record in {res['digest_mismatches']} cells")
    counts: dict[str, int] = {}
    first: dict[str, dict] = {}
    for c in res["failures"]:
        counts[c["id"]] = counts.get(c["id"], 0) + 1
        first.setdefault(c["id"], c)
    for cid, c in first.items():
        tag = f" [known defect: {c['known_defect']}]" if c["known_defect"] else ""
        lines.append(f"FAILED x{counts[cid]} {cid}: {'; '.join(c['errors'])}{tag}")
    return "\n".join(lines)


def result_line(res: dict) -> dict:
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in res["units"].items()},
    }


def run_all(args) -> int:
    """Each workload in a run.py process of its own; prints their reports."""
    lines = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        out = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]))
        lines.append((name, json.loads(out[-1])))
    print(json.dumps({"correct": all(r["correct"] for _, r in lines),
                      "attempted": sum(r["attempted"] for _, r in lines),
                      "failed": sum(r["failed"] for _, r in lines),
                      "metrics": {f"{name}/{k}": v for name, r in lines for k, v in r["metrics"].items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.out:
            parser.error("--out takes a single workload")
        return run_all(args)
    known = {**WORKLOADS, **mini_workloads()}
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}")
    env = environment()
    try:
        preflight()
        res = run_workload(args.workload, known[args.workload], args.seed, args.seconds,
                           bool(args.trace), oracle.load_expected())
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env))
    print(format_report(res))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "result": res}, fh, indent=1, default=str)
    print(json.dumps(result_line(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

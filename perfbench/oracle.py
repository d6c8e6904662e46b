"""Correctness oracle for benchmark cells.

It shares no code with curvlab's elimination engine.  A cell is wrong when
its exit code differs from the documented one, when a verdict is not
``pass``, when a dimension differs from its closed form, or when an integer
or boolean quantity differs from the value recorded in ``expected.json``.
A differing digest of the whole output is only counted (as
``report.json_digest_mismatches``): a later provenance field changes the
bytes without changing an answer.

Closed forms (n = 2m for the structure-compatible spaces, Tricerri and
Vanhecke, Trans. AMS 267 (1981)):

    affine      n^2 (n^2 - 1) / 3
    riemann     n^2 (n^2 - 1) / 12
    weyl        riemann + n (n - 1) / 2
    conformal   riemann - n (n + 1) / 2
    sigma_image weyl - riemann
    kaehler     (m (m + 1) / 2)^2, for kaehler_riemann, and for kaehler_weyl
                once n >= 6
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# report quantity -> closed-form space name
QUANTITY_SPACES = {
    "dim_weyl": "weyl",
    "dim_weyl_closed_form": "weyl",
    "dim_riemann": "riemann",
    "dim_conformal": "conformal",
    "dim_sigma_image": "sigma_image",
    "dim_kaehler_weyl": "kaehler_weyl",
    "dim_kaehler_riemann": "kaehler_riemann",
}


def closed_form_dims(n: int, kind: str) -> dict[str, int]:
    riemann = n * n * (n * n - 1) // 12
    dims = {
        "affine": n * n * (n * n - 1) // 3,
        "riemann": riemann,
        "weyl": riemann + n * (n - 1) // 2,
        "conformal": riemann - n * (n + 1) // 2,
        "sigma_image": n * (n - 1) // 2,
    }
    if kind in ("complex", "para") and n % 2 == 0:
        m = n // 2
        dims["kaehler_riemann"] = (m * (m + 1) // 2) ** 2
        if n >= 6:
            dims["kaehler_weyl"] = dims["kaehler_riemann"]
    return dims


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flatten(value, prefix: str = "") -> dict:
    """Integer and boolean leaves of a JSON document, keyed by their path."""
    out: dict = {}
    if isinstance(value, dict):
        for k, v in value.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.update(flatten(v, f"{prefix}[{i}]"))
    elif isinstance(value, (bool, int)):
        out[prefix] = value
    return out


def checked_values(argv: list[str], payload: dict) -> dict:
    """The quantities of one command's output that must match the record."""
    if argv[0] == "verify":
        values = flatten(payload.get("quantities", {}), "quantities")
        values["verdict"] = payload.get("verdict")
        return values
    if argv[0] == "dims":
        return flatten(payload.get("dims", {}), "dims")
    # eval maps: the computed values are exact rationals rendered as text
    return {k: payload[k] for k in ("value", "terms", "total") if k in payload}


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def closed_form_errors(argv: list[str], payload: dict) -> list[str]:
    n = int(_option(argv, "--n", "6"))
    forms = closed_form_dims(n, _option(argv, "--kind", "complex"))
    errors = []
    if argv[0] == "dims":
        pairs = [(name, payload.get("dims", {}).get(name)) for name in forms]
    else:
        quantities = payload.get("quantities", {})
        pairs = [(QUANTITY_SPACES[q], quantities[q]) for q in QUANTITY_SPACES if q in quantities]
    for name, got in pairs:
        want = forms.get(name)
        if want is not None and got != want:
            errors.append(f"dim {name} = {got}, closed form {want}")
    return errors


def check_command(cell: dict, rc: int | None, stdout: str, expected: dict) -> tuple[list[str], bool]:
    """(errors, digest_mismatch) for one command cell."""
    argv = cell["argv"]
    if rc != cell["expect_rc"]:
        return [f"exit {rc}, documented {cell['expect_rc']}"], False
    if cell["expect_rc"] != 0:
        return [], False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"], False
    errors = []
    if argv[0] == "verify" and payload.get("verdict") != "pass":
        errors.append(f"verdict {payload.get('verdict')!r}")
    if argv[0] in ("verify", "dims"):
        errors += closed_form_errors(argv, payload)
    record = expected.get(cell["id"])
    if record is None:
        return errors + ["no recorded values for this cell"], False
    got = checked_values(argv, payload)
    for key, want in record["values"].items():
        if got.get(key) != want:
            errors.append(f"{key} = {got.get(key)!r}, recorded {want!r}")
    for key in sorted(set(got) - set(record["values"])):
        errors.append(f"{key} is not in the record")
    return errors, digest(stdout) != record["digest"]


def check_certs(n: int, kind: str, name: str, dim: int, witness, expected: dict) -> list[str]:
    """A catalog space must be invariant and have its recorded dimension."""
    errors = []
    if witness is not None:
        errors.append(f"not invariant: {witness}")
    want = closed_form_dims(n, kind).get(name)
    if want is not None and dim != want:
        errors.append(f"dim {name} = {dim}, closed form {want}")
    recorded = expected.get(f"certs n={n} {kind}", {}).get(name)
    if recorded is None:
        errors.append("no recorded dimension for this space")
    elif dim != recorded:
        errors.append(f"dim {name} = {dim}, recorded {recorded}")
    return errors

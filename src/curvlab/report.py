"""Structured verification reports with JSON and markdown renderings."""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Sequence


def scalar_to_str(x: Fraction) -> str:
    """Render a rational as ``p/q`` (or ``p`` when the denominator is one)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scrub(value: Any) -> Any:
    """Make a value JSON-ready: exact rationals become `p/q` strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return scalar_to_str(value)
    if isinstance(value, dict):
        return {str(k): scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub(v) for v in value]
    return str(value)


class VerificationReport(NamedTuple):
    """Outcome of one claim check: quantities, verdict, and failure witnesses.

    Built once, by :func:`curvature.run_claim`, from what a verifier
    returns.  The verdict is always derivable from the recorded quantities;
    witnesses carry explicit tensors when a claim fails (or when a
    documented expected failure is exhibited, as for the low-dimensional
    gap).
    """

    claim: str
    description: str
    space: dict
    quantities: dict
    verdict: bool
    witnesses: Sequence[dict] = ()
    notes: Sequence[str] = ()

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "space": scrub(self.space),
            "quantities": scrub(self.quantities),
            "verdict": "pass" if self.verdict else "fail",
            "witnesses": scrub(self.witnesses),
            "notes": scrub(self.notes),
        }


def render_markdown(report: VerificationReport) -> str:
    lines = [
        f"## {report.claim}: {'PASS' if report.verdict else 'FAIL'}",
        "",
        report.description,
        "",
        f"space: `{scrub(report.space)}`",
        "",
        "| quantity | value |",
        "| --- | --- |",
    ]
    for key, value in report.quantities.items():
        lines.append(f"| {key} | `{scrub(value)}` |")
    for note in report.notes:
        lines += ["", f"note: {note}"]
    if report.witnesses:
        lines += ["", f"witnesses: {len(report.witnesses)} (see JSON output for components)"]
    return "\n".join(lines) + "\n"


def exit_code_for(reports: Iterable[VerificationReport]) -> int:
    """0 when every claim passes (expected-failure claims pass as such), else 1."""
    return 0 if all(r.verdict for r in reports) else 1

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every dimension asserted here was produced by a rank oracle (kernel of
explicitly assembled constraint matrices; see test_curvature.py for the
independent dense cross-checks at small n) before being frozen, and the
closed-form dimension formulas are asserted alongside.  All arithmetic is
exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time
from fractions import Fraction

import pytest

from curvlab.linalg import subspace_sum
from curvlab.spaces import make_standard, random_lie_elements
from curvlab.curvature import (
    build_catalog,
    catalog,
    commutant_kernel,
    invariance_witness,
    invariant_span_dimension,
    representation_matrices,
    run_claim,
)
from curvlab.nijenhuis import nijenhuis_at, twist
from curvlab.tensors import (
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
    inner2,
)
from oracles import (
    Matrix,
    block_diag,
    dense_kernel,
    dense_rref,
    same_span,
    tensor4_from_obj,
    two_form_coordinates,
    wedge_omega_matrix,
)

F = Fraction


def configured_spaces(n, kind):
    """The signature/layout instances every multi-signature criterion runs over."""
    if kind == "complex":
        return [make_standard(n, "complex", (n, 0)), make_standard(n, "complex", (n - 2, 2))]
    flipped = tuple(-e for e in make_standard(n, "para").eps)
    return [make_standard(n, "para"), make_standard(n, "para", eps=flipped)]


def _report(num: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_1_probe_value_suite():
    spaces = [
        make_standard(6, "complex", (6, 0)),
        make_standard(6, "complex", (4, 2)),
        make_standard(6, "para"),
    ]
    checks = {}
    start = time.perf_counter()
    for s in spaces:
        rep = run_claim("sec5", s)
        probe_results = [v for v in rep.quantities.values() if isinstance(v, dict) and "computed" in v]
        tag = f"{s.kind}{s.signature}"
        checks[f"{tag}: all probes exact"] = all(p["computed"] == p["expected"] for p in probe_results)
        checks[f"{tag}: probe count"] = len(probe_results) == 12
        checks[f"{tag}: verdict"] = rep.verdict
    elapsed = time.perf_counter() - start
    checks["runtime under 1s"] = elapsed < 1.0
    _report(1, f"itemized probe values, exact, three signatures ({elapsed:.2f}s)", checks)


def test_criterion_2_headline_collapse():
    checks = {}
    start = time.perf_counter()
    for kind in ("complex", "para"):
        for s in configured_spaces(6, kind):
            rep = run_claim("thm1.5", s)
            tag = f"n=6 {kind} eps={''.join('+' if e > 0 else '-' for e in s.eps)}"
            checks[f"{tag}: dims equal"] = (
                rep.quantities["dim_kaehler_weyl"] == rep.quantities["dim_kaehler_riemann"]
            )
            checks[f"{tag}: contained in riemann"] = rep.quantities["kaehler_weyl_inside_riemann"]
            checks[f"{tag}: verdict"] = rep.verdict
    elapsed6 = time.perf_counter() - start
    for kind in ("complex", "para"):
        s = make_standard(4, kind)
        rep = run_claim("thm1.5", s)
        tag = f"n=4 {kind}"
        checks[f"{tag}: strict gap"] = (
            rep.quantities["dim_kaehler_weyl"] > rep.quantities["dim_kaehler_riemann"]
        )
        checks[f"{tag}: witness emitted"] = len(rep.witnesses) == 1
        if rep.witnesses:
            witness = tensor4_from_obj(rep.to_json_dict()["witnesses"][0]["tensor"])
            checks[f"{tag}: witness satisfies first-pair identity"] = defect_antisym(witness).is_zero()
            checks[f"{tag}: witness satisfies cyclic identity"] = defect_bianchi(witness).is_zero()
            checks[f"{tag}: witness satisfies weyl identity"] = defect_weyl(witness, s).is_zero()
            checks[f"{tag}: witness satisfies structure identity"] = defect_kaehler(witness, s).is_zero()
            checks[f"{tag}: witness fails last-pair alternation"] = not defect_riemann(witness).is_zero()
        checks[f"{tag}: verdict"] = rep.verdict
    checks["n=6 runtime under 2min"] = elapsed6 < 120.0
    _report(2, f"structure-compatible weyl tensors are riemannian at n=6; strict n=4 gap ({elapsed6:.1f}s)", checks)


def test_criterion_3_weyl_direct_sum():
    checks = {}
    for n in (4, 6):
        for kind in ("complex", "para"):
            for s in configured_spaces(n, kind):
                rep = run_claim("thm4.2", s)
                tag = f"n={n} {kind} sig={s.signature} eps[0]={s.eps[0]}"
                expected = n * n * (n * n - 1) // 12 + n * (n - 1) // 2
                checks[f"{tag}: verdict"] = rep.verdict
                checks[f"{tag}: additivity"] = rep.quantities["dim_weyl"] == expected
                checks[f"{tag}: orthogonal"] = rep.quantities["gram_orthogonality_violations"] == 0
    _report(3, "weyl space = riemann ⊕ five-term image, orthogonally, with exact dimension additivity", checks)


def test_criterion_4_ricci_ranks():
    checks = {}
    for n, conformal_dim in ((4, 10), (6, 84)):
        rep = run_claim("thm4.1", make_standard(n, "none"))
        checks[f"n={n}: rank on riemann"] = rep.quantities["ricci_rank_on_riemann"] == n * (n + 1) // 2
        checks[f"n={n}: conformal kernel dim"] = rep.quantities["dim_conformal"] == conformal_dim
        checks[f"n={n}: kernel equals conformal"] = rep.quantities["ricci_kernel_equals_conformal"]
        checks[f"n={n}: rank on weyl"] = rep.quantities["ricci_rank_on_weyl"] == n * n
        checks[f"n={n}: verdict"] = rep.verdict
    _report(4, "ricci contraction ranks and the conformal kernel, exact", checks)


def test_criterion_5_two_tensor_splitting():
    checks = {}
    for kind in ("complex", "para"):
        for s in configured_spaces(6, kind):
            split = catalog(s).two_tensors
            pieces = split.pieces()
            tag = f"{kind} eps[0]={s.eps[0]}"
            checks[f"{tag}: dims"] = [sub.dim for _, sub in pieces] == [1, 8, 12, 1, 8, 6]
            checks[f"{tag}: sum"] = sum(sub.dim for _, sub in pieces) == 36
            orth = True
            for i, (_, a) in enumerate(pieces):
                for _, b in pieces[i + 1 :]:
                    for va in a.basis_dicts():
                        for vb in b.basis_dicts():
                            if inner2(s, va, vb) != 0:
                                orth = False
            checks[f"{tag}: pairwise orthogonal"] = orth
            checks[f"{tag}: invariant"] = all(
                invariance_witness(sub, s, "Ustar") is None for _, sub in pieces
            )
    _report(5, "six-piece rank-2 splitting: dims (1,8,12,1,8,6), orthogonal, group-invariant", checks)


def test_criterion_6_commutants_and_invariant_span():
    checks = {}
    for kind in ("complex", "para"):
        s = make_standard(6, kind)
        split = catalog(s).two_tensors
        d = split.alt_opposed.dim
        mats = list(representation_matrices(split.alt_opposed, s, "Ustar").values())
        doubled = [block_diag(Matrix.from_dict(d, m)).to_dict() for m in mats]
        checks[f"{kind}: commutant line"] = commutant_kernel(mats, d).dim == 1
        checks[f"{kind}: doubled commutant"] = commutant_kernel(doubled, 2 * d).dim == 4
        checks[f"{kind}: invariant span"] = (
            invariant_span_dimension(split.alt_opposed, split.alt_opposed, s) == 1
        )
    _report(6, "equivariant self-maps: scalar line, 2x2 doubled block, single invariant pairing", checks)


def test_criterion_7_nijenhuis_breakdown():
    checks = {}
    start = time.perf_counter()
    s = make_standard(6, "complex")
    generator = twist(s, (0, 2), "circular")
    value = nijenhuis_at(s, generator, F(1), 0, 2)
    d1 = tuple(F(1 if i == 0 else 0) for i in range(6))
    zero = (F(0),) * 6
    checks["complex: four-term breakdown"] = value.terms == (zero, zero, d1, zero)
    checks["complex: total"] = value.total == d1
    control = nijenhuis_at(s, generator, F(0), 0, 2)
    checks["identity control vanishes"] = not any(control.total)
    sp = make_standard(6, "para")
    checks["para analogue nonzero"] = any(nijenhuis_at(sp, twist(sp, (0, 2), "circular"), F(1), 0, 2).total)
    elapsed = time.perf_counter() - start
    checks["runtime under 1s"] = elapsed < 1.0
    _report(7, f"twisted-structure bracket values, exact ({elapsed:.2f}s)", checks)


def test_criterion_8_wedge_multiplication():
    checks = {}
    for kind, sig in (("complex", None), ("complex", (2, 2)), ("para", None)):
        tag = f"{kind}{'' if sig is None else sig}"
        s4 = make_standard(4, kind, sig)
        matrix = wedge_omega_matrix(s4)
        split = catalog(s4).two_tensors
        primitive = subspace_sum(split.alt_aligned_traceless, split.alt_opposed)
        checks[f"{tag} n=4: rank 1"] = dense_rref(matrix)[1] == 1
        checks[f"{tag} n=4: kernel is aligned traceless + opposed"] = same_span(
            dense_kernel(matrix, 6), two_form_coordinates(primitive, 4)  # six 2-form coordinates at n = 4
        )
    for kind in ("complex", "para"):
        for n in (6, 8):
            pairs = n * (n - 1) // 2
            rank = dense_rref(wedge_omega_matrix(make_standard(n, kind)))[1]
            checks[f"{kind} n={n}: injective rank {pairs}"] = rank == pairs
    _report(8, "wedge multiplication by the fundamental form: injective at n=6, 8; "
               "rank 1 with the primitive 2-forms as kernel at n=4", checks)


O_ONLY = ("affine", "weyl", "riemann", "conformal", "sigma_image")


@pytest.mark.parametrize("n,kind", [(4, "complex"), (4, "para"), (6, "complex"), (6, "para")])
def test_criterion_9_invariance_sweep(n, kind):
    s = make_standard(n, kind)
    catalog = build_catalog(s)
    extra = {
        "O": random_lie_elements(s, "O", 20, seed=2024),
        "U": random_lie_elements(s, "U", 20, seed=2025),
    }
    checks = {}
    for name, sub in catalog.all_spaces():
        group = "O" if name in O_ONLY else "Ustar"
        witness = invariance_witness(sub, s, group, extra_lie=extra["O" if group == "O" else "U"])
        checks[f"{name} (dim {sub.dim})"] = witness is None
    _report(9, f"invariance sweep n={n} {kind}: 20 random algebra elements + all component reps", checks)

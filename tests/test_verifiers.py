"""Claim verifiers: report structure, verdicts, witnesses, probe values."""

from fractions import Fraction

import pytest

from curvlab.spaces import make_standard
from curvlab.curvature import CLAIMS, ClaimNotApplicable, run_claim
from curvlab.tensors import (
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
)
from oracles import tensor4_from_obj

F = Fraction


@pytest.mark.parametrize("kind,sig", [("complex", (4, 0)), ("para", None)])
def test_weyl_direct_sum_n4(kind, sig):
    rep = run_claim("thm4.2", make_standard(4, kind, sig))
    assert rep.verdict
    assert rep.quantities["dim_intersection"] == 0
    assert rep.quantities["gram_orthogonality_violations"] == 0
    assert rep.quantities["dim_weyl"] == 26


@pytest.mark.parametrize("kind,sig", [("complex", (6, 0)), ("complex", (4, 2)), ("para", None)])
def test_weyl_direct_sum_n6(kind, sig):
    rep = run_claim("thm4.2", make_standard(6, kind, sig))
    assert rep.verdict
    assert rep.quantities["dim_weyl"] == 120
    assert rep.quantities["dim_riemann"] == 105
    assert rep.quantities["dim_sigma_image"] == 15


@pytest.mark.parametrize(
    "n,rank,conformal", [(4, 10, 10), (6, 21, 84)]
)
def test_riemann_ricci_split(n, rank, conformal):
    rep = run_claim("thm4.1", make_standard(n, "none"))
    assert rep.verdict
    assert rep.quantities["ricci_rank_on_riemann"] == n * (n + 1) // 2
    assert rep.quantities["dim_conformal"] == conformal
    assert rep.quantities["ricci_rank_on_weyl"] == n * n


@pytest.mark.parametrize(
    "kind,eps",
    [
        ("complex", None),
        ("para", None),
        ("para", (-1, 1, -1, 1, -1, 1)),
    ],
)
def test_collapse_passes_n6(kind, eps):
    s = make_standard(6, kind, eps=eps)
    rep = run_claim("thm1.5", s)
    assert rep.verdict
    assert rep.quantities["dim_kaehler_weyl"] == rep.quantities["dim_kaehler_riemann"] == 36
    assert rep.quantities["kaehler_weyl_inside_riemann"]
    assert rep.quantities["dim_sigma_image_meet_kaehler"] == 0


def test_collapse_indefinite_complex():
    rep = run_claim("thm1.5", make_standard(6, "complex", (4, 2)))
    assert rep.verdict


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_collapse_passes_n8(kind):
    rep = run_claim("thm1.5", make_standard(8, kind))
    assert rep.verdict
    assert rep.quantities["dim_kaehler_weyl"] == rep.quantities["dim_kaehler_riemann"] == 100
    assert rep.quantities["dim_weyl"] == 364


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_collapse_gap_and_witness_n4(kind):
    s = make_standard(4, kind)
    rep = run_claim("thm1.5", s)
    assert rep.verdict  # pass means the documented failure was exhibited
    assert rep.quantities["gap"] == 5
    assert rep.quantities["dim_kaehler_weyl"] == 14
    assert rep.quantities["dim_kaehler_riemann"] == 9
    assert len(rep.witnesses) == 1
    # independently re-verify the emitted witness through the dense operators
    witness = tensor4_from_obj(rep.to_json_dict()["witnesses"][0]["tensor"])
    assert defect_antisym(witness).is_zero()
    assert defect_bianchi(witness).is_zero()
    assert defect_weyl(witness, s).is_zero()
    assert defect_kaehler(witness, s).is_zero()
    assert not defect_riemann(witness).is_zero()


def test_collapse_requires_structure():
    with pytest.raises(ClaimNotApplicable) as exc:
        run_claim("thm1.5", make_standard(4, "none"))
    assert str(exc.value) == "needs a structured space"


@pytest.mark.parametrize("kind,sig", [("complex", (6, 0)), ("complex", (4, 2)), ("para", None)])
def test_probe_suite(kind, sig):
    s = make_standard(6, kind, sig)
    rep = run_claim("sec5", s)
    assert rep.verdict
    probe_results = [v for v in rep.quantities.values() if isinstance(v, dict) and "computed" in v]
    assert len(probe_results) == 12
    assert all(p["match"] for p in probe_results)
    assert rep.quantities["omega_line_excluded"]
    assert rep.quantities["aligned_traceless_excluded"]
    assert rep.quantities["pair_sweep_rank"] == 2
    assert rep.quantities["dim_opposed_pair_meet_kaehler"] == 0


def test_probe_suite_requires_n6():
    with pytest.raises(ClaimNotApplicable) as exc:
        run_claim("sec5", make_standard(4, "complex"))
    assert str(exc.value) == "needs n >= 6"


def test_probe_values_match_closed_forms_in_signature():
    """In signature (4,2) the h55 factor flips sign; the suite tracks it."""
    s = make_standard(6, "complex", (4, 2))
    rep = run_claim("sec5", s)
    assert rep.quantities["sigma(opposed)@(5,1,3,5)"]["expected"] == F(1)  # -h55 with h55 = -1
    assert rep.quantities["psi(opposed)@(5,6,1,4)"]["expected"] == F(-2)


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_all_claims_pass_complex6(claim, complex6):
    rep = run_claim(claim, complex6)
    assert rep.verdict, rep.to_json_dict()


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_all_claims_pass_para6(claim, para6):
    rep = run_claim(claim, para6)
    assert rep.verdict, rep.to_json_dict()


def test_unknown_claim_rejected(complex6):
    with pytest.raises(ValueError):
        run_claim("thm9.9", complex6)


def test_report_json_shape(complex6):
    rep = run_claim("eq4d", complex6)
    obj = rep.to_json_dict()
    assert set(obj) == {"claim", "description", "space", "quantities", "verdict", "witnesses", "notes"}
    assert obj["verdict"] == "pass"
    assert obj["space"]["n"] == 6


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_unextended_commutant_reported_without_verdict(kind):
    rep = run_claim("eq4d", make_standard(6, kind))
    assert rep.quantities["commutant_dimension"] == 1
    assert rep.quantities["commutant_dimension_unextended_group"] == 2
    assert rep.verdict  # the verdict rests on the extended group only

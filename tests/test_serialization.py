"""JSON forms: reports render every rational through ``report.scalar_to_str``, exactly."""

import json
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from curvlab.report import scalar_to_str, scrub
from curvlab.spaces import make_standard
from curvlab.tensors import Tensor4, kaehler_form, sigma
from oracles import tensor4_from_obj

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=97)


@given(rationals)
def test_scalar_round_trip(x):
    assert Fraction(scalar_to_str(x)) == x


def test_scalar_string_forms():
    assert scalar_to_str(F(3)) == "3"
    assert scalar_to_str(F(-7, 2)) == "-7/2"
    assert scalar_to_str(F(5, 10)) == "1/2"


def test_tensor_round_trips():
    # a report's witness tensor is scrubbed to strings; decoding it gives the tensor back
    s = make_standard(4, "para")
    t4 = Tensor4.from_dict(4, sigma({c: v / 3 for c, v in kaehler_form(s).items()}, s))
    obj = {"rank": 4, "n": 4, "components": list(t4.components)}
    assert tensor4_from_obj(json.loads(json.dumps(scrub(obj)))) == t4


def test_model_space_round_trip():
    # a report's space block is enough to rebuild the space
    for kind, eps in (("complex", None), ("complex", (1, 1, -1, -1)), ("para", (-1, 1, -1, 1))):
        s = make_standard(4, kind, eps=eps)
        block = json.loads(json.dumps(scrub(s.describe())))
        assert make_standard(block["n"], block["kind"], eps=tuple(block["eps"])) == s


def test_report_scrubs_fractions():
    from curvlab.report import VerificationReport

    rep = VerificationReport(
        claim="x",
        description="d",
        space={"n": 4},
        quantities={"value": F(-1, 2), "nested": [F(3), {"deep": F(7, 3)}], "flag": True},
        verdict=True,
    )
    obj = rep.to_json_dict()
    assert obj["quantities"]["value"] == "-1/2"
    assert obj["quantities"]["nested"] == ["3", {"deep": "7/3"}]
    assert obj["quantities"]["flag"] is True
    json.dumps(obj)  # must be serializable as-is

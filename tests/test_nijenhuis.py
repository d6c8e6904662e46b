"""Twisted-structure integrability: the closed-form four-term breakdown at the
origin, pinned against brackets assembled from general first-order jets."""

from fractions import Fraction

import pytest

from curvlab.spaces import make_standard, structure_sign
from curvlab.nijenhuis import NijenhuisValue, nijenhuis_at, twist
from oracles import (
    Matrix,
    bracket_at,
    coordinate_field,
    gram,
    linear_field,
    rotation_generator,
    structure_applied,
    transpose,
)

F = Fraction


def zero_vec(n):
    return (F(0),) * n


# --- brackets ---------------------------------------------------------------


def test_bracket_of_constant_fields():
    p = zero_vec(4)
    assert bracket_at(coordinate_field(4, 0), coordinate_field(4, 2), p) == zero_vec(4)


def test_bracket_linear_field():
    # [d1, x1 d3] = d3 at any point
    n = 4
    m = Matrix.from_rows([[0] * n, [0] * n, [1, 0, 0, 0], [0] * n])
    field = linear_field(m)
    for p in (zero_vec(n), (F(2), F(-1), F(0), F(3))):
        value = bracket_at(coordinate_field(n, 0), field, p)
        assert value == (F(0), F(0), F(1), F(0))


def test_bracket_antisymmetry_on_random_jets():
    import random

    rng = random.Random(5)
    n = 4
    for _ in range(10):
        ma = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        mb = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        x, y = linear_field(ma), linear_field(mb)
        p = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        lhs = bracket_at(x, y, p)
        rhs = bracket_at(y, x, p)
        assert lhs == tuple(-v for v in rhs)


# --- twists -----------------------------------------------------------------


def test_twist_zero_angle_is_identity():
    """At slope 0 the twist is the identity to first order: the structure
    field is the constant J, and every probe term vanishes."""
    s = make_standard(6, "complex")
    g = twist(s, (0, 2), "circular")
    jdx = structure_applied(s, Matrix.from_dict(6, g), F(0), coordinate_field(6, 0))
    assert jdx.at(zero_vec(6)) == (Matrix.from_dict(6, s.j).matvec([1, 0, 0, 0, 0, 0]), Matrix.zero(6, 6))
    assert nijenhuis_at(s, g, F(0), 0, 2) == NijenhuisValue(terms=(zero_vec(6),) * 4, total=zero_vec(6))


def test_twist_plane_validation():
    s = make_standard(4, "para")  # eps (+,-,+,-)
    twist(s, (0, 2), "circular")  # (+,+) plane: fine
    with pytest.raises(ValueError, match="mixed-signature plane"):
        twist(s, (0, 1), "circular")
    with pytest.raises(ValueError, match="definite plane"):
        twist(s, (0, 2), "hyperbolic")
    twist(s, (0, 3), "hyperbolic")  # mixed plane: fine
    with pytest.raises(ValueError, match="distinct and in range"):
        twist(s, (2, 2), "circular")
    with pytest.raises(ValueError, match="distinct and in range"):
        twist(s, (0, 4), "circular")
    with pytest.raises(ValueError, match="circular or hyperbolic"):
        twist(s, (0, 2), "elliptic")


def test_twist_generator_is_an_infinitesimal_isometry():
    """On every plane where the rotation is allowed, ``twist`` returns the
    derivative at angle 0 of the rotation, G, and G^T H + H G = 0: the twist
    preserves the metric to first order.  G^2 is -1 (circular) or +1
    (hyperbolic) on the plane and 0 off it."""
    for n, kind, sig in ((4, "complex", None), (4, "complex", (2, 2)), (4, "para", None),
                         (6, "complex", (4, 2)), (6, "para", None)):
        s = make_standard(n, kind, sig)
        h = gram(s)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rotation = "circular" if s.eps[i] == s.eps[j] else "hyperbolic"
                g = Matrix.from_dict(n, twist(s, (i, j), rotation))
                assert g == rotation_generator(n, (i, j), rotation)
                assert transpose(g).mul(h).add(h.mul(g)) == Matrix.zero(n, n)
                sign = -1 if rotation == "circular" else 1
                assert g.mul(g) == Matrix.diagonal([sign if a in (i, j) else 0 for a in range(n)])


def finite_rotation(n: int, generator: Matrix, rotation: str, c: Fraction, s: Fraction) -> Matrix:
    """exp(theta G) at a rational point (c, s) = (cos, sin) or (cosh, sinh):
    I + (c - 1) P + s G, with P = -G^2 (circular) or G^2 (hyperbolic) the
    projector onto the plane."""
    sign = -1 if rotation == "circular" else 1
    projector = generator.mul(generator).scale(sign)
    return Matrix.identity(n).add(projector.scale(c - 1)).add(generator.scale(s))


def test_twist_isometry_at_rational_rotation_points():
    s = make_standard(6, "complex")
    g = Matrix.from_dict(6, twist(s, (0, 2), "circular"))
    for c, sn in ((F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))):
        assert c * c + sn * sn == 1
        t = finite_rotation(6, g, "circular", c, sn)
        assert transpose(t).mul(gram(s)).mul(t) == gram(s)
        assert t.mul(finite_rotation(6, g, "circular", c, -sn)) == Matrix.identity(6)


def test_hyperbolic_twist_isometry():
    s = make_standard(4, "para")
    g = Matrix.from_dict(4, twist(s, (0, 3), "hyperbolic"))
    c, sn = F(5, 4), F(3, 4)
    assert c * c - sn * sn == 1
    t = finite_rotation(4, g, "hyperbolic", c, sn)
    assert transpose(t).mul(gram(s)).mul(t) == gram(s)
    assert t.mul(finite_rotation(4, g, "hyperbolic", c, -sn)) == Matrix.identity(4)


# --- the four-term breakdown ---------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
def test_breakdown_matches_known_values_complex(n):
    s = make_standard(n, "complex")
    value = nijenhuis_at(s, twist(s, (0, 2), "circular"), F(1), 0, 2)
    d1 = tuple(F(1 if i == 0 else 0) for i in range(n))
    assert value.terms[0] == zero_vec(n)
    assert value.terms[1] == zero_vec(n)
    assert value.terms[2] == d1
    assert value.terms[3] == zero_vec(n)
    assert value.total == d1


def test_para_analogue_nonzero():
    s = make_standard(6, "para")
    value = nijenhuis_at(s, twist(s, (0, 2), "circular"), F(1), 0, 2)
    assert any(value.total)
    assert value.total[0] == 1


def test_identity_twist_integrable_grid():
    for kind in ("complex", "para"):
        s = make_standard(4, kind)
        for plane, rotation in (((0, 2), "circular"), ((0, 3), "circular" if kind == "complex" else "hyperbolic")):
            g = twist(s, plane, rotation)
            for x in range(4):
                for y in range(4):
                    if x == y:
                        continue
                    assert not any(nijenhuis_at(s, g, F(0), x, y).total)


def test_nijenhuis_antisymmetric_in_directions():
    s = make_standard(6, "complex")
    g = twist(s, (0, 2), "circular")
    for x, y in ((0, 2), (1, 3), (0, 4)):
        a = nijenhuis_at(s, g, F(2, 3), x, y).total
        b = nijenhuis_at(s, g, F(2, 3), y, x).total
        assert a == tuple(-v for v in b)


def test_value_scales_linearly_in_angle_slope():
    s = make_standard(6, "complex")
    g = twist(s, (0, 2), "circular")
    totals = [nijenhuis_at(s, g, c, 0, 2).total for c in (F(1), F(3), F(-1, 2))]
    assert totals[1] == tuple(3 * v for v in totals[0])
    assert totals[2] == tuple(F(-1, 2) * v for v in totals[0])


def test_hyperbolic_twist_across_planes_para():
    """The mixed-plane hyperbolic option also breaks integrability."""
    s = make_standard(6, "para")
    value = nijenhuis_at(s, twist(s, (0, 3), "hyperbolic"), F(1), 0, 3)
    assert any(value.total)


def test_requires_structure():
    s = make_standard(4, "none")
    with pytest.raises(ValueError):
        nijenhuis_at(s, twist(s, (0, 1), "circular"), F(1), 0, 1)


# --- the closed form against the jet oracle ------------------------------------


def jet_breakdowns(space, generator, slope):
    """{(x, y): (the four signed terms, their sum)} at the origin, from general
    jet brackets of the coordinate fields and their images under the
    oracle's first-order structure field."""
    u = structure_sign(space.kind)
    n = space.n
    p = zero_vec(n)
    g = Matrix.from_dict(n, generator)
    jmat = Matrix.from_dict(n, space.j)
    fields = [coordinate_field(n, k) for k in range(n)]
    applied = [structure_applied(space, g, slope, f) for f in fields]
    out = {}
    for x in range(n):
        for y in range(n):
            dx, dy, jdx, jdy = fields[x], fields[y], applied[x], applied[y]
            t1 = bracket_at(dx, dy, p)
            t2 = tuple(F(-u) * v for v in jmat.matvec(list(bracket_at(jdx, dy, p))))
            t3 = tuple(F(-u) * v for v in jmat.matvec(list(bracket_at(dx, jdy, p))))
            t4 = tuple(F(u) * v for v in bracket_at(jdx, jdy, p))
            out[x, y] = (t1, t2, t3, t4), tuple(a + b + c + d for a, b, c, d in zip(t1, t2, t3, t4))
    return out


# (n, kind, signature, plane, rotation); the hyperbolic planes are mixed
TWISTS = [
    (n, kind, sig, plane, rotation)
    for n in (4, 6)
    for kind, sig, plane, rotation in (
        ("complex", None, (0, 2), "circular"),
        ("complex", (n - 2, 2), (1, n - 2), "hyperbolic"),
        ("para", None, (1, 3), "circular"),
        ("para", None, (0, 3), "hyperbolic"),
    )
]


@pytest.mark.parametrize("n,kind,sig,plane,rotation", TWISTS,
                         ids=[f"{kind}-{rotation}-n{n}" for n, kind, _, _, rotation in TWISTS])
def test_closed_form_matches_jet_brackets(n, kind, sig, plane, rotation):
    s = make_standard(n, kind, sig)
    generator = twist(s, plane, rotation)
    for slope in (F(-2, 3), F(0)):
        nonzero = 0
        for (x, y), (terms, total) in jet_breakdowns(s, generator, slope).items():
            value = nijenhuis_at(s, generator, slope, x, y)
            assert (value.terms, value.total) == (terms, total), (slope, x, y)
            nonzero += any(total)
        # every twist here breaks integrability somewhere, unless its slope is 0
        assert bool(nonzero) == bool(slope)

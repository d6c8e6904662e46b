"""Twisted-structure integrability: the closed-form four-term breakdown,
pinned against brackets assembled from general first-order jets."""

from fractions import Fraction

import pytest

from curvlab.spaces import make_standard, structure_sign
from curvlab.nijenhuis import (
    AngleJet,
    Point,
    linear_angle,
    nijenhuis_at,
    origin,
    standard_patch,
    twist,
)
from oracles import Matrix, bracket_at, coordinate_field, gram, linear_field, structure_applied, transpose

F = Fraction


def zero_vec(n):
    return (F(0),) * n


def constant_rotation_angle(c: Fraction | int, s: Fraction | int, derivative: Fraction | int,
                            hyperbolic: bool = False) -> AngleJet:
    """A fixed rational point on the (hyperbolic) unit circle with a slope.

    Useful for sampling the isometry property away from the identity, e.g.
    (3/5, 4/5) on the circle.
    """
    c, s, derivative = Fraction(c), Fraction(s), Fraction(derivative)
    if hyperbolic:
        if c * c - s * s != 1:
            raise ValueError("hyperbolic rotation values must satisfy c^2 - s^2 = 1")
    elif c * c + s * s != 1:
        raise ValueError("rotation values must satisfy c^2 + s^2 = 1")

    def jet(p: Point) -> tuple[Fraction, Fraction, Fraction]:
        return (c, s, derivative)

    return jet


# --- brackets ---------------------------------------------------------------


def test_bracket_of_constant_fields():
    p = origin(4)
    assert bracket_at(coordinate_field(4, 0), coordinate_field(4, 2), p) == zero_vec(4)


def test_bracket_linear_field():
    # [d1, x1 d3] = d3 at any point
    n = 4
    m = Matrix.from_rows([[0] * n, [0] * n, [1, 0, 0, 0], [0] * n])
    field = linear_field(m)
    for p in (origin(n), (F(2), F(-1), F(0), F(3))):
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
    s = make_standard(6, "complex")
    tw = twist(s, linear_angle(0), (0, 2), "circular")
    assert Matrix.from_dict(6, tw.value(origin(6))) == Matrix.identity(6)
    assert Matrix.from_dict(6, tw.derivative(origin(6), 0)) == Matrix.zero(6, 6)


def test_twist_plane_validation():
    s = make_standard(4, "para")  # eps (+,-,+,-)
    twist(s, linear_angle(1), (0, 2), "circular")  # (+,+) plane: fine
    with pytest.raises(ValueError):
        twist(s, linear_angle(1), (0, 1), "circular")  # mixed plane
    with pytest.raises(ValueError):
        twist(s, linear_angle(1), (0, 2), "hyperbolic")  # definite plane
    twist(s, linear_angle(1), (0, 3), "hyperbolic")  # mixed plane: fine
    with pytest.raises(ValueError):
        twist(s, linear_angle(1), (2, 2), "circular")


def test_twist_isometry_at_rational_rotation_points():
    s = make_standard(6, "complex")
    angle = constant_rotation_angle(F(3, 5), F(4, 5), F(2))
    tw = twist(s, angle, (0, 2), "circular")
    for p in (origin(6), (F(1),) * 6):
        t = Matrix.from_dict(6, tw.value(p))
        assert transpose(t).mul(gram(s)).mul(t) == gram(s)
        assert t.mul(Matrix.from_dict(6, tw.inverse_value(p))) == Matrix.identity(6)


def test_hyperbolic_twist_isometry():
    s = make_standard(4, "para")
    angle = constant_rotation_angle(F(5, 4), F(3, 4), F(1), hyperbolic=True)
    tw = twist(s, angle, (0, 3), "hyperbolic")
    t = Matrix.from_dict(4, tw.value(origin(4)))
    assert transpose(t).mul(gram(s)).mul(t) == gram(s)


def test_linear_angle_transcendental_point_rejected():
    s = make_standard(4, "complex")
    tw = twist(s, linear_angle(1), (0, 2), "circular")
    with pytest.raises(ValueError):
        tw.value((F(1), F(0), F(0), F(0)))


def test_rotation_angle_validation():
    with pytest.raises(ValueError):
        constant_rotation_angle(F(1, 2), F(1, 2), F(1))
    with pytest.raises(ValueError):
        constant_rotation_angle(F(5, 4), F(1, 2), F(1), hyperbolic=True)


# --- the four-term breakdown ---------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
def test_breakdown_matches_known_values_complex(n):
    s = make_standard(n, "complex")
    patch = standard_patch(s, twist(s, linear_angle(1), (0, 2), "circular"))
    value = nijenhuis_at(patch, 0, 2)
    d1 = tuple(F(1 if i == 0 else 0) for i in range(n))
    assert value.terms[0] == zero_vec(n)
    assert value.terms[1] == zero_vec(n)
    assert value.terms[2] == d1
    assert value.terms[3] == zero_vec(n)
    assert value.total == d1


def test_para_analogue_nonzero():
    s = make_standard(6, "para")
    patch = standard_patch(s, twist(s, linear_angle(1), (0, 2), "circular"))
    value = nijenhuis_at(patch, 0, 2)
    assert any(value.total)
    assert value.total[0] == 1


def test_identity_twist_integrable_grid():
    for kind in ("complex", "para"):
        s = make_standard(4, kind)
        patch = standard_patch(s, None)
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                for p in (origin(4), (F(1), F(-2), F(0), F(3))):
                    assert not any(nijenhuis_at(patch, x, y, p).total)


def test_nijenhuis_antisymmetric_in_directions():
    s = make_standard(6, "complex")
    patch = standard_patch(s, twist(s, linear_angle(F(2, 3)), (0, 2), "circular"))
    for x, y in ((0, 2), (1, 3), (0, 4)):
        a = nijenhuis_at(patch, x, y).total
        b = nijenhuis_at(patch, y, x).total
        assert a == tuple(-v for v in b)


def test_value_scales_linearly_in_angle_slope():
    s = make_standard(6, "complex")
    totals = []
    for c in (F(1), F(3), F(-1, 2)):
        patch = standard_patch(s, twist(s, linear_angle(c), (0, 2), "circular"))
        totals.append(nijenhuis_at(patch, 0, 2).total)
    assert totals[1] == tuple(3 * v for v in totals[0])
    assert totals[2] == tuple(F(-1, 2) * v for v in totals[0])


def test_hyperbolic_twist_across_planes_para():
    """The mixed-plane hyperbolic option also breaks integrability."""
    s = make_standard(6, "para")
    patch = standard_patch(s, twist(s, linear_angle(1), (0, 3), "hyperbolic"))
    value = nijenhuis_at(patch, 0, 3)
    assert any(value.total)


def test_requires_structure():
    s = make_standard(4, "none")
    patch = standard_patch(s, None)
    with pytest.raises(ValueError):
        nijenhuis_at(patch, 0, 1)


# --- the closed form against the jet oracle ------------------------------------


def jet_breakdown(structure, x, y, p):
    """The four signed terms and their sum from general jet brackets."""
    u = structure_sign(structure.space.kind)
    n = structure.space.n
    dx, dy = coordinate_field(n, x), coordinate_field(n, y)
    jdx, jdy = structure_applied(structure, dx), structure_applied(structure, dy)
    jmat = Matrix.from_dict(n, structure.value(p))
    t1 = bracket_at(dx, dy, p)
    t2 = tuple(F(-u) * v for v in jmat.matvec(list(bracket_at(jdx, dy, p))))
    t3 = tuple(F(-u) * v for v in jmat.matvec(list(bracket_at(dx, jdy, p))))
    t4 = tuple(F(u) * v for v in bracket_at(jdx, jdy, p))
    total = tuple(a + b + c + d for a, b, c, d in zip(t1, t2, t3, t4))
    return (t1, t2, t3, t4), total


# (kind, signature, plane, rotation); the hyperbolic planes are mixed
TWISTS = [
    ("complex", None, (0, 2), "circular"),
    ("complex", (2, 2), (1, 2), "hyperbolic"),
    ("para", None, (1, 3), "circular"),
    ("para", None, (0, 3), "hyperbolic"),
]


@pytest.mark.parametrize("var", [0, 2])
@pytest.mark.parametrize("at_origin", [True, False], ids=["origin", "off-origin"])
@pytest.mark.parametrize("kind,sig,plane,rotation", TWISTS)
def test_closed_form_matches_jet_brackets(kind, sig, plane, rotation, at_origin, var):
    s = make_standard(4, kind, sig)
    if at_origin:
        p, angle = origin(4), linear_angle(F(-2, 3), var)
    elif rotation == "circular":
        p, angle = (F(1), F(-2), F(1, 2), F(3)), constant_rotation_angle(F(3, 5), F(4, 5), F(2))
    else:
        p, angle = (F(1), F(-2), F(1, 2), F(3)), constant_rotation_angle(F(5, 4), F(3, 4), F(-1), hyperbolic=True)
    structure = standard_patch(s, twist(s, angle, plane, rotation, var))
    nonzero = 0
    for x in range(4):
        for y in range(4):
            value = nijenhuis_at(structure, x, y, p)
            terms, total = jet_breakdown(structure, x, y, p)
            assert (value.terms, value.total) == (terms, total), (x, y)
            nonzero += any(total)
    assert nonzero  # every twist here breaks integrability somewhere


@pytest.mark.parametrize("kind,sig,plane,rotation", TWISTS)
def test_structure_derivative_is_a_conjugated_commutator(kind, sig, plane, rotation):
    """T = exp(angle G) commutes with its generator G, so the derivative of
    T^{-1} J T along the twist variable is angle' T^{-1} (JG - GJ) T; along
    any other variable it vanishes.  Checked with dense products, at the
    origin under a linear angle and off it under a fixed rotation."""
    s = make_standard(4, kind, sig)
    i, j = plane
    gen = [[0] * 4 for _ in range(4)]
    gen[j][i] = 1
    gen[i][j] = -1 if rotation == "circular" else 1
    g = Matrix.from_rows(gen)
    jmat = Matrix.from_dict(4, s.j)
    comm = jmat.mul(g).add(g.mul(jmat).scale(-1))
    if rotation == "circular":
        fixed = constant_rotation_angle(F(3, 5), F(4, 5), F(2))
    else:
        fixed = constant_rotation_angle(F(5, 4), F(3, 4), F(-1), hyperbolic=True)
    for p, angle in ((origin(4), linear_angle(F(-2, 3), 2)), ((F(1), F(-2), F(1, 2), F(3)), fixed)):
        tw = twist(s, angle, plane, rotation, 2)
        t = Matrix.from_dict(4, tw.value(p))
        tinv = Matrix.from_dict(4, tw.inverse_value(p))
        assert tinv.mul(t) == Matrix.identity(4)
        structure = standard_patch(s, tw)
        assert Matrix.from_dict(4, structure.derivative(p, 2)) == tinv.mul(comm).mul(t).scale(angle(p)[2])
        assert structure.derivative(p, 0) == {}

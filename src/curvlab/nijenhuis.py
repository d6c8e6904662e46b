"""The Nijenhuis tensor of a twisted structure at the origin, in closed form.

The twisted structure is T^{-1} J T, where T = exp(c x_1 G) rotates one
coordinate plane by the angle c x_1 and G is that plane's generator.  Its
entries are cos and sin (cosh and sinh for a hyperbolic twist) of c x_1, and
for a rational c and a rational point these are transcendental unless
c x_1 = 0 (Lindemann-Weierstrass).  So the origin, where T = I, is the one
point at which the probe stays inside the rational field.  There the
structure is J and, to first order in x_1, T^{-1} J T = J + x_1 c (JG - GJ):
the one nonzero partial derivative is D = c (JG - GJ), along x_1.

Matrices are sparse ``{a*n + b: value}`` dicts of their nonzero entries, the
flat-index convention of rank-2 tensors, composed by ``linalg.matmul``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import matmul
from .spaces import ModelSpace, structure_sign

Mat = dict[int, Fraction]


def twist(space: ModelSpace, plane: tuple[int, int], rotation: str) -> Mat:
    """The generator G of a rotation of ``plane``, validating the plane's signature.

    Circular rotations are isometries only on definite planes; hyperbolic
    rotations only on mixed-signature planes.  With (i, j) the plane, G maps
    e_i to e_j, and e_j to -e_i (circular) or e_i (hyperbolic).
    """
    i, j = plane
    if i == j or not (0 <= i < space.n and 0 <= j < space.n):
        raise ValueError("plane indices must be distinct and in range")
    if rotation not in ("circular", "hyperbolic"):
        raise ValueError("rotation type must be circular or hyperbolic")
    same_sign = space.eps[i] == space.eps[j]
    if rotation == "circular" and not same_sign:
        raise ValueError("circular rotation in a mixed-signature plane is not an isometry")
    if rotation == "hyperbolic" and same_sign:
        raise ValueError("hyperbolic rotation in a definite plane is not an isometry")
    n = space.n
    return {j * n + i: Fraction(1), i * n + j: Fraction(-1 if rotation == "circular" else 1)}


class NijenhuisValue(NamedTuple):
    terms: tuple[tuple[Fraction, ...], ...]  # the four signed bracket terms
    total: tuple[Fraction, ...]


def nijenhuis_at(space: ModelSpace, generator: Mat, slope: Fraction, x: int, y: int) -> NijenhuisValue:
    """The four signed bracket terms and their sum for coordinate directions
    x, y at the origin, under the twist exp(slope x_1 G) of ``generator`` G.

    With u the structure sign, the terms are
      [x,y],  -u J[Jx,y],  -u J[x,Jy],  u [Jx,Jy],
    giving inner signs (+,+,+,-) in the complex case and (+,-,-,+) in the
    para case; the sum vanishes iff the structure is integrable at the origin
    in these directions.

    Coordinate fields have zero Jacobian, so with D_k the structure's partial
    derivative along x_k the brackets are [x,y] = 0, [Jx,y] = -D_y e_x,
    [x,Jy] = D_x e_y and [Jx,Jy] = sum_k J[k][x] D_k e_y - J[k][y] D_k e_x.
    Only D_0 = D = slope (JG - GJ) is nonzero, which leaves
      t2 = u (J D_y) e_x,  t3 = -u (J D_x) e_y,  t4 = u (J[0][x] D e_y - J[0][y] D e_x).
    """
    if space.kind == "none":
        raise ValueError("nijenhuis tensor needs a structured space")
    n, j = space.n, space.j
    u = structure_sign(space.kind)
    d = {c: slope * v for c, v in matmul(j, generator, n).items()}
    for c, v in matmul(generator, j, n).items():
        d[c] = d.get(c, 0) - slope * v
    jd = matmul(j, d, n)

    def column(m: Mat, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(m.get(a * n + i, 0)) for a in range(n))

    zero = (Fraction(0),) * n
    t2 = tuple(u * v for v in column(jd, x)) if y == 0 else zero
    t3 = tuple(-u * v for v in column(jd, y)) if x == 0 else zero
    t4 = tuple(u * (j.get(x, 0) * dy - j.get(y, 0) * dx) for dx, dy in zip(column(d, x), column(d, y)))
    total = tuple(b + c + e for b, c, e in zip(t2, t3, t4))
    return NijenhuisValue(terms=(zero, t2, t3, t4), total=total)

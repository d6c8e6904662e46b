"""Pointwise Nijenhuis-tensor evaluation for twisted structures on flat patches.

The twisted structure is J^T = T^{-1} J T for a plane-rotation field T driven
by an angle function of one coordinate.  The probe brackets coordinate
fields, whose Jacobians vanish, so every bracket is a closed form in the
structure and its first partial derivatives at the query point; there is no
symbolic differentiation.  Angle functions deliver (cos, sin, d/dx) triples
(or the hyperbolic pair) as exact rationals, which pins evaluation to points
where the rotation is rational; the default query point is the origin, where
the angle vanishes and everything stays inside the rational field.

Matrices are sparse ``{a*n + b: value}`` dicts of their nonzero entries, the
flat-index convention of rank-2 tensors, composed by ``linalg.matmul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .linalg import matmul
from .spaces import ModelSpace, structure_sign

Point = tuple[Fraction, ...]
AngleJet = Callable[[Point], tuple[Fraction, Fraction, Fraction]]
Mat = dict[int, Fraction]


def origin(n: int) -> Point:
    return (Fraction(0),) * n


def linear_angle(slope: Fraction | int, var: int = 0) -> AngleJet:
    """Angle c * x_var; exactly evaluable only where the angle vanishes."""
    slope = Fraction(slope)

    def jet(p: Point) -> tuple[Fraction, Fraction, Fraction]:
        if slope * p[var] != 0:
            raise ValueError("angle evaluates transcendentally away from its zero set")
        return (Fraction(1), Fraction(0), slope)

    return jet


@dataclass(frozen=True)
class PlaneTwist:
    """Isometry field rotating one coordinate plane by an angle of x_var."""

    space: ModelSpace
    plane: tuple[int, int]
    rotation: str  # "circular" | "hyperbolic"
    angle: AngleJet
    var: int = 0

    def _rotation_matrix(self, c: Fraction, s: Fraction, invert: bool = False) -> Mat:
        n = self.space.n
        i, j = self.plane
        if invert:
            s = -s
        m = {a * n + a: Fraction(1) for a in range(n)}
        m[i * n + i] = c
        m[j * n + j] = c
        # circular: T e_i = c e_i + s e_j, T e_j = -s e_i + c e_j
        m[j * n + i] = s
        m[i * n + j] = -s if self.rotation == "circular" else s
        return {key: v for key, v in m.items() if v}

    def _generator(self) -> Mat:
        n = self.space.n
        i, j = self.plane
        return {j * n + i: Fraction(1), i * n + j: Fraction(-1 if self.rotation == "circular" else 1)}

    def value(self, p: Point) -> Mat:
        c, s, _ = self.angle(p)
        return self._rotation_matrix(c, s)

    def inverse_value(self, p: Point) -> Mat:
        c, s, _ = self.angle(p)
        return self._rotation_matrix(c, s, invert=True)

    def derivative(self, p: Point, k: int) -> Mat:
        if k != self.var:
            return {}
        c, s, d = self.angle(p)
        gt = matmul(self._generator(), self._rotation_matrix(c, s), self.space.n)
        return {key: d * v for key, v in gt.items()} if d else {}


def twist(space: ModelSpace, angle: AngleJet, plane: tuple[int, int], rotation_type: str,
          var: int = 0) -> PlaneTwist:
    """Build a plane-rotation isometry field, validating plane signature.

    Circular rotations are isometries only on definite planes; hyperbolic
    rotations only on mixed-signature planes.
    """
    i, j = plane
    if i == j or not (0 <= i < space.n and 0 <= j < space.n):
        raise ValueError("plane indices must be distinct and in range")
    if rotation_type not in ("circular", "hyperbolic"):
        raise ValueError("rotation type must be circular or hyperbolic")
    same_sign = space.eps[i] == space.eps[j]
    if rotation_type == "circular" and not same_sign:
        raise ValueError("circular rotation in a mixed-signature plane is not an isometry")
    if rotation_type == "hyperbolic" and same_sign:
        raise ValueError("hyperbolic rotation in a definite plane is not an isometry")
    return PlaneTwist(space=space, plane=(i, j), rotation=rotation_type, angle=angle, var=var)


@dataclass(frozen=True)
class TwistedStructure:
    """The conjugated structure field T^{-1} J T (constant J when twist is None)."""

    space: ModelSpace
    twist_field: PlaneTwist | None = None

    def value(self, p: Point) -> Mat:
        j = self.space.j
        if j is None:
            raise ValueError("structure field needs a structured space")
        if self.twist_field is None:
            return j
        n = self.space.n
        t = self.twist_field.value(p)
        tinv = self.twist_field.inverse_value(p)
        return matmul(matmul(tinv, j, n), t, n)

    def derivative(self, p: Point, k: int) -> Mat:
        if self.twist_field is None or k != self.twist_field.var:
            return {}
        n = self.space.n
        t = self.twist_field.value(p)
        tinv = self.twist_field.inverse_value(p)
        dt = self.twist_field.derivative(p, k)
        # d(T^{-1} J T) = -T^{-1} dT T^{-1} J T + T^{-1} J dT, as d(T^{-1}) = -T^{-1} dT T^{-1}
        tinv_j = matmul(tinv, self.space.j, n)
        out = matmul(tinv_j, dt, n)
        for c, v in matmul(matmul(matmul(tinv, dt, n), tinv_j, n), t, n).items():
            out[c] = out.get(c, 0) - v
        return {c: v for c, v in out.items() if v}


def standard_patch(space: ModelSpace, twist_field: PlaneTwist | None = None) -> TwistedStructure:
    """The structure field of a flat coordinate patch: the constant diagonal
    metric of ``space`` plus the standard J, twisted when a field is given."""
    return TwistedStructure(space=space, twist_field=twist_field)


@dataclass(frozen=True)
class NijenhuisValue:
    terms: tuple[tuple[Fraction, ...], ...]  # the four signed bracket terms
    total: tuple[Fraction, ...]


def _column(m: Mat, i: int, n: int) -> tuple[Fraction, ...]:
    return tuple(m.get(a * n + i, Fraction(0)) for a in range(n))


def nijenhuis_at(structure: TwistedStructure, x: int, y: int, p: Point | None = None) -> NijenhuisValue:
    """The four signed bracket terms and their sum for coordinate directions x, y.

    With u the structure sign, the terms are
      [x,y],  -u J[Jx,y],  -u J[x,Jy],  u [Jx,Jy],
    giving inner signs (+,+,+,-) in the complex case and (+,-,-,+) in the
    para case; the sum vanishes iff the structure is integrable at p in
    these directions.

    Coordinate fields have zero Jacobian, so with S the structure at p and
    D_k its partial derivative along x_k the brackets are
      [x,y] = 0,  [Jx,y] = -D_y e_x,  [x,Jy] = D_x e_y,
      [Jx,Jy] = sum_k (S e_x)_k D_k e_y - (S e_y)_k D_k e_x,
    so the second and third terms are columns of S D_y and S D_x.
    """
    space = structure.space
    if space.kind == "none":
        raise ValueError("nijenhuis tensor needs a structured space")
    n = space.n
    if p is None:
        p = origin(n)
    u = structure_sign(space.kind)
    s = structure.value(p)
    d = [structure.derivative(p, k) for k in range(n)]
    sx, sy = _column(s, x, n), _column(s, y, n)
    jx_jy = [Fraction(0)] * n
    for k in range(n):
        for a in range(n):
            jx_jy[a] += sx[k] * d[k].get(a * n + y, 0) - sy[k] * d[k].get(a * n + x, 0)
    t1 = (Fraction(0),) * n
    t2 = tuple(Fraction(u) * v for v in _column(matmul(s, d[y], n), x, n))
    t3 = tuple(Fraction(-u) * v for v in _column(matmul(s, d[x], n), y, n))
    t4 = tuple(Fraction(u) * v for v in jx_jy)
    total = tuple(a + b + c + d for a, b, c, d in zip(t1, t2, t3, t4))
    return NijenhuisValue(terms=(t1, t2, t3, t4), total=total)

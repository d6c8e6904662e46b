"""Model inner-product spaces and their structure groups.

A model space is R^n with a diagonal metric h = diag(eps) and, optionally, a
standard complex or para-complex structure J acting per plane:

    J e_{2i}   =  e_{2i+1}
    J e_{2i+1} =  u * e_{2i}        (0-based indices)

with u = -1 for a complex structure (J^2 = -Id) and u = +1 for a para-complex
structure (J^2 = +Id, trace zero).  The sign u is the single point where the
stacked plus/minus conventions of the two parallel geometries are resolved;
every module downstream pulls it from :func:`structure_sign`.

Compatibility is J*h = h in the complex case and J*h = -h in the para case,
so complex metrics carry constant signs on each J-plane while para metrics
alternate (+,-) inside every plane (neutral signature).

J's pull-back on a slot pair, (J*T)(x, y) = T(Jx, Jy), is written once here,
as a table over rank-2 coordinates and the rows of (J* - lambda) it gives.
The unitary Lie algebra is its fixed points among the isometries' Lie
algebra, the six-piece split of rank-2 tensors its eigenspaces, the opposed
2-forms its u-eigenspace, and the Kähler identity its classes on the last
pair.

Group data: the orthogonal group of h, the (para-)unitary group of (h, J),
and its Z2 extension containing J-anticommuting isometries.  Exact arithmetic
cannot average over a Lie group, so invariance is always certified through
the Lie algebra (the connected component) plus an explicit, finite list of
component representatives; both are produced here.  If X and Y preserve a
subspace, so does [X, Y], so the Lie algebra enters through a generating set
whose iterated brackets are proven to span its basis.

Every matrix here (J, the Lie algebra elements, the component
representatives) is a sparse ``{a*n + b: value}`` dict of its nonzero
entries, the flat-index convention of rank-2 tensors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Collection, NamedTuple, Sequence

from .linalg import Echelon, kernel_subspace, matmul

KINDS = ("none", "complex", "para")
GROUPS = ("O", "U", "Ustar")


def structure_sign(kind: str) -> int:
    """Resolve stacked sign conventions: para-complex -> +1, complex -> -1."""
    if kind == "para":
        return 1
    if kind == "complex":
        return -1
    raise ValueError(f"no structure sign for kind={kind!r}")


class ModelSpace(NamedTuple):
    """Dimension, diagonal metric signs and structure kind; J follows from (n, kind)."""

    n: int
    kind: str
    eps: tuple[int, ...]

    @property
    def signature(self) -> tuple[int, int]:
        p = sum(1 for e in self.eps if e > 0)
        return (p, self.n - p)

    @property
    def j(self) -> dict[int, int] | None:
        """The standard structure matrix as a sparse ``{a*n + b: value}`` dict,
        or None for kind 'none'."""
        if self.kind == "none":
            return None
        return {image * self.n + k: sign for k, (image, sign) in enumerate(j_signed_permutation(self))}

    def describe(self) -> dict:
        p, q = self.signature
        return {"n": self.n, "kind": self.kind, "signature": [p, q], "eps": list(self.eps)}


def j_signed_permutation(space: ModelSpace) -> tuple[tuple[int, int], ...]:
    """For each basis index k: (image index, sign) with J e_k = sign * e_image."""
    if space.kind == "none":
        raise ValueError("space has no structure")
    u = structure_sign(space.kind)
    return tuple((k + 1, 1) if k % 2 == 0 else (k - 1, u) for k in range(space.n))


def j_pullback_table(space: ModelSpace) -> list[tuple[int, int, int]]:
    """J's pull-back on rank-2 coordinates: for each c = a*n + b, in order,
    ``(c, Jc, s)`` with Jc = p(a)*n + p(b) and s = s_a*s_b, so that
    (J*T)[c] = T(J e_a, J e_b) = s * T[Jc]."""
    n = space.n
    perm = j_signed_permutation(space)
    return [(a * n + b, pa * n + pb, sa * sb) for a, (pa, sa) in enumerate(perm) for b, (pb, sb) in enumerate(perm)]


def j_pullback_rows(space: ModelSpace, eigenvalue: int) -> list[dict[int, int]]:
    """Rows of (J* - eigenvalue) on rank-2 coordinates, one per c; Jc != c,
    as p fixes no index."""
    return [{jc: s, c: -eigenvalue} for c, jc, s in j_pullback_table(space)]


def _default_eps(n: int, kind: str, signature: tuple[int, int] | None) -> tuple[int, ...]:
    if kind == "para":
        if signature is not None and signature != (n // 2, n // 2):
            raise ValueError("para-complex structures force neutral signature")
        return tuple(1 if i % 2 == 0 else -1 for i in range(n))
    if signature is None:
        signature = (n, 0)
    p, q = signature
    if p < 0 or q < 0 or p + q != n:
        raise ValueError(f"signature {signature} incompatible with n={n}")
    if kind == "complex":
        if p % 2 or q % 2:
            raise ValueError("complex structures need an even number of signs of each type")
        # constant signs per J-plane, negative planes last
        return tuple(1 if i < p else -1 for i in range(n))
    return tuple(1 if i < p else -1 for i in range(n))


def _validate(space: ModelSpace) -> None:
    n, kind, eps = space.n, space.kind, space.eps
    if len(eps) != n or any(e not in (1, -1) for e in eps):
        raise ValueError("eps must be n signs")
    if kind == "none":
        return
    u = structure_sign(kind)
    # pull-back test J*h = -u h: h(J e_k, J e_k) = -u h(e_k, e_k) for every k
    if any(eps[image] != -u * eps[k] for k, (image, _) in enumerate(j_signed_permutation(space))):
        raise ValueError("metric incompatible with the structure (pull-back test failed)")


def make_standard(n: int, kind: str = "none", signature: tuple[int, int] | None = None,
                  eps: tuple[int, ...] | None = None) -> ModelSpace:
    """Build the standard model space, validating all structural invariants.

    ``eps`` overrides the default diagonal sign layout (complex: constant on
    planes, negative planes last; para: (+,-) alternating).  Any explicit
    layout is still checked against the structure compatibility rules.  An
    invalid n is rejected first, whatever the signature or layout.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "none" and n < 2:
        raise ValueError("need n >= 2")
    if kind != "none" and (n < 4 or n % 2):
        raise ValueError("structures require even n >= 4")
    if eps is None:
        eps = _default_eps(n, kind, signature)
    else:
        eps = tuple(int(e) for e in eps)
        if signature is not None:
            p = sum(1 for e in eps if e > 0)
            if (p, n - p) != tuple(signature):
                raise ValueError("explicit eps disagrees with requested signature")
    space = ModelSpace(n=n, kind=kind, eps=eps)
    _validate(space)
    return space


# ---------------------------------------------------------------------------
# Structure groups
# ---------------------------------------------------------------------------


def _check_group_args(space: ModelSpace, group: str) -> None:
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if group in ("U", "Ustar") and space.kind == "none":
        raise ValueError("unitary-type groups need a structured space")


@lru_cache(maxsize=16)
def lie_algebra_basis(space: ModelSpace, group: str) -> tuple[dict[int, int], ...]:
    """Basis of {X : X^T H + H X = 0}, intersected with {XJ = JX} for U/Ustar
    (the fixed points of J's pull-back), as the kernel's primitive integer
    rows: X[a][b] at a*n + b.

    The Lie algebras of the unitary group and of its Z2 extension coincide,
    so ``Ustar`` shares the ``U`` basis.  Cached per (space, group): the
    certificates number extra Lie elements after it on every call.
    """
    _check_group_args(space, group)
    n = space.n
    rows: list[dict[int, int]] = []
    for a in range(n):
        for b in range(a, n):
            # eps_b X[b][a] + eps_a X[a][b] = 0
            row = {b * n + a: space.eps[b]}
            row[a * n + b] = row.get(a * n + b, 0) + space.eps[a]
            rows.append(row)
    if group in ("U", "Ustar"):
        # (J^-1 X J)[a][b] = s_a s_b X[p(a)][p(b)] = (J*X)[a][b], so XJ = JX iff J*X = X
        rows += j_pullback_rows(space, 1)
    return tuple(kernel_subspace(rows, n * n).basis_dicts())


def _bracket(x: dict[int, int], y: dict[int, int], n: int) -> dict[int, int]:
    """The commutator xy - yx of two n x n matrices."""
    out = matmul(x, y, n)
    for c, v in matmul(y, x, n).items():
        w = out.get(c, 0) - v
        if w:
            out[c] = w
        else:
            del out[c]
    return out


def _close(ech: Echelon, gens: list[dict[int, int]], x: dict[int, int], n: int) -> None:
    """Add the generator ``x`` to ``gens`` and extend the span held by ``ech``,
    the subalgebra the earlier generators span by iterated brackets, to the
    one all of them span: bracket each new element with every generator
    until no bracket is new.  The bracket of ``x`` with the earlier span needs
    no pass of its own: by the Jacobi identity it lies in the extended span."""
    gens.append(x)
    new = [x] if ech.add(x) is not None else []
    while new:
        new = [b for y in new for g in gens for b in (_bracket(g, y, n),) if b and ech.add(b) is not None]


def brackets_span(gens: Sequence[dict[int, int]], basis: Sequence[dict[int, int]], n: int) -> bool:
    """Whether the iterated brackets of ``gens`` span exactly the span of ``basis``."""
    ech = Echelon()
    kept: list[dict[int, int]] = []
    for g in gens:
        _close(ech, kept, g, n)
    return ech.rank == len(basis) and not any(ech.reduce(x) for x in basis)


def _greedy_generators(basis: Sequence[dict[int, int]], n: int) -> list[int]:
    """Indices of the basis elements, in order, that raise the rank of the
    bracket closure of the elements kept before them."""
    ech = Echelon()
    gens: list[dict[int, int]] = []
    picked = []
    for i, x in enumerate(basis):
        if ech.rank == len(basis):
            break
        if ech.reduce(x):
            picked.append(i)
            _close(ech, gens, x, n)
    return picked


@lru_cache(maxsize=16)
def lie_generators(space: ModelSpace, group: str) -> tuple[tuple[int, dict[int, int]], ...]:
    """A generating set of the Lie algebra: ``(index, element)`` pairs, the
    index into :func:`lie_algebra_basis`, greedily picked in index order.

    The pick is proven before it is returned: the iterated brackets of the
    elements must span the basis.  A failed proof is a fault of this module,
    raised as a ``RuntimeError``, never a failed claim.  Closure under these
    elements is closure under the whole algebra, and their commutant is its
    commutant.  Cached per (space, group).
    """
    basis = lie_algebra_basis(space, group)
    picked = _greedy_generators(basis, space.n)
    if not brackets_span([basis[i] for i in picked], basis, space.n):
        raise RuntimeError(f"the iterated brackets of the picked {group} generators do not span the Lie algebra")
    return tuple((i, basis[i]) for i in picked)


def _sign_diagonal(n: int, flip: Collection[int]) -> dict[int, int]:
    """The diagonal matrix with -1 at the indices in ``flip`` and 1 elsewhere."""
    return {i * n + i: -1 if i in flip else 1 for i in range(n)}


def structure_reversal(space: ModelSpace) -> dict[int, int]:
    """The default isometry anticommuting with J: fix e_{2i}, negate e_{2i+1}."""
    if space.kind == "none":
        raise ValueError("no structure to reverse")
    return _sign_diagonal(space.n, range(1, space.n, 2))


def component_reps(space: ModelSpace, group: str) -> list[dict[int, int]]:
    """Finite representatives covering every connected component of the group.

    O(p,q) has four components when p, q > 0 (two when definite); they are
    reached by single-axis reflections.  The complex unitary groups are
    connected; the para-unitary group has two components (its general-linear
    model), reached by negating one full J-plane, which commutes with J.  The
    Z2 extensions add the structure reversal composed with each of the above.
    Every representative is a sign diagonal, so a composition multiplies signs.
    """
    _check_group_args(space, group)
    n = space.n
    if group == "O":
        reps = [_sign_diagonal(n, ())]
        plus = next((i for i, e in enumerate(space.eps) if e > 0), None)
        minus = next((i for i, e in enumerate(space.eps) if e < 0), None)
        if plus is not None:
            reps.append(_sign_diagonal(n, (plus,)))
        if minus is not None:
            reps.append(_sign_diagonal(n, (minus,)))
        if plus is not None and minus is not None:
            reps.append(_sign_diagonal(n, (plus, minus)))
        return reps
    base = [_sign_diagonal(n, ())]
    if space.kind == "para":
        # negate the first J-plane: commutes with J, detects the second
        # component of the underlying general-linear group
        base.append(_sign_diagonal(n, (0, 1)))
    if group == "U":
        return base
    g0 = structure_reversal(space)
    return base + [{c: v * m[c] for c, v in g0.items()} for m in base]


def random_lie_elements(space: ModelSpace, group: str, count: int, seed: int = 0) -> list[dict[int, Fraction]]:
    """Deterministic random rational combinations of the Lie algebra basis."""
    basis = lie_algebra_basis(space, group)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        acc: dict[int, Fraction] = {}
        for b in basis:
            num = rng.randint(-9, 9)
            if num:
                coeff = Fraction(num, rng.randint(1, 9))
                for c, v in b.items():
                    acc[c] = acc.get(c, 0) + coeff * v
        out.append({c: v for c, v in acc.items() if v})
    return out

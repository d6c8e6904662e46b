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
cannot average over a Lie group, so invariance is certified on a few group
elements, produced and proven here: one Lie element of o(p,q), or two of u,
the cycles of the axes (or J-planes) of each metric sign, and those component
representatives that no product of the cycles stands for.  If an isometry c
and a Lie element X preserve a subspace, so does c X c^-1, and if X and Y do,
so does [X, Y]; the bracket-and-conjugation closure of the set is proven to
span the Lie algebra's basis before the set is used.

Every matrix here (J, the Lie algebra elements, the component
representatives) is a sparse ``{a*n + b: value}`` dict of its nonzero
entries, the flat-index convention of rank-2 tensors.  A cycle, an axis
permutation, and a representative, a sign diagonal, are both signed axis
permutations, which act on those indices through :func:`signed_pair_table`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb
from typing import Collection, Iterator, NamedTuple, Sequence

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


def unit_bits(space: ModelSpace) -> tuple[int, ...]:
    """1 << u for each axis, u its unit: the axis, or its J-plane, which J keeps."""
    width = 1 if space.kind == "none" else 2
    return tuple(1 << (a // width) for a in range(space.n))


def parity_mask(bits: Sequence[int], n: int, c: int, rank: int) -> int:
    """The parity block of flat rank-``rank`` coordinate c: the xor of the :func:`unit_bits` of its indices."""
    mask = 0
    for _ in range(rank):
        c, a = divmod(c, n)
        mask ^= bits[a]
    return mask


def parity_blocks(space: ModelSpace) -> Iterator[tuple[int, int, list[int]]]:
    """Every orbit of parity blocks as ``(representative, size, other masks)``,
    a mask holding the units a rank-4 coordinate holds an odd number of
    times (:func:`parity_mask`).  Permutations of units of one sign type, the
    sign of a unit's first axis, are group elements: the orbit of a mask with
    a units of type + and b of type - has C(P, a)*C(N, b) masks, P and N
    units being of each type, and is led by the first a and b of each type."""
    width = 1 if space.kind == "none" else 2
    m = space.n // width
    plus = [u for u in range(m) if space.eps[u * width] > 0]
    minus = [u for u in range(m) if space.eps[u * width] < 0]
    for weight in (0, 2, 4):
        for a in range(weight + 1):
            size = comb(len(plus), a) * comb(len(minus), weight - a)
            if size:
                rep, *others = (sum(1 << u for u in ps + ms)
                                for ps, ms in product(combinations(plus, a), combinations(minus, weight - a)))
                yield rep, size, others


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


def _lie_picks(space: ModelSpace, group: str) -> list[int]:
    """Indices into :func:`lie_algebra_basis` of the Lie elements of the
    generating set.  For O, one element: a boost in the first mixed plane
    when both signs occur, else the rotation in (e_0, e_1).  For U and
    Ustar, two: J on plane 0, and the first element mixing plane 0 with the
    first plane of the other sign pattern, or with plane 1 if every plane
    has plane 0's."""
    basis = lie_algebra_basis(space, group)
    n, eps = space.n, space.eps
    supports = [{a for c in x for a in divmod(c, n)} for x in basis]  # the axes each element touches
    if group == "O":
        mixed = [i for i, axes in enumerate(supports) if len({eps[a] for a in axes}) == 2]
        return mixed[:1] or [supports.index({0, 1})]
    k = next((k for k in range(0, n, 2) if eps[k:k + 2] != eps[0:2]), 2)
    return [supports.index({0, 1}), supports.index({0, 1, k, k + 1})]


def sign_block_cycles(space: ModelSpace, group: str) -> list[tuple[int, ...]]:
    """The cycle of each sign block with more than one member, as an axis
    permutation ``perm`` (the cycle maps e_a to e_perm[a]).  For O the blocks
    are the positive axes and the negative axes; for U and Ustar the J-planes
    of each sign pattern, each plane carried whole onto the next, so that the
    cycle commutes with J.  Members go in ascending order, positive first."""
    n, eps = space.n, space.eps
    width = 1 if group == "O" else 2
    members = [range(a, a + width) for a in range(0, n, width)]
    cycles = []
    for pattern in sorted({eps[m.start:m.stop] for m in members}, reverse=True):
        block = [m for m in members if eps[m.start:m.stop] == pattern]
        if len(block) > 1:
            perm = list(range(n))
            for src, dst in zip(block, block[1:] + block[:1]):
                for a, b in zip(src, dst):
                    perm[a] = b
            cycles.append(tuple(perm))
    return cycles


def pair_table(perm: Sequence[int]) -> list[int]:
    """perm[a]*n + perm[b] at a*n + b: where the permutation matrix P, P e_a =
    e_perm[a], moves a rank-2 coordinate.  Conjugation P X P^-1 moves the
    entry of X at c to the table's c."""
    return [pa * len(perm) + pb for pa in perm for pb in perm]


def signed_pair_table(perm: Sequence[int], flips: Collection[int]) -> tuple[list[int], list[int]]:
    """The signed permutation e_a -> s_a e_perm[a], s_a = -1 at ``flips`` and 1
    elsewhere, on rank-2 coordinates: its :func:`pair_table`, and s_a*s_b at
    a*n + b."""
    s = [-1 if a in flips else 1 for a in range(len(perm))]
    return pair_table(perm), [x * y for x in s for y in s]


def _is_group_permutation(space: ModelSpace, group: str, perm: Sequence[int]) -> bool:
    """Whether P, P e_a = e_perm[a], is in the group: a permutation mapping
    every axis to one of the same metric sign (an isometry), and for U and
    Ustar commuting with J, J P e_a = P J e_a."""
    n = space.n
    if sorted(perm) != list(range(n)) or any(space.eps[perm[a]] != space.eps[a] for a in range(n)):
        return False
    if group == "O":
        return True
    j = j_signed_permutation(space)
    return all(j[perm[a]] == (perm[j[a][0]], j[a][1]) for a in range(n))


def closure_spans(lie: Sequence[dict[int, int]], cycles: Sequence[Sequence[int]],
                  basis: Sequence[dict[int, int]], n: int) -> bool:
    """Whether the Lie elements ``lie`` and the permutation matrices of
    ``cycles`` generate the span of ``basis``: the least subspace holding
    ``lie`` and closed under [x, .] for x in ``lie`` and under conjugation by
    each cycle, held by one Echelon, must be that span.

    That subspace is the Lie algebra the conjugates of ``lie`` generate.  A
    cycle c has finite order, so its inverse is a power of it, and ad(c x
    c^-1) = Ad_c ad(x) Ad_c^-1 preserves the subspace for every x in
    ``lie``; by the Jacobi identity, the x whose ad preserves it form a
    subalgebra, closed under conjugation, that holds every conjugate and so
    the subspace itself.  Brackets with ``lie`` alone therefore suffice."""
    tables = [pair_table(perm) for perm in cycles]
    ech = Echelon()
    new = [x for x in lie if ech.add(x) is not None]
    while new:
        new = [z for y in new
               for z in chain((_bracket(x, y, n) for x in lie), ({t[c]: v for c, v in y.items()} for t in tables))
               if z and ech.add(z) is not None]
    return ech.rank == len(basis) and not any(ech.reduce(x) for x in basis)


class GeneratingSet(NamedTuple):
    """The group elements a certificate applies, in certificate order after
    any extra Lie elements: ``lie``, ``(index, element)`` pairs indexing
    :func:`lie_algebra_basis`; ``cycles``, axis permutations as returned by
    :func:`sign_block_cycles`; ``reps``, ``(index, flips)`` pairs indexing
    :func:`component_reps`, with the axes each negates, of the
    representatives that no product of the cycles stands for."""

    lie: tuple[tuple[int, dict[int, int]], ...]
    cycles: tuple[tuple[int, ...], ...]
    reps: tuple[tuple[int, tuple[int, ...]], ...]


def _parity(perm: Sequence[int], members: Sequence[int]) -> int:
    """The sign of ``perm`` restricted to ``members``, which it permutes."""
    seen: set[int] = set()
    sign = 1
    for a in members:
        if a not in seen:
            sign = -sign  # a cycle of length k has sign (-1)^(k-1)
            while a not in seen:
                seen.add(a)
                a = perm[a]
                sign = -sign
    return sign


def _component(space: ModelSpace, group: str, perm: Sequence[int], flips: Collection[int]) -> tuple[int, ...] | None:
    """The connected component of the group element e_a -> +-e_perm[a], minus
    at ``flips``, as determinant signs: on the positive and on the negative
    axes for O; for U and Ustar, on the +1 eigenspace of J when para (the
    general-linear model, where a J-plane is one axis), and none when
    complex, as the unitary group is connected.  None for an element that
    anticommutes with J: no cycle reaches it."""
    n, eps = space.n, space.eps
    if group == "O":
        return tuple(_parity(perm, block) * (-1) ** len([a for a in block if a in flips])
                     for block in ([a for a in range(n) if eps[a] > 0], [a for a in range(n) if eps[a] < 0]))
    if any((a in flips) != (a + 1 in flips) for a in range(0, n, 2)):
        return None
    if space.kind == "complex":
        return ()
    planes = [perm[2 * i] // 2 for i in range(n // 2)]
    return (_parity(planes, range(n // 2)) * (-1) ** (len(flips) // 2),)


@lru_cache(maxsize=16)
def generating_set(space: ModelSpace, group: str) -> GeneratingSet:
    """The proven generating set that certificates and representation
    matrices apply: the Lie elements of :func:`_lie_picks`, the cycles of
    :func:`sign_block_cycles`, and the component representatives other than
    the identity whose component no product of the cycles lies in (read off
    the determinant signs, a k-cycle's being (-1)^(k-1)).

    Closure under these is closure under the group: a subspace preserved by a
    group element c and a Lie element X is preserved by c X c^-1, so the
    cycles carry the Lie elements to the conjugates that generate the Lie
    algebra (:func:`closure_spans`), and the cycles and the kept
    representatives reach every component.  The set is proven before it is
    returned: each cycle must be a group element, the closure must span
    :func:`lie_algebra_basis`, and each representative must be a sign
    diagonal, which the certificates apply by its flips.  A failed proof is a
    fault of this module, raised as a ``RuntimeError``, never a failed claim.
    Cached per (space, group); Ustar shares U's Lie elements and cycles.
    """
    n = space.n
    basis = lie_algebra_basis(space, group)
    lie = tuple((i, basis[i]) for i in _lie_picks(space, group))
    cycles = tuple(sign_block_cycles(space, group))
    for k, perm in enumerate(cycles):
        if not _is_group_permutation(space, group, perm):
            raise RuntimeError(f"cycle {k} of {group} is not a group element")
    if not closure_spans([x for _, x in lie], cycles, basis, n):
        raise RuntimeError(
            f"the bracket-and-conjugation closure of the {group} generators does not span the Lie algebra")
    reached = {_component(space, group, range(n), ())}  # the identity's
    for perm in cycles:
        sign = _component(space, group, perm, ())
        reached |= {tuple(x * y for x, y in zip(r, sign)) for r in reached}
    reps = []
    for idx, g in enumerate(component_reps(space, group)):
        if len(g) != n or any(g.get(a * n + a) not in (1, -1) for a in range(n)):
            raise RuntimeError(f"component representative {idx} of {group} is not a sign diagonal")
        flips = tuple(a for a in range(n) if g[a * n + a] == -1)
        if flips and _component(space, group, range(n), flips) not in reached:
            reps.append((idx, flips))
    return GeneratingSet(lie, cycles, tuple(reps))


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

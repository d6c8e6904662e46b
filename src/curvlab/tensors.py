"""Rank-2/rank-4 tensor calculus over a model space.

Covers the constraint rows that carve out the curvature spaces, the
rank-2-to-rank-4 maps sigma and psi, sparse pull-backs and infinitesimal
group actions in integers, and full invariant contractions against
metric/fundamental-form pair tensors.  The two maps and the contraction rows
are one operation, two rank-2 tensors placed on two slot pairs, and run
through one loop: sigma as five terms against the diagonal of h, psi_map as
six against the fundamental form, a contraction row as one term.  The
structure identity and the opposed-form test read J's pull-back from
:mod:`curvlab.spaces`.

Every tensor the package computes with is a sparse ``{flat index: value}``
dict, with component (i, j) of a rank-2 tensor at i*n + j and component
(i, j, k, l) of a rank-4 tensor at ((i*n + j)*n + k)*n + l.  A matrix is the
same rank-2 dict, entry (a, b) at a*n + b.  A group element acts through a
table over the n² rank-2 coordinates, read on the high and low halves of a
rank-4 index: a Lie element, read through :func:`action_rows` as one integer
row per axis, as its :func:`derivation_table`, and a signed axis permutation
(a cycle, a sign-diagonal component representative) as its targets and
signs (:func:`permute_vec`).  The canonical forms,
the images of sigma and psi and the constraint rows all read and write that
format.  K, the kernel of the first-pair and cyclic rows, which never read
the last slot, is written in closed form as stored subspace rows over
rank-3 coordinates (i*n + j)*n + k, one index class at a time.  The
last-pair, Weyl and structure rows are written for first pairs i < j only,
the Weyl rows on affine with two entries each (its trace follows from the
cyclic identity there), and on weyl the last-pair rows as one trace row per
first pair.  Each linear condition, the Ricci contraction and the structure
identity included, is written once, as rows, which the catalog restricts to
a parent subspace's basis; so is each invariant contraction, one row over
rank-4 coordinates.

The one dense container, :class:`Tensor4`, holds a witness tensor while the
textbook defect loops re-verify it; those loops share no code with the
sparse rows they cross-check.  The dense maps, pull-back, infinitesimal
action and per-pair contraction that the sparse ones are tested against
live in ``tests/oracles.py``, as do the first-pair and cyclic rows over every
rank-3 coordinate, whose kernel K is held to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Sequence

from .spaces import ModelSpace, j_pullback_table, j_signed_permutation, structure_sign

Vec = Mapping[int, Fraction | int]

# ---------------------------------------------------------------------------
# Dense container for witness rechecks
# ---------------------------------------------------------------------------


class _Tensor4Fields(NamedTuple):
    n: int
    components: tuple[Fraction, ...]


class Tensor4(_Tensor4Fields):
    """Dense 4-linear form: component (i, j, k, l) at ((i*n+j)*n+k)*n+l."""

    __slots__ = ()

    def __new__(cls, n: int, components: tuple[Fraction, ...]) -> "Tensor4":
        if len(components) != n ** 4:
            raise ValueError("component count does not match n^4")
        return super().__new__(cls, n, components)

    def __getitem__(self, ijkl: tuple[int, int, int, int]) -> Fraction:
        i, j, k, l = ijkl
        n = self.n
        return self.components[((i * n + j) * n + k) * n + l]

    @classmethod
    def from_dict(cls, n: int, vec: Vec) -> "Tensor4":
        comp = [Fraction(0)] * n ** 4
        for c, v in vec.items():
            comp[c] = Fraction(v)
        return cls(n, tuple(comp))

    def is_zero(self) -> bool:
        return not any(self.components)


def unflatten4(n: int, c: int) -> tuple[int, int, int, int]:
    c, l = divmod(c, n)
    c, k = divmod(c, n)
    i, j = divmod(c, n)
    return i, j, k, l


def flatten4(n: int, i: int, j: int, k: int, l: int) -> int:
    return ((i * n + j) * n + k) * n + l


# ---------------------------------------------------------------------------
# Canonical rank-2 tensors of a model space
# ---------------------------------------------------------------------------


def metric_tensor2(space: ModelSpace) -> dict[int, Fraction]:
    n = space.n
    return {i * n + i: Fraction(space.eps[i]) for i in range(n)}


def kaehler_form(space: ModelSpace) -> dict[int, Fraction]:
    """The fundamental 2-form: Omega(x, y) = h(x, Jy); antisymmetric by construction."""
    if space.kind == "none":
        raise ValueError("fundamental form requires a structured space")
    n = space.n
    # h(e_p, J e_j) = eps_p * s for J e_j = s e_p
    return {p * n + j: Fraction(space.eps[p] * s) for j, (p, s) in enumerate(j_signed_permutation(space))}


def two_form_basis(n: int, block: Block | None = None) -> list[dict[int, int]]:
    """Antisymmetric basis e^i (x) e^j - e^j (x) e^i for i < j, as ``int`` rows,
    so that its images under sigma stay in integers; with ``block``, those
    whose images lie in it, as (i, j, 0, 0) does."""
    return [{f: 1, f % n * n + f // n: -1} for f in _pairs(n, block) if f // n < f % n]


def is_antisymmetric(psi: Vec, n: int) -> bool:
    """psi(i, j) = -psi(j, i) for every i, j; a nonzero diagonal entry fails."""
    return all(-v == psi.get((c % n) * n + c // n, 0) for c, v in psi.items())


def gram_weight2(space: ModelSpace, c: int) -> int:
    i, j = divmod(c, space.n)
    return space.eps[i] * space.eps[j]


def gram_weight4(space: ModelSpace, c: int) -> int:
    i, j, k, l = unflatten4(space.n, c)
    return space.eps[i] * space.eps[j] * space.eps[k] * space.eps[l]


def inner2(space: ModelSpace, a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> Fraction:
    """Induced inner product on rank-2 tensors (product metric on tensor factors)."""
    if len(b) < len(a):
        a, b = b, a
    total = Fraction(0)
    for c, v in a.items():
        w = b.get(c)
        if w is not None:
            total += v * w * gram_weight2(space, c)
    return total


# ---------------------------------------------------------------------------
# Symmetry-defect operators (dense view)
# ---------------------------------------------------------------------------


def _indices(n: int) -> Iterator[tuple[int, ...]]:
    """Every (i, j, k, l), in component order."""
    return product(range(n), repeat=4)


def defect_antisym(a: Tensor4) -> Tensor4:
    """A(x,y,z,w) + A(y,x,z,w); vanishes iff A is alternating in the first pair."""
    return Tensor4(a.n, tuple(a[i, j, k, l] + a[j, i, k, l] for i, j, k, l in _indices(a.n)))


def defect_bianchi(a: Tensor4) -> Tensor4:
    """Cyclic sum over the first three slots; vanishes iff the first Bianchi identity holds."""
    return Tensor4(a.n, tuple(a[i, j, k, l] + a[j, k, i, l] + a[k, i, j, l] for i, j, k, l in _indices(a.n)))


def defect_riemann(a: Tensor4) -> Tensor4:
    """A(x,y,z,w) + A(x,y,w,z); vanishes iff A is alternating in the last pair."""
    return Tensor4(a.n, tuple(a[i, j, k, l] + a[i, j, l, k] for i, j, k, l in _indices(a.n)))


def ricci(a: Tensor4, space: ModelSpace) -> dict[int, Fraction]:
    """Ric(x, y) = sum_{c,d} h^{cd} A(e_c, x, y, e_d), as a rank-2 dict."""
    n = a.n
    out = {x * n + y: sum((Fraction(space.eps[c]) * a[c, x, y, c] for c in range(n)), Fraction(0))
           for x in range(n) for y in range(n)}
    return {c: v for c, v in out.items() if v}


def defect_weyl(a: Tensor4, space: ModelSpace) -> Tensor4:
    """Pair symmetrization minus the trace correction (2/n)(Ric(y,x)-Ric(x,y)) h(z,w)."""
    n = a.n
    ric = ricci(a, space)
    corr = [Fraction(2, n) * (ric.get(j * n + i, 0) - ric.get(i * n + j, 0)) for i in range(n) for j in range(n)]
    return Tensor4(n, tuple(a[i, j, k, l] + a[i, j, l, k] - (corr[i * n + j] * space.eps[k] if k == l else 0)
                            for i, j, k, l in _indices(n)))


def defect_kaehler(a: Tensor4, space: ModelSpace) -> Tensor4:
    """Deviation from the structure-compatibility identity on the last pair.

    Returns A(x,y,z,w) + u*A(x,y,Jz,Jw) with u the structure sign, so the
    para-complex identity reads A = -A(.,.,J.,J.) and the complex identity
    A = +A(.,.,J.,J.); the defect vanishes exactly on compatible tensors.
    """
    if space.kind == "none":
        raise ValueError("structure-compatibility defect requires a structured space")
    u = structure_sign(space.kind)
    perm = j_signed_permutation(space)
    return Tensor4(a.n, tuple(a[i, j, k, l] + u * perm[k][1] * perm[l][1] * a[i, j, perm[k][0], perm[l][0]]
                              for i, j, k, l in _indices(a.n)))


# ---------------------------------------------------------------------------
# The rank-2 -> rank-4 maps
# ---------------------------------------------------------------------------


Nonzeros = list[tuple[int, int, Fraction | int]]
Terms = Sequence[tuple[int, tuple[int, int], tuple[int, int]]]


def _nonzeros(t: Vec, n: int) -> Nonzeros:
    """The ``(i, j, value)`` entries of a rank-2 dict."""
    return [(*divmod(c, n), v) for c, v in t.items()]


def _place(terms: Terms, first: Nonzeros, second: Nonzeros, n: int) -> dict[int, Fraction | int]:
    """The rank-4 tensor sum of coeff * first(x_p, x_q) * second(x_r, x_s) over
    the ``(coeff, (p, q), (r, s))`` terms, each rank-2 factor given by its
    ``(i, j, value)`` nonzeros; an entry that cancels to zero is dropped."""
    stride = (n ** 3, n * n, n, 1)
    out: dict[int, Fraction | int] = {}
    for coeff, (p, q), (r, s) in terms:
        placed = [(c * stride[r] + d * stride[s], coeff * w) for c, d, w in second]
        for a, b, v in first:
            base = a * stride[p] + b * stride[q]
            for offset, cw in placed:
                key = base + offset
                cur = out.get(key, 0) + cw * v
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
    return out


def sigma(psi: Vec, space: ModelSpace) -> dict[int, Fraction | int]:
    """Five-term map embedding a 2-form into the Weyl curvature space.

    sigma(psi)(x,y,z,w) = 2 psi(x,y) h(z,w) + psi(x,z) h(y,w) - psi(y,z) h(x,w)
                          - psi(x,w) h(y,z) + psi(y,w) h(x,z)

    Each term places psi and the diagonal of h on two slot pairs.  Integer
    in, integer out: the image of an ``int`` form holds ``int`` values, and the
    image of a ``Fraction`` form ``Fraction`` values.
    """
    n = space.n
    if not is_antisymmetric(psi, n):
        raise ValueError("sigma expects an antisymmetric input")
    terms = ((2, (0, 1), (2, 3)), (1, (0, 2), (1, 3)), (-1, (1, 2), (0, 3)), (-1, (0, 3), (1, 2)), (1, (1, 3), (0, 2)))
    return _place(terms, _nonzeros(psi, n), [(t, t, e) for t, e in enumerate(space.eps)], n)


def is_structure_eigenform(psi: Vec, space: ModelSpace) -> bool:
    """True iff psi is antisymmetric with J-pull-back equal to the structure sign times psi."""
    if space.kind == "none":
        raise ValueError("requires a structured space")
    u = structure_sign(space.kind)
    return is_antisymmetric(psi, space.n) and all(
        s * psi.get(jc, 0) == u * psi.get(c, 0) for c, jc, s in j_pullback_table(space))


def psi_map(psi: Vec, space: ModelSpace) -> dict[int, Fraction | int]:
    """Six-term map embedding an opposed 2-form into the Riemannian space.

    psi_map(psi)(x,y,z,w) = 2 h(x,Jy) psi(z,Jw) + 2 h(z,Jw) psi(x,Jy)
                            + h(x,Jz) psi(y,Jw) + h(y,Jw) psi(x,Jz)
                            - h(x,Jw) psi(y,Jz) - h(y,Jz) psi(x,Jw)

    The input must be opposed: it lies in the eigenspace J*psi = u psi (u
    the structure sign), where the metric and the fundamental form have -u.
    The fundamental form and the coefficients enter as ``int``s, so, as for
    sigma, an ``int`` form has an ``int`` image and a ``Fraction`` form a
    ``Fraction`` one.
    """
    if not is_structure_eigenform(psi, space):
        raise ValueError("psi_map input must be an opposed 2-form (J*psi = u psi, u the structure sign)")
    n = space.n
    omega_nz = [(i, j, int(v)) for i, j, v in _nonzeros(kaehler_form(space), n)]
    # psi(i, J e_j) = s psi(i, p) for J e_j = s e_p
    j_of = {p: (j, s) for j, (p, s) in enumerate(j_signed_permutation(space))}
    psi_j_nz = [(i, j_of[p][0], j_of[p][1] * v) for i, p, v in _nonzeros(psi, n)]
    # each term is coeff * Omega(pair one) * psi(., J .)(pair two), placed by slots
    terms = (
        (2, (0, 1), (2, 3)),
        (2, (2, 3), (0, 1)),
        (1, (0, 2), (1, 3)),
        (1, (1, 3), (0, 2)),
        (-1, (0, 3), (1, 2)),
        (-1, (1, 2), (0, 3)),
    )
    return _place(terms, omega_nz, psi_j_nz, n)


# ---------------------------------------------------------------------------
# Invariant contractions
# ---------------------------------------------------------------------------

EVEN_PAIR_WORDS = ((0, 0), (1, 1))
# the three ways to split four slots into two pairs, as slot permutations;
# both pairs of an even word carry the same tensor, symmetric or
# antisymmetric, so every permutation gives plus or minus its pairing's row
SLOT_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _kappa_raised_entries(space: ModelSpace, a: int) -> list[tuple[int, int, int]]:
    """Nonzero raised components of the contraction tensor: metric (a=0) or form (a=1)."""
    if a == 0:
        return [(i, i, space.eps[i]) for i in range(space.n)]
    if space.kind == "none":
        raise ValueError("form contractions require a structured space")
    return [(i, j, space.eps[i] * space.eps[j] * int(v)) for i, j, v in _nonzeros(kaehler_form(space), space.n)]


def invariant_contraction_row(perm: Sequence[int], word: Sequence[int], space: ModelSpace) -> dict[int, int]:
    """Full contraction of a rank-4 tensor against two raised pair tensors,
    as one row over flattened rank-4 coordinates.

    ``perm`` is a permutation of (0,1,2,3) selecting which slots are paired:
    slots perm[0], perm[1] contract against the first pair tensor and
    perm[2], perm[3] against the second.  ``word`` selects metric (0) or
    fundamental form (1) per pair.  Words with an even number of form
    factors are the scalar invariants of the extended structure group; the
    row is written for any word.  On a product theta (x) phi the row reads
    sum_c row[c] * theta[c // n^2] * phi[c % n^2].
    """
    if sorted(perm) != [0, 1, 2, 3]:
        raise ValueError("perm must be a permutation of (0,1,2,3)")
    if len(word) != 2 or any(a not in (0, 1) for a in word):
        raise ValueError("word must be two flags in {0,1}")
    terms = ((1, (perm[0], perm[1]), (perm[2], perm[3])),)
    return _place(terms, _kappa_raised_entries(space, word[0]), _kappa_raised_entries(space, word[1]), space.n)


# ---------------------------------------------------------------------------
# Sparse constraint rows (flattened rank-4 coordinates)
# ---------------------------------------------------------------------------

Block = tuple[int, Sequence[int]]  # (mask, bits): (i, j, k, l) with bits[i] ^ bits[j] ^ bits[k] ^ bits[l] == mask


@lru_cache(maxsize=4)
def _pair_groups(n: int, bits: tuple[int, ...]) -> dict[int, list[int]]:
    """Every rank-2 coordinate a*n + b, ascending, by its parity mask
    bits[a] ^ bits[b]: kept, as every block of a space reads them."""
    groups: dict[int, list[int]] = {}
    for a in range(n):
        for b in range(n):
            groups.setdefault(bits[a] ^ bits[b], []).append(a * n + b)
    return groups


def _pairs(n: int, block: Block | None) -> Sequence[int]:
    """The rank-2 coordinates i*n + j, ascending, whose anchor (i, j, 0, 0)
    lies in ``block`` (every one when None)."""
    if block is None:
        return range(n * n)
    mask, bits = block
    return _pair_groups(n, tuple(bits)).get(mask, ())


def _anchors(n: int, block: Block | None) -> list[tuple[int, Sequence[int]]]:
    """Each first pair f = i*n + j, i < j, with the last pairs k*n + l that
    complete it to an anchor (i, j, k, l) in ``block`` (every one when None),
    read off the groups of the two pairs' masks, in the order the groups were
    kept.  A pair's mask holds no unit or two: a first pair's pairs in a block
    of four units with two of them, in one of two with none, both, or one and
    one outside, in that of none with itself.  Each row lies in its block."""
    if block is None:
        return [(i * n + j, range(n * n)) for i in range(n) for j in range(i + 1, n)]
    mask, bits = block
    groups = _pair_groups(n, tuple(bits))
    inside = [u for u in set(bits) if mask & u]
    firsts = ({a | b for a, b in combinations(inside, 2)} if len(inside) == 4 else
              {0, mask, *(a | u for a in inside for u in set(bits) if not mask & u)} if inside else groups)
    return [(f, lasts) for first_mask in sorted(firsts, key=lambda m: groups[m][0])
            if (lasts := groups.get(mask ^ first_mask)) for f in groups[first_mask] if f // n < f % n]


def slot_kernel_rows(n: int, bits: Sequence[int]) -> dict[int, list[tuple[int, ...]]]:
    """K, the kernel of the first-pair and cyclic rows over the rank-3
    coordinates (i*n + j)*n + k they read, in closed form: its canonical rows
    as stored (:class:`linalg.Subspace`), each keyed by its coordinates'
    parity mask bits[i] ^ bits[j] ^ bits[k].  Both identities permute the
    indices of one coordinate, so K is a direct sum over index multisets:
    {a, a, a} gives no row; {a, a, b} one, A(a,b,a) = -A(b,a,a), as
    A(a,a,b) = 0; {a, b, c}, a < b < c, two, led by (a,b,c) and (a,c,b)."""
    def at(i: int, j: int, k: int) -> int:
        return (i * n + j) * n + k

    rows: dict[int, list[tuple[int, ...]]] = {}
    for a, b in permutations(range(n), 2):
        aba, baa = at(a, b, a), at(b, a, a)
        rows.setdefault(bits[b], []).append((aba, 1, baa, -1) if aba < baa else (baa, 1, aba, -1))
    for a, b, c in combinations(range(n), 3):
        bca, cba = at(b, c, a), at(c, b, a)
        rows.setdefault(bits[a] ^ bits[b] ^ bits[c], []).extend((
            (at(a, b, c), 1, at(b, a, c), -1, bca, -1, cba, 1),
            (at(a, c, b), 1, bca, 1, at(c, a, b), -1, cba, -1)))
    return rows


def riemann_rows(n: int, block: Block | None = None) -> list[dict[int, int]]:
    """Rows of A(x,y,z,w) + A(x,y,w,z) for first pairs i < j and k <= l, 2A at
    k = l, for the ``conformal`` meet only: right on affine, which alternates
    in the first pair.  With ``block``, the rows anchored in it."""
    rows = []
    for f, lasts in _anchors(n, block):
        f *= n * n
        for c in lasts:
            k, l = divmod(c, n)
            if k <= l:
                rows.append({f + c: 1, f + l * n + k: 1} if k < l else {f + c: 2})
    return rows


def riemann_trace_rows(n: int, block: Block | None = None) -> list[dict[int, int]]:
    """Rows of A(e_i, e_j, e_0, e_0), i < j, which cut what ``riemann_rows`` cut
    on a base inside weyl: there the riemann row at k < l is the weyl row over
    n, and the weyl row at (k, k) gives A_ijkk = eps_k*S_ij/n for one S_ij.
    With ``block``, the rows anchored in it."""
    return [{f * n * n: 1} for f in _pairs(n, block) if f // n < f % n]


def weyl_rows(space: ModelSpace, block: Block | None = None) -> list[dict[int, int]]:
    """Rows of the Weyl symmetry operator on ``affine``, two entries each, for
    first pairs i < j: A_ijkl + A_ijlk = 0 for k < l, and the diagonal ties
    eps_k*A_ijkk = eps_0*A_ij00 for 1 <= k < n.  Right only on ``affine``.
    With ``block``, the rows anchored in it; a tie and its anchor share one.

    The textbook row at (i, j, k, k), scaled by n, reads
    2n*A_ijkk + 2eps_k*sum_c eps_c*(A_cijc - A_cjic).  On ``affine`` the cyclic
    sum over the first three slots with last slot c, together with the
    first-pair alternation, gives A_cijc - A_cjic = -A_ijcc, so the row reads
    2n*A_ijkk - 2eps_k*sum_c eps_c*A_ijcc.  Times eps_k, that is
    n*x_k = sum_c x_c for x_k = eps_k*A_ijkk: the n diagonal rows say only
    that x_k is the same for every k (their sum over k vanishes), which is
    what the n - 1 ties say.  ``tests/oracles.full_weyl_rows`` keeps the
    textbook rows, for every first pair, as the check."""
    n = space.n
    eps = space.eps
    rows = []
    for f, lasts in _anchors(n, block):
        f *= n * n
        for c in lasts:
            k, l = divmod(c, n)
            if k < l:
                rows.append({f + c: 1, f + l * n + k: 1})
            elif k == l > 0:
                rows.append({f + c: eps[k], f: -eps[0]})
    return rows


def ricci_rows(space: ModelSpace, block: Block | None = None) -> list[dict[int, int]]:
    """Rows expressing Ric(x, y) = 0 for every (x, y).  Ric(x, y) reads the
    coordinates (c, x, y, c), which lie in the block of (x, y, 0, 0): with
    ``block``, the rows of the (x, y) in it."""
    n = space.n
    return [{flatten4(n, c, x, y, c): space.eps[c] for c in range(n)}
            for x, y in (divmod(xy, n) for xy in _pairs(n, block))]


def kaehler_rows(space: ModelSpace, block: Block | None = None) -> list[dict[int, int]]:
    """Rows of the structure-compatibility defect A(x,y,z,w) + u*A(x,y,Jz,Jw).

    Since J² = u, the rows at (i, j, k, l) and (i, j, Jk, Jl) are
    proportional: one row per class, with entry 1 at its smaller key.  Written
    for first pairs i < j: right only on a first-pair-alternating base.  With
    ``block``, the rows anchored in it."""
    if space.kind == "none":
        raise ValueError("structure-compatible subspace requires a structured space")
    n = space.n
    u = structure_sign(space.kind)
    # (k, l) < (Jk, Jl) as last-pair offsets c < Jc, with the entry at Jc
    classes = {c: (jc, u * s) for c, jc, s in j_pullback_table(space) if c < jc}
    rows = []
    for f, lasts in _anchors(n, block):
        f *= n * n
        for c in lasts:
            if c in classes:
                jc, s = classes[c]
                rows.append({f + c: 1, f + jc: s})
    return rows


# ---------------------------------------------------------------------------
# Sparse group actions on flattened integer vectors
# ---------------------------------------------------------------------------

ActionRows = list[list[tuple[int, int]]]


def action_rows(m: Mapping[int, Fraction | int], n: int) -> tuple[int, ActionRows]:
    """The n x n matrix ``m`` (a ``{a*n + b: value}`` dict) scaled to integers
    once: ``(den, rows)`` with ``den * m`` integral and ``rows[a]`` the
    ``(b, den * m[a, b])`` pairs of row ``a``, by ascending ``b``."""
    den = lcm(1, *(v.denominator for v in m.values()))
    rows: ActionRows = [[] for _ in range(n)]
    for c, v in sorted(m.items()):
        a, b = divmod(c, n)
        rows[a].append((b, v.numerator * (den // v.denominator)))
    return den, rows


def derivation_table(rows: ActionRows, n: int) -> ActionRows:
    """The rows of X acting on rank-2 coordinates, from its :func:`action_rows`
    ``rows``: at p*n + q the ``(coordinate, coeff)`` terms of row p moving the
    first slot, then those of row q moving the second."""
    return [[(b * n + q, k) for b, k in rows[p]] + [(p * n + b, k) for b, k in rows[q]]
            for p in range(n) for q in range(n)]


def lie_apply_vec(table: ActionRows, vec: Mapping[int, int], rank: int, n: int) -> dict[int, int]:
    """Sparse infinitesimal action on a flattened rank-2 or rank-4 integer
    vector, the sum over slots: ``den`` times the action of X, where ``table``
    is the :func:`derivation_table` of ``(den, rows)`` = :func:`action_rows`
    of X, read once per rank-2 half of the index.  Cancelled entries stay, as 0."""
    nn = n * n
    out: dict[int, int] = {}
    for c, v in vec.items():
        hi, lo = divmod(c, nn)
        for t, k in table[lo]:
            key = c - lo + t
            out[key] = out.get(key, 0) + k * v
        if rank == 4:
            for t, k in table[hi]:
                key = t * nn + lo
                out[key] = out.get(key, 0) + k * v
    return out


def permute_vec(targets: Sequence[int], signs: Sequence[int], vec: Mapping[int, int], rank: int,
                n: int) -> dict[int, int]:
    """Push-forward of a flattened rank-2 or rank-4 vector by a signed axis
    permutation given on rank-2 coordinates by :func:`spaces.signed_pair_table`:
    the entry at c moves to ``targets[c]`` times ``signs[c]``, the table applied
    to a rank-4 index's high and low halves."""
    if rank == 2:
        return {targets[c]: signs[c] * v for c, v in vec.items()}
    nn = n * n
    out = {}
    for c, v in vec.items():
        hi, lo = divmod(c, nn)
        out[targets[hi] * nn + targets[lo]] = signs[hi] * signs[lo] * v
    return out

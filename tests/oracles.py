"""Independent brute-force oracles used to derive and cross-check expected values.

Everything here is deliberately naive and shares no code path with the
package's sparse elimination engine: dense textbook Gauss-Jordan over exact
rationals, constraint matrices assembled by applying the public dense
defect operators to every standard basis tensor, the dense five-term and
six-term maps, dense pull-backs and infinitesimal actions that the
package's sparse maps and group applies are checked against, the per-pair
invariant contractions and Gram count that the package's restricted rows
are checked against, the wedge product with the fundamental form on
2-forms, and general first-order jets of vector fields, with the
first-order structure field of a plane twist, whose brackets the
closed-form Nijenhuis probe is checked against.  The dense :class:`Matrix`
lives here, with its converters from and to the package's sparse
``{a*k + b: value}`` matrices, and so do the dense commutator loop that the
package's commutant kernels are held to and the line-by-line invariance
check that lemma4.9's block condition is held to.  Small dense helpers
(conversions, the Gram matrix, the transpose, decoding a report's tensor)
live here too, since the package itself needs none of them.  So do the
generic subspace references the package does not need: the Zassenhaus
intersection and the containment check that meets are held to, the
first-pair and cyclic rows over every rank-3 coordinate, whose kernel the
closed-form K is held to, and their lift to every last index that the
closed-form ``affine`` is held to, the last-pair, Weyl and structure rows
written for every first pair (i, j), which the package writes for i < j
only, the Ricci rows, every rank-4 space of the catalog over every
coordinate (the weyl chain met with those rows, conformal as one direct
kernel, the map spans over the whole pieces of the split), which the
package solves one parity block at a time, and the unitary Lie-algebra rows written as commutators XJ - JX,
which the package writes as J's pull-back; they run on the package's
echelon engine, by another route than the one they check.  The unit
permutation that carries one parity mask onto another, keeping metric
signs, is read off the signs alone.
The modular-rank kernel certificate does not: it checks a kernel against its
rows with exact products and an elimination mod 2^61 - 1 of its own.  The
orthogonal Lie-algebra rows for every entry (a, b), the rows of the
six-piece split's four kernels read off dense matrices, and the commutator
rows, are written for it; the dense commutant dimension is the rank of the
commutator rows mod that prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from curvlab.linalg import Echelon, Subspace, SubspaceReducer, kernel_subspace, meet_kernel
from curvlab.spaces import ModelSpace, j_signed_permutation, structure_sign
from curvlab.tensors import (
    Tensor4,
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
    flatten4,
    is_antisymmetric,
    kaehler_form,
    metric_tensor2,
    psi_map,
    ricci,
    sigma,
    two_form_basis,
)


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ent = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            ent.extend(Fraction(v) for v in r)
        return cls(nr, nc, tuple(ent))

    @classmethod
    def from_dict(cls, k: int, m: Mapping[int, Fraction | int]) -> "Matrix":
        """The k x k matrix of a sparse ``{a*k + b: value}`` dict."""
        ent = [Fraction(0)] * (k * k)
        for c, v in m.items():
            ent[c] = Fraction(v)
        return cls(k, k, tuple(ent))

    def to_dict(self) -> dict[int, Fraction]:
        """The sparse ``{a*cols + b: value}`` dict of the nonzero entries."""
        return {c: v for c, v in enumerate(self.entries) if v}

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[Fraction | int]) -> "Matrix":
        n = len(diag)
        return cls(n, n, tuple(Fraction(diag[i]) if i == j else Fraction(0) for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ent = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                ent.append(sum((ri[k] * other[k, j] for k in range(self.cols)), Fraction(0)))
        return Matrix(self.rows, other.cols, tuple(ent))

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(
            sum((self[i, k] * v[k] for k in range(self.cols) if v[k]), Fraction(0)) for i in range(self.rows)
        )

    def scale(self, a: Fraction | int) -> "Matrix":
        a = Fraction(a)
        return Matrix(self.rows, self.cols, tuple(a * v for v in self.entries))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))


def block_diag(m: Matrix) -> Matrix:
    """diag(m, m), copied entry by entry into a dense 2d x 2d array."""
    d = m.rows
    rows = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for j in range(d):
            rows[i][j] = m[i, j]
            rows[d + i][d + j] = m[i, j]
    return Matrix.from_rows(rows)


def commutator_rows(mats: Sequence[Matrix]) -> list[dict[int, int]]:
    """Every entry of every commutator TM - MT as a row over the d*d entries of
    T (T[i][k] at i*d + k), written by a dense loop over (i, j, k) and scaled
    to integers by the lcm of its denominators; zero rows are left out."""
    d = mats[0].rows if mats else 0
    rows: list[dict[int, int]] = []
    for m in mats:
        for i in range(d):
            for j in range(d):
                row: dict[int, Fraction] = {}
                for k in range(d):
                    # (TM)[i][j] term: T[i][k] M[k][j]
                    v = m[k, j]
                    if v:
                        key = i * d + k
                        row[key] = row.get(key, Fraction(0)) + v
                    # -(MT)[i][j] term: -M[i][k] T[k][j]
                    v = m[i, k]
                    if v:
                        key = k * d + j
                        row[key] = row.get(key, Fraction(0)) - v
                den = lcm(*(v.denominator for v in row.values()))
                row = {c: int(v * den) for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def commutant_dimension(mats: Sequence[Matrix]) -> int:
    """Dimension of {T : TM = MT for all M}: d*d minus the rank mod p of
    :func:`commutator_rows`.  The rank over F_p never exceeds the rank over Q,
    so an unlucky prime can only read the dimension too high."""
    d = mats[0].rows if mats else 0
    return d * d - rank_mod_p(commutator_rows(mats))


def lie_closure_dim(mats: Sequence[Matrix], perms: Sequence[Matrix] = ()) -> int:
    """Dimension of the span of ``mats`` and all their iterated brackets and
    conjugates P m P^T by the permutation matrices ``perms``: each new
    element is bracketed with every element kept so far and conjugated by
    each P, by dense products, and kept when it is independent of the
    textbook reduced rows, until no new element is."""
    reduced: list[tuple[int, list[Fraction]]] = []

    def independent(m: Matrix) -> bool:
        vec = list(m.entries)
        for p, row in reduced:
            if vec[p]:
                f = vec[p]
                vec = [v - f * r for v, r in zip(vec, row)]
        p = next((c for c, v in enumerate(vec) if v), None)
        if p is None:
            return False
        reduced.append((p, [v / vec[p] for v in vec]))
        return True

    span = [m for m in mats if independent(m)]
    frontier = list(span)
    while frontier:
        new = []
        for a in frontier:
            made = [a.mul(b).add(b.mul(a).scale(-1)) for b in span] + [p.mul(a).mul(transpose(p)) for p in perms]
            new += [c for c in made if independent(c)]
        span += new
        frontier = new
    return len(span)


def permutation_matrix(perm: Sequence[int]) -> Matrix:
    """P with P e_a = e_perm[a]: a 1 at row perm[a], column a."""
    n = len(perm)
    return Matrix.from_rows([[1 if perm[a] == i else 0 for a in range(n)] for i in range(n)])


def determinant(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Of a square matrix given by its rows (1 for none), by textbook
    Gaussian elimination with row swaps."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def component_label(space: ModelSpace, group: str, g: Matrix) -> tuple:
    """A label of the connected component of the group element ``g``, from
    dense determinants.  O(p, q): the signs of the determinants of g's
    positive-axis block and negative-axis block.  U and Ustar: whether g
    commutes with J, and for para the sign of the determinant of g from the
    +1 eigenspace of J, basis e_2i + e_2i+1, to the eigenspace it lands in
    (basis e_2i +- e_2i+1), the general-linear model's component."""
    n = space.n
    if group == "O":
        blocks = ([a for a in range(n) if space.eps[a] > 0], [a for a in range(n) if space.eps[a] < 0])
        return tuple(determinant([[g[i, j] for j in b] for i in b]) > 0 for b in blocks)
    j = Matrix.from_dict(n, space.j)
    commutes = g.mul(j) == j.mul(g)
    if space.kind == "complex":
        return (commutes,)
    m = n // 2
    images = [g.matvec([Fraction(1) if a in (2 * i, 2 * i + 1) else Fraction(0) for a in range(n)]) for i in range(m)]
    # coordinates in the basis e_2k + sign * e_2k+1 are read off the even axes
    return (commutes, determinant([[images[i][2 * k] for i in range(m)] for k in range(m)]) > 0)


def dense(sub: Subspace) -> list[list[Fraction]]:
    """The canonical basis rows of ``sub``, each divided by its pivot entry,
    as dense vectors: the textbook reduced row-echelon form."""
    rows = []
    for row, pv in zip(sub.row_items(), sub.pivot_scales):
        vec = [Fraction(0)] * sub.ambient_dim
        for c, v in row:
            vec[c] = Fraction(v, pv)
        rows.append(vec)
    return rows


def stored_basis(rows: Iterable[Mapping[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Rows as ``Subspace.basis`` stores them, taken as given: each row one flat
    tuple ``(c0, v0, c1, v1, ...)`` of its nonzero entries, columns ascending."""
    return tuple(tuple(x for c in sorted(row) if row[c] for x in (c, row[c])) for row in rows)


def sparse(vec: Sequence[Fraction | int]) -> dict[int, Fraction]:
    """A dense vector as the ``{column: value}`` dict the package takes."""
    return {c: Fraction(v) for c, v in enumerate(vec) if v}


def gram(space: ModelSpace) -> Matrix:
    """The metric h = diag(eps) as a matrix."""
    return Matrix.diagonal(space.eps)


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, tuple(m[i, j] for j in range(m.cols) for i in range(m.rows)))


def tensor4_from_obj(obj: Mapping) -> Tensor4:
    """Decode a rank-4 tensor from a report's ``{"rank", "n", "components"}`` JSON."""
    assert obj["rank"] == 4
    return Tensor4(obj["n"], tuple(Fraction(s) for s in obj["components"]))


def dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """Textbook Gauss-Jordan elimination; returns (rref rows, rank, pivot cols)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, r, pivots


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis from the textbook RREF (one vector per free column)."""
    if not rows:
        rows = [[Fraction(0)] * ncols]
    red, rank, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Generic subspace references for the package's meets and lifted kernels
# ---------------------------------------------------------------------------


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces given by bases (Zassenhaus double-block
    elimination): the reference ``meet_kernel`` is held to."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    amb = a.ambient_dim
    ech = Echelon()
    for row in a.basis_dicts():
        doubled = dict(row)
        doubled.update({c + amb: v for c, v in row.items()})
        ech.add(doubled)
    for row in b.basis_dicts():
        ech.add(row)
    vecs = [{c - amb: v for c, v in row.items()} for pivot, row in ech.pivot_rows.items() if pivot >= amb]
    return Subspace.from_vectors(vecs, amb)


def is_subspace_of(a: Subspace, b: Subspace) -> bool:
    reducer = SubspaceReducer(b)
    return all(reducer.contains(row) for row in a.basis_dicts())


def antisym_rows(n: int) -> list[dict[int, int]]:
    """Rows of A(x,y,z,.) + A(y,x,z,.) over rank-3 coordinates (i*n + j)*n + k:
    the identity does not read the last slot."""
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                row: dict[int, int] = {}
                for key in ((i * n + j) * n + k, (j * n + i) * n + k):
                    row[key] = row.get(key, 0) + 1
                rows.append(row)
    return rows


def bianchi_rows(n: int) -> list[dict[int, int]]:
    """Rows of the cyclic sum over the first three slots, over rank-3
    coordinates (i*n + j)*n + k: the identity does not read the last slot."""
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
                    continue  # one row per cyclic class
                row: dict[int, int] = {}
                for key in ((i * n + j) * n + k, (j * n + k) * n + i, (k * n + i) * n + j):
                    row[key] = row.get(key, 0) + 1
                rows.append(row)
    return rows


def lift_last_slot(rows: Sequence[Mapping[int, int]], n: int) -> list[dict[int, int]]:
    """Rows over rank-3 coordinates lifted to rank-4 ones, one copy per value l
    of the last index: column c becomes c*n + l."""
    return [{c * n + l: v for c, v in row.items()} for row in rows for l in range(n)]


def parity_mask(space: ModelSpace, c: int) -> int:
    """The units that rank-4 coordinate c holds an odd number of times, as a
    bit mask: its axes, or its J-planes {2p, 2p + 1} for a structured space."""
    width = 1 if space.kind == "none" else 2
    g = 0
    for _ in range(4):
        c, a = divmod(c, space.n)
        g ^= 1 << (a // width)
    return g


def relabelled(sub: Subspace, space: ModelSpace, perm: Sequence[int]) -> list[dict[int, int]]:
    """The basis rows of ``sub`` pushed forward by the axis permutation that
    carries unit u onto unit perm[u] (a J-plane whole, axis by axis), index
    by index: entry (i, j, k, l) moves to (s(i), s(j), s(k), s(l))."""
    n = space.n
    width = 1 if space.kind == "none" else 2
    axis = [perm[a // width] * width + a % width for a in range(n)]
    out = []
    for row in sub.basis_dicts():
        moved = {}
        for c, v in row.items():
            image = 0
            for a in (c // n ** 3, c // n ** 2 % n, c // n % n, c % n):
                image = image * n + axis[a]
            moved[image] = v
        out.append(moved)
    return out


def unit_permutation(space: ModelSpace, rep: int, mask: int) -> list[int] | None:
    """A permutation of the units (axes, or J-planes for a structured space)
    that keeps each unit's metric sign, the sign of its first axis, and
    carries the units of mask ``rep`` onto those of ``mask``: for each sign,
    rep's units onto mask's and the others onto the others, in ascending
    order.  None when the two masks hold different numbers of some sign."""
    width = 1 if space.kind == "none" else 2
    m = space.n // width
    perm = list(range(m))
    for sign in (1, -1):
        units = [u for u in range(m) if space.eps[u * width] == sign]
        src = [u for u in units if rep >> u & 1]
        dst = [u for u in units if mask >> u & 1]
        if len(src) != len(dst):
            return None
        for a, b in zip(src + [u for u in units if u not in src], dst + [u for u in units if u not in dst]):
            perm[a] = b
    return perm


def on_columns(sub: Subspace, rows: Sequence[Mapping[int, int]],
               columns: Sequence[int]) -> tuple[Subspace, list[dict[int, int]]]:
    """``sub`` and the ``rows`` with every key inside the ascending ``columns``,
    renumbered by place in them, as a subspace and rows over len(columns)
    columns: the order of columns, and so the echelon form, is kept.  A row
    with keys both in and out of ``columns`` raises."""
    place = {c: i for i, c in enumerate(columns)}
    basis = tuple(tuple(place[x] if k % 2 == 0 else x for k, x in enumerate(row)) for row in sub.basis)
    local = []
    for row in rows:
        inside = [c in place for c in row]
        if all(inside):
            local.append({place[c]: v for c, v in row.items()})
        elif any(inside):
            raise ValueError("row straddles the columns")
    return Subspace(len(columns), basis), local


def full_riemann_rows(n: int) -> list[dict[int, int]]:
    """Rows of A(x,y,z,w) + A(x,y,w,z) for every first pair (i, j) and k <= l:
    the full-range rows that the package's rows for i < j are held to."""
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k, n):
                    row: dict[int, int] = {}
                    for key in (flatten4(n, i, j, k, l), flatten4(n, i, j, l, k)):
                        row[key] = row.get(key, 0) + 1
                    rows.append(row)
    return rows


def full_weyl_rows(space: ModelSpace) -> list[dict[int, int]]:
    """Rows of the Weyl symmetry operator, scaled by n, for every first pair:
    the textbook rows, each diagonal one with its 2n-entry trace, that the
    package's two-entry rows for i < j are held to."""
    n = space.n
    eps = space.eps
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k, n):
                    row: dict[int, int] = {}
                    for key in (flatten4(n, i, j, k, l), flatten4(n, i, j, l, k)):
                        row[key] = row.get(key, 0) + n
                    if k == l:
                        for c in range(n):
                            w = 2 * eps[k] * eps[c]
                            key = flatten4(n, c, j, i, c)
                            row[key] = row.get(key, 0) - w
                            key = flatten4(n, c, i, j, c)
                            row[key] = row.get(key, 0) + w
                    rows.append({c: v for c, v in row.items() if v})
    return rows


def full_kaehler_rows(space: ModelSpace) -> list[dict[int, int]]:
    """Rows of A(x,y,z,w) + u*A(x,y,Jz,Jw) for every first pair, one per class
    {(k, l), (Jk, Jl)} with entry 1 at its smaller key."""
    n = space.n
    u = structure_sign(space.kind)
    perm = j_signed_permutation(space)
    classes = []
    for k, (pk, sk) in enumerate(perm):
        for l, (pl, sl) in enumerate(perm):
            if (k, l) < (pk, pl):
                classes.append((k * n + l, pk * n + pl, u * sk * sl))
    return [{ij * n * n + a: 1, ij * n * n + b: s} for ij in range(n * n) for a, b, s in classes]


def full_ricci_rows(space: ModelSpace) -> list[dict[int, int]]:
    """Rows of Ric(x, y) = sum_c eps_c A(c, x, y, c) for every (x, y)."""
    n = space.n
    return [{flatten4(n, c, x, y, c): space.eps[c] for c in range(n)} for x in range(n) for y in range(n)]


def direct_conformal(space: ModelSpace) -> Subspace:
    """The conformal space as one direct kernel over all n^4 columns: the
    first-pair and cyclic rows lifted to every last index, the riemann rows
    for every first pair and the Ricci rows."""
    n = space.n
    rows = lift_last_slot(antisym_rows(n) + bianchi_rows(n), n) + full_riemann_rows(n) + full_ricci_rows(space)
    return kernel_subspace(rows, n ** 4)


@lru_cache(maxsize=4)
def full_chain(space: ModelSpace) -> dict[str, Subspace]:
    """Every rank-4 space of the catalog over every coordinate, with no parity
    block: affine the kernel of the first-pair and cyclic rows lifted to
    every last index; weyl, riemann and the structure-compatible spaces meets
    with the rows above for every first pair; conformal
    :func:`direct_conformal`; sigma_image the span of sigma over every
    2-form; and the four map spans the images of sigma and psi over the
    fundamental form and the bases of the two antisymmetric kernels of
    :func:`two_tensor_split_rows`.  Kept for the last few spaces asked for."""
    n = space.n
    chain = {"affine": kernel_subspace(lift_last_slot(antisym_rows(n) + bianchi_rows(n), n), n ** 4)}
    chain["weyl"] = meet_kernel(chain["affine"], full_weyl_rows(space))
    chain["riemann"] = meet_kernel(chain["weyl"], full_riemann_rows(n))
    chain["conformal"] = direct_conformal(space)
    chain["sigma_image"] = Subspace.from_vectors([sigma(t, space) for t in two_form_basis(n)], n ** 4)
    if space.kind != "none":
        chain["kaehler_weyl"] = meet_kernel(chain["weyl"], full_kaehler_rows(space))
        chain["kaehler_riemann"] = meet_kernel(chain["riemann"], full_kaehler_rows(space))
        split = two_tensor_split_rows(space)
        aligned, opposed = (kernel_subspace(split[name], n * n).basis_dicts()
                            for name in ("alt_aligned_traceless", "alt_opposed"))
        for name, mapper, forms in (("sigma_omega_span", sigma, [kaehler_form(space)]),
                                    ("sigma_aligned_span", sigma, aligned),
                                    ("sigma_opposed_span", sigma, opposed),
                                    ("psi_span", psi_map, opposed)):
            chain[name] = Subspace.from_vectors([mapper(t, space) for t in forms], n ** 4)
    return chain


# ---------------------------------------------------------------------------
# Kernel certificates by modular rank
# ---------------------------------------------------------------------------

P61 = 2 ** 61 - 1


def rank_mod_p(rows: Sequence[Mapping[int, int]], p: int = P61) -> int:
    """Rank over F_p of integer rows: sparse elimination mod p, shortest rows
    first, each pivot row scaled to 1 at its leading column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in piv.items():
                w = (r.get(k, 0) - f * v) % p
                if w:
                    r[k] = w
                else:
                    del r[k]
    return len(pivots)


def kernel_certificate(sub: Subspace, rows: Sequence[Mapping[int, int]], p: int = P61) -> list[str]:
    """The checks that fail for ``sub == ker(rows)``, none if it holds, with no
    code from the engine: every basis row is annihilated by every row (exact
    integer products, through a column index over the rows), the basis rows
    lead at distinct columns (so dim ker >= dim sub), and the rank of the rows
    mod p is N - dim sub (the rank over Q is at least that, so dim ker <=
    dim sub).  An unlucky prime can fail a true kernel, never pass a false one."""
    failed = []
    reading: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            reading.setdefault(c, []).append((r, v))
    for vec in sub.row_items():
        dots: dict[int, int] = {}
        for c, v in vec:
            for r, w in reading.get(c, ()):
                dots[r] = dots.get(r, 0) + v * w
        if any(dots.values()):
            failed.append("annihilated")
            break
    leads = {min(c for c, v in vec.items() if v) for vec in sub.basis_dicts()}
    if len(leads) != len(sub.basis):
        failed.append("distinct leading columns")
    if rank_mod_p(rows, p) != sub.ambient_dim - len(sub.basis):
        failed.append("rank mod p")
    return failed


def restricted_rows(base: Subspace, rows: Sequence[Mapping[int, int]]) -> list[dict[int, int]]:
    """Each row evaluated on every basis row of ``base`` by a dense loop, with
    no code from the engine: the entry at i is sum_c row[c] * b_i[c], b_i the
    i-th basis row written out densely.  B ∩ ker(rows) is the span of the
    kernel of these rows, over the basis of B, so a rank mod p of ``dim B``
    certifies that the meet is 0."""
    dense_basis = []
    for b in base.basis_dicts():
        vec = [0] * base.ambient_dim
        for c, v in b.items():
            vec[c] = v
        dense_basis.append(vec)
    out = []
    for row in rows:
        dots = {i: sum(v * vec[c] for c, v in row.items()) for i, vec in enumerate(dense_basis)}
        out.append({i: v for i, v in dots.items() if v})
    return out


def orthogonal_lie_rows(space: ModelSpace) -> list[dict[int, int]]:
    """Rows of X^T H + H X = 0 for every entry (a, b), X[a][b] at a*n + b: the
    rows of the orthogonal Lie algebra."""
    n = space.n
    rows = []
    for a in range(n):
        for b in range(n):
            # eps_b X[b][a] + eps_a X[a][b] = 0
            row = {b * n + a: space.eps[b]}
            row[a * n + b] = row.get(a * n + b, 0) + space.eps[a]
            rows.append(row)
    return rows


def commuting_lie_rows(space: ModelSpace) -> list[dict[int, int]]:
    """Rows of X^T H + H X = 0 and of XJ - JX = 0, entry (a, b) of X at
    a*n + b: the unitary Lie algebra cut by commutators, which the package's
    fixed points of J's pull-back are held to."""
    n = space.n
    u = structure_sign(space.kind)
    perm = j_signed_permutation(space)
    rows = orthogonal_lie_rows(space)
    for a in range(n):
        pa, sa = perm[a]
        for b in range(n):
            pb, sb = perm[b]
            # (XJ - JX)[a][b] = s_b X[a][p(b)] - s_{p(a)} X[p(a)][b], and s_{p(a)} = u s_a
            row = {a * n + pb: sb}
            row[pa * n + b] = row.get(pa * n + b, 0) - u * sa
            rows.append(row)
    return rows


def two_tensor_split_rows(space: ModelSpace) -> dict[str, list[dict[int, int]]]:
    """Integer rows of the four kernels of the six-piece split of rank-2
    tensors, entry (a, b) at a*n + b, from dense matrices: X - X^T = 0 or
    X + X^T = 0 for every (a, b); J*X = -u X (aligned) or J*X = u X (opposed),
    with J* read off the dense pull-back of each basis tensor; and, on the
    aligned pieces, orthogonality to h or to Omega in the induced inner
    product."""
    n = space.n
    u = structure_sign(space.kind)
    j = Matrix.from_dict(n, space.j)
    # column d of J* is the pull-back of the basis tensor e_d
    jstar = [pullback(j, {d: Fraction(1)}) for d in range(n * n)]
    sym = [{a * n + b: 1, b * n + a: -1} for a in range(n) for b in range(n) if a != b]
    alt = [{a * n + b: 1, b * n + a: 1} if a != b else {a * n + a: 2} for a in range(n) for b in range(n)]
    eigen = {}
    for lam in (-u, u):
        rows = [{c: -lam} for c in range(n * n)]
        for d, image in enumerate(jstar):
            for c, v in image.items():
                rows[c][d] = rows[c].get(d, 0) + int(v)
        eigen[lam] = [{c: v for c, v in row.items() if v} for row in rows]

    def orthogonal(form: Mapping[int, Fraction]) -> dict[int, int]:
        return {c: int(v) * space.eps[c // n] * space.eps[c % n] for c, v in form.items()}

    return {
        "sym_aligned_traceless": sym + eigen[-u] + [orthogonal(metric_tensor2(space))],
        "sym_opposed": sym + eigen[u],
        "alt_aligned_traceless": alt + eigen[-u] + [orthogonal(kaehler_form(space))],
        "alt_opposed": alt + eigen[u],
    }


def standard_basis_tensor(n: int, flat_index: int) -> Tensor4:
    comp = [Fraction(0)] * n ** 4
    comp[flat_index] = Fraction(1)
    return Tensor4(n, tuple(comp))


def operator_matrix(space: ModelSpace, names: list[str]) -> list[list[Fraction]]:
    """Stacked matrices of the named dense defect operators on all basis tensors.

    Columns index input coordinates; each operator contributes one block of
    n^4 rows (built column by column from the dense public operations).
    """
    n = space.n
    dim = n ** 4
    ops = {
        "antisym": lambda t: defect_antisym(t),
        "bianchi": lambda t: defect_bianchi(t),
        "riemann": lambda t: defect_riemann(t),
        "weyl": lambda t: defect_weyl(t, space),
        "kaehler": lambda t: defect_kaehler(t, space),
    }
    blocks = []
    for name in names:
        cols = [ops[name](standard_basis_tensor(n, c)).components for c in range(dim)]
        block = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        blocks.extend(block)
    return blocks


def ricci_matrix(space: ModelSpace) -> list[list[Fraction]]:
    """Matrix of the Ricci contraction on all basis tensors (n^2 rows)."""
    n = space.n
    dim = n ** 4
    cols = [ricci(standard_basis_tensor(n, c), space) for c in range(dim)]
    return [[cols[c].get(r, Fraction(0)) for c in range(dim)] for r in range(n * n)]


def span_contains(basis: list[list[Fraction]], vec: list[Fraction]) -> bool:
    """Membership via a rank jump, fully independent of the package engine."""
    if not basis:
        return all(v == 0 for v in vec)
    _, rank_before, _ = dense_rref(basis)
    _, rank_after, _ = dense_rref(basis + [vec])
    return rank_before == rank_after


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    ra, _, _ = dense_rref(a) if a else ([], 0, [])
    rb, _, _ = dense_rref(b) if b else ([], 0, [])
    clean_a = [row for row in ra if any(row)]
    clean_b = [row for row in rb if any(row)]
    return clean_a == clean_b


def alt_ricci(a: Tensor4, space: ModelSpace) -> dict[int, Fraction]:
    """Alternating part of the Ricci contraction, as a rank-2 dict."""
    ric = ricci(a, space)
    n = a.n
    comp = []
    for x in range(n):
        for y in range(n):
            comp.append((ric.get(x * n + y, 0) - ric.get(y * n + x, 0)) / 2)
    return sparse(comp)


def _contract_slot(n: int, rank: int, comp: list[Fraction], t: Matrix, slot: int) -> list[Fraction]:
    """Replace slot s: out_{..i..} = sum_a t[a][i] cur_{..a..}."""
    stride = n ** (rank - 1 - slot)
    out = [Fraction(0)] * (n ** rank)
    for c, v in enumerate(comp):
        if not v:
            continue
        a = (c // stride) % n
        base = c - a * stride
        for i in range(n):
            coeff = t[a, i]
            if coeff:
                out[base + i * stride] += coeff * v
    return out


def _dense2(n: int, theta: Mapping[int, Fraction]) -> list[Fraction]:
    comp = [Fraction(0)] * (n * n)
    for c, v in theta.items():
        comp[c] = Fraction(v)
    return comp


def _rank_and_components(n: int, theta) -> tuple[int, list[Fraction]]:
    """A rank-4 :class:`Tensor4` or a rank-2 dict as (rank, dense components)."""
    if isinstance(theta, Tensor4):
        return 4, list(theta.components)
    return 2, _dense2(n, theta)


def pullback(t: Matrix, theta):
    """(t* theta)(v_1, ..., v_k) = theta(t v_1, ..., t v_k), for a rank-4
    :class:`Tensor4` or a rank-2 dict (returned in the same form)."""
    n = t.rows
    rank, comp = _rank_and_components(n, theta)
    for slot in range(rank):
        comp = _contract_slot(n, rank, comp, t, slot)
    return Tensor4(n, tuple(comp)) if rank == 4 else sparse(comp)


def pullback_apply_vec(rows: list[list[tuple[int, int]]], vec: Mapping[int, int], rank: int, n: int) -> dict[int, int]:
    """Sparse pull-back of an integer vector by any matrix g, contracting each
    slot with g in sequence: ``den**rank`` times the pull-back by g, where
    ``(den, rows)`` is ``tensors.action_rows`` of g.  The oracle for the
    package's sign-character pull-back by a sign diagonal."""
    cur = dict(vec)
    for slot in range(rank):
        stride = n ** (rank - 1 - slot)
        nxt: dict[int, int] = {}
        for c, v in cur.items():
            a = (c // stride) % n
            base = c - a * stride
            for b, coeff in rows[a]:
                nxt[base + b * stride] = nxt.get(base + b * stride, 0) + coeff * v
        cur = {c: v for c, v in nxt.items() if v}
    return cur


def lie_action(x: Matrix, theta):
    """Infinitesimal pull-back action: sum over slots of theta(..., X v_i, ...),
    for a rank-4 :class:`Tensor4` or a rank-2 dict (returned in the same form)."""
    n = x.rows
    rank, comp = _rank_and_components(n, theta)
    total = [Fraction(0)] * (n ** rank)
    for slot in range(rank):
        part = _contract_slot(n, rank, comp, x, slot)
        for c, v in enumerate(part):
            if v:
                total[c] += v
    return Tensor4(n, tuple(total)) if rank == 4 else sparse(total)


# ---------------------------------------------------------------------------
# Invariant contractions and Gram counts, pair by pair
# ---------------------------------------------------------------------------


def _raised_pair_tensor(space: ModelSpace, a: int) -> list[list[int]]:
    """The dense raised metric (a = 0) or fundamental form (a = 1):
    K^{ij} = h^{ii} h^{jj} K_ij, since the metric is diagonal."""
    n = space.n
    k = metric_tensor2(space) if a == 0 else kaehler_form(space)
    return [[space.eps[i] * space.eps[j] * int(k.get(i * n + j, 0)) for j in range(n)] for i in range(n)]


def invariant_contraction_product(theta: Mapping[int, Fraction], phi: Mapping[int, Fraction],
                                  perm: Sequence[int], word: Sequence[int], space: ModelSpace) -> Fraction:
    """Full contraction of theta (x) phi against two raised pair tensors, one
    nonzero pair (theta[a, b], phi[c, d]) at a time: slots perm[0], perm[1] of
    (a, b, c, d) against the first pair tensor, perm[2], perm[3] against the
    second; ``word`` picks the metric (0) or the fundamental form (1) per pair.
    The oracle of ``tensors.invariant_contraction_row``."""
    n = space.n
    k1 = _raised_pair_tensor(space, word[0])
    k2 = _raised_pair_tensor(space, word[1])
    total = Fraction(0)
    for ab, t in theta.items():
        for cd, p in phi.items():
            idx = (*divmod(ab, n), *divmod(cd, n))
            total += k1[idx[perm[0]]][idx[perm[1]]] * k2[idx[perm[2]]][idx[perm[3]]] * t * p
    return total


def invariant_rows(mod_a: Subspace, mod_b: Subspace, space: ModelSpace,
                   perms: Iterable[Sequence[int]] = tuple(permutations(range(4)))) -> list[list[Fraction]]:
    """The even-word contractions on mod_a (x) mod_b that are not zero there,
    one basis pair, slot permutation (each of ``perms``, all 24 by default)
    and word at a time, as dense rows: column i*d_b + j holds the pair (i-th
    basis row of mod_a, j-th of mod_b)."""
    ta, tb = mod_a.basis_dicts(), mod_b.basis_dicts()
    rows = [[invariant_contraction_product(theta, phi, perm, word, space) for theta in ta for phi in tb]
            for perm in perms for word in ((0, 0), (1, 1))]
    return [row for row in rows if any(row)]


def orthogonality_violations(a: Subspace, b: Subspace, weight: Callable[[int], int]) -> int:
    """Number of basis pairs (one from each subspace) with a nonzero weighted
    product, one pair at a time."""
    count = 0
    bb = b.basis_dicts()
    for va in a.basis_dicts():
        for vb in bb:
            small, big = (va, vb) if len(va) <= len(vb) else (vb, va)
            total = Fraction(0)
            for c, v in small.items():
                w = big.get(c)
                if w is not None:
                    total += v * w * weight(c)
            if total:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Dense five-term and six-term maps
# ---------------------------------------------------------------------------


def sigma_dense(psi: Mapping[int, Fraction], space: ModelSpace) -> Tensor4:
    """The five-term map as a dense loop over every (x, y, z) slot:

    sigma(psi)(x,y,z,w) = 2 psi(x,y) h(z,w) + psi(x,z) h(y,w) - psi(y,z) h(x,w)
                          - psi(x,w) h(y,z) + psi(y,w) h(x,z)
    """
    n = space.n
    if not is_antisymmetric(psi, n):
        raise ValueError("sigma expects an antisymmetric input")
    p = _dense2(n, psi)
    eps = space.eps
    comp = [Fraction(0)] * n ** 4
    for x in range(n):
        for y in range(n):
            pxy2 = 2 * p[x * n + y]
            for z in range(n):
                base = ((x * n + y) * n + z) * n
                # h diagonal: each term fires only when its h-pair coincides
                comp[base + z] += pxy2 * eps[z]
                comp[base + y] += p[x * n + z] * eps[y]
                comp[base + x] -= p[y * n + z] * eps[x]
                # psi(x,w) h(y,z) and psi(y,w) h(x,z) terms
                if y == z:
                    for w in range(n):
                        comp[base + w] -= p[x * n + w] * eps[y]
                if x == z:
                    for w in range(n):
                        comp[base + w] += p[y * n + w] * eps[x]
    return Tensor4(n, tuple(comp))


def psi_map_dense(psi: Mapping[int, Fraction], space: ModelSpace) -> Tensor4:
    """The six-term map, from the dense Omega and psi(., J .) component tables:

    psi_map(psi)(x,y,z,w) = 2 h(x,Jy) psi(z,Jw) + 2 h(z,Jw) psi(x,Jy)
                            + h(x,Jz) psi(y,Jw) + h(y,Jw) psi(x,Jz)
                            - h(x,Jw) psi(y,Jz) - h(y,Jz) psi(x,Jw)
    """
    n = space.n
    u = structure_sign(space.kind)
    # opposed: antisymmetric, with the dense pull-back by J equal to u psi
    opposed = {c: u * v for c, v in psi.items() if v}
    if not is_antisymmetric(psi, n) or pullback(Matrix.from_dict(n, space.j), psi) != opposed:
        raise ValueError("psi_map input must be an opposed 2-form")
    omega = _dense2(n, kaehler_form(space))
    p = _dense2(n, psi)
    perm = j_signed_permutation(space)
    omega_nz = [(i, j, omega[i * n + j]) for i in range(n) for j in range(n) if omega[i * n + j]]
    psi_j_nz = []
    for i in range(n):
        for j in range(n):
            pj, sj = perm[j]
            v = sj * p[i * n + pj]
            if v:
                psi_j_nz.append((i, j, v))
    # each term is coeff * Omega(pair one) * psi(., J .)(pair two), placed by slots
    terms = (
        (Fraction(2), (0, 1), (2, 3)),
        (Fraction(2), (2, 3), (0, 1)),
        (Fraction(1), (0, 2), (1, 3)),
        (Fraction(1), (1, 3), (0, 2)),
        (Fraction(-1), (0, 3), (1, 2)),
        (Fraction(-1), (1, 2), (0, 3)),
    )
    comp = [Fraction(0)] * n ** 4
    idx = [0, 0, 0, 0]
    for coeff, om_slots, psi_slots in terms:
        for a, b, ov in omega_nz:
            idx[om_slots[0]] = a
            idx[om_slots[1]] = b
            for c, d, pv in psi_j_nz:
                idx[psi_slots[0]] = c
                idx[psi_slots[1]] = d
                comp[((idx[0] * n + idx[1]) * n + idx[2]) * n + idx[3]] += coeff * ov * pv
    return Tensor4(n, tuple(comp))


# ---------------------------------------------------------------------------
# Exterior forms
# ---------------------------------------------------------------------------


def two_form_coordinates(sub: Subspace, n: int) -> list[list[Fraction]]:
    """Basis of a subspace of antisymmetric rank-2 tensors, read in (i < j) coordinates."""
    return [[vec.get(i * n + j, Fraction(0)) for i in range(n) for j in range(i + 1, n)]
            for vec in sub.basis_dicts()]


def wedge_omega_matrix(space: ModelSpace) -> list[list[Fraction]]:
    """Dense matrix of psi -> psi ^ Omega, Omega the fundamental form.

    Columns are the (i < j) coordinates of 2-forms, psi = sum psi(e_i, e_j)
    e^i ^ e^j; rows are the (i < j < k < l) coordinates of 4-forms.  The
    product (e^a ^ e^b) ^ (e^c ^ e^d) is zero when an index repeats, and
    otherwise the sign of the shuffle sorting (a, b, c, d) times the sorted
    basis 4-form.
    """
    n = space.n
    omega = kaehler_form(space)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    quads = {q: r for r, q in enumerate(combinations(range(n), 4))}
    rows = [[Fraction(0)] * len(pairs) for _ in quads]
    for col, (a, b) in enumerate(pairs):
        for c, d in pairs:
            w = omega.get(c * n + d, 0)
            if w and not {a, b} & {c, d}:
                inversions = sum(1 for x in (a, b) for y in (c, d) if x > y)
                rows[quads[tuple(sorted((a, b, c, d)))]][col] += (-1) ** inversions * w
    return rows


# ---------------------------------------------------------------------------
# Vector fields with first-order jets
# ---------------------------------------------------------------------------


Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class JetField:
    """A vector field known through (value, Jacobian) at query points."""

    n: int
    at: Callable[[Point], tuple[tuple[Fraction, ...], Matrix]]


def coordinate_field(n: int, i: int) -> JetField:
    value = tuple(Fraction(1 if a == i else 0) for a in range(n))

    def at(p: Point):
        return value, Matrix.zero(n, n)

    return JetField(n, at)


def linear_field(m: Matrix) -> JetField:
    """The field x -> M x (value M p, Jacobian M)."""

    def at(p: Point):
        return m.matvec(list(p)), m

    return JetField(m.rows, at)


def rotation_generator(n: int, plane: tuple[int, int], rotation: str) -> Matrix:
    """d/dθ at θ = 0 of the rotation of ``plane`` = (i, j) by θ: the rotation
    maps e_i to cos θ e_i + sin θ e_j and e_j to -sin θ e_i + cos θ e_j
    (circular) or sinh θ e_i + cosh θ e_j (hyperbolic), so G e_i = e_j and
    G e_j = -e_i or e_i."""
    i, j = plane
    rows = [[0] * n for _ in range(n)]
    rows[j][i] = 1
    rows[i][j] = -1 if rotation == "circular" else 1
    return Matrix.from_rows(rows)


def structure_applied(space: ModelSpace, generator: Matrix, slope: Fraction, field: JetField) -> JetField:
    """Pointwise application, with the product rule, of the first-order
    structure field S(p) = J + p_1 D of the twist T = I + x_1 slope G + O(x_1^2):
    D is the coefficient of ε in (I - ε slope G) J (I + ε slope G), expanded
    by dense products."""
    n = field.n
    j = Matrix.from_dict(n, space.j)
    plus = generator.scale(slope)
    d = plus.scale(-1).mul(j).add(j.mul(plus))

    def at(p: Point):
        val, jac = field.at(p)
        s = j.add(d.scale(p[0]))
        new_val = s.matvec(list(val))
        cols = []
        for k in range(n):
            ds = d if k == 0 else Matrix.zero(n, n)
            jac_col = [jac[a, k] for a in range(n)]
            col = [x + y for x, y in zip(ds.matvec(list(val)), s.matvec(jac_col))]
            cols.append(col)
        new_jac = Matrix(n, n, tuple(cols[k][a] for a in range(n) for k in range(n)))
        return tuple(new_val), new_jac

    return JetField(n, at)


def bracket_at(xfield: JetField, yfield: JetField, p: Point) -> tuple[Fraction, ...]:
    """[X, Y](p) = (DY) X - (DX) Y evaluated from the two jets."""
    xv, xj = xfield.at(p)
    yv, yj = yfield.at(p)
    return tuple(a - b for a, b in zip(yj.matvec(list(xv)), xj.matvec(list(yv))))

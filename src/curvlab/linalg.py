"""Exact rational linear algebra: echelon forms, kernels, meets, sums.

Everything here runs over the rational field with no rounding.  Input rows
may hold ``Fraction``s; they are scaled to integers on the way in, and every
elimination is fraction-free.  Rows handed back are primitive integer rows
(entries with gcd 1) whose pivot, the first nonzero entry, is positive.

Subspaces are always stored with a reduced row-echelon basis in that form,
so two subspaces are equal iff their stored bases are structurally equal.
That canonical form is what makes every downstream report deterministic.
A stored row is one flat tuple ``(c0, v0, c1, v1, ...)`` of its nonzero
entries, columns ascending: one object per row rather than a pair per
entry.  Only this module reads that layout; other code goes through the
``Subspace`` accessors.
A kernel is presolved first: a row with one entry zeroes its column and one
with two entries of equal magnitude ties two columns up to sign, in a signed
union-find, so only the other rows are eliminated, over the class roots.
Repeated rows need no pass of their own: a repeated one- or two-entry row
finds its zero or tie already made, and a longer one reduces to zero.

A meet restricts its condition rows to the parent's basis, through an index
over the side with fewer entries, and hands the nonzero restricted rows to
the kernel, or returns the parent if none is nonzero.  Those rows repeat,
as the parent's own symmetries make many conditions agree on it up to a
factor, and the kernel absorbs the repeats.  A meet row that is one parent
row is that stored row, not a copy.  Rows of ``int``s, as every catalog
condition is written, skip the denominator pass on their way in.  Every
meet is of this kind; two subspaces given by bases are only summed, and the
dimension of their meet is dim A + dim B - dim(A + B).  No row is copied to
back-substitute it.

There is one matrix format, the sparse rank-2 one: a linear map on R^k is
the ``{a*k + b: value}`` dict of its nonzero entries (a, b), the flat-index
convention of rank-2 tensors; :func:`matmul` composes two of them.  A
commutant is one :func:`kernel_subspace` over the k*k entries, of the
commutator rows of all its matrices at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple


# ---------------------------------------------------------------------------
# Integer-scaled sparse rows and the online echelon accumulator
# ---------------------------------------------------------------------------


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries (in place)."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _to_int_row(entries: Mapping[int, Fraction | int]) -> dict[int, int]:
    """Clear denominators and strip content; drops explicit zeros.  An ``int``
    row skips the lcm pass."""
    for v in entries.values():
        if type(v) is not int:
            break
    else:
        return _strip_content({c: v for c, v in entries.items() if v})
    den = lcm(*(v.denominator for v in entries.values() if type(v) is not int))
    return _strip_content({c: v * den if type(v) is int else v.numerator * (den // v.denominator)
                           for c, v in entries.items() if v})


def _combine(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Return a*row - b*pivot_row scaled to kill ``col``; result content-stripped."""
    a = pivot_row[col]
    b = row[col]
    g = gcd(a, b)
    ma = a // g
    mb = b // g
    out: dict[int, int] = dict(row) if ma == 1 else {c: ma * v for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - mb * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return _strip_content(out)


class Echelon:
    """Online row-echelon accumulator over the rationals.

    Pivot rows are keyed by their leading column; each pivot row's support
    starts at its pivot column, so reducing an incoming row strictly
    advances its leading column and terminates.  A combination that leaves
    the pivot column in the row raises ``RuntimeError`` instead of looping.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Mapping[int, Fraction | int]) -> dict[int, int]:
        """Reduce a row by the pivots; returns the residual."""
        r = _to_int_row(row)
        while r:
            c = min(r)
            piv = self.pivot_rows.get(c)
            if piv is None:
                return r
            r = _combine(r, piv, c)
            if c in r:
                raise RuntimeError(f"elimination did not clear pivot column {c}")
        return r

    def add(self, row: Mapping[int, Fraction | int]) -> int | None:
        """Insert a row read as by :meth:`reduce`; its pivot, or None if dependent."""
        r = self.reduce(row)
        if not r:
            return None
        c = min(r)
        self.pivot_rows[c] = r
        return c

    def add_all(self, rows: Iterable[Mapping[int, Fraction | int]]) -> None:
        for row in rows:
            self.add(row)

    def reduced_rows(self) -> list[tuple[int, dict[int, int]]]:
        """The pivot rows back-substituted in place, by pivot column: primitive,
        positive at the pivot and zero at every other pivot column."""
        rows = self.pivot_rows
        for c in sorted(rows, reverse=True):
            row = rows[c]
            for c2 in sorted(c2 for c2 in row if c2 != c and c2 in rows):
                if c2 in row:
                    row = rows[c] = _combine(row, rows[c2], c2)
            if row[c] < 0:
                for c2 in row:
                    row[c2] = -row[c2]
        return sorted(rows.items())


def rank_of_rows(rows: Iterable[Mapping[int, Fraction | int]]) -> int:
    ech = Echelon()
    ech.add_all(rows)
    return ech.rank


def matmul(a: Mapping[int, Fraction | int], b: Mapping[int, Fraction | int], k: int) -> dict[int, Fraction | int]:
    """The product of two k x k matrices in the sparse rank-2 format."""
    brows: dict[int, list[tuple[int, Fraction | int]]] = {}
    for c, w in sorted(b.items()):
        if w:
            m, j = divmod(c, k)
            brows.setdefault(m, []).append((j, w))
    out: dict[int, Fraction | int] = {}
    for c, v in a.items():
        i, m = divmod(c, k)
        for j, w in brows.get(m, ()):
            out[i * k + j] = out.get(i * k + j, 0) + v * w
    return {c: v for c, v in out.items() if v}


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

BasisRow = tuple[int, ...]


def _freeze_row(row: Mapping[int, int]) -> BasisRow:
    """A row as stored: ``(c0, v0, c1, v1, ...)``, columns ascending."""
    cols = sorted(row)
    flat = cols * 2
    flat[::2] = cols
    flat[1::2] = map(row.__getitem__, cols)
    return tuple(flat)


class Subspace(NamedTuple):
    """Linear subspace given by a canonical reduced row-echelon basis.

    Each ``basis`` row is one flat tuple ``(c0, v0, c1, v1, ...)`` of its
    nonzero entries: ascending columns, primitive integer values, and the
    first column its pivot, with a positive value.  Structural equality of
    two Subspace values is subspace equality.  Outside this module rows are
    read through :attr:`pivots`, :attr:`pivot_scales`, :attr:`nnz`,
    :meth:`row_items` and :meth:`basis_dicts`.
    """

    ambient_dim: int
    basis: tuple[BasisRow, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Mapping[int, Fraction | int]], ambient_dim: int) -> "Subspace":
        ech = Echelon()
        ech.add_all(vectors)
        return cls(ambient_dim, tuple(_freeze_row(r) for _, r in ech.reduced_rows()))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return sum(map(len, self.basis)) // 2

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0] for row in self.basis)

    @property
    def pivot_scales(self) -> tuple[int, ...]:
        """Each row's entry at its pivot."""
        return tuple(row[1] for row in self.basis)

    def row_items(self) -> Iterator[Iterator[tuple[int, int]]]:
        """Each basis row as an iterator over its ``(column, value)`` pairs."""
        for row in self.basis:
            it = iter(row)
            yield zip(it, it)

    def basis_dicts(self) -> list[dict[int, int]]:
        return [dict(items) for items in self.row_items()]


class SubspaceReducer:
    """Membership and coordinates read off the stored rows of a subspace's
    reduced row-echelon basis: ``v`` is in the span iff ``v == sum_p v[p] *
    b_p`` over the pivots p, ``b_p`` the row at p over its pivot entry."""

    def __init__(self, sub: Subspace):
        self._pivots = sub.pivots
        # pivot -> stored basis row; its first value, at the pivot, is its scale
        self._rows = dict(zip(self._pivots, sub.basis))

    def contains(self, vec: Mapping[int, Fraction | int]) -> bool:
        """``lead * (vec - sum_p vec[p] * b_p)`` is zero, ``lead`` the lcm of the
        scales of the pivot rows ``vec`` touches; one pass collects those rows
        and ``lead``, and when every scale is 1 the subtraction starts from a
        plain copy of ``vec``."""
        rows = self._rows
        touched = []
        lead = 1
        for p, v in vec.items():
            row = rows.get(p)
            if row is not None and v:
                scale = row[1]
                touched.append((row, scale, v))
                if scale != 1:
                    lead = lcm(lead, scale)
        diff = dict(vec) if lead == 1 else {c: lead * v for c, v in vec.items()}
        for row, scale, v in touched:
            m = v * (lead // scale)
            it = iter(row)
            for c, r in zip(it, it):
                diff[c] = diff.get(c, 0) - m * r
        return not any(diff.values())

    def coordinates(self, vec: Mapping[int, Fraction | int], scale: int = 1) -> list[Fraction] | None:
        """Coefficients of ``vec / scale`` in the pivot-one basis (each stored row
        divided by its pivot entry), or None if outside."""
        if not self.contains(vec):
            return None
        return [Fraction(vec.get(p, 0), scale) for p in self._pivots]


def kernel_subspace(rows: Iterable[Mapping[int, Fraction | int]], ncols: int) -> Subspace:
    """Solution space of the rows as a canonical subspace, from one elimination.

    Presolve, explicit zeros dropped: a one-entry row sets its column's class
    to zero; a two-entry row of equal magnitudes ties its columns up to sign
    in a union-find rooted at each class's least column, and a tie against the
    class's signs sets it to zero.  The other rows, over the roots of nonzero
    classes, go in shortest first with the columns reversed: the solution
    e_f - sum (row[f] / row[p]) e_p of free root f leads at f and vanishes on
    the other free roots.  As roots are least columns, it still does with its
    classes' members added at their signs: that is the canonical basis row.
    """
    up: dict[int, tuple[int, int]] = {}  # column -> (parent, s): x_column = s * x_parent
    zero: set[int] = set()  # columns whose classes vanish

    def find(c: int) -> tuple[int, int]:
        """(r, s): r the root of c's class, x_c = s * x_r; c's path is relinked to r."""
        link = up.get(c)
        if link is None or link[0] not in up:
            return link or (c, 1)
        path = []
        while c in up:
            path.append(c)
            c = up[c][0]
        s = 1
        for col in reversed(path):
            s *= up[col][1]
            up[col] = (c, s)
        return c, s

    long = []
    for row in rows:
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        if len(row) == 2:
            (a, va), (b, vb) = row.items()
            if abs(va) == abs(vb):
                (a, sa), (b, sb) = find(a), find(b)
                s = -sa * sb if va == vb else sa * sb  # x_a = s * x_b, for roots a and b
                if a != b:
                    up[max(a, b)] = (min(a, b), s)
                elif s < 0:
                    zero.add(a)
                continue
        if len(row) == 1:
            zero.update(row)
        elif row:
            long.append(row)
    zero = {find(c)[0] for c in zero}  # a class is zero if any of its columns is
    members: dict[int, list[tuple[int, int]]] = {}
    for c in up:
        r, s = find(c)  # so that every column links to its root
        if r not in zero:
            members.setdefault(r, []).append((c, s))
    last = ncols - 1
    for i, row in enumerate(long):
        acc: dict[int, Fraction | int] = {}
        for c, v in row.items():
            if c in up:
                c, v = up[c][0], up[c][1] * v
            if c not in zero:
                acc[last - c] = acc.get(last - c, 0) + v
        long[i] = acc
    long.sort(key=len)
    ech = Echelon()
    ech.add_all(long)
    del long
    # free root -> [(pivot root, -row[f], row[p])], in original columns
    terms = {f: [] for f in range(ncols) if last - f not in ech.pivot_rows and f not in up and f not in zero}
    for c, row in ech.reduced_rows():
        p = last - c
        pv = row[c]
        for c2, v in row.items():
            if c2 != c:
                terms[last - c2].append((p, -v, pv))
    basis = []
    for f, fterms in terms.items():
        lead = lcm(*(pv for _, _, pv in fterms))
        vec = {f: lead}
        for p, v, pv in fterms:
            vec[p] = v * (lead // pv)
        _strip_content(vec)
        for r in [r for r in vec if r in members]:
            v = vec[r]
            vec.update((c, s * v) for c, s in members[r])
        basis.append(_freeze_row(vec))
    return Subspace(ncols, tuple(basis))


def restrict_rows(base: Subspace, rows: Iterable[Mapping[int, int]]) -> Iterator[dict[int, int]]:
    """Each row r evaluated on the basis of ``base``: its coefficient at b is
    sum_c r[c] * b[c].  Columns c are indexed on the side with fewer entries:
    over the base, rows stream out as read; over the rows, one pass over the
    base fills all, each let go as yielded."""
    rows = rows if isinstance(rows, list) else list(rows)
    index: dict[int, list] = {}
    if base.nnz <= sum(map(len, rows)):
        for b, brow in enumerate(base.row_items()):
            for c, v in brow:
                index.setdefault(c, []).append((b, v))
        for row in rows:
            acc: dict[int, int] = {}
            for c, rv in row.items():
                for b, bv in index.get(c, ()):
                    acc[b] = acc.get(b, 0) + rv * bv
            yield {i: v for i, v in acc.items() if v}
        return
    accs: list = [{} for _ in rows]
    for acc, row in zip(accs, rows):
        for c, rv in row.items():
            index.setdefault(c, []).append((acc, rv))
    for b, brow in enumerate(base.row_items()):
        for c, bv in brow:
            for acc, rv in index.get(c, ()):
                acc[b] = acc.get(b, 0) + rv * bv
    del index
    for r, acc in enumerate(accs):
        accs[r] = None
        yield {i: v for i, v in acc.items() if v}


def meet_kernel(base: Subspace, rows: Iterable[Mapping[int, int]],
                solved: dict | None = None) -> Subspace:
    """base ∩ ker(rows), from the kernel of the nonzero rows restricted to the
    base, as they are (on weyl the last-pair identity at (i, j, k, k) gives
    the same row for every k); if none is nonzero, the base itself.  With
    ``solved``, coefficient kernels are kept there by their system (the
    base's dimension and the set of restricted rows), and a system met again
    is not solved again.

    No second elimination: sum_i c_i b_i over the canonical rows of the base
    leads at the pivot of the first b_i it uses, and its value at any other
    pivot p_i of the base is c_i times the positive pivot entry of b_i.  So
    the canonical coefficient kernel recombines straight into the canonical
    basis of the meet, once each row's content is stripped; a lone (i, 1) is
    row i itself.
    """
    # rebinding ``rows`` frees a condition list that only this call holds
    # before the elimination, which is where a meet peaks in memory
    rows = [row for row in restrict_rows(base, rows) if row]
    if not rows:
        return base
    if solved is None:
        kernel = kernel_subspace(rows, base.dim)
    else:
        key = (base.dim, frozenset(frozenset(row.items()) for row in rows))
        kernel = solved.get(key)
        if kernel is None:
            kernel = solved[key] = kernel_subspace(rows, base.dim)
    basis = base.basis
    out = []
    for coeffs in kernel.basis:
        if len(coeffs) == 2:
            out.append(basis[coeffs[0]])
            continue
        vec: dict[int, int] = {}
        it = iter(coeffs)
        for b, c in zip(it, it):
            brow = iter(basis[b])
            for col, v in zip(brow, brow):
                vec[col] = vec.get(col, 0) + c * v
        out.append(_freeze_row(_strip_content({col: v for col, v in vec.items() if v})))
    return Subspace(base.ambient_dim, tuple(out))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.basis_dicts() + b.basis_dicts(), a.ambient_dim)

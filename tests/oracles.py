"""Independent brute-force oracles used to derive and cross-check expected values.

Everything here is deliberately naive and shares no code path with the
package's sparse elimination engine: dense textbook Gauss-Jordan over exact
rationals, constraint matrices assembled by applying the public dense
defect operators to every standard basis tensor, dense pull-backs and
infinitesimal actions that the package's sparse group applies are checked
against, the wedge product with the fundamental form on 2-forms, and general
first-order jets of vector fields whose brackets the closed-form Nijenhuis
probe is checked against.  Small dense helpers (conversions, the Gram
matrix, the transpose, decoding a report's tensor) live here too, since the
package itself needs none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from curvlab.linalg import Matrix, Subspace
from curvlab.nijenhuis import Point, TwistedStructure
from curvlab.spaces import ModelSpace
from curvlab.tensors import (
    Tensor2,
    Tensor4,
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
    kaehler_form,
    ricci,
)


# ---------------------------------------------------------------------------
# Dense helpers
# ---------------------------------------------------------------------------


def dense(sub: Subspace) -> list[list[Fraction]]:
    """The canonical basis rows of ``sub`` as dense vectors."""
    rows = []
    for row in sub.basis:
        vec = [Fraction(0)] * sub.ambient_dim
        for c, v in row:
            vec[c] = v
        rows.append(vec)
    return rows


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
    cols = [ricci(standard_basis_tensor(n, c), space).components for c in range(dim)]
    return [[cols[c][r] for c in range(dim)] for r in range(n * n)]


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


def alt_ricci(a: Tensor4, space: ModelSpace) -> Tensor2:
    """Alternating part of the Ricci contraction."""
    ric = ricci(a, space)
    n = a.n
    comp = []
    for x in range(n):
        for y in range(n):
            comp.append((ric[x, y] - ric[y, x]) / 2)
    return Tensor2(n, tuple(comp))


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


def pullback(t: Matrix, theta: Tensor2 | Tensor4) -> Tensor2 | Tensor4:
    """(t* theta)(v_1, ..., v_k) = theta(t v_1, ..., t v_k)."""
    rank = 2 if isinstance(theta, Tensor2) else 4
    comp = list(theta.components)
    for slot in range(rank):
        comp = _contract_slot(theta.n, rank, comp, t, slot)
    return type(theta)(theta.n, tuple(comp))


def lie_action(x: Matrix, theta: Tensor2 | Tensor4) -> Tensor2 | Tensor4:
    """Infinitesimal pull-back action: sum over slots of theta(..., X v_i, ...)."""
    rank = 2 if isinstance(theta, Tensor2) else 4
    n = theta.n
    total = [Fraction(0)] * (n ** rank)
    for slot in range(rank):
        part = _contract_slot(n, rank, list(theta.components), x, slot)
        for c, v in enumerate(part):
            if v:
                total[c] += v
    return type(theta)(n, tuple(total))


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
            if omega[c, d] and not {a, b} & {c, d}:
                inversions = sum(1 for x in (a, b) for y in (c, d) if x > y)
                rows[quads[tuple(sorted((a, b, c, d)))]][col] += (-1) ** inversions * omega[c, d]
    return rows


# ---------------------------------------------------------------------------
# Vector fields with first-order jets
# ---------------------------------------------------------------------------


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


def structure_applied(structure: TwistedStructure, field: JetField) -> JetField:
    """Pointwise application of the structure field, with the product rule."""
    n = field.n

    def at(p: Point):
        val, jac = field.at(p)
        s = structure.value(p)
        new_val = s.matvec(list(val))
        cols = []
        for k in range(n):
            ds = structure.derivative(p, k)
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

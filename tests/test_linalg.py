"""Exact linear algebra: echelon forms, kernels, subspace lattice operations."""

import random
from fractions import Fraction
from itertools import cycle
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from curvlab import linalg
from curvlab.linalg import (
    Echelon,
    Subspace,
    SubspaceReducer,
    kernel_subspace,
    matmul,
    meet_kernel,
    restrict_rows,
    subspace_sum,
)
from curvlab.curvature import catalog
from curvlab.spaces import make_standard
from curvlab.tensors import kaehler_rows, ricci_rows, riemann_rows

F = Fraction


def dicts(rows):
    """Sparse rows of a dense row list, as the catalog hands them in."""
    return [oracles.sparse(r) for r in rows]


def span(rows, ambient_dim):
    return Subspace.from_vectors(dicts(rows), ambient_dim)


def zero(ambient_dim):
    return Subspace(ambient_dim, ())


# --- canonical RREF (Subspace.from_vectors) ---------------------------------


def test_rref_identity():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    sub = span(rows, 3)
    assert oracles.dense(sub) == rows
    assert sub.dim == 3
    assert sub.pivots == (0, 1, 2)


def test_rref_zero():
    sub = span([[0, 0, 0, 0], [0, 0, 0, 0]], 4)
    assert sub == zero(4)
    assert sub.dim == 0
    assert sub.pivots == ()


def test_rref_rank_one():
    # hand elimination: subtract twice the first row
    sub = span([[1, 2], [2, 4]], 2)
    assert oracles.dense(sub) == [[1, 2]]
    assert sub.dim == 1
    assert sub.pivots == (0,)


def test_rref_normalizes_pivots():
    sub = span([[2, 4], [0, 3]], 2)
    assert oracles.dense(sub) == [[1, 0], [0, 1]]
    assert sub.dim == 2


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent(rows):
    sub = span(rows, 3)
    again = span(oracles.dense(sub), 3)
    assert again == sub
    assert oracles.dense(again) == oracles.dense(sub)


# --- kernels (kernel_subspace) -----------------------------------------------


def test_kernel_identity_is_zero():
    assert kernel_subspace([{i: F(1)} for i in range(4)], 4).dim == 0


def test_kernel_zero_row_is_full():
    k = kernel_subspace(dicts([[0, 0, 0, 0, 0]]), 5)
    assert oracles.dense(k) == [[F(int(i == j)) for j in range(5)] for i in range(5)]


def test_kernel_single_equation():
    k = kernel_subspace(dicts([[1, 1, 0]]), 3)
    assert k.dim == 2
    assert SubspaceReducer(k).contains({0: F(1), 1: F(-1)})
    assert not SubspaceReducer(k).contains({0: F(1)})


@given(st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=3))
def test_kernel_vectors_annihilate_exactly(rows):
    k = kernel_subspace(dicts(rows), 4)
    assert k.dim == 4 - span(rows, 4).dim
    for vec in oracles.dense(k):
        for row in rows:
            assert sum(row[j] * vec[j] for j in range(4)) == 0


def test_reduce_raises_when_a_combination_keeps_the_pivot(monkeypatch, capsys):
    """A combination that leaves the pivot column in the row is an engine
    fault: the elimination raises instead of looping, and the CLI exits 3."""
    from curvlab.cli import main

    monkeypatch.setattr(linalg, "_combine", lambda row, pivot_row, col: row)
    with pytest.raises(RuntimeError):
        Subspace.from_vectors([{0: 1, 1: 1}, {0: 1}], 2)
    catalog.cache_clear()
    try:
        assert main(["verify", "thm4.2", "--n", "4"]) == 3
    finally:
        catalog.cache_clear()
    assert "internal error: RuntimeError" in capsys.readouterr().err


# --- subspace lattice --------------------------------------------------------


def test_intersect_idempotent():
    a = Subspace.from_vectors([{0: F(1)}, {1: F(1)}], 3)
    assert oracles.intersect(a, a) == a


def test_intersect_transverse_lines():
    a = Subspace.from_vectors([{0: F(1)}], 3)
    b = Subspace.from_vectors([{1: F(1)}], 3)
    assert oracles.intersect(a, b) == zero(3)


def test_intersect_planes():
    a = Subspace.from_vectors([{0: F(1)}, {1: F(1)}], 3)
    b = Subspace.from_vectors([{1: F(1)}, {2: F(1)}], 3)
    assert oracles.intersect(a, b) == Subspace.from_vectors([{1: F(1)}], 3)


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        oracles.intersect(zero(2), zero(3))


@given(
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_dimension_formula(vecs_a, vecs_b):
    a = span(vecs_a, 4)
    b = span(vecs_b, 4)
    assert a.dim + b.dim == subspace_sum(a, b).dim + oracles.intersect(a, b).dim


def test_contains_basis_and_zero():
    a = Subspace.from_vectors([{0: F(1), 1: F(1)}, {2: F(1)}], 4)
    reducer = SubspaceReducer(a)
    for row in a.basis_dicts():
        assert reducer.contains(row)
    assert reducer.contains({})
    assert not reducer.contains({0: F(1)})  # rank jump off the span


# --- agreement with the independent dense oracle -------------------------------


@given(st.lists(st.lists(small_fractions, min_size=5, max_size=5), min_size=1, max_size=6))
def test_rref_matches_textbook_oracle(rows):
    sub = span(rows, 5)
    dense, orank, opivots = oracles.dense_rref([[F(x) for x in r] for r in rows])
    assert sub.dim == orank
    assert list(sub.pivots) == opivots
    assert oracles.dense(sub) == dense[:orank]
    assert all(not any(row) for row in dense[orank:])


@given(st.lists(st.lists(small_fractions, min_size=5, max_size=5), min_size=1, max_size=4))
def test_kernel_matches_textbook_oracle(rows):
    kernel = kernel_subspace(dicts(rows), 5)
    oracle_kernel = oracles.dense_kernel([[F(x) for x in r] for r in rows], 5)
    assert kernel.dim == len(oracle_kernel)
    assert oracles.same_span(oracle_kernel, oracles.dense(kernel))
    assert kernel == Subspace.from_vectors(dicts(oracle_kernel), 5)


def _canonical(rows):
    """The Subspace whose stored basis is the given dense canonical rows."""
    return Subspace(len(rows[0]) if rows else 0, oracles.stored_basis(dict(enumerate(r)) for r in rows))


@pytest.mark.parametrize(
    "rows,ncols,expected",
    [
        # equal entries tie their columns with sign -1, opposite ones with +1
        ([{0: 1, 1: 1}], 2, [[1, -1]]),
        ([{0: F(1, 2), 1: F(-1, 2)}], 2, [[1, 1]]),
        # a class set to zero stays zero when a union puts its root below a smaller one
        ([{1: 1}, {0: 1, 1: -1}], 2, []),
        ([{2: 3}, {1: 1, 2: 1}, {0: 2, 1: -2}], 3, []),
        # a cycle whose signs contradict sets its class to zero
        ([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: 1}], 4, [[0, 0, 0, 1]]),
        ([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}], 3, [[1, 1, 1]]),
        # the root is the least column: column 2 joins column 0, and the kernel
        # rows lead at 0 and 1, in that order
        ([{0: 1, 2: -1}, {1: 1, 2: 1, 3: 1}], 4, [[1, 0, 1, -1], [0, 1, 0, -1]]),
        ([{2: 1, 0: -1}, {3: 2, 1: 2}, {0: 1, 1: 1, 4: 1}], 5, [[1, 0, 1, 0, -1], [0, 1, 0, -1, -1]]),
        # explicit zeros are no entries: these rows cut nothing, or one column
        ([{0: 0}, {1: 0, 2: F(0)}], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([{0: 1, 1: 0, 2: 0}, {1: 0, 2: 2}], 3, [[0, 1, 0]]),
        # unequal two-entry rows go to the elimination
        ([{0: 1, 1: 2}], 2, [[2, -1]]),
    ],
)
def test_kernel_presolve_cases(rows, ncols, expected):
    """Small systems that each take one path of the presolve, against their
    canonical kernels worked out by hand and the dense oracle's."""
    kernel = kernel_subspace(rows, ncols)
    assert kernel == (_canonical(expected) if expected else zero(ncols))
    oracle = oracles.dense_kernel([[F(row.get(c, 0)) for c in range(ncols)] for row in rows], ncols)
    assert kernel == Subspace.from_vectors(dicts(oracle), ncols)


PRESOLVE_COLS = 7


@st.composite
def presolvable_systems(draw):
    """Rows over Q^7 that mix what the presolve takes and what it leaves:
    one-entry rows; two-entry rows of equal magnitude with either sign, as
    ``int``s or ``Fraction``s, alone, in chains, and in cycles whose signs may
    contradict; unequal two-entry rows; longer rows; and explicit zeros, as
    whole rows and inside the others."""
    col = st.integers(0, PRESOLVE_COLS - 1)
    magnitude = st.sampled_from((1, 2, 3, F(1, 2), F(3, 2)))

    def entry(m):
        v = m * draw(st.sampled_from((1, -1)))
        return F(v) if type(v) is int and draw(st.booleans()) else v

    def tie(a, b):
        m = draw(magnitude)
        return {a: entry(m), b: entry(m)}

    rows = []
    for kind in draw(st.lists(st.sampled_from(("one", "tie", "chain", "cycle", "unequal", "long", "zero")),
                              max_size=8)):
        if kind == "one":
            rows.append({draw(col): entry(draw(magnitude))})
        elif kind == "tie":
            a, b = draw(st.lists(col, min_size=2, max_size=2, unique=True))
            rows.append(tie(a, b))
        elif kind in ("chain", "cycle"):
            cols = draw(st.lists(col, min_size=2, max_size=5, unique=True))
            rows += [tie(a, b) for a, b in zip(cols, cols[1:])]
            if kind == "cycle":
                rows.append(tie(cols[-1], cols[0]))
        elif kind == "unequal":
            a, b = draw(st.lists(col, min_size=2, max_size=2, unique=True))
            m, w = draw(st.lists(magnitude, min_size=2, max_size=2, unique=True))
            rows.append({a: entry(m), b: entry(w)})
        elif kind == "long":
            cols = draw(st.lists(col, min_size=3, max_size=5, unique=True))
            rows.append({c: entry(draw(magnitude)) for c in cols})
        else:
            rows.append({})
        for c in draw(st.lists(col, max_size=2)):
            rows[-1].setdefault(c, draw(st.sampled_from((0, F(0)))))
    return rows


@given(presolvable_systems(), st.randoms(use_true_random=False))
def test_kernel_with_presolvable_rows_matches_dense_oracle(rows, rng):
    """The kernel of rows that the presolve ties, zeroes or passes on is the
    canonical form of the dense oracle's kernel, in any row order and whether
    the rows come as a list or as a stream."""
    dense_rows = [[F(row.get(c, 0)) for c in range(PRESOLVE_COLS)] for row in rows]
    oracle = oracles.dense_kernel(dense_rows, PRESOLVE_COLS)
    kernel = kernel_subspace(rows, PRESOLVE_COLS)
    assert kernel == Subspace.from_vectors(dicts(oracle), PRESOLVE_COLS)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert kernel_subspace(iter(shuffled), PRESOLVE_COLS) == kernel


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_membership_and_coordinates_match_dense_oracle(kind):
    """One-pass membership on every n = 4 catalog space: an integer multiple
    of a random rational combination of the basis is inside, the same vector
    with one coordinate moved is judged as the rank-jump oracle judges it,
    and the coordinates divided by the multiple are the combination."""
    rng = random.Random(kind)
    outside = 0
    for name, sub in catalog(make_standard(4, kind)).all_spaces():
        reducer = SubspaceReducer(sub)
        basis = oracles.dense(sub)
        for _ in range(2):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in basis]
            combo = [sum((c * row[k] for c, row in zip(coeffs, basis)), F(0)) for k in range(sub.ambient_dim)]
            scale = rng.randint(1, 5) * lcm(*(v.denominator for v in combo))
            vec = {k: int(v * scale) for k, v in enumerate(combo) if v}
            assert oracles.span_contains(basis, combo), name
            assert reducer.contains(vec), name
            assert reducer.coordinates(vec, scale) == coeffs, name
            k = rng.randrange(sub.ambient_dim)
            vec[k] = vec.get(k, 0) + rng.choice((-1, 1)) * rng.randint(1, 3)
            moved = [F(vec.get(c, 0)) for c in range(sub.ambient_dim)]
            expected = oracles.span_contains(basis, moved)
            assert reducer.contains(vec) == expected, name
            assert (reducer.coordinates(vec, scale) is None) == (not expected), name
            outside += not expected
    assert outside > 0


def test_membership_of_half_the_sum_of_two_non_unit_pivot_rows():
    """(1, 1, 1) is half the sum of the stored rows (2, 0, 1) and (0, 2, 1), so
    its pivot entries are no multiples of their rows' pivot entry 2: it is
    inside, with coordinates (1, 1) on the pivot-one rows, which is 1/2 on
    each stored row."""
    sub = _canonical([[2, 0, 1], [0, 2, 1]])
    assert Subspace.from_vectors(sub.basis_dicts(), 3) == sub
    reducer = SubspaceReducer(sub)
    vec = {0: 1, 1: 1, 2: 1}
    assert reducer.contains(vec)
    coords = reducer.coordinates(vec)
    assert coords == [1, 1]
    assert [c / scale for c, scale in zip(coords, sub.pivot_scales)] == [F(1, 2), F(1, 2)]
    assert not reducer.contains({0: 1, 1: 1, 2: 2})


MIXED_COLS = 8


@st.composite
def mixed_pivot_subspaces(draw):
    """A canonical integer subspace of Q^8 whose basis has rows with pivot
    entry 1 and rows with pivot entry above 1, and the indices of its twin
    rows, or ().  The last column is never a pivot, and each non-unit row
    holds +-1 there, which keeps it primitive.  Twins are two rows of one
    pivot entry s whose sum is s times an integer vector; that vector is in
    the span, and its pivot entries, 1, are no multiples of s."""
    pivots = sorted(draw(st.sets(st.integers(0, MIXED_COLS - 2), min_size=2, max_size=5)))
    scales = draw(st.lists(st.sampled_from((1, 1, 2, 3, 4, 6)), min_size=len(pivots), max_size=len(pivots)))
    unit = draw(st.integers(0, len(pivots) - 1))
    nonunit = (unit + draw(st.integers(1, len(pivots) - 1))) % len(pivots)
    scales[unit] = 1
    if scales[nonunit] == 1:
        scales[nonunit] = draw(st.sampled_from((2, 3, 4, 6)))
    twins: tuple[int, ...] = ()
    if len(pivots) > 2 and draw(st.booleans()):
        partner = draw(st.sampled_from([i for i in range(len(pivots)) if i not in (unit, nonunit)]))
        twins = tuple(sorted((nonunit, partner)))
        scales[partner] = scales[nonunit]
    free = [c for c in range(MIXED_COLS) if c not in pivots]
    rows = []
    for p, scale in zip(pivots, scales):
        row = {p: scale}
        for f in free:
            if f > p:
                row[f] = draw(st.integers(-3, 3))
        if scale > 1:
            row[MIXED_COLS - 1] = draw(st.sampled_from((1, -1)))
        rows.append(row)
    if twins:
        first, second = rows[twins[0]], rows[twins[1]]
        scale = scales[twins[0]]
        for f in free:
            if f > pivots[twins[0]]:
                first[f] = scale * draw(st.integers(-1, 1)) - second.get(f, 0)
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    sub = Subspace(MIXED_COLS, oracles.stored_basis(rows))
    assert Subspace.from_vectors(rows, MIXED_COLS) == sub  # already canonical
    return sub, twins


@given(mixed_pivot_subspaces(), st.sampled_from(("unit", "nonunit", "both", "none")), st.data())
def test_membership_with_non_unit_pivots_matches_dense_oracle(drawn, touch, data):
    """contains and coordinates against the rank-jump oracle, on vectors whose
    pivot entries lie only on rows with pivot entry 1, only on rows with a
    larger pivot entry, on both, or on none; half of them moved off the span
    at a column that is no pivot, so the rows they touch stay the same.  A
    vector that touches both twin rows also holds k/s times their sum, k no
    multiple of s, so that its pivot entries there are no multiples of s.  Some
    also hold an explicit zero, at a pivot they do not touch or off the
    pivots, as a Lie image holds the entries that cancel."""
    sub, twins = drawn
    scales = sub.pivot_scales
    units = [i for i, scale in enumerate(scales) if scale == 1]
    others = [i for i, scale in enumerate(scales) if scale > 1]
    rows_of = {"unit": (units,), "nonunit": (others,), "both": (units, others), "none": ()}[touch]
    # the first row of each kind named, the twins, and any further ones of that kind
    pick = [i for rows in rows_of for k, i in enumerate(rows) if k == 0 or i in twins or data.draw(st.booleans())]
    coeffs = {i: data.draw(st.integers(-4, 4).filter(bool)) for i in pick}
    lead = lcm(1, *(scales[i] for i in pick))
    basis = sub.basis_dicts()
    vec: dict[int, int] = {}
    for i, c in coeffs.items():
        for col, v in basis[i].items():
            vec[col] = vec.get(col, 0) + c * (lead // scales[i]) * v
    if twins and twins[0] in pick:
        # lead is a multiple of s, so the twin pivot entries stay nonzero and no multiples of s
        scale = scales[twins[0]]
        k = data.draw(st.integers(1, scale - 1)) * data.draw(st.sampled_from((1, -1)))
        twin_sum: dict[int, int] = {}
        for i in twins:
            for col, v in basis[i].items():
                twin_sum[col] = twin_sum.get(col, 0) + v
        assert all(v % scale == 0 for v in twin_sum.values())
        for col, v in twin_sum.items():
            vec[col] = vec.get(col, 0) + k * (v // scale)
    free = [c for c in range(MIXED_COLS) if c not in sub.pivots]
    if data.draw(st.booleans()):
        col = data.draw(st.sampled_from(free))
        vec[col] = vec.get(col, 0) + data.draw(st.integers(-3, 3).filter(bool))
    vec = {c: v for c, v in vec.items() if v}
    assert {i for i, p in enumerate(sub.pivots) if p in vec} == set(pick)
    for cols in ([p for p in sub.pivots if p not in vec], [c for c in free if c not in vec]):
        if cols and data.draw(st.booleans()):
            vec[data.draw(st.sampled_from(cols))] = 0
    basis = oracles.dense(sub)
    dense_vec = [F(vec.get(c, 0)) for c in range(MIXED_COLS)]
    inside = oracles.span_contains(basis, dense_vec)
    reducer = SubspaceReducer(sub)
    assert reducer.contains(vec) == inside
    scale = data.draw(st.integers(1, 6))
    coords = reducer.coordinates(vec, scale)
    assert (coords is not None) == inside
    if inside:
        combo = [sum((c * row[k] for c, row in zip(coords, basis)), F(0)) for k in range(MIXED_COLS)]
        assert combo == [v / scale for v in dense_vec]


# --- meets read off the parent's basis -----------------------------------------


def test_meet_returns_its_base_when_every_row_restricts_to_zero():
    """No nonzero restricted row leaves nothing to eliminate: the meet is the
    base itself, not a copy.  One nonzero row cuts it down."""
    base = Subspace.from_vectors([{0: 1, 1: 1}, {2: 1}], 4)
    assert meet_kernel(base, []) is base
    assert meet_kernel(base, [{0: 1, 1: -1}, {3: 5}, {0: 2, 1: -2, 3: 1}]) is base
    cut = meet_kernel(base, [{0: 1, 1: -1, 2: 1}, {3: 1}])
    assert cut == Subspace.from_vectors([{0: 1, 1: 1}], 4)


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_meet_kernel_equals_intersection_with_the_kernel(kind):
    """On every n = 4 catalog space, the meet read off the restricted rows is
    the intersection with the full kernel of the rows, as a structure: the
    structure, Ricci and last-pair rows on the rank-4 spaces, and seeded
    random integer rows on the columns each space touches.  First a base
    whose pivot entries 2 make the recombined row (2, -2, 0) non-primitive.
    Zero rows, negated copies and integer multiples of the rows leave the
    meet as it is."""
    base = Subspace.from_vectors([{0: 2, 2: 1}, {1: 2, 2: 1}], 3)
    assert meet_kernel(base, [{2: 1}]) == Subspace.from_vectors([{0: 1, 1: -1}], 3)
    s = make_standard(4, kind)
    rng = random.Random(kind)
    rank4 = dict(catalog(s).rank4_spaces())
    proper = 0
    for name, sub in catalog(s).all_spaces():
        amb = sub.ambient_dim
        support = sorted({c for row in sub.basis_dicts() for c in row})
        cases = [[{c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in rng.sample(support, min(4, len(support)))}
                  for _ in range(2)]]
        if name in rank4:
            cases += [kaehler_rows(s), ricci_rows(s), riemann_rows(4)]
        for rows in cases:
            meet = meet_kernel(sub, rows)
            assert meet == oracles.intersect(sub, kernel_subspace(rows, amb)), name
            proper += 0 < meet.dim < sub.dim
            padded = [{}, {support[0]: 0}] + rows + [{c: -v for c, v in row.items()} for row in rows]
            padded += [{c: k * v for c, v in row.items()} for row in rows for k in (2, -3)]
            assert meet_kernel(sub, padded) == meet, name
    assert proper > 0


def test_meet_kernel_solves_each_kept_system_once(monkeypatch):
    """With ``solved``, the meet is the meet without it; a system met again,
    on another base of the same dimension with its rows in another order,
    reuses the kept kernel and recombines it on its own base, and a system
    that differs in one row is solved."""
    real = linalg.kernel_subspace
    calls = []
    monkeypatch.setattr(linalg, "kernel_subspace", lambda rows, ncols: calls.append(ncols) or real(rows, ncols))
    a = Subspace.from_vectors([{0: 1, 3: 1}, {1: 1}, {2: 1, 3: -1}], 4)
    rows = [{0: 1, 1: 1}, {1: 1, 3: -1}]
    solved: dict = {}
    assert meet_kernel(a, rows, solved) == meet_kernel(a, rows)
    assert len(solved) == 1 and len(calls) == 2
    # a shifted up four columns: the rows restrict as on a
    b = Subspace.from_vectors([{c + 4: v for c, v in row.items()} for row in a.basis_dicts()], 8)
    shifted = [{c + 4: v for c, v in row.items()} for row in rows[::-1]]
    meet = meet_kernel(b, shifted, solved)
    assert len(solved) == 1 and len(calls) == 2
    assert meet == meet_kernel(b, shifted) and meet.ambient_dim == 8
    assert meet_kernel(a, rows[:1], solved) == meet_kernel(a, rows[:1])
    assert len(solved) == 2 and len(calls) == 5


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_meet_eliminates_exactly_the_nonzero_restricted_rows(kind, monkeypatch):
    """The structure identity restricted to weyl at n = 6 restricts some rows
    to zero and repeats others up to sign and factor: the coefficient kernel
    receives the nonzero restricted rows as they are, fewer than were handed
    in, and absorbs the repeats itself.  Doubled and negated copies of the
    rows leave the meet as it is."""
    s = make_standard(6, kind)
    weyl = catalog(s).weyl
    rows = kaehler_rows(s)
    meet = meet_kernel(weyl, rows)
    nonzero = [row for row in restrict_rows(weyl, rows) if row]
    eliminated = []
    real = linalg.kernel_subspace

    def recording_kernel_subspace(rows, ncols):
        rows = list(rows)
        eliminated.extend(rows)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_subspace", recording_kernel_subspace)
    assert meet_kernel(weyl, rows) == meet
    assert eliminated == nonzero
    assert 0 < len(eliminated) < len(rows)
    assert all(eliminated)
    copies = [{c: k * v for c, v in row.items()} for row in rows for k in (2, -1)]
    assert meet_kernel(weyl, rows + copies) == meet


# --- canonical form -----------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_catalog_rows_are_canonical_primitive_integers(n, kind):
    """Every catalog space, kernels and spans alike, stores the basis that
    ``Subspace.from_vectors`` gives its own rows back: primitive ``int`` rows
    with a positive pivot."""
    for name, sub in catalog(make_standard(n, kind)).all_spaces():
        assert Subspace.from_vectors(sub.basis_dicts(), sub.ambient_dim) == sub, name
        for row, scale in zip(sub.basis_dicts(), sub.pivot_scales):
            assert all(type(v) is int for v in row.values()), name
            assert gcd(*row.values()) == 1, name
            assert scale > 0, name


@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=6),
       st.lists(st.integers(1, 6), min_size=6, max_size=6))
def test_echelon_add_stores_the_same_primitive_int_rows_from_ints_and_fractions(rows, dens):
    """Rows of ``int``s (explicit zeros included), the same rows as
    ``Fraction``s with denominator 1, and the same rows divided by a
    denominator all store the same primitive ``int`` pivot rows, and reduce to
    the same rows with positive pivots; no stored entry is a ``Fraction``.
    Back-substitution works on the stored rows in place, so they are compared
    as ``add`` left them, before it: a second call gives the same rows, and
    every input row still reduces to zero."""
    variants = [
        [dict(enumerate(row)) for row in rows],
        [{c: F(v) for c, v in enumerate(row)} for row in rows],
        [{c: F(v, d) for c, v in enumerate(row)} for row, d in zip(rows, dens)],
    ]
    results = []
    for variant in variants:
        ech = Echelon()
        pivots = [ech.add(row) for row in variant]
        for row in ech.pivot_rows.values():
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1
        stored = {c: dict(row) for c, row in ech.pivot_rows.items()}
        reduced = ech.reduced_rows()
        for c, row in reduced:
            assert all(type(v) is int for v in row.values())
            assert row[c] > 0
        snapshot = [(c, dict(row)) for c, row in reduced]
        assert ech.reduced_rows() == snapshot
        assert all(ech.reduce(row) == {} for row in variant)
        results.append((pivots, stored, reduced))
    assert results[0] == results[1] == results[2]


STORE_COLS = 6
small_int_rows = st.lists(st.dictionaries(st.integers(0, STORE_COLS - 1), st.integers(-3, 3), max_size=4), max_size=5)


def _assert_stored_flat(sub):
    """Every stored row is an even-length tuple of ``int``s, columns ascending,
    values nonzero with gcd 1 and positive at the pivot, which the accessors
    read back pair by pair."""
    for row in sub.basis:
        assert type(row) is tuple and row and len(row) % 2 == 0
        assert all(type(x) is int for x in row)
        cols, vals = row[::2], row[1::2]
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert all(vals) and gcd(*vals) == 1 and vals[0] > 0
    assert sub.pivots == tuple(row[0] for row in sub.basis)
    assert sub.pivot_scales == tuple(row[1] for row in sub.basis)
    assert sub.nnz == sum(len(row) for row in sub.basis) // 2
    pairs = [list(zip(row[::2], row[1::2])) for row in sub.basis]
    assert [list(items) for items in sub.row_items()] == pairs
    assert [list(d.items()) for d in sub.basis_dicts()] == pairs


@given(small_int_rows, small_int_rows, st.integers(2, 5), st.randoms(use_true_random=False),
       st.lists(st.sampled_from((1, -1, 2, -3, F(1, 2), F(-2, 3))), min_size=5, max_size=5))
def test_stored_rows_are_flat_canonical_integer_tuples(rows, conds, n, rng, factors):
    """Each builder of stored rows (``from_vectors``, ``kernel_subspace``,
    ``meet_kernel`` and the affine rows of a parity block, written straight
    from K's rows) stores flat canonical rows.  The rows permuted and each
    scaled by a nonzero factor give an equal Subspace, and ``basis_dicts``
    gives rows with the span of the input."""
    N = STORE_COLS
    span = Subspace.from_vectors(rows, N)
    kernel = kernel_subspace(rows, N)
    meet = meet_kernel(span, conds)
    cat = catalog(make_standard(n, "none"))
    affine = [cat.block_chain(mask).affine for rep, _, others in cat.orbits for mask in [rep, *others]]
    for sub in [span, kernel, meet] + affine:
        _assert_stored_flat(sub)

    def moved(rows):
        rows = list(rows)
        rng.shuffle(rows)
        return [{c: f * v for c, v in row.items()} for row, f in zip(rows, cycle(factors))]

    assert Subspace.from_vectors(moved(rows), N) == span
    assert kernel_subspace(moved(rows), N) == kernel
    assert meet_kernel(span, moved(conds)) == meet
    assert Subspace.from_vectors(span.basis_dicts(), N) == span
    assert oracles.same_span([[F(row.get(c, 0)) for c in range(N)] for row in rows], oracles.dense(span))
    for sub in affine:
        assert Subspace.from_vectors(moved(sub.basis_dicts()), n ** 4) == sub


def test_subspace_equality_is_structural():
    a = Subspace.from_vectors([{0: F(2), 1: F(2)}], 2)
    b = Subspace.from_vectors([{0: F(-5), 1: F(-5)}], 2)
    assert a == b
    assert a.basis == b.basis


@given(st.integers(min_value=0, max_value=10**6))
def test_matmul_matches_dense_product(seed):
    """The sparse product of two k x k matrices is the dense one, entry by
    entry, and keeps no zero entries."""
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    a, b = ({rng.randrange(k * k): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 8))}
            for _ in range(2))
    prod = matmul(a, b, k)
    assert all(prod.values())
    assert oracles.Matrix.from_dict(k, prod) == oracles.Matrix.from_dict(k, a).mul(oracles.Matrix.from_dict(k, b))

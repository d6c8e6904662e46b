"""The curvature subspace catalog: dimensions against closed forms and
against the independent dense oracle, containment chains, signature
independence, and one shared, lazily built catalog per model space.

Expected dimensions marked as derived were first computed with the oracle in
``oracles.py`` (dense textbook elimination on operator matrices assembled
from the public dense defect operations) and then frozen here; the oracle
comparison itself reruns below at small n.
"""

from fractions import Fraction

import pytest

import oracles
from curvlab.linalg import (
    Subspace,
    SubspaceReducer,
    kernel_subspace,
    meet_kernel,
    rank_of_rows,
    restrict_rows,
    subspace_sum,
)
from curvlab.spaces import lie_algebra_basis, make_standard
from curvlab import curvature, linalg
from curvlab.curvature import (
    catalog,
    kaehler_subspace,
    probe_aligned_form,
    probe_opposed_form,
)
from curvlab.tensors import (
    gram_weight4,
    inner2,
    is_structure_eigenform,
    kaehler_form,
    metric_tensor2,
    ricci_rows,
    riemann_rows,
    riemann_trace_rows,
    weyl_rows,
)

F = Fraction


def affine_dim(n):
    return n * n * (n * n - 1) // 3


def riemann_dim(n):
    return n * n * (n * n - 1) // 12


# --- dimensions against closed forms ------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_affine_and_riemann_closed_forms(n):
    s = make_standard(n, "none")
    assert catalog(s).affine.dim == affine_dim(n)
    assert catalog(s).riemann.dim == riemann_dim(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weyl_dimension_formula(n):
    s = make_standard(n, "none")
    assert catalog(s).weyl.dim == riemann_dim(n) + n * (n - 1) // 2


@pytest.mark.parametrize("n,expected", [(3, 0), (4, 10), (6, 84)])
def test_conformal_dims(n, expected):
    s = make_standard(n, "none")
    assert catalog(s).conformal.dim == expected


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sigma_image_dimension(n):
    s = make_standard(n, "none")
    assert catalog(s).sigma_image.dim == n * (n - 1) // 2  # the five-term map is injective


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_closed_form_dimensions_in_both_geometries(n, kind):
    """Tricerri-Vanhecke (Trans. AMS 267, 1981): the structure-compatible
    riemann tensors of n = 2m have dimension (m(m+1)/2)^2, the Ricci
    contraction has rank m^2 on them, so the Bochner part (its kernel) has
    dimension (m(m+1)/2)^2 - m^2, and for n >= 6 the structure-compatible
    weyl tensors are exactly those."""
    s = make_standard(n, kind)
    cat = catalog(s)
    m = n // 2
    assert cat.affine.dim == affine_dim(n)
    assert cat.riemann.dim == riemann_dim(n)
    assert cat.weyl.dim == riemann_dim(n) + n * (n - 1) // 2
    assert cat.conformal.dim == riemann_dim(n) - n * (n + 1) // 2
    assert cat.kaehler_riemann.dim == (m * (m + 1) // 2) ** 2
    ric = ricci_rows(s)
    assert rank_of_rows(restrict_rows(cat.kaehler_riemann, ric)) == m * m
    assert meet_kernel(cat.kaehler_riemann, ric).dim == (m * (m + 1) // 2) ** 2 - m * m
    if n >= 6:
        assert cat.kaehler_weyl == cat.kaehler_riemann


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_affine_equals_the_kernel_of_the_lifted_rows(n):
    """The closed-form K ⊗ R^n is the kernel over all n^4 columns of the
    first-pair and cyclic rows lifted to every value of the last index."""
    rows = oracles.lift_last_slot(oracles.antisym_rows(n) + oracles.bianchi_rows(n), n)
    assert catalog(make_standard(n, "none")).affine == kernel_subspace(rows, n ** 4)


@pytest.mark.parametrize(
    "n,kind,sig",
    [
        (3, "none", None),
        (3, "none", (2, 1)),
        (4, "complex", None),
        (4, "para", None),
        (5, "none", None),
        (5, "none", (3, 2)),
        (6, "complex", None),
        (6, "para", None),
        (6, "complex", (4, 2)),
        (6, "none", (4, 2)),
    ],
)
def test_affine_turns_the_weyl_trace_into_the_last_pair_diagonal(n, kind, sig):
    """The identity that lets the weyl rows drop their trace: on every affine
    basis tensor, sum_c eps_c*(A_cijc - A_cjic) = -sum_c eps_c*A_ijcc for
    every i < j, read off the basis entries one by one."""
    s = make_standard(n, kind, sig)
    eps = s.eps
    at = lambda a, i, j, k, l: a.get(((i * n + j) * n + k) * n + l, 0)
    for a in catalog(s).affine.basis_dicts():
        for i in range(n):
            for j in range(i + 1, n):
                trace = sum(eps[c] * (at(a, c, i, j, c) - at(a, c, j, i, c)) for c in range(n))
                assert trace == -sum(eps[c] * at(a, i, j, c, c) for c in range(n)), (i, j)


class _FirstPairRows(list):
    """A row builder's rows for first pairs i < j, carrying ``full``: the same
    condition's rows for every first pair (i, j), from the oracle."""


@pytest.mark.parametrize(
    "n,kind,sig",
    [
        (4, "complex", None),
        (4, "para", None),
        (6, "complex", None),
        (6, "para", None),
        (8, "complex", None),
        (8, "para", None),
        (6, "complex", (4, 2)),
        (6, "none", (4, 2)),
        (5, "none", (3, 2)),
        (3, "none", None),
        (8, "complex", (4, 4)),
    ],
)
def test_first_pair_rows_cut_what_the_full_rows_cut(n, kind, sig, monkeypatch):
    """The weyl, riemann-trace and structure rows are written for first pairs
    i < j only, the trace rows as one row per first pair, and on a parity
    block for the anchors in it.  Every meet that the blocks of the catalog,
    thm1.5 (the sigma-image meet on each block) and sec5 (the opposed-sum
    meet on each block) hand them has a base inside affine and cuts what the
    rows for every first pair and every block cut (the full riemann rows for
    the trace rows); the chain equals its version built from the full rows.
    The catalog's chain spaces build the chain on every block, and thm1.5
    and sec5 meet their bases on each representative."""
    s = make_standard(n, kind, sig)
    for name, full in (("weyl_rows", oracles.full_weyl_rows), ("riemann_rows", oracles.full_riemann_rows),
                       ("riemann_trace_rows", oracles.full_riemann_rows),
                       ("kaehler_rows", oracles.full_kaehler_rows)):
        def tagged(arg, *block, real=getattr(curvature, name), full=full):
            rows = _FirstPairRows(real(arg, *block))
            rows.full = full(arg)
            return rows

        monkeypatch.setattr(curvature, name, tagged)
    meets = []

    def recording_meet_kernel(base, rows, *solved):
        out = linalg.meet_kernel(base, rows, *solved)
        if isinstance(rows, _FirstPairRows):
            meets.append((base, rows.full, out))
        return out

    monkeypatch.setattr(curvature, "meet_kernel", recording_meet_kernel)
    catalog.cache_clear()
    cat = catalog(s)
    cat.rank4_spaces()  # every chain space of every block
    blocks = [cat.block_chain(mask) for rep, _, others in cat.orbits for mask in [rep, *others]]
    bases = {sub for block in blocks for sub in (block.affine, block.weyl)}
    if kind != "none":
        curvature.run_claim("thm1.5", s)
        bases |= {block.kaehler_weyl for block in blocks}
        representatives = [cat.block_chain(rep) for rep, _, _ in cat.orbits]
        bases |= {block.sigma_image for block in representatives}
        if n >= 6:
            curvature.run_claim("sec5", s)
            bases |= {subspace_sum(block.psi_span, block.sigma_opposed_span) for block in representatives}
    assert {base for base, _, _ in meets} == bases
    affine = cat.affine
    for base, full, out in meets:
        assert oracles.is_subspace_of(base, affine)
        assert out == meet_kernel(base, full)
    weyl = meet_kernel(affine, oracles.full_weyl_rows(s))
    riemann = meet_kernel(weyl, oracles.full_riemann_rows(n))
    assert (cat.weyl, cat.riemann) == (weyl, riemann)
    if kind != "none":
        rows = oracles.full_kaehler_rows(s)
        assert (cat.kaehler_weyl, cat.kaehler_riemann) == (meet_kernel(weyl, rows), meet_kernel(riemann, rows))


@pytest.mark.parametrize(
    "n,kind,sig",
    [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")]
    + [(n, "none", None) for n in (3, 4, 5, 7)]
    + [(5, "none", (3, 2)), (7, "none", (4, 3)), (6, "complex", (4, 2)), (6, "none", (4, 2)), (8, "complex", (4, 4))],
)
def test_conformal_is_the_direct_kernel_over_every_coordinate(n, kind, sig):
    """conformal, built one parity block at a time as a meet on affine, is
    the one direct kernel over all n^4 columns of the first-pair and cyclic
    rows lifted to every last index, the riemann rows and the Ricci rows,
    written for every first pair by the oracle."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    direct = oracles.direct_conformal(s)
    assert catalog(s).conformal == direct
    assert direct.dim == riemann_dim(n) - n * (n + 1) // 2


@pytest.mark.parametrize(
    "n,kind,sig",
    [
        (3, "none", (3, 0)),
        (3, "none", (2, 1)),
        (5, "none", (5, 0)),
        (5, "none", (3, 2)),
        (4, "complex", None),
        (4, "para", None),
        (6, "complex", None),
        (6, "para", None),
        (8, "complex", None),
        (8, "para", None),
        (6, "complex", (4, 2)),
        (6, "none", (4, 2)),
    ],
)
def test_trace_rows_cut_what_the_full_riemann_rows_cut(n, kind, sig):
    """On weyl and on kaehler_weyl, one trace row per first pair cuts what the
    riemann rows for every first pair cut, and riemann keeps each row it shares
    with weyl as the same object, not a copy."""
    s = make_standard(n, kind, sig)
    cat = catalog(s)
    full = oracles.full_riemann_rows(n)
    pairs = [(cat.weyl, cat.riemann)]
    if kind != "none":
        pairs.append((cat.kaehler_weyl, cat.kaehler_riemann))
    for base, cut in pairs:
        assert meet_kernel(base, riemann_trace_rows(n)) == cut == meet_kernel(base, full)
    weyl_rows_by_value = {row: row for row in cat.weyl.basis}
    shared = [row for row in cat.riemann.basis if row in weyl_rows_by_value]
    assert shared
    assert all(weyl_rows_by_value[row] is row for row in shared)


CERTIFIED_SPACES = [
    (4, "complex", None),
    (4, "para", None),
    (6, "complex", None),
    (6, "para", None),
    (8, "complex", None),
    (8, "para", None),
    (6, "complex", (4, 2)),
    (4, "none", None),
    (8, "none", None),
    (6, "none", (4, 2)),
]


@pytest.mark.parametrize("n,kind,sig", CERTIFIED_SPACES)
def test_catalog_kernels_pass_the_modular_rank_certificate(n, kind, sig):
    """Every kernel and meet of the catalog is ker of the rows of its whole
    chain, the parent's rows and its own, written for every first pair: by
    the modular-rank certificate, which shares no code with the engine.  The
    certificate itself rejects a space cut by too few rows or by too many."""
    s = make_standard(n, kind, sig)
    cat = catalog(s)
    affine = oracles.lift_last_slot(oracles.antisym_rows(n) + oracles.bianchi_rows(n), n)
    weyl = affine + oracles.full_weyl_rows(s)
    chains = {
        "affine": affine,
        "weyl": weyl,
        "riemann": weyl + oracles.full_riemann_rows(n),
        "conformal": affine + oracles.full_riemann_rows(n) + ricci_rows(s),
    }
    if kind != "none":
        chains["kaehler_weyl"] = weyl + oracles.full_kaehler_rows(s)
        chains["kaehler_riemann"] = chains["kaehler_weyl"] + oracles.full_riemann_rows(n)
    for name, rows in chains.items():
        assert oracles.kernel_certificate(getattr(cat, name), rows) == [], name
    assert oracles.kernel_certificate(cat.weyl, chains["riemann"]) == ["annihilated", "rank mod p"]
    assert oracles.kernel_certificate(cat.riemann, weyl) == ["rank mod p"]


@pytest.mark.parametrize("n,kind,sig", CERTIFIED_SPACES)
def test_slot_lie_and_split_kernels_pass_the_modular_rank_certificate(n, kind, sig):
    """The engine's other kernels are ker of their own rows, by the
    modular-rank certificate: K, as the catalog writes it one index class at
    a time, against its rank-3 first-pair and cyclic rows, the Lie algebras
    of O and of U (which Ustar shares) against rows written for every entry
    and as commutators XJ - JX, and the four kernels of the six-piece split
    against rows read off dense matrices.  The certificate rejects a split kernel against another's rows."""
    s = make_standard(n, kind, sig)
    cat = catalog(s)
    k = Subspace(n ** 3, tuple(sorted(row for rows in cat.slots_by_mask.values() for row in rows)))
    assert oracles.kernel_certificate(k, oracles.antisym_rows(n) + oracles.bianchi_rows(n)) == []
    groups = {"O": oracles.orthogonal_lie_rows(s)}
    if kind != "none":
        groups["U"] = oracles.commuting_lie_rows(s)
    for group, rows in groups.items():
        lie = Subspace(n * n, oracles.stored_basis(lie_algebra_basis(s, group)))
        assert oracles.kernel_certificate(lie, rows) == [], group
    if kind == "none":
        return
    pieces = dict(cat.two_tensors.pieces())
    split_rows = oracles.two_tensor_split_rows(s)
    for name, rows in split_rows.items():
        assert oracles.kernel_certificate(pieces[name], rows) == [], name
    assert oracles.kernel_certificate(pieces["sym_opposed"], split_rows["alt_opposed"]) != []
    assert oracles.kernel_certificate(pieces["alt_aligned_traceless"], split_rows["alt_opposed"]) != []


@pytest.mark.parametrize("kind,n,sig", [pytest.param(kind, n, None, id=f"{kind}-{n}")
                                        for kind in ("complex", "para") for n in (6, 8)]
                         + [pytest.param("complex", 6, (4, 2), id="complex-6-4,2")])
def test_zero_structure_meets_pass_the_modular_rank_certificate(kind, n, sig, monkeypatch):
    """The meets with the structure kernel that the claims need to be 0,
    thm1.5's on the ``sigma_image`` and sec5's on ``psi_span +
    sigma_opposed_span`` of each representative parity block, are 0 by the
    modular-rank certificate: the structure rows written for every first
    pair, restricted to the base by the oracle's dense loop, have rank mod p
    equal to the base's dimension, so their coefficient kernel is 0 (the
    rows that touch no column of the base restrict to 0, and are left out).
    Fewer rows than that dimension fail the certificate.  A block without
    the forms a map reads has a zero base there; weighted by the orbit
    sizes, the bases add up to the catalog's.  Also at the indefinite
    complex signature (4, 2)."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    cat = catalog(s)
    blocks = [cat.block_chain(mask) for mask, _, _ in cat.orbits]
    for block in blocks:
        block.kaehler_weyl  # built before the claims' meets are recorded
    meets = []
    real = curvature.kaehler_subspace

    def recording_kaehler_subspace(base, space, block=None):
        meets.append((base, real(base, space, block)))
        return meets[-1][1]

    monkeypatch.setattr(curvature, "kaehler_subspace", recording_kaehler_subspace)
    assert curvature.run_claim("thm1.5", s).verdict
    assert curvature.run_claim("sec5", s).verdict
    sigma_blocks = [block.sigma_image for block in blocks]
    pair_blocks = [subspace_sum(block.psi_span, block.sigma_opposed_span) for block in blocks]
    assert [base for base, _ in meets] == sigma_blocks + pair_blocks
    sizes = [size for _, size, _ in cat.orbits]
    assert sum(size * sub.dim for size, sub in zip(sizes, sigma_blocks)) == cat.sigma_image.dim
    assert (sum(size * sub.dim for size, sub in zip(sizes, pair_blocks))
            == subspace_sum(cat.psi_span, cat.sigma_opposed_span).dim > 0)
    rows = oracles.full_kaehler_rows(s)
    for base, meet in meets:
        assert meet.dim == 0
        if base.dim == 0:
            continue
        support = {c for row in base.basis_dicts() for c in row}
        restricted = oracles.restricted_rows(base, [row for row in rows if not support.isdisjoint(row)])
        assert oracles.kernel_certificate(Subspace(base.dim, ()), restricted) == []
        too_few = [row for row in restricted if row][:base.dim - 1]
        assert oracles.kernel_certificate(Subspace(base.dim, ()), too_few) == ["rank mod p"]


# --- containment chain ----------------------------------------------------------


@pytest.mark.parametrize(
    "n,kind,sig",
    [
        (3, "none", (3, 0)),
        (3, "none", (2, 1)),
        (4, "complex", (4, 0)),
        (4, "para", None),
        (5, "none", (3, 2)),
        (6, "complex", (4, 2)),
        (6, "para", None),
    ],
)
def test_containment_chain(n, kind, sig):
    s = make_standard(n, kind, sig)
    cat = catalog(s)
    affine, weyl, riemann = cat.affine, cat.weyl, cat.riemann
    assert oracles.is_subspace_of(riemann, weyl)
    assert oracles.is_subspace_of(weyl, affine)


# --- signature independence -------------------------------------------------------


def test_dims_signature_independent():
    dims = []
    for sig in ((6, 0), (4, 2), (2, 4), (0, 6)):
        cat = catalog(make_standard(6, "complex", sig))
        dims.append(
            (
                cat.weyl.dim,
                cat.riemann.dim,
                cat.kaehler_weyl.dim,
                [sub.dim for _, sub in cat.two_tensors.pieces()],
            )
        )
    assert all(d == dims[0] for d in dims)


def test_para_layout_independent():
    dims = []
    for eps in (None, (-1, 1, -1, 1, -1, 1), (1, -1, -1, 1, 1, -1)):
        cat = catalog(make_standard(6, "para", eps=eps))
        dims.append((cat.weyl.dim, cat.kaehler_weyl.dim, cat.kaehler_riemann.dim))
    assert dims == [(120, 36, 36)] * 3


# --- structure-compatible subspaces -------------------------------------------------


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_kaehler_dims_n4(kind):
    # derived via the dense oracle (rerun below); the strict gap at n = 4
    cat = catalog(make_standard(4, kind))
    kw, kr = cat.kaehler_weyl, cat.kaehler_riemann
    assert (kw.dim, kr.dim) == (14, 9)
    assert kr == oracles.intersect(kw, cat.riemann)


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_kaehler_dims_n6(kind):
    cat = catalog(make_standard(6, kind))
    kw, kr = cat.kaehler_weyl, cat.kaehler_riemann
    assert (kw.dim, kr.dim) == (36, 36)
    assert kw == kr


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in (6, 8) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2))])
def test_kaehler_riemann_is_the_kaehler_weyl_basis_from_n6(n, kind, sig):
    """For n >= 6 every riemann row restricts to zero on kaehler_weyl, so on
    every parity block the meet hands back its base and both names hold one
    stored basis, and the catalog's unions are equal (at n = 4 the gap
    stays; see test_kaehler_dims_n4)."""
    cat = catalog(make_standard(n, kind, sig))
    for rep, _, others in cat.orbits:
        for mask in [rep, *others]:
            block = cat.block_chain(mask)
            assert block.kaehler_riemann is block.kaehler_weyl, mask
    assert cat.kaehler_riemann == cat.kaehler_weyl


def _plane_parity(c, n):
    """The set of J-planes {2k, 2k + 1} holding an odd number of the indices of
    rank-4 coordinate c, as a bit mask."""
    g = 0
    for _ in range(4):
        c, a = divmod(c, n)
        g ^= 1 << (a // 2)
    return g


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in (4, 6, 8, 10, 12) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2)), (8, "complex", (4, 4))])
def test_kaehler_blocks_by_plane_parity(n, kind, sig):
    """J keeps each J-plane, so kaehler_weyl and kaehler_riemann split into
    blocks by the plane parity g of their coordinates, and every basis row
    lies in one block.  With m = n/2 planes, each block with |g| = 4 has
    dimension 6, each with |g| = 2 has 4(m - 1), and the even block
    m(3m - 1)/2, in both spaces, for m >= 3.  At m = 2 kaehler_weyl has 8
    and 6 there and kaehler_riemann 4 and 5: the gap of 5 splits as 1 in the
    even block and 4 in the block of both planes."""
    cat = catalog(make_standard(n, kind, sig))
    m = n // 2
    expected = {}
    for g in range(1 << m):
        size = bin(g).count("1")
        if size in (2, 4):
            expected[g] = 6 if size == 4 else 4 * (m - 1)
    expected[0] = m * (3 * m - 1) // 2
    for name in ("kaehler_weyl", "kaehler_riemann"):
        sub = getattr(cat, name)
        blocks = {}
        for row, pivot in zip(sub.basis_dicts(), sub.pivots):
            g = _plane_parity(pivot, n)
            assert all(_plane_parity(c, n) == g for c in row), name
            blocks[g] = blocks.get(g, 0) + 1
        if m == 2:
            assert blocks == ({0: 6, 3: 8} if name == "kaehler_weyl" else {0: 5, 3: 4}), name
        else:
            assert blocks == expected, name
    assert sum(expected.values()) == (m * (m + 1) // 2) ** 2


def test_kaehler_subspace_of_zero(complex4):
    zero = Subspace(4 ** 4, ())
    assert kaehler_subspace(zero, complex4) == zero


def test_kaehler_subspace_requires_structure():
    s = make_standard(4, "none")
    with pytest.raises(ValueError):
        kaehler_subspace(Subspace(256, ()), s)


# --- two-tensor splitting ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_two_tensor_split_dims_n6(kind):
    split = catalog(make_standard(6, kind)).two_tensors
    assert [sub.dim for _, sub in split.pieces()] == [1, 8, 12, 1, 8, 6]


def test_two_tensor_split_sums_to_n_squared(para4):
    split = catalog(para4).two_tensors
    assert sum(sub.dim for _, sub in split.pieces()) == 16


@pytest.mark.parametrize("kind,sig", [("complex", (6, 0)), ("complex", (4, 2)), ("para", None)])
def test_two_tensor_pieces_pairwise_orthogonal(kind, sig):
    s = make_standard(6, kind, sig)
    pieces = catalog(s).two_tensors.pieces()
    for i, (_, a) in enumerate(pieces):
        for _, b in pieces[i + 1 :]:
            for va in a.basis_dicts():
                for vb in b.basis_dicts():
                    assert inner2(s, va, vb) == 0


@pytest.mark.parametrize("n,kind,sig", [(4, "complex", None), (4, "para", None), (6, "complex", None),
                                        (6, "para", None), (6, "complex", (4, 2))])
def test_gram_count_matches_per_pair_oracle(n, kind, sig):
    """thm4.2's count of basis pairs with a nonzero Gram product, on pairs of
    spaces that overlap, so the count is not zero; and the same count under
    a weight that vanishes on a third of the coordinates."""
    s = make_standard(n, kind, sig)
    cat = catalog(s)

    def weight(c):
        return gram_weight4(s, c)

    def skewed(c):
        return c % 3 - 1

    for a, b in ((cat.weyl, cat.sigma_image), (cat.riemann, cat.riemann), (cat.sigma_image, cat.weyl)):
        count = curvature.orthogonality_violations(a, b, weight)
        assert count == oracles.orthogonality_violations(a, b, weight)
        assert count > 0
        assert curvature.orthogonality_violations(a, b, skewed) == oracles.orthogonality_violations(a, b, skewed)
    assert curvature.orthogonality_violations(cat.riemann, cat.sigma_image, weight) == 0


def test_generators_live_in_their_lines(complex6):
    split = catalog(complex6).two_tensors
    assert SubspaceReducer(split.h_line).contains(metric_tensor2(complex6))
    assert SubspaceReducer(split.omega_line).contains(kaehler_form(complex6))


# --- images of the maps ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_sigma_piece_images_recompose(kind):
    cat = catalog(make_standard(6, kind))
    w11, w12, w13 = cat.sigma_omega_span, cat.sigma_aligned_span, cat.sigma_opposed_span
    assert (w11.dim, w12.dim, w13.dim) == (1, 8, 6)
    assert subspace_sum(subspace_sum(w11, w12), w13) == cat.sigma_image


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_psi_image_inside_riemann(kind):
    cat = catalog(make_standard(6, kind))
    assert cat.psi_span.dim == 6
    assert oracles.is_subspace_of(cat.psi_span, cat.riemann)


def test_probe_forms_are_eigenforms(complex6, para6):
    for s in (complex6, para6):
        assert is_structure_eigenform(probe_opposed_form(s), s)
        psi0 = probe_aligned_form(s)
        assert inner2(s, psi0, kaehler_form(s)) == 0
        split = catalog(s).two_tensors
        assert SubspaceReducer(split.alt_aligned_traceless).contains(psi0)
        assert SubspaceReducer(split.alt_opposed).contains(probe_opposed_form(s))


# --- ricci mechanism --------------------------------------------------------------------


@pytest.mark.parametrize("n,kind", [(4, "complex"), (6, "para")])
def test_riemannian_means_symmetric_ricci_inside_weyl(n, kind):
    """Within the weyl space, membership in the riemann space is exactly a
    symmetric-Ricci condition: the alternating Ricci part vanishes on the
    riemann space and is injective on the five-term complement."""
    from curvlab.linalg import rank_of_rows
    from curvlab.tensors import Tensor4

    s = make_standard(n, kind)
    riemann = catalog(s).riemann
    for vec in riemann.basis_dicts():
        t = Tensor4.from_dict(n, vec)
        assert oracles.alt_ricci(t, s) == {}  # Ric is symmetric
    weyl = catalog(s).weyl
    images = []
    for vec in weyl.basis_dicts():
        images.append(oracles.alt_ricci(Tensor4.from_dict(n, vec), s))
    assert rank_of_rows(images) == weyl.dim - riemann.dim


# --- independent dense oracle ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matches_builders_small(n):
    s = make_standard(n, "none")
    for names, attr in (
        (["antisym", "bianchi"], "affine"),
        (["antisym", "bianchi", "weyl"], "weyl"),
        (["antisym", "bianchi", "riemann"], "riemann"),
    ):
        rows = oracles.operator_matrix(s, names)
        kernel = oracles.dense_kernel(rows, n ** 4)
        built = getattr(catalog(s), attr)
        assert len(kernel) == built.dim
        assert oracles.same_span(kernel, oracles.dense(built))


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_oracle_matches_kaehler_weyl_n4(kind):
    s = make_standard(4, kind)
    rows = oracles.operator_matrix(s, ["antisym", "bianchi", "weyl", "kaehler"])
    kernel = oracles.dense_kernel(rows, 256)
    built = catalog(s).kaehler_weyl
    assert len(kernel) == built.dim == 14
    assert oracles.same_span(kernel, oracles.dense(built))


def test_oracle_matches_conformal_n4():
    s = make_standard(4, "none")
    rows = oracles.operator_matrix(s, ["antisym", "bianchi", "riemann"]) + oracles.ricci_matrix(s)
    kernel = oracles.dense_kernel(rows, 256)
    built = catalog(s).conformal
    assert len(kernel) == built.dim == 10
    assert oracles.same_span(kernel, oracles.dense(built))


def test_weyl_equals_affine_meet_weyl_kernel_n3():
    """Cross-check the builder against generic intersection."""
    s = make_standard(3, "none")
    affine = catalog(s).affine
    weyl_kernel = oracles.dense_kernel(oracles.operator_matrix(s, ["weyl"]), 81)
    generic = oracles.intersect(affine, Subspace.from_vectors([oracles.sparse(v) for v in weyl_kernel], 81))
    assert generic == catalog(s).weyl


# --- one catalog per model space ------------------------------------------------------------


def test_catalog_is_shared_per_space():
    s = make_standard(4, "complex")
    cat = catalog(s)
    assert catalog(make_standard(4, "complex")) is cat
    assert cat.weyl is cat.weyl
    assert cat.two_tensors is cat.two_tensors


def test_catalog_keeps_one_space():
    s = make_standard(4, "complex")
    first = catalog(s)
    catalog(make_standard(4, "para"))
    assert catalog(s) is not first


def test_claims_and_dims_build_each_kernel_once(monkeypatch, capsys):
    from curvlab.cli import main

    real = curvature.kernel_subspace
    built = []

    def counting_kernel_subspace(rows, ncols):
        rows = list(rows)
        built.append((ncols, frozenset(frozenset(r.items()) for r in rows)))
        return real(rows, ncols)

    monkeypatch.setattr(curvature, "kernel_subspace", counting_kernel_subspace)
    monkeypatch.setattr(linalg, "kernel_subspace", counting_kernel_subspace)
    catalog.cache_clear()
    s = make_standard(4, "complex")
    curvature.run_claim("thm4.1", s)
    axis_built = built[:]
    for claim in ("thm4.2", "thm1.5"):
        curvature.run_claim(claim, s)
    assert main(["dims", "--n", "4", "--kind", "complex"]) == 0
    plane_built = built[len(axis_built):]
    # thm4.1 reads the axis blocks of the space without its structure: K is
    # written in closed form, so the kernels are the coefficient kernels of
    # the meets on its three representatives and on the two blocks its
    # certificate reaches from them, 10 in all (a meet whose rows all
    # restrict to zero builds none).  At four distinct axes no trace, tie or
    # Ricci row is anchored, so the weyl rows and conformal's riemann and
    # Ricci rows restrict to the same rows on affine there: one system, solved
    # once, so that block's conformal is its weyl
    assert [mask for mask, _, _ in catalog(s).axes.orbits] == [0, 3, 15]
    assert len(axis_built) == 10
    axes = catalog(s).axes
    four = axes.block_chain(15)
    same = [row for row in restrict_rows(four.affine, weyl_rows(axes.space, four.block)) if row]
    ricci = restrict_rows(four.affine, riemann_rows(4, four.block) + ricci_rows(axes.space, four.block))
    assert frozenset(frozenset(r.items()) for r in ricci if r) == frozenset(frozenset(r.items()) for r in same)
    assert (four.affine.dim, frozenset(frozenset(r.items()) for r in same)) in axis_built
    assert four.conformal == four.weyl
    # then the four two-tensor kernels and, on each of the two plane blocks
    # (both planes odd, or none): weyl, riemann, conformal on affine, the
    # structure identity on weyl and on sigma_image (thm1.5) and the riemann
    # trace rows on kaehler_weyl; thm4.2 and dims read the blocks as built
    assert len(catalog(s).orbits) == 2
    assert len(plane_built) == 4 + 2 * 6
    # no system is solved twice, in either catalog or across the two, and no
    # kernel runs over all n^4 columns, nor over K's n^3
    assert len(set(built)) == len(built)
    assert sum(ncols == 4 ** 4 for ncols, _ in built) == 0
    assert sum(ncols == 4 ** 3 for ncols, _ in built) == 0

"""The rank-4 spaces one parity block at a time: the blocks partition the
coordinates, each row writer writes on a block the full rows anchored in
it, the union of the blocks is the catalog's stored basis and the space
solved over every coordinate, byte for byte, a group element carries each
block's spaces onto another's, and every representative block is the
kernel of its chain's rows by the modular-rank certificate.  thm4.2's Gram
count and thm1.5's witness do not depend on which blocks the orbit
reduction reads, or in what order; thm4.1's ranks on the representatives
are the ranks on the full bases.  thm4.1 reads the axis blocks of the
space without its structure, with the structured space's quantities; its
O-certificate of conformal on those blocks agrees with the walk over the
union, fails with it, and sees a defect in each kind of block it reads
(a cycle's target, short or long, and a Lie element's), and the orbit
weights must reach conformal's closed-form dimension."""

import pytest

import oracles
from test_cli import _break_lie_basis
from curvlab import curvature, tensors
from curvlab.curvature import BlockChain, CurvatureCatalog, catalog, run_claim
from curvlab.linalg import Subspace, meet_kernel, rank_of_rows, restrict_rows, subspace_sum
from curvlab.spaces import generating_set, make_standard, parity_blocks, unit_bits
from curvlab.tensors import (
    gram_weight4,
    kaehler_rows,
    psi_map,
    ricci_rows,
    riemann_rows,
    riemann_trace_rows,
    sigma,
    two_form_basis,
    weyl_rows,
)

MIXED_PARA = (-1, 1, 1, -1, 1, -1, -1, 1)


@pytest.mark.parametrize("n,kind,sig,eps", [
    (4, "complex", None, None), (6, "para", None, None), (8, "complex", (4, 4), None),
    (8, "para", None, MIXED_PARA), (5, "none", None, None), (7, "none", (4, 3), None),
    (6, "none", (3, 3), None),
])
def test_blocks_partition_the_coordinates(n, kind, sig, eps):
    """parity_blocks yields each mask once, and exactly the masks of the n^4
    coordinates; each orbit holds as many masks as its size says, and they
    are the masks that a unit permutation keeping metric signs carries its
    representative onto."""
    s = make_standard(n, kind, sig, eps)
    orbits = list(parity_blocks(s))
    masks = [mask for rep, _, others in orbits for mask in [rep, *others]]
    assert len(set(masks)) == len(masks)
    assert set(masks) == {oracles.parity_mask(s, c) for c in range(n ** 4)}
    for rep, size, others in orbits:
        assert size == 1 + len(others)
        assert {rep, *others} == {mask for mask in masks if oracles.unit_permutation(s, rep, mask) is not None}


@pytest.mark.parametrize("n,kind,sig", [
    *((n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para", "none")),
    (6, "complex", (4, 2)), (6, "none", (4, 2)), (5, "none", None), (7, "none", None), (7, "none", (4, 3)),
])
def test_anchors_pair_only_the_masks_that_can_pair_as_the_full_scan_does(n, kind, sig):
    """On every block, the anchors that enumerate only the first-pair masks
    that can pair inside it are those of a scan of every mask group, in the
    same order, and hold exactly the first pairs i < j and the last pairs
    that complete them to a coordinate in the block."""
    s = make_standard(n, kind, sig)
    bits = unit_bits(s)
    groups = tensors._pair_groups(n, tuple(bits))
    for rep, _, others in parity_blocks(s):
        for mask in [rep, *others]:
            got = tensors._anchors(n, (mask, bits))
            scan = [(f, lasts) for first_mask, firsts in groups.items() if (lasts := groups.get(mask ^ first_mask))
                    for f in firsts if f // n < f % n]
            assert got == scan, mask
            assert {(f, c) for f, lasts in got for c in lasts} == {
                (i * n + j, k * n + l) for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(n)
                if bits[i] ^ bits[j] ^ bits[k] ^ bits[l] == mask}, mask


@pytest.mark.parametrize("n,kind,sig,eps", [
    (4, "complex", None, None), (6, "para", None, None), (6, "complex", (4, 2), None),
    (8, "para", None, MIXED_PARA), (5, "none", None, None), (6, "none", (4, 2), None),
])
def test_block_writers_write_the_full_rows_anchored_in_the_block(n, kind, sig, eps):
    """Each row writer given a block writes exactly those of the rows it
    writes without one that lie in the block, each once, every key of a row
    in one block: Ric(x, y) in the block of (x, y, 0, 0), and a 2-form on
    (i, j), read as the rank-4 coordinate (i, j, 0, 0), in that one's."""
    s = make_standard(n, kind, sig, eps)
    writers = {
        "weyl": lambda b: weyl_rows(s, b),
        "riemann": lambda b: riemann_rows(n, b),
        "riemann_trace": lambda b: riemann_trace_rows(n, b),
        "ricci": lambda b: ricci_rows(s, b),
        "two_forms": lambda b: [{c * n * n: v for c, v in row.items()} for row in two_form_basis(n, b)],
    }
    if kind != "none":
        writers["kaehler"] = lambda b: kaehler_rows(s, b)
    bits = unit_bits(s)
    masks = [mask for rep, _, others in parity_blocks(s) for mask in [rep, *others]]
    canonical = lambda rows: sorted(sorted(row.items()) for row in rows)
    for name, write in writers.items():
        full = write(None)
        assert full, name
        for mask in masks:
            rows = write((mask, bits))
            expected = [row for row in full if oracles.parity_mask(s, min(row)) == mask]
            assert canonical(rows) == canonical(expected), (name, mask)
            assert all(oracles.parity_mask(s, c) == mask for row in rows for c in row), (name, mask)


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2)), (6, "none", (4, 2)), (5, "none", None), (6, "none", None)])
def test_blocks_union_is_the_stored_basis(n, kind, sig):
    """Over all blocks, the sorted union of each rank-4 space's basis rows is
    the catalog's stored basis, and that is the space solved over every
    coordinate by the oracle (met with its rows for every first pair,
    conformal as one direct kernel, the spans over the whole pieces), rows
    and bytes; each block's rows lie in its block."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    cat = catalog(s)
    full = oracles.full_chain(s)
    masks = [mask for rep, _, others in parity_blocks(s) for mask in [rep, *others]]
    assert sorted(cat.rank4_names()) == sorted(full)
    for name in cat.rank4_names():
        rows = []
        for mask in masks:
            sub = getattr(cat.block_chain(mask), name)
            assert all(oracles.parity_mask(s, c) == mask for row in sub.basis_dicts() for c in row), (name, mask)
            rows += sub.basis
        assert Subspace(n ** 4, tuple(sorted(rows))) == getattr(cat, name) == full[name], name


@pytest.mark.parametrize("n,kind,sig,eps", [
    (6, "complex", None, None), (6, "para", None, None), (8, "complex", (2, 6), None),
    (8, "para", None, MIXED_PARA), (7, "none", (4, 3), None), (6, "none", None, None),
])
def test_dims_are_the_dims_of_the_unions(n, kind, sig, eps):
    """dims reads each rank-4 space on the representatives, weighted by the
    orbit sizes; that is the dimension of the union of every block's."""
    s = make_standard(n, kind, sig, eps)
    catalog.cache_clear()
    dims = catalog(s).dims()
    assert dims == {name: sub.dim for name, sub in catalog(s).all_spaces()}


SPANS = {"sigma_omega_span": (sigma, "omega_line"), "sigma_aligned_span": (sigma, "alt_aligned_traceless"),
         "sigma_opposed_span": (sigma, "alt_opposed"), "psi_span": (psi_map, "alt_opposed")}


@pytest.mark.parametrize("n,kind,sig,eps", [(n, kind, None, None) for n in (4, 6, 8) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2), None), (8, "complex", (2, 6), None), (8, "para", None, MIXED_PARA)])
def test_span_unions_are_the_images_of_the_whole_pieces(n, kind, sig, eps):
    """Each map span, the union of its blocks', is the span of its map over
    the whole basis of its piece of the split.  Each row of a piece lies in
    one rank-2 mask, read as the rank-4 coordinate (i, j, 0, 0), and a
    block's span is the one over the rows of the block's mask."""
    s = make_standard(n, kind, sig, eps)
    catalog.cache_clear()
    cat = catalog(s)
    pieces = dict(cat.two_tensors.pieces())
    for piece in {piece for _, piece in SPANS.values()}:
        for row in pieces[piece].basis_dicts():
            assert len({oracles.parity_mask(s, c * n * n) for c in row}) == 1, piece
    for name, (mapper, piece) in SPANS.items():
        expected = Subspace.from_vectors([mapper(t, s) for t in pieces[piece].basis_dicts()], n ** 4)
        assert getattr(cat, name) == expected, name
        for rep, _, _ in cat.orbits:
            forms = [t for t in pieces[piece].basis_dicts() if oracles.parity_mask(s, min(t) * n * n) == rep]
            assert getattr(cat.block_chain(rep), name) == Subspace.from_vectors([mapper(t, s) for t in forms],
                                                                               n ** 4), (name, rep)


@pytest.mark.parametrize("n,kind,sig,eps", [
    (8, "complex", None, None), (8, "para", None, None), (10, "complex", None, None), (10, "para", None, None),
    (12, "complex", (8, 4), None), (8, "para", None, MIXED_PARA), (7, "none", (4, 3), None),
])
def test_each_block_is_its_representative_relabelled(n, kind, sig, eps):
    """Every block that is not its orbit's representative, solved from its own
    rows, is the representative's spaces pushed forward by a unit
    permutation that keeps metric signs (from the oracle), space by space:
    the chain, conformal and the four map spans."""
    s = make_standard(n, kind, sig, eps)
    catalog.cache_clear()
    cat = catalog(s)
    for rep, _, others in cat.orbits:
        for mask in others:
            perm = oracles.unit_permutation(s, rep, mask)
            assert perm is not None, (rep, mask)
            for name in cat.rank4_names():
                moved = oracles.relabelled(getattr(cat.block_chain(rep), name), s, perm)
                assert Subspace.from_vectors(moved, n ** 4) == getattr(cat.block_chain(mask), name), (rep, mask, name)


@pytest.mark.parametrize("n,kind", [(n, kind) for n in (6, 8, 10) for kind in ("complex", "para")])
def test_representative_blocks_pass_the_modular_rank_certificate(n, kind):
    """Each representative block of each kernel in the chain, and of
    conformal, is ker of its chain's rows written for every first pair, on
    the block's columns: every such row lies in one block, and the
    certificate runs over the rows that lie in this one."""
    s = make_standard(n, kind)
    cat = catalog(s)
    affine = oracles.lift_last_slot(oracles.antisym_rows(n) + oracles.bianchi_rows(n), n)
    weyl = affine + oracles.full_weyl_rows(s)
    kaehler_weyl = weyl + oracles.full_kaehler_rows(s)
    chains = {"affine": affine, "weyl": weyl, "riemann": weyl + oracles.full_riemann_rows(n),
              "conformal": affine + oracles.full_riemann_rows(n) + oracles.full_ricci_rows(s),
              "kaehler_weyl": kaehler_weyl, "kaehler_riemann": kaehler_weyl + oracles.full_riemann_rows(n)}
    columns: dict[int, list[int]] = {}
    for c in range(n ** 4):
        columns.setdefault(oracles.parity_mask(s, c), []).append(c)
    for mask, _, _ in cat.orbits:
        for name, rows in chains.items():
            sub, local = oracles.on_columns(getattr(cat.block_chain(mask), name), rows, columns[mask])
            assert oracles.kernel_certificate(sub, local) == [], (mask, name)


@pytest.mark.parametrize("n,kind,sig", [(6, "complex", None), (6, "complex", (4, 2)), (8, "para", None),
                                        (5, "none", (3, 2)), (6, "none", None)])
def test_nonzero_gram_count_is_the_full_basis_count(n, kind, sig, monkeypatch):
    """A nonzero Gram count depends on the basis, so the block path counts
    each block of an orbit from its own rows.  With weyl in place of each
    block's sigma image, riemann and it are not orthogonal, and thm4.2
    reports the count of the catalog's full bases, pair by pair; orbit size
    times the representative's count would differ here."""
    s = make_standard(n, kind, sig)
    monkeypatch.setattr(BlockChain, "sigma_image", property(lambda block: block.weyl))
    catalog.cache_clear()
    rep = run_claim("thm4.2", s)
    cat = catalog(s)
    expected = oracles.orthogonality_violations(cat.riemann, cat.weyl, lambda c: gram_weight4(s, c))
    assert expected > 0
    assert rep.quantities["gram_orthogonality_violations"] == expected
    assert not rep.verdict


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_n4_witness_does_not_depend_on_block_order(kind, monkeypatch):
    """thm1.5's n = 4 witness is the failing kaehler_weyl row of least pivot
    over the blocks, whatever order they are read in."""
    s = make_standard(4, kind)
    catalog.cache_clear()
    report = run_claim("thm1.5", s).to_json_dict()
    monkeypatch.setattr(curvature, "parity_blocks", lambda space: reversed(list(parity_blocks(space))))
    catalog.cache_clear()
    assert [mask for mask, _, _ in catalog(s).orbits] == [3, 0]
    assert run_claim("thm1.5", s).to_json_dict() == report
    assert report["witnesses"]


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2)), (6, "none", (4, 2)), (5, "none", None), (7, "none", None)])
def test_thm41_block_ranks_are_the_full_ranks(n, kind, sig):
    """thm4.1 weighs each representative block's Ricci rank by its orbit's
    size; the sums are the Ricci ranks on the oracle's riemann and weyl over
    every coordinate, and its Ricci kernel on riemann is conformal."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    quantities = run_claim("thm4.1", s).quantities
    full = oracles.full_chain(s)
    ric = ricci_rows(s)
    assert quantities["dim_riemann"] == full["riemann"].dim
    assert quantities["ricci_rank_on_riemann"] == rank_of_rows(restrict_rows(full["riemann"], ric))
    assert quantities["ricci_rank_on_weyl"] == rank_of_rows(restrict_rows(full["weyl"], ric))
    assert meet_kernel(full["riemann"], ric) == catalog(s).conformal
    assert quantities["ricci_kernel_equals_conformal"]


def _patch_axis_block(monkeypatch, s, mask, change):
    """Make every read of the conformal of axis block ``mask`` of the space
    without ``s``'s structure return ``change`` of the solved one, and empty
    the catalog cache."""
    twin = s._replace(kind="none")
    solve = BlockChain.conformal.func
    monkeypatch.setattr(BlockChain, "conformal", property(
        lambda block: change(solve(block)) if (block.space, block.block[0]) == (twin, mask) else solve(block)))
    catalog.cache_clear()


def _moved(mask, perm):
    """The axis mask that the axis permutation ``perm`` carries ``mask`` onto."""
    return sum(1 << perm[a] for a in range(len(perm)) if mask >> a & 1)


def _cycle_target(s):
    """A representative axis block with a nonzero conformal, and the block,
    no orbit's representative, that a cycle of O's generating set carries it
    onto."""
    axes = catalog(s).axes
    reps = sorted(rep for rep, _, _ in axes.orbits)
    return next((rep, _moved(rep, perm)) for rep in reps for perm in generating_set(s, "O").cycles
                if _moved(rep, perm) not in reps and axes.block_chain(rep).conformal.dim)


THM41_CYCLE_LAYOUTS = [(5, "none", None), (6, "complex", None), (6, "none", (4, 2))]


@pytest.mark.parametrize("n,kind,sig", THM41_CYCLE_LAYOUTS)
def test_thm41_sees_a_conformal_that_differs_off_the_representatives(n, kind, sig, monkeypatch):
    """thm4.1 reads the axis blocks of the space without its structure.  A
    conformal missing one row on the block, no orbit's representative, that
    a cycle carries a representative onto agrees with the Ricci kernel on
    every representative, and thm4.1 still fails: the cycle's images of the
    representative's conformal leave it.  The witness is the full walk's
    over the union of every block's conformal, which lacks that row too."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    passing = run_claim("thm4.1", s).quantities
    rep, target = _cycle_target(s)
    _patch_axis_block(monkeypatch, s, target, lambda sub: Subspace(sub.ambient_dim, sub.basis[1:]))
    report = run_claim("thm4.1", s)
    assert not report.verdict
    assert report.quantities == {**passing, "conformal_o_invariant": False}
    witness = curvature.invariance_witness(catalog(s).axes.conformal, s, "O")
    assert witness is not None and report.witnesses == [witness]


@pytest.mark.parametrize("n,kind,sig", THM41_CYCLE_LAYOUTS)
def test_thm41_sees_a_cycle_target_larger_than_its_representative(n, kind, sig, monkeypatch):
    """A conformal with one row too many on the block that a cycle carries a
    representative onto still holds every image of the representative's
    conformal; only the check that the two blocks have one dimension sees
    it, and the full walk names the witness."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    rep, target = _cycle_target(s)
    extra = {c: 1 for c in range(n ** 4) if oracles.parity_mask(s._replace(kind="none"), c) == target}
    _patch_axis_block(monkeypatch, s, target, lambda sub: subspace_sum(sub, Subspace.from_vectors([extra], n ** 4)))
    axes = catalog(s).axes
    assert axes.block_chain(target).conformal.dim == axes.block_chain(rep).conformal.dim + 1
    report = run_claim("thm4.1", s)
    assert report.quantities["conformal_o_invariant"] is False
    assert not report.verdict
    assert report.witnesses == [curvature.invariance_witness(catalog(s).axes.conformal, s, "O")]


@pytest.mark.parametrize("n,kind,sig", [(5, "none", None), (6, "para", None), (7, "none", (4, 3))])
def test_thm41_checks_lie_images_in_the_blocks_they_land_in(n, kind, sig, monkeypatch):
    """A Lie element of O's generating set moves one index of a coordinate
    within its support {a, b}, so it carries axis block g into g △ {a, b}.
    Emptying the conformal of such a block that is no representative and
    that no cycle carries a representative onto fails thm4.1: the Lie
    images of the representative's conformal land there."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    axes = catalog(s).axes
    gens = generating_set(s, "O")
    reps = [rep for rep, _, _ in axes.orbits]
    cycled = {_moved(rep, perm) for rep in reps for perm in gens.cycles}
    targets = [rep ^ sum(1 << a for a in {a for c in x for a in divmod(c, n)})
               for rep in reps if axes.block_chain(rep).conformal.dim for _, x in gens.lie]
    target = next(t for t in targets if t not in reps and t not in cycled)
    _patch_axis_block(monkeypatch, s, target, lambda sub: Subspace(sub.ambient_dim, ()))
    report = run_claim("thm4.1", s)
    assert report.quantities["conformal_o_invariant"] is False
    assert not report.verdict
    assert report.witnesses == [curvature.invariance_witness(catalog(s).axes.conformal, s, "O")]


@pytest.mark.parametrize("n,kind,sig", [(5, "none", None), (6, "complex", None), (6, "none", (4, 2))])
def test_thm41_weighs_the_representatives_up_to_the_closed_form(n, kind, sig, monkeypatch):
    """With one orbit weighed once too often, every representative's Ricci
    kernel is still its conformal, but their weighted dimensions miss
    conformal's closed form n(n+1)(n+2)(n-3)/12, and thm4.1 reports that
    the Ricci kernel is not conformal."""
    s = make_standard(n, kind, sig)
    real = curvature.parity_blocks

    def heavier(space):
        *orbits, (rep, size, others) = real(space)
        return [*orbits, (rep, size + 1, others)]

    monkeypatch.setattr(curvature, "parity_blocks", heavier)
    catalog.cache_clear()
    report = run_claim("thm4.1", s)
    assert report.quantities["ricci_kernel_equals_conformal"] is False
    assert not report.verdict


MIXED_PARA_10 = (-1, 1, 1, -1, 1, -1, -1, 1, 1, -1)
STRUCTURED_LAYOUTS = ([(n, kind, None, None) for n in (4, 6, 8, 10) for kind in ("complex", "para")]
                      + [(6, "complex", (4, 2), None), (8, "complex", None, (1, 1, -1, -1, 1, 1, -1, -1)),
                         (8, "para", None, MIXED_PARA), (10, "para", None, MIXED_PARA_10)])
THM41_LAYOUTS = STRUCTURED_LAYOUTS + [(5, "none", None, None), (7, "none", None, None),
                                      (6, "none", (4, 2), None), (7, "none", (4, 3), None)]


@pytest.mark.parametrize("n,kind,sig,eps", STRUCTURED_LAYOUTS)
def test_thm41_reads_the_space_without_its_structure(n, kind, sig, eps):
    """thm4.1 reads no J: its quantities, verdict and witnesses on a
    structured space are those on the space with the same signs and none."""
    s = make_standard(n, kind, sig, eps)
    twin = make_standard(n, "none", eps=s.eps)
    catalog.cache_clear()
    report = run_claim("thm4.1", s)
    catalog.cache_clear()
    plain = run_claim("thm4.1", twin)
    assert (report.quantities, report.verdict, report.witnesses) == (plain.quantities, plain.verdict, plain.witnesses)
    assert report.verdict


@pytest.mark.parametrize("n,kind,sig,eps", [(6, "complex", None, None), (8, "para", None, MIXED_PARA),
                                            (7, "none", (4, 3), None)])
def test_passing_thm41_reads_no_union(n, kind, sig, eps, monkeypatch):
    """A passing thm4.1 reads no rank-4 space over every coordinate: the
    union of the blocks is read only to name a failed certificate's
    witness."""
    def union(cat, name):
        raise AssertionError(f"thm4.1 read the union of {name}")

    monkeypatch.setattr(CurvatureCatalog, "_union", union)
    catalog.cache_clear()
    assert run_claim("thm4.1", make_standard(n, kind, sig, eps)).verdict


@pytest.mark.parametrize("n,kind,sig,eps", THM41_LAYOUTS)
def test_block_certificate_agrees_with_the_full_walk(n, kind, sig, eps):
    """The O-certificate on the axis blocks passes where the walk over
    conformal over every coordinate, the union of the catalog's blocks,
    finds no witness."""
    s = make_standard(n, kind, sig, eps)
    catalog.cache_clear()
    cat = catalog(s)
    assert curvature.conformal_o_invariant(cat.axes) is (curvature.invariance_witness(cat.conformal, s, "O") is None)
    assert curvature.conformal_o_invariant(cat.axes)


@pytest.mark.parametrize("n,kind,sig,eps", THM41_LAYOUTS)
def test_block_certificate_and_full_walk_fail_together(n, kind, sig, eps, monkeypatch):
    """With the generating set's Lie elements replaced by E13, which is not
    in O, both the certificate on the blocks and the full walk fail, and
    thm4.1's witness is the full walk's."""
    s = make_standard(n, kind, sig, eps)
    _break_lie_basis(monkeypatch)
    cat = catalog(s)
    witness = curvature.invariance_witness(cat.conformal, s, "O")
    assert witness is not None
    assert curvature.conformal_o_invariant(cat.axes) is False
    catalog.cache_clear()
    report = run_claim("thm4.1", s)
    assert report.witnesses == [witness]
    assert not report.verdict

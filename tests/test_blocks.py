"""The rank-4 spaces one parity block at a time: the blocks partition the
coordinates, each row writer writes on a block the full rows anchored in
it, the union of the blocks is the catalog's stored basis and the space
solved over every coordinate, byte for byte, a group element carries each
block's spaces onto another's, and every representative block is the
kernel of its chain's rows by the modular-rank certificate.  thm4.2's Gram
count and thm1.5's witness do not depend on which blocks the orbit
reduction reads, or in what order; thm4.1's ranks on the representatives
are the ranks on the full bases, and it compares conformal with the Ricci
kernel on every block."""

import pytest

import oracles
from curvlab import curvature
from curvlab.curvature import BlockChain, CurvatureCatalog, catalog, run_claim
from curvlab.linalg import Subspace, meet_kernel, rank_of_rows, restrict_rows
from curvlab.spaces import make_standard, parity_blocks, unit_bits
from curvlab.tensors import (
    antisym_rows,
    bianchi_rows,
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
    affine = oracles.lift_last_slot(antisym_rows(n) + bianchi_rows(n), n)
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


@pytest.mark.parametrize("n,kind,sig", [(5, "none", None), (6, "complex", None), (6, "none", (4, 2))])
def test_thm41_sees_a_conformal_that_differs_off_the_representatives(n, kind, sig, monkeypatch):
    """A conformal that lacks one row of a block that is no orbit's
    representative agrees with the Ricci kernel on every representative, and
    thm4.1 still reports that the two differ, and fails."""
    s = make_standard(n, kind, sig)
    catalog.cache_clear()
    cat = catalog(s)
    reps = {rep for rep, _, _ in cat.orbits}
    rows = cat.conformal.basis
    drop = next(k for k, row in enumerate(rows) if oracles.parity_mask(s, row[0]) not in reps)
    patched = Subspace(n ** 4, rows[:drop] + rows[drop + 1:])
    monkeypatch.setattr(CurvatureCatalog, "conformal", property(lambda _: patched))
    catalog.cache_clear()
    report = run_claim("thm4.1", s)
    assert report.quantities["ricci_kernel_equals_conformal"] is False
    assert not report.verdict

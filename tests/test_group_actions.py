"""Group-module structure: invariance of every cataloged subspace, commutant
dimensions, invariant-functional spans, and isotropy checks."""

import random
from fractions import Fraction

import pytest

import oracles

from curvlab.linalg import Subspace, SubspaceReducer, subspace_sum
from curvlab.spaces import (
    closure_spans,
    component_reps,
    generating_set,
    lie_algebra_basis,
    make_standard,
    random_lie_elements,
    signed_pair_table,
)
from curvlab import curvature
from curvlab.curvature import (
    NotInvariantError,
    _block_diag,
    build_catalog,
    catalog,
    commutant_dimension,
    invariance_witness,
    invariant_rows,
    invariant_span_dimension,
    representation_matrices,
    run_claim,
)
from curvlab.tensors import (
    Tensor4,
    action_rows,
    derivation_table,
    flatten4,
    gram_weight2,
    gram_weight4,
    kaehler_form,
    lie_apply_vec,
    metric_tensor2,
    permute_vec,
)

F = Fraction

O_ONLY = ("affine", "weyl", "riemann", "conformal", "sigma_image")


def _group_for(name):
    return "O" if name in O_ONLY else "Ustar"


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_catalog_invariance_n4(kind):
    s = make_standard(4, kind)
    catalog = build_catalog(s)
    extra = {g: random_lie_elements(s, g, 5, seed=3) for g in ("O", "U")}
    for name, sub in catalog.all_spaces():
        group = _group_for(name)
        lie = extra["O"] if group == "O" else extra["U"]
        assert invariance_witness(sub, s, group, extra_lie=lie) is None, name


def test_rank4_catalog_invariance_indefinite():
    s = make_standard(6, "complex", (4, 2))
    catalog = build_catalog(s)
    for name, sub in catalog.rank4_spaces():
        assert invariance_witness(sub, s, _group_for(name)) is None, name


def test_invariance_witness_on_broken_space(complex4):
    """A deliberately non-invariant subspace must produce a witness."""
    from curvlab.linalg import Subspace

    bad = Subspace.from_vectors([{0: F(1)}], 4 ** 4)  # span of a single coordinate tensor
    witness = invariance_witness(bad, complex4, "O")
    assert witness is not None
    assert witness["action"] in ("lie", "component_rep")


def test_representation_matrices_reject_noninvariant(complex4):
    from curvlab.linalg import Subspace

    bad = Subspace.from_vectors([{0: F(1)}], 16)
    with pytest.raises(NotInvariantError) as err:
        representation_matrices(bad, complex4, "U")
    assert err.value.witness["action"] in ("lie", "component_rep")


@pytest.mark.parametrize("ambient,group", [(4 ** 4, "O"), (16, "U"), (16, "Ustar")])
def test_certificate_and_representation_share_first_witness(complex4, ambient, group):
    """Both walk the generators in one order, so they stop at the same pair."""
    from curvlab.linalg import Subspace

    bad = Subspace.from_vectors([{0: F(1)}], ambient)
    witness = invariance_witness(bad, complex4, group)
    with pytest.raises(NotInvariantError) as err:
        representation_matrices(bad, complex4, group)
    assert err.value.witness == witness == {"action": "lie", "element": 0, "basis_vector": 0}


def _count_group_applies(monkeypatch, claim, space):
    """Run ``claim`` on ``space``, from a fresh catalog, and count its
    sparse group applies."""
    catalog.cache_clear()
    catalog(space).two_tensors
    calls = []

    def counted(apply):
        def wrapper(*args):
            calls.append(args)
            return apply(*args)
        return wrapper

    for name in ("lie_apply_vec", "permute_vec"):
        monkeypatch.setattr(curvature, name, counted(getattr(curvature, name)))
    assert run_claim(claim, space).verdict
    return len(calls)


@pytest.mark.parametrize("kind,applies", [("complex", 8), ("para", 10)])
def test_lemma49_applies_each_generator_once(monkeypatch, kind, applies):
    """lemma4.9 at n = 4 applies each element of the extended group's
    generating set to each basis vector of the 2-dimensional opposed module
    once: the 2 Lie elements of u, the cycle of the two J-planes, and the
    kept component representatives, 1 (complex: the reversal) or 2 (para:
    the reversal and its product with the plane negation; the plane cycle
    lies in the negation's component).  That is 2 * (2 + 1 + 1) = 8 and
    2 * (2 + 1 + 2) = 10 applies."""
    assert _count_group_applies(monkeypatch, "lemma4.9", make_standard(4, kind)) == applies


@pytest.mark.parametrize("kind,applies", [("complex", 8), ("para", 10)])
def test_eq4d_applies_each_generator_once(monkeypatch, kind, applies):
    """eq4d reads the unextended group's matrices off the extended group's,
    so it applies the same generators as lemma4.9, each once."""
    assert _count_group_applies(monkeypatch, "eq4d", make_standard(4, kind)) == applies


def test_eq4d_and_lemma49_build_the_opposed_matrices_once_per_catalog(monkeypatch, capsys):
    """A sweep runs eq4d and lemma4.9 on one catalog per kind, and the two
    read one set of Ustar matrices of the opposed module, built once."""
    from curvlab.cli import main

    calls = []
    real = curvature.representation_matrices

    def recording(sub, space, group):
        calls.append((space.kind, group))
        return real(sub, space, group)

    monkeypatch.setattr(curvature, "representation_matrices", recording)
    catalog.cache_clear()
    assert main(["sweep", "--ns", "4", "--kinds", "complex,para", "--claims", "eq4d,lemma4.9"]) == 0
    assert calls == [("complex", "Ustar"), ("para", "Ustar")]


def _dense_actions(space, group, extra_lie=()):
    """(action, element, dense map) over the whole Lie basis, the extra
    elements and every component representative: the full-basis walk, from
    the dense oracles."""
    n = space.n
    lie = [oracles.Matrix.from_dict(n, x) for x in list(lie_algebra_basis(space, group)) + list(extra_lie)]
    reps = [oracles.Matrix.from_dict(n, g) for g in component_reps(space, group)]
    return ([("lie", i, lambda t, x=x: oracles.lie_action(x, t)) for i, x in enumerate(lie)]
            + [("component_rep", i, lambda t, g=g: oracles.pullback(g, t)) for i, g in enumerate(reps)])


def _dense_image(space, sub, act, row):
    """The dense oracle map ``act`` applied to one dense basis row of ``sub``."""
    n = space.n
    if sub.ambient_dim == n ** 4:
        return list(act(Tensor4(n, tuple(row))).components)
    image = act(oracles.sparse(row))
    return [image.get(c, F(0)) for c in range(n * n)]


def _dense_matrix(space, sub, act):
    """The d x d matrix of the dense map ``act`` on ``sub``, in the pivot-one basis."""
    basis = oracles.dense(sub)
    d = sub.dim
    cols = []
    for row in basis:
        image = _dense_image(space, sub, act, row)
        coords = [image[p] for p in sub.pivots]
        assert [sum((c * b[k] for c, b in zip(coords, basis)), F(0)) for k in range(len(image))] == image
        cols.append(coords)
    return oracles.Matrix(d, d, tuple(cols[j][i] for i in range(d) for j in range(d)))


def _dense_certificate_actions(space, group, extra_lie=()):
    """The dense actions a certificate applies, in its order: the entries of
    :func:`_dense_actions` for the generating set's Lie elements and the
    extra elements, the sign-block cycles (the push-forward by the
    permutation matrix P, the pull-back by its transpose), then the entries
    of the kept component representatives."""
    gens = generating_set(space, group)
    size = len(lie_algebra_basis(space, group))
    dense = {(action, idx): act for action, idx, act in _dense_actions(space, group, extra_lie)}
    lie = [i for i, _ in gens.lie] + [size + k for k in range(len(extra_lie))]
    cycles = [oracles.transpose(oracles.permutation_matrix(perm)) for perm in gens.cycles]
    return ([("lie", i, dense["lie", i]) for i in lie]
            + [("cycle", k, lambda t, p=p: oracles.pullback(p, t)) for k, p in enumerate(cycles)]
            + [("component_rep", i, dense["component_rep", i]) for i, _ in gens.reps])


def _dense_certificate_matrices(space, sub, group):
    """The dense matrices of the certificate's generators, keyed as
    :func:`representation_matrices` keys them."""
    return {(action, idx): _dense_matrix(space, sub, act)
            for action, idx, act in _dense_certificate_actions(space, group)}


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_representation_scales_match_dense_oracle(kind):
    """The integer images carry a scale per (element, basis vector); dividing
    it out must give the matrices of the dense actions, generator by
    generator in certificate order.  Some stored rows of sigma_image have a
    pivot entry above one, so their scale is not just the generator's."""
    s = make_standard(4, kind)
    sub = catalog(s).sigma_image
    assert any(scale > 1 for scale in sub.pivot_scales)
    d = sub.dim
    got = {key: oracles.Matrix.from_dict(d, m) for key, m in representation_matrices(sub, s, "O").items()}
    expected = _dense_certificate_matrices(s, sub, "O")
    assert list(got) == list(expected)
    cycles = [("cycle", k) for k in range({"complex": 1, "para": 2}[kind])]
    assert [key for key in got if key[0] != "component_rep"] == [("lie", 0)] + cycles
    assert ("component_rep", 0) not in got  # the identity
    assert got == expected


@pytest.mark.parametrize("name", ["omega_line", "kaehler_riemann"])
def test_rational_extra_elements_give_the_oracle_witness(complex4, name):
    """U-modules under rational O elements (denominators up to 9): the first
    pair off the subspace is the one a dense oracle loop finds first."""
    s = complex4
    sub = dict(catalog(s).all_spaces())[name]
    extra = random_lie_elements(s, "O", 3, seed=4)
    assert max(v.denominator for x in extra for v in x.values()) > 1
    basis = oracles.dense(sub)
    expected = next(
        {"action": action, "element": idx, "basis_vector": b}
        for action, idx, act in _dense_actions(s, "U", extra)
        for b, row in enumerate(basis)
        if not oracles.span_contains(basis, _dense_image(s, sub, act, row))
    )
    assert expected["element"] >= len(lie_algebra_basis(s, "U"))
    assert invariance_witness(sub, s, "U", extra_lie=extra) == expected


def test_extra_element_is_numbered_after_the_whole_basis(complex4):
    """Extra element k is named len(basis) + k, after all four elements of
    the U basis at n = 4, not after the two generators the walk applies."""
    s = complex4
    sub = catalog(s).two_tensors.omega_line
    assert len(generating_set(s, "U").lie) == 2
    moves = next(x for x in lie_algebra_basis(s, "O") if invariance_witness(sub, s, "U", extra_lie=[x]))
    extra = [lie_algebra_basis(s, "U")[0], moves]
    assert invariance_witness(sub, s, "U", extra_lie=extra) == {"action": "lie", "element": 5, "basis_vector": 0}


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_commutant_dimensions(kind):
    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    d = split.alt_opposed.dim
    mats = list(representation_matrices(split.alt_opposed, s, "Ustar").values())
    assert commutant_dimension(mats, d) == 1
    assert commutant_dimension(representation_matrices(split.h_line, s, "Ustar").values(), 1) == 1
    assert commutant_dimension([_block_diag(m, d) for m in mats], 2 * d) == 4


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_commutant_matches_dense_oracle(n, kind):
    """The commutant kernel against the dense commutator rows, on the opposed
    module, the metric line and the opposed pair inside the weyl space, each
    also doubled: 2 x 2 blocks over the original commutant, four times its
    dimension."""
    s = make_standard(n, kind)
    cat = catalog(s)
    modules = {
        "alt_opposed": cat.two_tensors.alt_opposed,
        "h_line": cat.two_tensors.h_line,
        "opposed_pair": subspace_sum(cat.psi_span, cat.sigma_opposed_span),
    }
    dims = {}
    for name, sub in modules.items():
        d = sub.dim
        mats = list(representation_matrices(sub, s, "Ustar").values())
        dense = [oracles.Matrix.from_dict(d, m) for m in mats]
        doubled = [oracles.block_diag(m) for m in dense]
        assert [oracles.Matrix.from_dict(2 * d, _block_diag(m, d)) for m in mats] == doubled, name
        dims[name] = commutant_dimension(mats, d)
        assert dims[name] == oracles.commutant_dimension(dense), name
        doubled_dim = commutant_dimension([_block_diag(m, d) for m in mats], 2 * d)
        assert doubled_dim == oracles.commutant_dimension(doubled) == 4 * dims[name], name
    assert (dims["alt_opposed"], dims["h_line"], dims["opposed_pair"]) == (1, 1, 4)


@pytest.mark.parametrize("seed", range(8))
def test_commutant_of_random_block_diagonal_sets_matches_dense_oracle(seed):
    """Seeded small integer matrices sharing a block-diagonal pattern: the
    block scalars commute with all of them, so the commutant is larger
    than the scalar line."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    d = sum(sizes)
    mats = []
    for _ in range(rng.randint(1, 3)):
        rows = [[0] * d for _ in range(d)]
        start = 0
        for size in sizes:
            for i in range(start, start + size):
                for j in range(start, start + size):
                    rows[i][j] = rng.randint(-2, 2)
            start += size
        mats.append(oracles.Matrix.from_rows(rows))
    dim = commutant_dimension([m.to_dict() for m in mats], d)
    assert dim == oracles.commutant_dimension(mats)
    assert dim >= len(sizes) > 1


def _record_commutant_kernels(monkeypatch):
    """Patch :func:`curvature.commutant_kernel` to record ``(mats, d,
    kernel)`` per call, into the list returned."""
    calls = []
    real = curvature.commutant_kernel

    def recording(mats, d):
        mats = list(mats)
        calls.append((mats, d, real(mats, d)))
        return calls[-1][2]

    monkeypatch.setattr(curvature, "commutant_kernel", recording)
    return calls


def _dense_block_scalars(d):
    """The four 2d x 2d matrices with one identity block, at block row r and
    block column c, zero elsewhere, as dense rows over the 4d^2 entries."""
    out = []
    for r in (0, d):
        for c in (0, d):
            m = [[F(0)] * (2 * d) for _ in range(2 * d)]
            for i in range(d):
                m[r + i][c + i] = F(1)
            out.append([x for row in m for x in row])
    return out


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_line_family_is_read_off_the_doubled_commutant(n, kind, monkeypatch):
    """lemma4.9's line-family key holds when the doubled commutant kernel is
    the span of the dense block scalars, which commute with every
    diag(M, M); with a module whose commutant is larger (every matrix
    replaced by the unit E_00, which commutes with more than the scalars)
    the key and the verdict read false."""
    s = make_standard(n, kind)
    calls = _record_commutant_kernels(monkeypatch)
    report = run_claim("lemma4.9", s)
    assert report.verdict and report.quantities["diagonal_line_family_invariant"]
    (mats, d2, kernel), = calls
    d = d2 // 2
    scalars = _dense_block_scalars(d)
    assert oracles.same_span(oracles.dense(kernel), scalars)
    for m in mats:
        dense = oracles.Matrix.from_dict(d2, m)
        for t in scalars:
            t = oracles.Matrix(d2, d2, tuple(t))
            assert t.mul(dense) == dense.mul(t)
    monkeypatch.setattr(catalog(s), "opposed_matrices", {("lie", 0): {0: 1}})
    broken = run_claim("lemma4.9", s)
    assert broken.quantities["diagonal_line_family_invariant"] is False and not broken.verdict
    assert broken.quantities["doubled_commutant_dimension"] > 4


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_commutant_kernels_pass_the_modular_rank_certificate(n, kind, monkeypatch):
    """Each kernel that eq4d and lemma4.9 take a commutant dimension from
    (the Ustar matrices of the opposed module, the unextended-group subset
    and the doubled matrices) is certified against the commutator rows of
    the dense loop, with no code from the engine."""
    s = make_standard(n, kind)
    calls = _record_commutant_kernels(monkeypatch)
    line = run_claim("eq4d", s).quantities
    doubled = run_claim("lemma4.9", s).quantities
    dims = [line["commutant_dimension"], line["commutant_dimension_unextended_group"],
            doubled["doubled_commutant_dimension"]]
    assert dims == [1, 2, 4]
    assert [kernel.dim for _, _, kernel in calls] == dims
    for mats, d, kernel in calls:
        rows = oracles.commutator_rows([oracles.Matrix.from_dict(d, m) for m in mats])
        assert oracles.kernel_certificate(kernel, rows) == [], (d, len(mats))


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_invariant_span_dimensions(kind):
    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    assert invariant_span_dimension(split.alt_opposed, split.alt_opposed, s) == 1
    # symmetric against antisymmetric distinguished lines pair trivially
    assert invariant_span_dimension(split.h_line, split.omega_line, s) == 0
    from curvlab.linalg import Subspace

    assert invariant_span_dimension(Subspace(36, ()), split.h_line, s) == 0


@pytest.mark.parametrize("n,kind,sig", [(4, "complex", None), (4, "para", None), (6, "complex", None),
                                        (6, "para", None), (6, "complex", (4, 2))])
def test_invariant_rows_match_per_pair_oracle(n, kind, sig):
    """The functionals restricted on both sides are the per-pair rows of the
    three slot pairings, column i*d_b + j for the pair (i, j), and they span
    what the rows of all 24 slot permutations span, at the oracle's rank.
    The module pairs include an empty module, and a pair of different
    dimensions with nonzero rows, whose columns a transposed index would
    move."""
    s = make_standard(n, kind, sig)
    split = catalog(s).two_tensors
    empty = Subspace(n * n, ())
    opposed_plus_omega = subspace_sum(split.alt_opposed, split.omega_line)
    pairs = [
        (split.alt_opposed, split.alt_opposed),
        (split.h_line, split.omega_line),
        (split.alt_aligned_traceless, split.alt_opposed),
        (empty, split.h_line),
        (split.alt_opposed, empty),
        (opposed_plus_omega, split.alt_opposed),
        (split.alt_opposed, opposed_plus_omega),
    ]
    for mod_a, mod_b in pairs:
        ncols = mod_a.dim * mod_b.dim
        expected = oracles.invariant_rows(mod_a, mod_b, s, [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)])
        every = oracles.invariant_rows(mod_a, mod_b, s)
        got = [[row.get(c, 0) for c in range(ncols)] for row in invariant_rows(mod_a, mod_b, s)]
        assert got == expected
        assert oracles.same_span(got, every)
        assert invariant_span_dimension(mod_a, mod_b, s) == oracles.dense_rref(every)[1]
    assert invariant_rows(opposed_plus_omega, split.alt_opposed, s)
    assert invariant_span_dimension(split.alt_opposed, split.alt_opposed, s) == 1


def test_multiplicity_two_block_inside_weyl(complex6):
    """The two realizations of the opposed module inside the weyl space form
    a multiplicity-two block: the commutant of their direct sum is 4-dim."""
    from curvlab.linalg import subspace_sum

    s = complex6
    cat = catalog(s)
    pair = subspace_sum(cat.psi_span, cat.sigma_opposed_span)
    assert pair.dim == 12
    assert commutant_dimension(representation_matrices(pair, s, "Ustar").values(), 12) == 4


@pytest.mark.parametrize("kind,sig", [("complex", (6, 0)), ("complex", (4, 2)), ("para", None)])
def test_no_cataloged_module_is_totally_isotropic(kind, sig):
    """Nonzero invariant subspaces keep a nondegenerate trace of the induced
    product, including for indefinite metrics."""
    s = make_standard(6, kind, sig)
    catalog = build_catalog(s)
    for name, sub in catalog.all_spaces():
        if sub.dim == 0:
            continue
        weight = gram_weight2 if sub.ambient_dim == 36 else gram_weight4
        found_nonzero = False
        basis = sub.basis_dicts()
        for i, va in enumerate(basis):
            for vb in basis[: i + 1]:
                small, big = (va, vb) if len(va) <= len(vb) else (vb, va)
                total = Fraction(0)
                for c, v in small.items():
                    w = big.get(c)
                    if w is not None:
                        total += v * w * weight(s, c)
                if total:
                    found_nonzero = True
                    break
            if found_nonzero:
                break
        assert found_nonzero, f"{name} is totally isotropic"


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_pullback_by_reps_preserves_catalog_n4(kind):
    s = make_standard(4, kind)
    catalog = build_catalog(s)
    for name, sub in catalog.all_spaces():
        rank = 2 if sub.ambient_dim == 16 else 4
        reducer = SubspaceReducer(sub)
        for g in component_reps(s, _group_for(name)):
            _, rows = action_rows(g, 4)
            for row in sub.basis_dicts():
                img = oracles.pullback_apply_vec(rows, row, rank, 4)
                assert all(type(v) is int for v in img.values()), name
                assert reducer.contains(img), name


SPACES_6 = [("complex", None), ("para", None), ("complex", (4, 2))]


@pytest.mark.parametrize("kind,sig", SPACES_6)
@pytest.mark.parametrize("group", ["O", "U"])
def test_closure_proof_needs_every_generator(kind, sig, group):
    """The Lie elements and cycles of the generating set generate the Lie
    algebra, by the package's closure (brackets with the Lie elements and
    conjugates by the cycles) and by a dense closure under all brackets and
    conjugates; without any one of them the package's closure falls short."""
    s = make_standard(6, kind, sig)
    basis = lie_algebra_basis(s, group)
    gens = generating_set(s, group)
    lie, cycles = [x for _, x in gens.lie], list(gens.cycles)
    assert len(lie) == {"O": 1, "U": 2}[group] and cycles
    assert closure_spans(lie, cycles, basis, 6)
    dense_lie = [oracles.Matrix.from_dict(6, x) for x in lie]
    assert oracles.lie_closure_dim(dense_lie, [oracles.permutation_matrix(p) for p in cycles]) == len(basis)
    for k in range(len(lie)):
        assert not closure_spans(lie[:k] + lie[k + 1:], cycles, basis, 6), ("lie", k)
    for k in range(len(cycles)):
        assert not closure_spans(lie, cycles[:k] + cycles[k + 1:], basis, 6), ("cycle", k)


def _full_basis_witness(sub, space, group, extra_lie=()):
    """The certificate walk the generating set replaces: every element of the
    Lie basis, then the extra elements, then every component representative
    (by slot contraction, the identity included), applied to every basis
    vector; the first pair off the subspace, or None."""
    n = space.n
    rank = 2 if sub.ambient_dim == n * n else 4
    reducer = SubspaceReducer(sub)

    def lie(rows, vec, rank, n):
        return lie_apply_vec(derivation_table(rows, n), vec, rank, n)

    steps = [("lie", x, lie) for x in list(lie_algebra_basis(space, group)) + list(extra_lie)]
    steps += [("component_rep", g, oracles.pullback_apply_vec) for g in component_reps(space, group)]
    counters = {"lie": 0, "component_rep": 0}
    for action, m, apply in steps:
        idx = counters[action]
        counters[action] += 1
        _, rows = action_rows(m, n)
        for b, vec in enumerate(sub.basis_dicts()):
            if not reducer.contains(apply(rows, vec, rank, n)):
                return {"action": action, "element": idx, "basis_vector": b}
    return None


@pytest.mark.parametrize("kind,sig", [("complex", None), ("para", None), ("complex", (2, 2))])
def test_generator_walk_agrees_with_full_basis_walk_n4(kind, sig):
    """Every n = 4 catalog space under every group, with and without seeded
    extra elements: the generator walk rejects a space exactly when the full
    basis walk does, and passes each space under its own group."""
    s = make_standard(4, kind, sig)
    extra = {g: random_lie_elements(s, "O" if g == "O" else "U", 2, seed=3) for g in ("O", "U", "Ustar")}
    for name, sub in build_catalog(s).all_spaces():
        for group in ("O", "U", "Ustar"):
            for lie in ((), extra[group]):
                got = invariance_witness(sub, s, group, extra_lie=lie)
                assert (got is None) == (_full_basis_witness(sub, s, group, lie) is None), (name, group)
                if group == _group_for(name):
                    assert got is None, name


def _dense_certificate_walk(space, sub, group, extra_lie=()):
    """The dense full walk restricted to the elements a certificate applies,
    in certificate order: ``((action, element), fails)`` with ``fails[b]``
    true when the dense image of basis vector b leaves ``sub``."""
    basis = oracles.dense(sub)
    return [((action, idx), [not oracles.span_contains(basis, _dense_image(space, sub, act, row)) for row in basis])
            for action, idx, act in _dense_certificate_actions(space, group, extra_lie)]


def _first_dense_failure(walk):
    return next(({"action": key[0], "element": key[1], "basis_vector": b}
                 for key, fails in walk for b, fail in enumerate(fails) if fail), None)


def _witness_order_modules(space, rank):
    """Two 2-dimensional modules that no group here preserves.  The first
    spans a tensor killed by the Lie algebra of U, h + Omega (h (x) h + h (x)
    Omega at rank 4), whose sign-reversed image lies outside, and a
    coordinate vector; the second spans two coordinate vectors."""
    n = space.n
    h, omega = metric_tensor2(space), kaehler_form(space)
    killed = {c: h.get(c, 0) + omega.get(c, 0) for c in h.keys() | omega.keys()}
    if rank == 2:
        return {"rep_first": Subspace.from_vectors([killed, {0 * n + 2: 1}], n ** 2),
                "later_earlier": Subspace.from_vectors([{2 * n + 2: 1}, {3 * n + 0: 1}], n ** 2)}
    killed = {a * n * n + b: v * h[a] for a in h for b, v in killed.items()}
    return {"rep_first": Subspace.from_vectors([killed, {flatten4(n, 0, 0, 0, 2): 1}], n ** 4),
            "later_earlier": Subspace.from_vectors(
                [{flatten4(n, 3, 3, 2, 3): 1}, {flatten4(n, 3, 3, 3, 0): 1}], n ** 4)}


@pytest.mark.parametrize("rank", [2, 4])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_witness_order_matches_dense_walk_element_by_element(kind, rank):
    """The certificates walk element by element, each over every basis
    vector, and name the first failure in certificate order, as the dense
    walk over elements finds it: invariance_witness with and without seeded
    extra elements, and representation_matrices.  The modules include the
    two cases a walk that stopped at the first failing basis vector would
    get wrong: a representative fails at vector 0 while the witness is a Lie
    element failing only at vector 1, and a Lie element after the witness's
    fails at an earlier vector than it."""
    s = make_standard(4, kind)
    seen = set()
    for group in ("O", "U", "Ustar"):
        extra = random_lie_elements(s, "O" if group == "O" else "U", 2, seed=3)
        for name, sub in _witness_order_modules(s, rank).items():
            assert sub.dim == 2, name
            for lie in ((), extra):
                walk = _dense_certificate_walk(s, sub, group, lie)
                expected = _first_dense_failure(walk)
                assert expected is not None, (group, name)
                assert invariance_witness(sub, s, group, extra_lie=lie) == expected, (group, name)
                pos = next(k for k, (key, _) in enumerate(walk) if key == (expected["action"], expected["element"]))
                b = expected["basis_vector"]
                if (expected["action"] == "lie" and b == 1 and not walk[pos][1][0]
                        and any(fails[0] for key, fails in walk if key[0] == "component_rep")):
                    seen.add(("rep_first", bool(lie)))
                if any(key[0] == "lie" and any(fails[:b]) for key, fails in walk[pos + 1:]):
                    seen.add(("later_earlier", bool(lie)))
            with pytest.raises(NotInvariantError) as err:
                representation_matrices(sub, s, group)
            assert err.value.witness == _first_dense_failure(_dense_certificate_walk(s, sub, group)), (group, name)
    assert seen == {(name, with_extra) for name in ("rep_first", "later_earlier") for with_extra in (False, True)}


def _self_dual_forms():
    """The self-dual 2-forms at n = 4: preserved by SO(4), and so by U and
    Ustar, but not by a reflection."""
    def wedge(a, b):
        return {a * 4 + b: F(1), b * 4 + a: F(-1)}

    from curvlab.linalg import Subspace

    forms = [wedge(0, 1) | wedge(2, 3), wedge(0, 2) | {k: -v for k, v in wedge(1, 3).items()}, wedge(0, 3) | wedge(1, 2)]
    return Subspace.from_vectors(forms, 16)


@pytest.mark.parametrize("group", ["O", "U", "Ustar"])
@pytest.mark.parametrize("module", ["coordinate2", "coordinate4", "omega_line", "self_dual"])
def test_non_invariant_subspace_is_rejected_by_both_walks(complex4, group, module):
    """A coordinate line is preserved by no group here, and the line of the
    fundamental form by U but not by O.  The self-dual forms are preserved
    by the whole Lie algebra, and only the elements of O of determinant -1
    move them.  The generator walk rejects exactly where the dense
    full-basis walk does."""
    from curvlab.linalg import Subspace

    s = complex4
    sub = {"coordinate2": Subspace.from_vectors([{1: F(1)}], 16),
           "coordinate4": Subspace.from_vectors([{1: F(1)}], 4 ** 4),
           "omega_line": catalog(s).two_tensors.omega_line,
           "self_dual": _self_dual_forms()}[module]
    basis = oracles.dense(sub)
    dense_first = next(({"action": action, "element": idx, "basis_vector": b}
                        for action, idx, act in _dense_actions(s, group) for b, row in enumerate(basis)
                        if not oracles.span_contains(basis, _dense_image(s, sub, act, row))), None)
    assert (dense_first is not None) == (module not in ("omega_line", "self_dual") or group == "O")
    got = invariance_witness(sub, s, group)
    assert (got is not None) == (dense_first is not None)
    if module == "self_dual" and group == "O":
        # the full walk's reflection; the certificate's 4-cycle, of
        # determinant -1, is the first element after the rotation to move them
        assert dense_first == {"action": "component_rep", "element": 1, "basis_vector": 0}
        assert got == _first_dense_failure(_dense_certificate_walk(s, sub, group))
        assert got == {"action": "cycle", "element": 0, "basis_vector": 0}


@pytest.mark.parametrize("n,kind,sig", [(4, "complex", None), (4, "para", None)]
                         + [(6, kind, sig) for kind, sig in SPACES_6])
def test_sign_characters_match_slot_pullback(n, kind, sig):
    """Each component representative, applied as the sign s_a*s_b of its
    flips on every rank-2 coordinate pair, and each sign-block cycle, applied
    through its pair table, give the slot-by-slot pull-back of the oracle on
    every catalog basis vector: by the representative, and by the transpose
    of the cycle's permutation matrix."""
    s = make_standard(n, kind, sig)
    spaces = build_catalog(s).all_spaces()
    for group in ("O", "Ustar"):
        moves = []
        for g in component_reps(s, group):
            flips = [i for i in range(n) if g[i * n + i] == -1]
            den, rows = action_rows(g, n)
            assert (den, len(g)) == (1, n)
            moves.append((signed_pair_table(range(n), flips), rows))
        for perm in generating_set(s, group).cycles:
            _, rows = action_rows({a * n + perm[a]: 1 for a in range(n)}, n)
            moves.append((signed_pair_table(perm, ()), rows))
        for signed, rows in moves:
            for name, sub in spaces:
                rank = 2 if sub.ambient_dim == n * n else 4
                for vec in sub.basis_dicts():
                    got = permute_vec(*signed, vec, rank, n)
                    assert got == oracles.pullback_apply_vec(rows, vec, rank, n), name


@pytest.mark.parametrize("n,kind,sig", [(4, "complex", None), (4, "para", None)]
                         + [(6, kind, sig) for kind, sig in SPACES_6])
def test_unextended_commutant_matches_dense_full_basis_oracle(n, kind, sig):
    """eq4d's unextended commutant, read off the generator matrices and the
    U representatives, is 2, as the dense commutant of the whole U basis and
    every U representative says."""
    s = make_standard(n, kind, sig)
    sub = catalog(s).two_tensors.alt_opposed
    dense = [_dense_matrix(s, sub, act) for _, _, act in _dense_actions(s, "U")]
    assert oracles.commutant_dimension(dense) == 2
    assert run_claim("eq4d", s).quantities["commutant_dimension_unextended_group"] == 2

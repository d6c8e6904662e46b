"""Tensor calculus: defect operators, the two curvature maps, group actions,
invariant contractions.  Expected values were derived by hand evaluation of
the defining formulas and are asserted exactly."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab.linalg import Subspace, kernel_subspace
from curvlab.spaces import (
    lie_algebra_basis,
    make_standard,
    parity_mask,
    random_lie_elements,
    signed_pair_table,
    structure_reversal,
    unit_bits,
)
from curvlab.tensors import (
    Tensor4,
    action_rows,
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
    derivation_table,
    flatten4,
    EVEN_PAIR_WORDS,
    SLOT_PAIRINGS,
    invariant_contraction_row,
    is_antisymmetric,
    is_structure_eigenform,
    kaehler_form,
    kaehler_rows,
    lie_apply_vec,
    permute_vec,
    metric_tensor2,
    psi_map,
    ricci,
    ricci_rows,
    riemann_rows,
    sigma,
    slot_kernel_rows,
    two_form_basis,
    unflatten4,
    weyl_rows,
)
import oracles
from oracles import Matrix, alt_ricci, lie_action, psi_map_dense, pullback, pullback_apply_vec, sigma_dense, sparse

F = Fraction


def h_tensor_product(space):
    """h (x) h as a rank-4 tensor."""
    n = space.n
    entries = {}
    for i in range(n):
        for k in range(n):
            entries[(i, i, k, k)] = space.eps[i] * space.eps[k]
    return tensor4(n, entries)


def tensor4(n, entries):
    """Rank-4 tensor with the given {(i, j, k, l): value} components, zero elsewhere."""
    return Tensor4.from_dict(n, {flatten4(n, *idx): v for idx, v in entries.items()})


def dense_sigma(psi, space):
    """The sparse five-term image as a dense tensor, for the dense defect operators."""
    return Tensor4.from_dict(space.n, sigma(psi, space))


def component(vec, n, *idx):
    """Component (i, j, k, l) of a rank-4 coordinate dict."""
    return vec.get(flatten4(n, *idx), 0)


# --- defect operators ----------------------------------------------------------


def test_defect_antisym_on_symmetric_product(complex4):
    hh = h_tensor_product(complex4)
    assert defect_antisym(hh) == Tensor4(4, tuple(2 * v for v in hh.components))


def test_tensor4_rejects_a_wrong_component_count():
    with pytest.raises(ValueError, match="n\\^4"):
        Tensor4(2, (0,) * 3)
    with pytest.raises(ValueError):
        Tensor4(2, (0,) * 17)
    assert Tensor4(2, (0,) * 16).is_zero()


def test_defect_antisym_zero_tensor(complex4):
    assert defect_antisym(tensor4(4, {})).is_zero()


def test_defect_antisym_kills_sigma_of_omega(complex4):
    s_omega = dense_sigma(kaehler_form(complex4), complex4)
    assert defect_antisym(s_omega).is_zero()


def test_defect_bianchi_single_component():
    t = tensor4(4, {(0, 1, 2, 3): 1})
    d = defect_bianchi(t)
    assert d[0, 1, 2, 3] == 1
    assert d[2, 0, 1, 3] == 1
    assert d[1, 2, 0, 3] == 1
    assert not d.is_zero()


def test_defect_bianchi_on_sigma_images(complex4):
    for psi in two_form_basis(4):
        assert defect_bianchi(dense_sigma(psi, complex4)).is_zero()


def test_ricci_of_sigma_is_scaled_form(complex4):
    # direct contraction gives Ric = -n psi for the five-term map
    psi = two_form_basis(4)[0]
    ric = ricci(dense_sigma(psi, complex4), complex4)
    assert ric == {c: -4 * v for c, v in psi.items()}
    assert alt_ricci(dense_sigma(psi, complex4), complex4)


def test_ricci_zero_tensor(complex4):
    assert ricci(tensor4(4, {}), complex4) == {}


def test_defect_weyl_zero_on_sigma_images(para4):
    for psi in two_form_basis(4):
        assert defect_weyl(dense_sigma(psi, para4), para4).is_zero()


def test_defect_riemann_on_sigma():
    s = make_standard(4, "complex")
    psi = two_form_basis(4)[0]
    d = defect_riemann(dense_sigma(psi, s))
    # pair symmetrization of the five-term map equals 4 psi(x,y) h(z,w)
    n = 4
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    expected = 4 * psi.get(x * n + y, 0) * (s.eps[z] if z == w else 0)
                    assert d[x, y, z, w] == expected


def test_defect_kaehler_on_sigma_omega(complex4):
    s_omega = dense_sigma(kaehler_form(complex4), complex4)
    d = defect_kaehler(s_omega, complex4)
    assert d[0, 3, 2, 0] == -2  # -h11*h44 - (+h11*h44) with the definite metric
    assert not d.is_zero()


def test_defect_kaehler_requires_structure():
    s = make_standard(3, "none")
    with pytest.raises(ValueError):
        defect_kaehler(tensor4(3, {}), s)


# --- probe values of the two maps at fixed basis tuples --------------------------


@pytest.mark.parametrize("kind,sig", [("complex", (6, 0)), ("complex", (4, 2)), ("para", None)])
def test_sigma_fundamental_form_value(kind, sig):
    s = make_standard(6, kind, sig)
    s_omega = sigma(kaehler_form(s), s)
    assert component(s_omega, 6, 0, 3, 2, 0) == -s.eps[0] * s.eps[3]


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_psi_map_values(kind):
    from curvlab.curvature import probe_opposed_form

    s = make_standard(6, kind)
    psi = probe_opposed_form(s)
    p = psi_map(psi, s)
    assert component(p, 6, 4, 0, 2, 4) == 0
    assert component(p, 6, 4, 0, 3, 5) == -s.eps[4]
    assert component(p, 6, 4, 5, 0, 3) == 2 * s.eps[4]
    sp = sigma(psi, s)
    assert component(sp, 6, 4, 0, 3, 5) == 0
    assert component(sp, 6, 4, 0, 2, 4) == -s.eps[4]


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_integer_forms_have_integer_images(n, kind):
    """Integer in, integer out: sigma and psi_map of an ``int`` form hold
    ``int`` values equal, entry by entry, to the images of the same form as
    ``Fraction``s, which stay ``Fraction``s.  Over every 2-form basis row,
    every built-in form and the opposed basis; psi_map rejects a form that is
    not opposed in either representation."""
    from curvlab.curvature import catalog, probe_aligned_form, probe_opposed_form

    s = make_standard(n, kind)
    forms = two_form_basis(n) + catalog(s).two_tensors.alt_opposed.basis_dicts()
    for form in (kaehler_form(s), probe_opposed_form(s), probe_aligned_form(s)):
        assert all(v.denominator == 1 for v in form.values())
        forms.append({c: int(v) for c, v in form.items()})
    opposed = 0
    for psi in forms:
        assert all(type(v) is int for v in psi.values())
        as_fractions = {c: F(v) for c, v in psi.items()}
        maps = [sigma]
        if is_structure_eigenform(psi, s):
            maps.append(psi_map)
            opposed += 1
        else:
            for form in (psi, as_fractions):
                with pytest.raises(ValueError):
                    psi_map(form, s)
        for mapper in maps:
            image = mapper(psi, s)
            assert image and all(type(v) is int for v in image.values())
            exact = mapper(as_fractions, s)
            assert all(type(v) is F for v in exact.values())
            assert image == exact
    assert opposed > 1


def test_sigma_rejects_non_antisymmetric(complex4):
    with pytest.raises(ValueError):
        sigma(metric_tensor2(complex4), complex4)


def test_psi_map_rejects_wrong_eigenform(complex6):
    # the fundamental form sits in the aligned eigenspace, not the opposed one
    with pytest.raises(ValueError):
        psi_map(kaehler_form(complex6), complex6)


def test_sigma_zero_is_zero(complex4):
    assert sigma({}, complex4) == {}


def test_is_antisymmetric():
    assert is_antisymmetric({}, 4)
    assert is_antisymmetric({1: F(2), 4: F(-2)}, 4)
    assert not is_antisymmetric({1: F(2)}, 4)  # (0, 1) set, (1, 0) missing
    assert not is_antisymmetric({1: F(2), 4: F(2)}, 4)
    assert not is_antisymmetric({5: F(1)}, 4)  # a diagonal entry


# --- sigma properties over whole bases -------------------------------------------


@pytest.mark.parametrize(
    "kind,n,sig",
    [("complex", 4, None), ("para", 4, None), ("complex", 6, None), ("para", 6, None), ("complex", 6, (4, 2))],
)
def test_sigma_satisfies_weyl_symmetries(kind, n, sig):
    s = make_standard(n, kind, sig)
    for psi in two_form_basis(n):
        image = dense_sigma(psi, s)
        assert defect_antisym(image).is_zero()
        assert defect_bianchi(image).is_zero()
        assert defect_weyl(image, s).is_zero()
        assert not defect_riemann(image).is_zero()


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_psi_map_image_is_riemannian(kind):
    from curvlab.curvature import catalog

    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    for psi in split.alt_opposed.basis_dicts():
        image = Tensor4.from_dict(6, psi_map(psi, s))
        assert defect_antisym(image).is_zero()
        assert defect_bianchi(image).is_zero()
        assert defect_riemann(image).is_zero()


# --- pull-backs and infinitesimal actions ----------------------------------------


def test_pullback_identity(complex4):
    hh = h_tensor_product(complex4)
    assert pullback(Matrix.identity(4), hh) == hh


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_pullback_of_metric_by_structure(kind):
    s = make_standard(4, kind)
    h = metric_tensor2(s)
    expected = h if kind == "complex" else {c: -v for c, v in h.items()}
    assert pullback(Matrix.from_dict(4, s.j), h) == expected


def test_pullback_of_form_by_reversal(complex4):
    g0 = Matrix.from_dict(4, structure_reversal(complex4))
    omega = kaehler_form(complex4)
    assert pullback(g0, omega) == {c: -v for c, v in omega.items()}


def test_lie_action_zero_matrix(complex4):
    assert lie_action(Matrix.zero(4, 4), kaehler_form(complex4)) == {}


def test_lie_action_annihilates_invariants(complex6):
    h = metric_tensor2(complex6)
    omega = kaehler_form(complex6)
    for x in lie_algebra_basis(complex6, "O"):
        assert lie_action(Matrix.from_dict(6, x), h) == {}
    for x in lie_algebra_basis(complex6, "U"):
        assert lie_action(Matrix.from_dict(6, x), omega) == {}


# --- invariant contractions -------------------------------------------------------


def on_product(row, theta, phi, n):
    """A contraction row evaluated on theta (x) phi: theta at c // n^2, phi at c % n^2."""
    return sum((v * theta.get(c // n ** 2, 0) * phi.get(c % n ** 2, 0) for c, v in row.items()), F(0))


def test_invariant_contraction_h_product(complex6):
    h = metric_tensor2(complex6)
    assert on_product(invariant_contraction_row((0, 1, 2, 3), (0, 0), complex6), h, h, 6) == 36


def test_invariant_contraction_crossed_pairing(complex6):
    h = metric_tensor2(complex6)
    assert on_product(invariant_contraction_row((0, 2, 1, 3), (0, 0), complex6), h, h, 6) == 6


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_invariant_contraction_form_product(kind):
    s = make_standard(6, kind)
    omega = kaehler_form(s)
    assert on_product(invariant_contraction_row((0, 1, 2, 3), (1, 1), s), omega, omega, 6) == 36


def test_invariant_contraction_validation(complex4):
    with pytest.raises(ValueError):
        invariant_contraction_row((0, 1, 2, 2), (0, 0), complex4)
    with pytest.raises(ValueError):
        invariant_contraction_row((0, 1, 2, 3), (0, 2), complex4)
    with pytest.raises(ValueError):
        invariant_contraction_row((0, 1, 2, 3), (1, 1), make_standard(4, "none"))


@pytest.mark.parametrize("word", [(2,), (2, 2), (0, 1, 2)])
def test_invariant_contraction_product_rejects_bad_word(complex4, word):
    with pytest.raises(ValueError):
        invariant_contraction_row((0, 1, 2, 3), word, complex4)


def random_tensor2(rng, n, count=8):
    return {rng.randrange(n * n): F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(count)}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", ["complex", "para"])
def test_contraction_rows_match_per_pair_oracle(n, kind):
    """Every permutation and word: the row on theta (x) phi is the oracle's
    contraction of the product, on seeded random rank-2 tensors."""
    s = make_standard(n, kind)
    rng = random.Random(10 * n + len(kind))
    pairs = [(random_tensor2(rng, n), random_tensor2(rng, n)) for _ in range(3)]
    pairs.append((metric_tensor2(s), kaehler_form(s)))
    for perm in permutations(range(4)):
        for word in ((0, 0), (0, 1), (1, 0), (1, 1)):
            row = invariant_contraction_row(perm, word, s)
            for theta, phi in pairs:
                assert on_product(row, theta, phi, n) == oracles.invariant_contraction_product(
                    theta, phi, perm, word, s), (perm, word)


def _pairing(perm):
    """The split of the four slots into the pairs that ``perm`` contracts."""
    return frozenset((frozenset(perm[:2]), frozenset(perm[2:])))


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")]
                         + [(6, "complex", (4, 2))])
def test_every_slot_permutation_gives_its_pairings_row_up_to_sign(n, kind, sig):
    """Both pairs of an even word carry the same tensor, the metric
    (symmetric) or the fundamental form (antisymmetric), so each of the 48
    rows of the 24 slot permutations and the two words is plus or minus the
    row of its slot pairing and word, and of no other: the 6 rows that
    invariant_rows reads hold every one of them, up to sign."""
    s = make_standard(n, kind, sig)
    assert len({_pairing(p) for p in SLOT_PAIRINGS}) == len(SLOT_PAIRINGS) == 3
    rows = {(_pairing(p), word): invariant_contraction_row(p, word, s)
            for p in SLOT_PAIRINGS for word in EVEN_PAIR_WORDS}
    for perm in permutations(range(4)):
        for word in EVEN_PAIR_WORDS:
            row = invariant_contraction_row(perm, word, s)
            negated = {c: -v for c, v in row.items()}
            assert row
            assert [key for key, r in rows.items() if r in (row, negated)] == [(_pairing(perm), word)], (perm, word)


def test_invariance_of_contractions_under_reps(complex6):
    """Each even-word row is fixed by the pull-back of every extended-group
    representative, for every slot permutation."""
    from curvlab.spaces import component_reps

    reps = [[i for i in range(6) if g[i * 6 + i] == -1] for g in component_reps(complex6, "Ustar")]
    assert len(reps) == 2
    for perm in permutations(range(4)):
        for word in EVEN_PAIR_WORDS:
            row = invariant_contraction_row(perm, word, complex6)
            for flips in reps:
                assert permute_vec(*signed_pair_table(range(6), flips), row, 4, 6) == row


# --- sparse/dense agreement --------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
def test_sparse_applies_match_dense(seed):
    """Each structure and Ricci row, evaluated on a random tensor, is the
    dense defect or contraction at the row's leading key; the structure rows
    touch exactly the components whose first pair has i < j, and the Ricci
    rows every pair."""
    rng = random.Random(seed)
    s = make_standard(4, "para")
    entries = {}
    for _ in range(8):
        idx = tuple(rng.randrange(4) for _ in range(4))
        entries[idx] = F(rng.randint(-4, 4), rng.randint(1, 3))
    t = tensor4(4, entries)
    vec = sparse(t.components)

    def value(row):
        return sum((v * vec.get(c, 0) for c, v in row.items()), F(0))

    defect = defect_kaehler(t, s).components
    rows = kaehler_rows(s)
    for row in rows:
        assert value(row) == defect[min(row)]
    i_below_j = {flatten4(4, i, j, k, l) for i in range(4) for j in range(i + 1, 4) for k in range(4) for l in range(4)}
    assert set().union(*rows) == i_below_j
    ric = ricci(t, s)
    pairs = []
    for row in ricci_rows(s):
        _, x, y, _ = unflatten4(4, min(row))
        assert value(row) == ric.get(x * 4 + y, 0)
        pairs.append(x * 4 + y)
    assert sorted(pairs) == list(range(4 ** 2))


def _scaled_down(image, scale, n=4, rank=4):
    """An integer image of the sparse actions, divided by its scale, as the
    oracles give it: a dense tensor at rank 4, a dict of nonzeros at rank 2
    (a Lie image keeps cancelled entries as zeros)."""
    assert all(type(v) is int for v in image.values())
    if rank == 2:
        return {c: F(v, scale) for c, v in image.items() if v}
    return Tensor4.from_dict(n, {c: F(v, scale) for c, v in image.items()})


def _random_int_vec(rng, n, rank, count):
    """A seeded integer vector with up to ``count`` nonzero rank-``rank`` coordinates."""
    return {rng.randrange(n ** rank): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count)}


def _lie_oracle(n, x, vec, rank):
    """The dense infinitesimal action of ``x`` on an integer vector."""
    theta = Tensor4.from_dict(n, vec) if rank == 4 else {c: F(v) for c, v in vec.items()}
    return lie_action(Matrix.from_dict(n, x), theta)


def _lie_scaled_down(n, x, vec, rank):
    """The sparse Lie action of ``x`` through its derivation table, divided by its scale."""
    den, rows = action_rows(x, n)
    return _scaled_down(lie_apply_vec(derivation_table(rows, n), vec, rank, n), den, n, rank)


@given(st.integers(min_value=0, max_value=10**6))
def test_sparse_actions_match_dense(seed):
    """The sparse Lie action through a derivation table, and the signed-pair
    and slot-by-slot pull-backs, against the dense oracles: at rank 4 and
    rank 2, at n = 4 on a U basis element and a rational U element, and at
    n = 6 with signature (4, 2) on an O(p, q) generator, nonzero in two rows,
    and a rational O element, nonzero in every row."""
    rng = random.Random(seed)
    s = make_standard(4, "complex")
    entries = {tuple(rng.randrange(4) for _ in range(4)): F(rng.randint(-3, 3)) for _ in range(6)}
    t = tensor4(4, entries)
    x = lie_algebra_basis(s, "U")[rng.randrange(4)]
    g = structure_reversal(s)
    vec = {c: int(v) for c, v in sparse(t.components).items()}
    assert _lie_scaled_down(4, x, vec, 4) == lie_action(Matrix.from_dict(4, x), t)
    den, rows = action_rows(g, 4)
    assert _scaled_down(pullback_apply_vec(rows, vec, 4, 4), den ** 4) == pullback(Matrix.from_dict(4, g), t)
    flips = [i for i in range(4) if g[i * 5] == -1]
    signed = signed_pair_table(range(4), flips)
    assert _scaled_down(permute_vec(*signed, vec, 4, 4), 1) == pullback(Matrix.from_dict(4, g), t)
    # a rational element: the integer table carries its common denominator
    y = random_lie_elements(s, "U", 1, seed=1)[0]
    den, rows = action_rows(y, 4)
    assert den > 1
    assert _lie_scaled_down(4, y, vec, 4) == lie_action(Matrix.from_dict(4, y), t)
    assert _scaled_down(pullback_apply_vec(rows, vec, 4, 4), den ** 4) == pullback(Matrix.from_dict(4, y), t)
    # rank 2: the same elements on a 2-tensor
    vec2 = _random_int_vec(rng, 4, 2, 5)
    for z in (x, y):
        assert _lie_scaled_down(4, z, vec2, 2) == _lie_oracle(4, z, vec2, 2)
    assert _scaled_down(permute_vec(*signed, vec2, 2, 4), 1, 4, 2) == pullback(Matrix.from_dict(4, g),
                                                                             {c: F(v) for c, v in vec2.items()})
    # n = 6, signature (4, 2): a generator of o(4, 2) and a dense rational element
    s6 = make_standard(6, "complex", (4, 2))
    gen = lie_algebra_basis(s6, "O")[rng.randrange(15)]
    dense_x = random_lie_elements(s6, "O", 1, seed=seed)[0]
    assert sum(1 for row in action_rows(gen, 6)[1] if row) == 2
    assert all(action_rows(dense_x, 6)[1])
    for rank in (2, 4):
        v = _random_int_vec(rng, 6, rank, 6)
        for z in (gen, dense_x):
            assert _lie_scaled_down(6, z, v, rank) == _lie_oracle(6, z, v, rank)


@given(st.integers(min_value=0, max_value=10**6))
def test_signed_permutation_images_match_dense(seed):
    """``permute_vec`` through a signed pair table is the dense pull-back by
    the inverse D Pᵀ of the signed permutation P D, P e_a = e_perm[a] and D
    the sign diagonal of the flips, at rank 2 and rank 4 (n = 6)."""
    rng = random.Random(seed)
    n = 6
    perm = list(range(n))
    rng.shuffle(perm)
    flips = rng.sample(range(n), rng.randint(0, n))
    d = Matrix.diagonal([-1 if a in flips else 1 for a in range(n)])
    inverse = d.mul(oracles.transpose(oracles.permutation_matrix(perm)))
    for rank in (2, 4):
        vec = _random_int_vec(rng, n, rank, 6)
        theta = Tensor4.from_dict(n, vec) if rank == 4 else {c: F(v) for c, v in vec.items()}
        got = permute_vec(*signed_pair_table(perm, flips), vec, rank, n)
        assert _scaled_down(got, 1, n, rank) == pullback(inverse, theta)


# --- the sparse maps against their dense oracles -------------------------------------


def _random_two_forms(n, rng, count):
    """Seeded random rational 2-forms with a few nonzero (i < j) components."""
    forms = []
    for _ in range(count):
        psi = {}
        for _ in range(rng.randint(1, n)):
            i, j = sorted(rng.sample(range(n), 2))
            v = F(rng.randint(-5, 5), rng.randint(1, 4))
            psi[i * n + j], psi[j * n + i] = v, -v
        forms.append(psi)
    return forms


SPARSE_MAP_CASES = [(4, "complex", None), (4, "para", None), (6, "complex", None), (6, "para", None),
                    (6, "complex", (4, 2))]


@pytest.mark.parametrize("n,kind,sig", SPARSE_MAP_CASES)
def test_sparse_maps_match_dense_oracle(n, kind, sig):
    """sigma and psi_map write their images straight into a dict; the textbook
    dense loops in the oracle must give the same components."""
    from curvlab.curvature import catalog, probe_aligned_form, probe_opposed_form

    s = make_standard(n, kind, sig)
    rng = random.Random(7 * n + len(kind))
    forms = two_form_basis(n) + _random_two_forms(n, rng, 6)
    forms += [kaehler_form(s), probe_aligned_form(s), probe_opposed_form(s)]
    for psi in forms:
        assert sigma(psi, s) == sparse(sigma_dense(psi, s).components)
    opposed = catalog(s).two_tensors.alt_opposed.basis_dicts()
    mixed = {}
    for vec in opposed:
        coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
        for c, v in vec.items():
            mixed[c] = mixed.get(c, 0) + coeff * v
    for psi in opposed + [probe_opposed_form(s), mixed]:
        assert psi_map(psi, s) == sparse(psi_map_dense(psi, s).components)


# --- gradings of the constraint rows --------------------------------------------


def _grade(c, slots, n, bit):
    """XOR of 1 << bit(index) over the indices of flat coordinate c."""
    g = 0
    for _ in range(slots):
        c, a = divmod(c, n)
        g ^= 1 << bit(a)
    return g


@pytest.mark.parametrize(
    "n,kind,sig",
    [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")]
    + [(6, "none", (4, 2)), (6, "complex", (4, 2))],
)
def test_every_row_is_homogeneous_for_its_grading(n, kind, sig):
    """The diagonal sign matrices fix the metric and every condition, so each
    symmetry and Ricci row stays in one axis parity of its columns (the
    first-pair and cyclic rows over their three slots, as K's closed-form
    rows under their keyed masks); J keeps each J-plane, so each structure
    row stays in one plane parity."""
    s = make_standard(n, kind, sig)
    axis = lambda a: a
    keyed = slot_kernel_rows(n, [1 << a for a in range(n)])
    assert [(mask, row) for mask, rows in keyed.items() for row in rows
            if {_grade(c, 3, n, axis) for c in row[::2]} != {mask}] == []
    graded = [
        (riemann_rows(n), 4, axis),
        (weyl_rows(s), 4, axis),
        (ricci_rows(s), 4, axis),
    ]
    if kind != "none":
        graded.append((kaehler_rows(s), 4, lambda a: a // 2))
    mixed = [row for rows, slots, bit in graded for row in rows
             if len({_grade(c, slots, n, bit) for c in row}) > 1]
    assert mixed == []


@pytest.mark.parametrize("n", range(2, 17))
def test_k_by_class_is_the_kernel_of_the_rank3_rows(n):
    """K written one index class at a time is, byte for byte, the kernel over
    all n^3 rank-3 coordinates of the first-pair and cyclic rows."""
    rows = slot_kernel_rows(n, [1 << a for a in range(n)])
    k = Subspace(n ** 3, tuple(sorted(row for group in rows.values() for row in group)))
    assert k == kernel_subspace(oracles.antisym_rows(n) + oracles.bianchi_rows(n), n ** 3)
    assert k.dim == n * (n * n - 1) // 3


@pytest.mark.parametrize("n,kind,sig", [(6, "none", None), (6, "complex", None), (6, "para", None),
                                        (6, "complex", (4, 2)), (8, "complex", None)])
def test_each_catalog_keys_k_by_its_own_units(n, kind, sig):
    """Each catalog, and its axis twin, keys every row of K by the rank-3
    parity mask of its coordinates under its own units."""
    from curvlab.curvature import catalog

    cat = catalog(make_standard(n, kind, sig))
    for c in (cat, cat.axes):
        bits = unit_bits(c.space)
        assert [(mask, row) for mask, rows in c.slots_by_mask.items() for row in rows
                if {parity_mask(bits, n, col, 3) for col in row[::2]} != {mask}] == []

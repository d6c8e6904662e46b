"""Model spaces: structure matrices, signatures, group data."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from curvlab.linalg import kernel_subspace
from curvlab.spaces import (
    closure_spans,
    component_reps,
    generating_set,
    j_pullback_rows,
    j_pullback_table,
    j_signed_permutation,
    lie_algebra_basis,
    make_standard,
    random_lie_elements,
    structure_reversal,
    structure_sign,
)
from oracles import (
    Matrix,
    commuting_lie_rows,
    component_label,
    dense,
    dense_kernel,
    gram,
    permutation_matrix,
    pullback,
    same_span,
    transpose,
)

F = Fraction


def test_structure_sign_table():
    assert structure_sign("para") == 1
    assert structure_sign("complex") == -1
    with pytest.raises(ValueError):
        structure_sign("none")


def test_standard_complex_definite():
    s = make_standard(6, "complex", (6, 0))
    assert s.eps == (1,) * 6
    j = Matrix.from_dict(6, s.j)
    assert j.mul(j) == Matrix.identity(6).scale(-1)
    # pull-back test J*h = h
    assert transpose(j).mul(gram(s)).mul(j) == gram(s)


def test_standard_para_neutral():
    s = make_standard(4, "para", (2, 2))
    assert s.eps == (1, -1, 1, -1)
    j = Matrix.from_dict(4, s.j)
    assert j.mul(j) == Matrix.identity(4)
    assert sum(j[i, i] for i in range(4)) == 0
    # pull-back test J*h = -h
    assert transpose(j).mul(gram(s)).mul(j) == gram(s).scale(-1)


def test_plain_space():
    s = make_standard(3, "none", (3, 0))
    assert s.j is None
    assert s.signature == (3, 0)


def test_indefinite_complex_layout():
    s = make_standard(6, "complex", (4, 2))
    assert s.eps == (1, 1, 1, 1, -1, -1)  # negative planes last


def test_para_flipped_layout():
    s = make_standard(6, "para", eps=(-1, 1, -1, 1, -1, 1))
    assert s.signature == (3, 3)


def test_construction_errors():
    with pytest.raises(ValueError):
        make_standard(5, "complex")  # odd n with structure
    with pytest.raises(ValueError):
        make_standard(4, "para", (3, 1))  # para forces neutral signature
    with pytest.raises(ValueError):
        make_standard(4, "complex", eps=(1, -1, 1, 1))  # signs differ within a plane
    with pytest.raises(ValueError):
        make_standard(4, "complex", (3, 1))  # odd counts
    with pytest.raises(ValueError):
        make_standard(2, "complex")  # structures need n >= 4
    for n in (3, 5):
        with pytest.raises(ValueError):
            make_standard(n, "para")  # rejected before the structure matrix is built


@pytest.mark.parametrize("n,kind,signature,eps,message", [
    (-2, "none", None, None, "need n >= 2"),
    (1, "none", (1, 0), None, "need n >= 2"),
    (0, "none", None, (), "need n >= 2"),
    (-2, "para", None, None, "structures require even n >= 4"),
    (5, "complex", None, None, "structures require even n >= 4"),
    (3, "para", None, None, "structures require even n >= 4"),
    (2, "complex", (2, 0), None, "structures require even n >= 4"),
    (5, "complex", None, (1, 1, 1, 1, 1), "structures require even n >= 4"),
    (3, "para", (1, 2), None, "structures require even n >= 4"),
])
def test_invalid_n_is_reported_before_the_signature(n, kind, signature, eps, message):
    with pytest.raises(ValueError) as info:
        make_standard(n, kind, signature, eps)
    assert str(info.value) == message


def test_j_signed_permutation():
    s = make_standard(4, "complex")
    perm = j_signed_permutation(s)
    assert perm == ((1, 1), (0, -1), (3, 1), (2, -1))
    sp = make_standard(4, "para")
    assert j_signed_permutation(sp) == ((1, 1), (0, 1), (3, 1), (2, 1))


# --- Lie algebras ------------------------------------------------------------


def test_orthogonal_lie_algebra_dims():
    for n, sig in ((3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (5, (3, 2))):
        s = make_standard(n, "none", sig)
        basis = lie_algebra_basis(s, "O")
        assert len(basis) == n * (n - 1) // 2


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_unitary_lie_algebra_dims(kind):
    s = make_standard(4, kind)
    assert len(lie_algebra_basis(s, "U")) == 4  # (n/2)^2
    assert lie_algebra_basis(s, "Ustar") == lie_algebra_basis(s, "U")
    s6 = make_standard(6, kind)
    assert len(lie_algebra_basis(s6, "U")) == 9


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_generating_set_sizes(kind):
    """One Lie element of o(p,q) and two of u, both starting at basis index
    0, with one cycle per sign block (complex O: the n axes; para O: the
    positive and the negative axes; U: the m planes); Ustar shares U's Lie
    elements and cycles, and the set is made once per (space, group)."""
    for n in (4, 6, 8, 10):
        s = make_standard(n, kind)
        o, u = generating_set(s, "O"), generating_set(s, "U")
        assert (len(o.lie), len(u.lie)) == (1, 2)
        assert (len(o.cycles), len(u.cycles)) == ({"complex": 1, "para": 2}[kind], 1)
        assert o.lie[0][0] == u.lie[0][0] == 0
        basis = lie_algebra_basis(s, "U")
        assert all(x == basis[i] for i, x in u.lie)
        ustar = generating_set(s, "Ustar")
        assert (ustar.lie, ustar.cycles) == (u.lie, u.cycles)
        assert generating_set(s, "O") is o
    # the boost in the mixed plane (0, 4), and the cycles of both sign blocks
    mixed = generating_set(make_standard(8, "complex", (4, 4)), "O")
    assert ([i for i, _ in mixed.lie], mixed.cycles) == ([3], ((1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)))
    odd = generating_set(make_standard(5, "none", (3, 2)), "O")
    assert ([i for i, _ in odd.lie], odd.cycles) == ([2], ((1, 2, 0, 3, 4), (0, 1, 2, 4, 3)))


GENERATED_SPACES = [(n, kind, None) for n in (4, 6, 8) for kind in ("complex", "para")] + [
    (5, "none", None), (5, "none", (3, 2)), (6, "none", (4, 2)), (6, "complex", (4, 2)),
    (6, "complex", (2, 4)), (8, "complex", (4, 4)), (4, "complex", (2, 2)),
]


def _groups(space):
    return ("O",) if space.kind == "none" else ("O", "U", "Ustar")


@pytest.mark.parametrize("n,kind,sig", GENERATED_SPACES)
def test_lie_picks_are_the_documented_elements(n, kind, sig):
    """O: a boost in the first mixed plane of the basis when both signs occur,
    else the rotation in (e_0, e_1).  U and Ustar: a multiple of J on plane
    0, then an element mixing plane 0 with the first plane whose signs
    differ from plane 0's, or with plane 1; both commute with J."""
    s = make_standard(n, kind, sig)
    eps = s.eps
    for group in _groups(s):
        lie = [Matrix.from_dict(n, x) for _, x in generating_set(s, group).lie]
        support = [{a for a in range(n) for b in range(n) if x[a, b] or x[b, a]} for x in lie]
        if group == "O":
            planes = [(a, b) for a in range(n) for b in range(a + 1, n)]
            plane = next(((a, b) for a, b in planes if eps[a] != eps[b]), (0, 1))
            assert support == [set(plane)]
            a, b = plane
            # a boost is symmetric, a rotation antisymmetric
            assert lie[0][a, b] == (1 if eps[a] != eps[b] else -1) * lie[0][b, a]
            continue
        j = Matrix.from_dict(n, s.j)
        k = next((k for k in range(0, n, 2) if eps[k:k + 2] != eps[:2]), 2)
        assert support == [{0, 1}, {0, 1, k, k + 1}]
        j0 = Matrix.from_rows([[j[a, b] if a < 2 and b < 2 else 0 for b in range(n)] for a in range(n)])
        assert lie[0] in (j0, j0.scale(-1))
        assert all(x.mul(j) == j.mul(x) for x in lie)
        assert not any(lie[1][a, b] for a in range(2) for b in range(2))


@pytest.mark.parametrize("n,kind,sig", GENERATED_SPACES)
def test_cycles_are_group_elements_of_their_sign_blocks(n, kind, sig):
    """Each cycle is one cycle through every member of its sign block with
    more than one member, as a dense isometry that commutes with J for U
    and Ustar."""
    s = make_standard(n, kind, sig)
    h = gram(s)
    for group in _groups(s):
        width = 1 if group == "O" else 2
        blocks = {}
        for a in range(0, n, width):
            blocks.setdefault(s.eps[a:a + width], []).append(a)
        cycles = generating_set(s, group).cycles
        assert len(cycles) == sum(len(b) > 1 for b in blocks.values())
        for perm, block in zip(cycles, [b for _, b in sorted(blocks.items(), reverse=True) if len(b) > 1]):
            assert [perm[a] for a in block] == block[1:] + block[:1]
            assert all(perm[a] == a for a in range(n) if a - a % width not in block)
            p = permutation_matrix(perm)
            assert transpose(p).mul(h).mul(p) == h
            if group != "O":
                j = Matrix.from_dict(n, s.j)
                assert p.mul(j) == j.mul(p)


@pytest.mark.parametrize("n,kind,sig", GENERATED_SPACES)
def test_cycles_and_kept_reps_reach_every_component(n, kind, sig):
    """Every component listed by component_reps holds a product of the
    cycles and the kept representatives, by dense products and dense
    determinant labels; a representative is kept exactly when no product of
    the cycles alone lies in its component, and is handed over with the axes
    its diagonal negates."""
    s = make_standard(n, kind, sig)
    for group in _groups(s):
        gens = generating_set(s, group)
        reps = [Matrix.from_dict(n, g) for g in component_reps(s, group)]

        def reached(elements):
            found = {component_label(s, group, Matrix.identity(n)): Matrix.identity(n)}
            frontier = list(found.values())
            while frontier:
                products = [g.mul(x) for g in frontier for x in elements]
                frontier = [g for g in products if component_label(s, group, g) not in found]
                found.update((component_label(s, group, g), g) for g in frontier)
            return set(found)

        cycles = [permutation_matrix(perm) for perm in gens.cycles]
        everything = reached(cycles + [reps[i] for i, _ in gens.reps])
        assert everything == {component_label(s, group, g) for g in reps}, group
        by_cycles = reached(cycles)
        kept = [i for i, g in enumerate(reps) if component_label(s, group, g) not in by_cycles]
        assert list(gens.reps) == [(i, tuple(a for a in range(n) if reps[i][a, a] == -1)) for i in kept], group


@pytest.mark.parametrize("n,kind,sig", [(n, kind, None) for n in range(4, 13, 2) for kind in ("complex", "para")]
                         + [(5, "none", None), (6, "none", None), (12, "complex", (8, 4)), (12, "complex", (4, 8))])
def test_generating_set_is_proven(n, kind, sig):
    """The proof passes for every group of these spaces: each cycle is a group
    element and the closure spans the Lie algebra."""
    s = make_standard(n, kind, sig)
    for group in _groups(s):
        gens = generating_set(s, group)
        assert closure_spans([x for _, x in gens.lie], gens.cycles, lie_algebra_basis(s, group), n)


UNITARY_SPACES = {
    **{f"{n}-{kind}": make_standard(n, kind) for n in (4, 6, 8) for kind in ("complex", "para")},
    "6-complex-4,2": make_standard(6, "complex", (4, 2)),
    "8-complex-4,4": make_standard(8, "complex", (4, 4)),
}


@pytest.mark.parametrize("group", ["U", "Ustar"])
@pytest.mark.parametrize("name", sorted(UNITARY_SPACES))
def test_unitary_basis_is_the_kernel_of_the_commutator_rows(name, group):
    """Witnesses name Lie elements by their index in the basis, so the basis
    cut by J's pull-back must be the canonical kernel of the o(p,q) rows and
    XJ - JX, and each Lie element of the generating set must sit at its
    index in that kernel."""
    space = UNITARY_SPACES[name]
    reference = kernel_subspace(commuting_lie_rows(space), space.n ** 2).basis_dicts()
    assert list(lie_algebra_basis(space, group)) == reference
    assert all(reference[i] == x for i, x in generating_set(space, group).lie)


TABLE_SPACES = {f"{n}-{kind}": make_standard(n, kind) for n in (4, 6) for kind in ("complex", "para")}
TABLE_SPACES["6-complex-4,2"] = make_standard(6, "complex", (4, 2))


@pytest.mark.parametrize("name", sorted(TABLE_SPACES))
def test_pullback_table_is_the_dense_pullback_by_j(name):
    """s * T[Jc] at every c is the dense pull-back of seeded random rank-2
    tensors by J, with ``int`` and ``Fraction`` entries, and the rows of
    (J* - lam) cut the dense kernel of J* - lam at lam = 1 and -1."""
    space = TABLE_SPACES[name]
    n = space.n
    j = Matrix.from_dict(n, space.j)
    table = j_pullback_table(space)
    assert [c for c, _, _ in table] == list(range(n * n))
    rng = random.Random(name)
    for draw in range(6):
        t = {c: rng.randint(-9, 9) for c in range(n * n) if rng.random() < 0.6}
        if draw % 2:
            t = {c: Fraction(v, rng.randint(1, 9)) for c, v in t.items()}
        assert {c: s * t[jc] for c, jc, s in table if t.get(jc)} == pullback(j, t)
    columns = [pullback(j, {d: 1}) for d in range(n * n)]
    for lam in (1, -1):
        dense_rows = [[columns[d].get(c, 0) - (lam if c == d else 0) for d in range(n * n)] for c in range(n * n)]
        kernel = dense(kernel_subspace(j_pullback_rows(space, lam), n * n))
        assert len(kernel) == n * n // 2
        assert same_span(kernel, dense_kernel(dense_rows, n * n))


def test_lie_algebra_infinitesimal_isometry():
    for kind, sig in (("complex", (4, 2)), ("para", None)):
        s = make_standard(6, kind, sig)
        h = gram(s)
        j = Matrix.from_dict(6, s.j)
        for x in lie_algebra_basis(s, "U"):
            x = Matrix.from_dict(6, x)
            assert transpose(x).mul(h).add(h.mul(x)) == Matrix.zero(6, 6)
            assert x.mul(j) == j.mul(x)
    s = make_standard(4, "none", (2, 2))
    h = gram(s)
    basis = lie_algebra_basis(s, "O")
    assert len(basis) == 6
    for x in basis:
        x = Matrix.from_dict(4, x)
        assert transpose(x).mul(h).add(h.mul(x)) == Matrix.zero(4, 4)


def test_group_validation():
    s = make_standard(3, "none")
    with pytest.raises(ValueError):
        lie_algebra_basis(s, "U")
    with pytest.raises(ValueError):
        component_reps(s, "Ustar")
    with pytest.raises(ValueError):
        lie_algebra_basis(s, "SO")


# --- component representatives ------------------------------------------------


def test_reps_are_isometries():
    for kind, sig in (("complex", (6, 0)), ("complex", (4, 2)), ("para", None)):
        s = make_standard(6, kind, sig)
        h = gram(s)
        for group in ("O", "U", "Ustar"):
            for g in component_reps(s, group):
                g = Matrix.from_dict(6, g)
                assert transpose(g).mul(h).mul(g) == h


def test_reps_include_identity():
    s = make_standard(4, "complex")
    for group in ("O", "U", "Ustar"):
        assert Matrix.identity(4) in [Matrix.from_dict(4, g) for g in component_reps(s, group)]


def test_structure_reversal_anticommutes():
    for kind in ("complex", "para"):
        s = make_standard(4, kind)
        g0 = Matrix.from_dict(4, structure_reversal(s))
        j = Matrix.from_dict(4, s.j)
        assert g0 == Matrix.diagonal([1, -1, 1, -1])
        assert g0.mul(j) == j.mul(g0).scale(-1)


def test_ustar_reps_commute_or_anticommute():
    for kind in ("complex", "para"):
        s = make_standard(6, kind)
        j = Matrix.from_dict(6, s.j)
        for g in component_reps(s, "Ustar"):
            g = Matrix.from_dict(6, g)
            gj = g.mul(j)
            jg = j.mul(g)
            assert gj == jg or gj == jg.scale(-1)


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_extended_reps_are_the_reversal_times_the_unitary_reps(kind):
    s = make_standard(6, kind)
    unitary = [Matrix.from_dict(6, g) for g in component_reps(s, "U")]
    g0 = Matrix.from_dict(6, structure_reversal(s))
    extended = [Matrix.from_dict(6, g) for g in component_reps(s, "Ustar")]
    assert extended == unitary + [g0.mul(g) for g in unitary]


def test_para_unitary_second_component_rep():
    s = make_standard(4, "para")
    reps = component_reps(s, "U")
    assert len(reps) == 2
    flip = Matrix.from_dict(4, reps[1])
    j = Matrix.from_dict(4, s.j)
    assert flip == Matrix.diagonal([-1, -1, 1, 1])
    assert flip.mul(j) == j.mul(flip)


def test_o_group_rep_counts():
    assert len(component_reps(make_standard(4, "none", (4, 0)), "O")) == 2
    assert len(component_reps(make_standard(4, "none", (2, 2)), "O")) == 4


# --- seeded random Lie elements ----------------------------------------------------

# sha256 of the JSON list, per element, of its sorted [a*n + b, "p/q"] entries,
# recorded from the dense-matrix code these dicts replaced; the invariance
# certificates of the benchmark read exactly these elements
SEEDED_ELEMENTS = {
    ("complex", "O", 1): "9cbd007baf1e5480f2e81c312c2c6b62558d29bf69ba6c387bcca88396b9ab93",
    ("complex", "O", 2): "36250bd1101cbe22c07c144d65a2d2bc401874e425675755965648af97f7ca4b",
    ("complex", "O", 7): "bacda68fc0c9da819a75550fe1feeb235709c5e536a822ae64213a2a92c3f05c",
    ("complex", "U", 1): "8dbbb590fd716c468092bc17fbcb4084c6b698f5b6fb47b052e2e0cd2a25d83a",
    ("complex", "U", 2): "86ab14323648363da228c1bf43ba7730884ecb2f998f61d35d959f7d2326af9b",
    ("complex", "U", 7): "11a6df36f3dd3a1bd53d12fad4e6b77acc43a14e2f81f0035bba0a20f4a5fac1",
    ("para", "O", 1): "c34b3ef6219899794f4970e715662aa5e2725735a0ae428325df3b59d5594e8e",
    ("para", "O", 2): "13bc1d14acbaa2570ca158dd4acbf6243882904161012f2712a9cc98a21ff9db",
    ("para", "O", 7): "536188abc79073f9a6730ab40874053e65d2337cf1d058573ed79c50282edcb3",
    ("para", "U", 1): "a6af40e920cfa676f1971d09ff8ed324ffef6f44511f7c20e2611ec2474e0f7e",
    ("para", "U", 2): "ca07f352e103b019fdbe8587bb1787827272db3f577cb7505684a296f5761356",
    ("para", "U", 7): "3beb45110b093da126b89c9e7f28d28628d605a877dfc84e042c68c8f3fea86b",
}


@pytest.mark.parametrize("kind,group,seed", sorted(SEEDED_ELEMENTS))
def test_seeded_lie_elements_are_unchanged(kind, group, seed):
    elements = random_lie_elements(make_standard(6, kind), group, 2, seed)
    assert all(v and 0 <= c < 36 for x in elements for c, v in x.items())
    blob = json.dumps([[[c, str(Fraction(v))] for c, v in sorted(x.items())] for x in elements])
    assert hashlib.sha256(blob.encode()).hexdigest() == SEEDED_ELEMENTS[kind, group, seed]

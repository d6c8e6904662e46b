"""Model spaces: structure matrices, signatures, group data."""

from fractions import Fraction

import pytest

from curvlab.linalg import Matrix
from curvlab.spaces import (
    component_reps,
    j_signed_permutation,
    lie_algebra_basis,
    make_standard,
    structure_reversal,
    structure_sign,
)
from oracles import gram, transpose

F = Fraction


def test_structure_sign_table():
    assert structure_sign("para") == 1
    assert structure_sign("complex") == -1
    with pytest.raises(ValueError):
        structure_sign("none")


def test_standard_complex_definite():
    s = make_standard(6, "complex", (6, 0))
    assert s.eps == (1,) * 6
    assert s.j.mul(s.j) == Matrix.identity(6).scale(-1)
    # pull-back test J*h = h
    assert transpose(s.j).mul(gram(s)).mul(s.j) == gram(s)


def test_standard_para_neutral():
    s = make_standard(4, "para", (2, 2))
    assert s.eps == (1, -1, 1, -1)
    assert s.j.mul(s.j) == Matrix.identity(4)
    assert sum(s.j[i, i] for i in range(4)) == 0
    # pull-back test J*h = -h
    assert transpose(s.j).mul(gram(s)).mul(s.j) == gram(s).scale(-1)


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


def test_lie_algebra_infinitesimal_isometry():
    for kind, sig in (("complex", (4, 2)), ("para", None)):
        s = make_standard(6, kind, sig)
        h = gram(s)
        for x in lie_algebra_basis(s, "U"):
            assert transpose(x).mul(h).add(h.mul(x)) == Matrix.zero(6, 6)
            assert x.mul(s.j) == s.j.mul(x)
    s = make_standard(4, "none", (2, 2))
    h = gram(s)
    basis = lie_algebra_basis(s, "O")
    assert len(basis) == 6
    for x in basis:
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
                assert transpose(g).mul(h).mul(g) == h


def test_reps_include_identity():
    s = make_standard(4, "complex")
    for group in ("O", "U", "Ustar"):
        assert Matrix.identity(4) in component_reps(s, group)


def test_structure_reversal_anticommutes():
    for kind in ("complex", "para"):
        s = make_standard(4, kind)
        g0 = structure_reversal(s)
        assert g0 == Matrix.diagonal([1, -1, 1, -1])
        assert g0.mul(s.j) == s.j.mul(g0).scale(-1)


def test_ustar_reps_commute_or_anticommute():
    for kind in ("complex", "para"):
        s = make_standard(6, kind)
        for g in component_reps(s, "Ustar"):
            gj = g.mul(s.j)
            jg = s.j.mul(g)
            assert gj == jg or gj == jg.scale(-1)


def test_para_unitary_second_component_rep():
    s = make_standard(4, "para")
    reps = component_reps(s, "U")
    assert len(reps) == 2
    flip = reps[1]
    assert flip == Matrix.diagonal([-1, -1, 1, 1])
    assert flip.mul(s.j) == s.j.mul(flip)


def test_o_group_rep_counts():
    assert len(component_reps(make_standard(4, "none", (4, 0)), "O")) == 2
    assert len(component_reps(make_standard(4, "none", (2, 2)), "O")) == 4

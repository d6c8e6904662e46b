"""Group-module structure: invariance of every cataloged subspace, commutant
dimensions, invariant-functional spans, and isotropy checks."""

from fractions import Fraction

import pytest

from curvlab.linalg import SubspaceReducer
from curvlab.spaces import component_reps, make_standard, random_lie_elements
from curvlab.curvature import (
    NotInvariantError,
    build_catalog,
    catalog,
    commutant_dimension,
    commutant_dimension_doubled,
    diagonal_pair_line_invariant,
    invariance_witness,
    invariant_span_dimension,
    representation_matrices,
)
from curvlab.tensors import gram_weight2, gram_weight4, lie_apply_vec, pullback_apply_vec

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


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_commutant_dimensions(kind):
    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    assert commutant_dimension(split.alt_opposed, s, "Ustar") == 1
    assert commutant_dimension(split.h_line, s, "Ustar") == 1
    assert commutant_dimension_doubled(split.alt_opposed, s, "Ustar") == 4


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_diagonal_line_family(kind):
    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    for a, b in ((F(1), F(0)), (F(0), F(1)), (F(1), F(-1)), (F(2), F(3))):
        assert diagonal_pair_line_invariant(split.alt_opposed, s, "Ustar", a, b)


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_invariant_span_dimensions(kind):
    s = make_standard(6, kind)
    split = catalog(s).two_tensors
    assert invariant_span_dimension(split.alt_opposed, split.alt_opposed, s) == 1
    # symmetric against antisymmetric distinguished lines pair trivially
    assert invariant_span_dimension(split.h_line, split.omega_line, s) == 0
    from curvlab.linalg import Subspace

    assert invariant_span_dimension(Subspace.zero(36), split.h_line, s) == 0


def test_multiplicity_two_block_inside_weyl(complex6):
    """The two realizations of the opposed module inside the weyl space form
    a multiplicity-two block: the commutant of their direct sum is 4-dim."""
    from curvlab.curvature import _commutant_dimension_of
    from curvlab.linalg import subspace_sum

    s = complex6
    cat = catalog(s)
    pair = subspace_sum(cat.psi_span, cat.sigma_opposed_span)
    assert pair.dim == 12
    lie_mats, rep_mats = representation_matrices(pair, s, "Ustar")
    assert _commutant_dimension_of(lie_mats + rep_mats, 12) == 4


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
            for vec in sub.basis_dicts():
                assert reducer.contains(pullback_apply_vec(g, vec, rank, 4)), name

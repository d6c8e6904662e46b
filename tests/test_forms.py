"""Wedge multiplication of 2-forms by the fundamental form, against the catalog.

The map psi -> psi ^ Omega is the dense oracle ``wedge_omega_matrix``.  It is
injective for n >= 6; at n = 4 it has rank one and its kernel is the
primitive 2-forms, the traceless aligned and the opposed pieces of the
catalog's rank-2 splitting (Huybrechts, Complex Geometry, 2005, section 1.2).
"""

import pytest

import oracles
from curvlab.curvature import catalog
from curvlab.linalg import subspace_sum
from curvlab.spaces import make_standard


def wedge_rank_and_kernel(space):
    matrix = oracles.wedge_omega_matrix(space)
    ncols = space.n * (space.n - 1) // 2
    _, rank, _ = oracles.dense_rref(matrix)
    return rank, oracles.dense_kernel(matrix, ncols)


def primitive_two_forms(space):
    split = catalog(space).two_tensors
    primitive = subspace_sum(split.alt_aligned_traceless, split.alt_opposed)
    return oracles.two_form_coordinates(primitive, space.n)


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_wedge_map_injective_in_dimension_six(kind):
    rank, kernel = wedge_rank_and_kernel(make_standard(6, kind))
    assert rank == 15
    assert kernel == []


@pytest.mark.parametrize("kind", ["complex", "para"])
def test_wedge_map_kernel_in_dimension_four(kind):
    s = make_standard(4, kind)
    rank, kernel = wedge_rank_and_kernel(s)
    assert rank == 1
    assert len(kernel) == 5
    assert oracles.same_span(kernel, primitive_two_forms(s))


def test_wedge_map_kernel_indefinite_complex():
    s = make_standard(4, "complex", (2, 2))
    rank, kernel = wedge_rank_and_kernel(s)
    assert rank == 1
    assert oracles.same_span(kernel, primitive_two_forms(s))

"""Exact-arithmetic laboratory for curvature-tensor decompositions over
para/pseudo-Hermitian inner product spaces."""

from .linalg import Subspace
from .spaces import ModelSpace, make_standard, structure_sign
from .tensors import Tensor4, kaehler_form, psi_map, sigma
from .curvature import build_catalog, run_claim

__version__ = "0.1.0"

__all__ = [
    "ModelSpace",
    "Subspace",
    "Tensor4",
    "build_catalog",
    "kaehler_form",
    "make_standard",
    "psi_map",
    "run_claim",
    "sigma",
    "structure_sign",
    "__version__",
]

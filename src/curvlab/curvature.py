"""Curvature subspace catalog, equivariant-map solvers, and claim verifiers.

Each model space has one catalog; a subspace is built on its first read,
and every verifier and the dims table read it.  Every constraint row lies
in one parity block, the rank-4 coordinates holding the same units (axes,
or J-planes) an odd number of times, so the weyl chain is solved one block
at a time: affine is K ⊗ R^n there, K the kernel of the first-pair and
cyclic rows on their three slots; weyl and kaehler_weyl
(structure-compatible) are cut out of affine and weyl by their own rows for
first pairs i < j, as every space past affine alternates there, the weyl
rows with two entries each, as the Weyl trace follows on affine; riemann
and kaehler_riemann out of weyl and kaehler_weyl by one trace row per first
pair, which cuts what the riemann rows cut on weyl.  The conformal space
is cut out of affine on each block by the riemann rows themselves and the
Ricci rows, so it checks the chain by a second route.  The catalog also
holds the six-piece splitting of rank-2 tensors, over all n² coordinates,
and on each block the images of sigma and psi over the rows of its pieces
in the block's rank-2 mask.  The claims and the dims table read every
rank-4 space on one block per orbit of the unit permutations, which are
group elements, each count weighted by its orbit's size; a space over
every coordinate, the union of every block's, is for :func:`build_catalog`
and for naming a failed certificate's witness.  thm4.1 reads no J, so it
reads the axis parity blocks of the space without its structure, which
every element of O's generating set carries onto blocks, and walks
conformal's O-certificate over them.  On top of the catalog the
module certifies group invariance, solves for commutants of group actions
and spans of invariant contraction functionals, and runs the claim verifiers
exposed by the CLI.  A certificate applies each element of the group's
proven generating set (a Lie element or two, the sign-block cycles, the
component representatives the cycles do not reach) to every basis vector,
each through a table over the n² rank-2 coordinates, element by element,
and stops at the first image outside the subspace.  eq4d and lemma4.9 read
one set of representation matrices, built once per catalog.  Each verifier
returns its quantities, verdict and witnesses, and :func:`run_claim` builds
every report from them.  A functional
is evaluated on a module as a row restricted to its basis: the invariant
contractions on both sides of mod_a ⊗ mod_b, thm4.2's Gram count on the
side with fewer entries.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .linalg import (
    Subspace,
    SubspaceReducer,
    kernel_subspace,
    meet_kernel,
    rank_of_rows,
    restrict_rows,
    subspace_sum,
)
from .report import VerificationReport
from .spaces import (
    ModelSpace,
    component_reps,
    j_pullback_rows,
    j_signed_permutation,
    generating_set,
    lie_algebra_basis,
    parity_blocks,
    parity_mask,
    signed_pair_table,
    structure_sign,
    unit_bits,
)
from .tensors import (
    EVEN_PAIR_WORDS,
    SLOT_PAIRINGS,
    Block,
    Tensor4,
    action_rows,
    antisym_rows,
    bianchi_rows,
    defect_antisym,
    defect_bianchi,
    defect_kaehler,
    defect_riemann,
    defect_weyl,
    derivation_table,
    flatten4,
    gram_weight2,
    gram_weight4,
    inner2,
    invariant_contraction_row,
    kaehler_form,
    kaehler_rows,
    lie_apply_vec,
    metric_tensor2,
    permute_vec,
    ricci_rows,
    riemann_rows,
    riemann_trace_rows,
    sigma,
    psi_map,
    two_form_basis,
    weyl_rows,
)

Vec = dict[int, Fraction]


class ClaimNotApplicable(ValueError):
    """A claim's precondition on the model space fails, before any computation.

    The only error a sweep reports as a skipped cell; every other exception
    is a bug or a bad request."""


class UnknownClaim(ValueError):
    """A claim name that :data:`CLAIMS` does not hold: a bad request."""


class NotInvariantError(Exception):
    """A subspace is not preserved by a group action; carries the witness.

    Not a ``ValueError``: a module that fails invariance is a failed claim,
    not a bad request."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Structure meets and orthogonality counts
# ---------------------------------------------------------------------------


def orthogonality_violations(a: Subspace, b: Subspace, weight: Callable[[int], int]) -> int:
    """Number of basis pairs (one from each subspace) with a nonzero weighted
    product: the nonzero entries of the weighted basis rows of the side with
    fewer entries restricted to the other, as the weight is diagonal."""
    if a.nnz > b.nnz:
        a, b = b, a
    return sum(map(len, restrict_rows(b, [{c: v * weight(c) for c, v in row} for row in a.row_items()])))


def kaehler_subspace(base: Subspace, space: ModelSpace, block: Block | None = None) -> Subspace:
    """base ∩ ker(structure rows anchored in ``block``), for a base alternating in the first pair (rows for i < j)."""
    return meet_kernel(base, kaehler_rows(space, block))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class TwoTensorSplit(NamedTuple):
    """The six-piece splitting of rank-2 tensors over a structured space.

    `aligned` pieces transform under the J-pull-back with the same sign as
    the metric (equivalently the fundamental form); `opposed` pieces with the
    opposite sign.  The aligned pieces have their distinguished line (metric
    or fundamental form) split off.
    """

    h_line: Subspace
    sym_aligned_traceless: Subspace
    sym_opposed: Subspace
    omega_line: Subspace
    alt_aligned_traceless: Subspace
    alt_opposed: Subspace

    def pieces(self) -> list[tuple[str, Subspace]]:
        return list(zip(self._fields, self))


class BlockChain:
    """Every rank-4 space of the catalog on one parity block
    (:func:`spaces.parity_blocks`): the weyl chain and conformal, cut out of
    K ⊗ R^n there by the rows anchored in the block, and the images of the
    two maps over the 2-forms whose images lie in it.  A group element
    carries each block's spaces onto another's, so claims need one block per
    orbit, weighted by its size."""

    def __init__(self, cat: "CurvatureCatalog", mask: int):
        self.space, self.slots, self.solved = cat.space, cat.slots_by_mask, cat.solved
        self.block = (mask, unit_bits(cat.space))
        # the catalog keeps its blocks, so a block refers back to it weakly
        self._catalog = weakref.ref(cat)

    @property
    def affine(self) -> Subspace:
        """The rows b ⊗ e_l of K ⊗ R^n in the block, row b of K with column c at
        c*n + l, led by p_b*n + l, where no other row is nonzero: canonical.
        Built on each read, so that no block pins them."""
        n, (mask, bits) = self.space.n, self.block
        rows = [tuple(x * n + l if k % 2 == 0 else x for k, x in enumerate(b))
                for l in range(n) for b in self.slots.get(mask ^ bits[l], ())]
        return Subspace(n ** 4, tuple(sorted(rows)))

    @cached_property
    def weyl(self) -> Subspace:
        return meet_kernel(self.affine, weyl_rows(self.space, self.block), self.solved)

    @cached_property
    def riemann(self) -> Subspace:
        """weyl ∩ ker(riemann rows), cut by one trace row per first pair."""
        return meet_kernel(self.weyl, riemann_trace_rows(self.space.n, self.block), self.solved)

    @cached_property
    def conformal(self) -> Subspace:
        """Riemann-type tensors with vanishing Ricci contraction (zero below
        n = 4): K ⊗ R^n, which it shares with the chain, met with the riemann
        and Ricci rows anchored in the block.  It keeps the riemann rows
        themselves, not weyl's rows and the trace rows, so thm4.1 checks the
        chain's riemann by a second route.  Where they restrict to weyl's rows
        on affine (no trace, tie or Ricci row anchored), the system is weyl's,
        solved once."""
        return meet_kernel(self.affine, riemann_rows(self.space.n, self.block) + ricci_rows(self.space, self.block),
                           self.solved)

    @cached_property
    def sigma_image(self) -> Subspace:
        """Span of the five-term map over the 2-forms whose images lie in the block."""
        return Subspace.from_vectors([sigma(t, self.space) for t in two_form_basis(self.space.n, self.block)],
                                     self.space.n ** 4)

    @cached_property
    def kaehler_weyl(self) -> Subspace:
        return kaehler_subspace(self.weyl, self.space, self.block)

    @cached_property
    def kaehler_riemann(self) -> Subspace:
        """riemann ∩ ker(structure rows) = kaehler_weyl ∩ ker(riemann rows), the smaller base."""
        return meet_kernel(self.kaehler_weyl, riemann_trace_rows(self.space.n, self.block), self.solved)

    def _span(self, mapper: Callable[[Vec, ModelSpace], Vec], piece: str) -> Subspace:
        """Span of a rank-2 to rank-4 map over the basis rows of the split's
        ``piece`` in the block's mask: a 2-form on units {p, q} maps into the
        block {p, q}."""
        forms = self._catalog().forms_by_mask[piece].get(self.block[0], ())
        return Subspace.from_vectors([mapper(t, self.space) for t in forms], self.space.n ** 4)

    sigma_omega_span = cached_property(lambda self: self._span(sigma, "omega_line"))
    sigma_aligned_span = cached_property(lambda self: self._span(sigma, "alt_aligned_traceless"))
    sigma_opposed_span = cached_property(lambda self: self._span(sigma, "alt_opposed"))
    psi_span = cached_property(lambda self: self._span(psi_map, "alt_opposed"))


class CurvatureCatalog:
    """Every subspace of one model space that the claim verifiers and the
    dims table read.  Each is built on its first read and then kept; the
    two-tensor split and everything after it need a structured space."""

    def __init__(self, space: ModelSpace):
        self.space = space
        self._blocks: dict[int, BlockChain] = {}
        # the blocks' coefficient kernels by system (linalg.meet_kernel): blocks
        # of one orbit, and two meets on some blocks, give the same system
        self.solved: dict = {}

    def block_chain(self, mask: int) -> BlockChain:
        """The rank-4 spaces on the parity block of ``mask``, kept per mask."""
        return self._blocks.get(mask) or self._blocks.setdefault(mask, BlockChain(self, mask))

    # each orbit of parity blocks: (representative, size, other masks)
    orbits = cached_property(lambda self: list(parity_blocks(self.space)))

    def chain_dims(self, names: Sequence[str]) -> dict[str, int]:
        """The named rank-4 spaces' dimensions, read off the representatives,
        each weighted by its orbit's size."""
        blocks = [(size, self.block_chain(mask)) for mask, size, _ in self.orbits]
        return {name: sum(size * getattr(block, name).dim for size, block in blocks) for name in names}

    def _union(self, name: str) -> Subspace:
        """The rank-4 space ``name`` over every coordinate: the sorted union of
        every block's basis, each solved from its own rows, canonical."""
        rows = [row for rep, _, others in self.orbits for mask in [rep, *others]
                for row in getattr(self.block_chain(mask), name).basis]
        return Subspace(self.space.n ** 4, tuple(sorted(rows)))

    # K ⊗ R^n is built on each read, as on a block; the others are kept
    affine = property(lambda self: self._union("affine"))
    weyl = cached_property(lambda self: self._union("weyl"))
    riemann = cached_property(lambda self: self._union("riemann"))
    conformal = cached_property(lambda self: self._union("conformal"))
    sigma_image = cached_property(lambda self: self._union("sigma_image"))
    kaehler_weyl = cached_property(lambda self: self._union("kaehler_weyl"))
    kaehler_riemann = cached_property(lambda self: self._union("kaehler_riemann"))
    sigma_omega_span = cached_property(lambda self: self._union("sigma_omega_span"))
    sigma_aligned_span = cached_property(lambda self: self._union("sigma_aligned_span"))
    sigma_opposed_span = cached_property(lambda self: self._union("sigma_opposed_span"))
    psi_span = cached_property(lambda self: self._union("psi_span"))

    @cached_property
    def axes(self) -> "CurvatureCatalog":
        """The catalog of the space without its structure, with the same
        signs: its units are the axes, so a signed axis permutation, and so
        every element of O's generating set, carries a parity block onto a
        block.  This catalog for an unstructured space.  K reads neither the
        metric nor a structure, so the two share it, and they share the
        coefficient kernels their meets keep, as a kernel reads only its
        system."""
        if self.space.kind == "none":
            return self
        twin = CurvatureCatalog(self.space._replace(kind="none"))
        twin.affine_slots, twin.solved = self.affine_slots, self.solved
        return twin

    @cached_property
    def affine_slots(self) -> Subspace:
        """K: the kernel of the first-pair and cyclic rows on the slots they read."""
        return kernel_subspace(antisym_rows(self.space.n) + bianchi_rows(self.space.n), self.space.n ** 3)

    @cached_property
    def slots_by_mask(self) -> dict[int, list[tuple[int, ...]]]:
        """K's basis rows by the parity mask of their rank-3 coordinates."""
        n, bits = self.space.n, unit_bits(self.space)
        groups: dict[int, list[tuple[int, ...]]] = {}
        for row in self.affine_slots.basis:
            groups.setdefault(parity_mask(bits, n, row[0], 3), []).append(row)
        return groups

    @cached_property
    def two_tensors(self) -> TwoTensorSplit:
        """Split rank-2 tensors into the six canonical pieces."""
        space = self.space
        if space.kind == "none":
            raise ValueError("the six-piece splitting requires a structured space")
        n = space.n
        u = structure_sign(space.kind)
        sym_rows = two_form_basis(n)  # X_ij - X_ji for i < j
        # X_ij + X_ji for i <= j: at i = j the two keys agree, and the row X_ii = 0 has one entry
        alt_rows = [{i * n + j: 1, j * n + i: 1} for i in range(n) for j in range(i, n)]
        h_vec = metric_tensor2(space)
        omega_vec = kaehler_form(space)
        # the metric and the fundamental form both sit in the (-u) pull-back eigenspace
        aligned = j_pullback_rows(space, -u)
        opposed = j_pullback_rows(space, u)
        h_orth_row = {c: Fraction(gram_weight2(space, c)) * v for c, v in h_vec.items()}
        omega_orth_row = {c: Fraction(gram_weight2(space, c)) * v for c, v in omega_vec.items()}
        amb = n * n
        return TwoTensorSplit(
            h_line=Subspace.from_vectors([h_vec], amb),
            sym_aligned_traceless=kernel_subspace(sym_rows + aligned + [h_orth_row], amb),
            sym_opposed=kernel_subspace(sym_rows + opposed, amb),
            omega_line=Subspace.from_vectors([omega_vec], amb),
            alt_aligned_traceless=kernel_subspace(alt_rows + aligned + [omega_orth_row], amb),
            alt_opposed=kernel_subspace(alt_rows + opposed, amb),
        )

    @cached_property
    def forms_by_mask(self) -> dict[str, dict[int, list[dict[int, int]]]]:
        """Each piece's basis rows by their rank-2 parity mask: every row of
        the split, and so every canonical row, lies in one."""
        n, bits = self.space.n, unit_bits(self.space)
        out: dict[str, dict[int, list[dict[int, int]]]] = {}
        for name, sub in self.two_tensors.pieces():
            groups = out[name] = {}
            for row in sub.basis_dicts():
                groups.setdefault(parity_mask(bits, n, min(row), 2), []).append(row)
        return out

    @cached_property
    def opposed_matrices(self) -> dict[tuple[str, int], Vec]:
        """:func:`representation_matrices` of ``alt_opposed`` under Ustar, which
        eq4d and lemma4.9 both read.  Raises :class:`NotInvariantError`, and
        keeps nothing, when the action leaves the module."""
        return representation_matrices(self.two_tensors.alt_opposed, self.space, "Ustar")

    def rank4_names(self) -> list[str]:
        names = ["affine", "weyl", "riemann", "conformal", "sigma_image"]
        if self.space.kind != "none":
            names += ["kaehler_weyl", "kaehler_riemann", "sigma_omega_span",
                      "sigma_aligned_span", "sigma_opposed_span", "psi_span"]
        return names

    def rank4_spaces(self) -> list[tuple[str, Subspace]]:
        return [(name, getattr(self, name)) for name in self.rank4_names()]

    def all_spaces(self) -> list[tuple[str, Subspace]]:
        out = self.rank4_spaces()
        if self.space.kind != "none":
            out.extend(self.two_tensors.pieces())
        return out

    def dims(self) -> dict[str, int]:
        """Every space's dimension, each rank-4 space's read off its blocks."""
        out = self.chain_dims(self.rank4_names())
        if self.space.kind != "none":
            out.update((name, sub.dim) for name, sub in self.two_tensors.pieces())
        return out


# The cache holds one catalog, not one per space seen: a sweep finishes one
# space before it starts the next, and keeping the last n = 10 catalog alive
# next to the current one would raise the peak memory of the run.
@lru_cache(maxsize=1)
def catalog(space: ModelSpace) -> CurvatureCatalog:
    """The shared catalog of ``space``; its subspaces are built on first read."""
    return CurvatureCatalog(space)


def build_catalog(space: ModelSpace) -> CurvatureCatalog:
    """``catalog(space)`` with every subspace already built."""
    cat = catalog(space)
    cat.all_spaces()
    return cat


# ---------------------------------------------------------------------------
# Group invariance and equivariant maps
# ---------------------------------------------------------------------------


def _rank_of_ambient(space: ModelSpace, ambient: int) -> int:
    if ambient == space.n ** 2:
        return 2
    if ambient == space.n ** 4:
        return 4
    raise ValueError("ambient dimension is neither rank 2 nor rank 4")


def _group_images(sub: Subspace, space: ModelSpace, group: str,
                  extra_lie: Sequence[Vec] = ()) -> Iterator[tuple[tuple[str, int], int, dict[int, int], int]]:
    """Every element of the proven generating set applied to every basis
    vector of ``sub``, in integers, yielded as ``((action, element), basis
    vector, image, scale)`` in certificate order.

    Certificate order is: the generating set's Lie elements
    (:func:`spaces.generating_set`), then the extra Lie elements, then its
    sign-block cycles, then its component representatives; within each
    element the basis vectors go in canonical order.  A subspace preserved
    by these is preserved by the group: the cycles conjugate the Lie
    elements into a generating set of the Lie algebra, and the cycles and
    representatives reach every component.  A witness names the pair as
    ``{"action", "element", "basis_vector"}``: a Lie element keeps its index
    in :func:`spaces.lie_algebra_basis`, extra element k is numbered
    ``len(basis) + k``, a cycle (action ``"cycle"``) is numbered by its
    place among the set's cycles, and a representative keeps its index in
    :func:`spaces.component_reps`.

    Every element acts through a table over the n² rank-2 coordinates,
    applied to both halves of a rank-4 index: a Lie element, scaled to
    integers once (:func:`action_rows`), through its
    :func:`tensors.derivation_table`, and a cycle or a representative, a
    signed axis permutation, through its :func:`spaces.signed_pair_table`.
    Each element's table is built when the walk reaches it, and each image
    keeps its cancelled entries as zeros.  A caller that stops at the first
    image it rejects applies nothing after it.

    Each stored basis row is ``s_b`` times its pivot-one row, ``s_b`` its
    pivot entry: a Lie image is ``den * s_b`` times that of the pivot-one
    row, and that of a signed permutation ``s_b``.
    """
    rank = _rank_of_ambient(space, sub.ambient_dim)
    n = space.n
    gens = generating_set(space, group)
    lie = list(gens.lie)
    if extra_lie:
        offset = len(lie_algebra_basis(space, group))
        lie += [(offset + k, x) for k, x in enumerate(extra_lie)]
    basis = list(zip(sub.basis_dicts(), sub.pivot_scales))
    for idx, x in lie:
        den, rows = action_rows(x, n)
        table = derivation_table(rows, n)
        for j, (vec, scale) in enumerate(basis):
            yield ("lie", idx), j, lie_apply_vec(table, vec, rank, n), den * scale
    signed = chain(((("cycle", k), perm, ()) for k, perm in enumerate(gens.cycles)),
                   ((("component_rep", idx), range(n), flips) for idx, flips in gens.reps))
    for key, perm, flips in signed:
        targets, signs = signed_pair_table(perm, flips)
        for j, (vec, scale) in enumerate(basis):
            yield key, j, permute_vec(targets, signs, vec, rank, n), scale


def _witness(key: tuple[str, int], j: int) -> dict:
    return {"action": key[0], "element": key[1], "basis_vector": j}


def invariance_witness(sub: Subspace, space: ModelSpace, group: str,
                       extra_lie: Sequence[Vec] = ()) -> dict | None:
    """None when the subspace is preserved by the group data, else the first
    witness in certificate order (see :func:`_group_images`)."""
    reducer = SubspaceReducer(sub)
    return next((_witness(key, j) for key, j, img, _ in _group_images(sub, space, group, extra_lie)
                 if not reducer.contains(img)), None)


def conformal_o_invariant(axes: CurvatureCatalog) -> bool:
    """The O-certificate of conformal on the axis parity blocks of ``axes``,
    a catalog without a structure (:attr:`CurvatureCatalog.axes`): every
    element of O's generating set is applied to each representative's
    conformal basis (:func:`_group_images`), and each image is checked
    against the blocks it lands in, each solved from its own rows and kept
    per mask; each cycle must also carry the representative onto a block of
    the same dimension.

    What it proves: each element carries each representative's conformal
    into the sum of the blocks' conformal, and each cycle carries it onto
    its target block.  A failure here is a failure of the full walk over
    the union of every block's (:func:`invariance_witness`): the blocks
    form a direct sum, so an image leaves the union iff its part in some
    block leaves that block's, and a cycle that changes the dimension
    leaves some block of its finite orbit of blocks.  The reverse does not
    hold: a block that no element reaches from a representative is not
    read.  That every block of an orbit is its representative relabelled is
    the orbit reduction every claim on the blocks assumes; the tests solve
    those blocks from their own rows and compare them at fixed n."""
    space = axes.space
    n, bits = space.n, unit_bits(space)
    reducers: dict[int, SubspaceReducer] = {}

    def contains(mask: int, part: dict[int, int]) -> bool:
        if mask not in reducers:
            reducers[mask] = SubspaceReducer(axes.block_chain(mask).conformal)
        return reducers[mask].contains(part)

    cycles = generating_set(space, "O").cycles
    for rep, _, _ in axes.orbits:
        sub = axes.block_chain(rep).conformal
        for perm in cycles:
            target = sum(bits[perm[a]] for a in range(n) if rep & bits[a])
            if axes.block_chain(target).conformal.dim != sub.dim:
                return False
        for _, _, img, _ in _group_images(sub, space, "O"):
            parts: dict[int, dict[int, int]] = {}
            for c, v in img.items():
                if v:
                    parts.setdefault(parity_mask(bits, n, c, 4), {})[c] = v
            if not all(contains(mask, part) for mask, part in parts.items()):
                return False
    return True


def representation_matrices(sub: Subspace, space: ModelSpace, group: str) -> dict[tuple[str, int], Vec]:
    """The action on ``sub`` in its canonical basis: one d x d ``{i*d + j:
    value}`` dict per element of the generating set, whose column j holds the
    coordinates of the image of basis vector j.  Keyed by ``(action,
    element)`` as witnesses name the element, in certificate order (see
    :func:`_group_images`): the Lie elements, the sign-block cycles, then the
    kept component representatives.  These generate the group's action, so
    the commutant of these matrices is the commutant of the group.

    Raises :class:`NotInvariantError` with the first witness in certificate
    order when the action leaves the subspace.
    """
    reducer = SubspaceReducer(sub)
    d = sub.dim
    mats: dict[tuple[str, int], Vec] = {}
    for key, j, img, scale in _group_images(sub, space, group):
        coords = reducer.coordinates(img, scale)
        if coords is None:
            raise NotInvariantError(f"subspace not invariant under {key[0]} element {key[1]}", _witness(key, j))
        mats.setdefault(key, {}).update((i * d + j, v) for i, v in enumerate(coords) if v)
    return mats


def _commutator_rows(m: Vec, d: int) -> list[dict[int, int]]:
    """Rows of T -> TM - MT on the d*d entries of T (T[i][k] at i*d + k), from
    the nonzeros of ``m`` scaled to integers."""
    _, mrows = action_rows(m, d)
    rows: dict[int, dict[int, int]] = {}
    for a, pairs in enumerate(mrows):
        for b, v in pairs:
            for i in range(d):
                # (TM)[i][b] has the term T[i][a] M[a][b]
                row = rows.setdefault(i * d + b, {})
                row[i * d + a] = row.get(i * d + a, 0) + v
                # (MT)[a][i] has the term M[a][b] T[b][i]
                row = rows.setdefault(a * d + i, {})
                row[b * d + i] = row.get(b * d + i, 0) - v
    return [{c: v for c, v in row.items() if v} for row in rows.values()]


def commutant_kernel(mats: Iterable[Vec], d: int) -> Subspace:
    """{T : TM = MT for all M}, the linear self-maps of R^d commuting with the
    action, T[i][k] at i*d + k: one kernel of every matrix's commutator rows.
    Rows repeat across matrices and within one; the kernel's presolve and
    elimination absorb the repeats."""
    return kernel_subspace(chain.from_iterable(_commutator_rows(m, d) for m in mats), d * d)


def commutant_dimension(mats: Iterable[Vec], d: int) -> int:
    """Dimension of :func:`commutant_kernel`."""
    return commutant_kernel(mats, d).dim


def _block_diag(m: Vec, d: int) -> Vec:
    """The 2d x 2d matrix diag(m, m) of a d x d matrix ``m``."""
    out = {}
    for c, v in m.items():
        i, j = divmod(c, d)
        out[2 * d * i + j] = v
        out[2 * d * (d + i) + d + j] = v
    return out


def _block_scalars(d: int) -> Subspace:
    """The span of the 2d x 2d matrices [[aI, bI], [cI, dI]], which commute
    with every diag(M, M)."""
    return Subspace.from_vectors([{2 * d * (r + i) + c + i: 1 for i in range(d)}
                                  for r in (0, d) for c in (0, d)], 4 * d * d)


def invariant_rows(mod_a: Subspace, mod_b: Subspace, space: ModelSpace) -> list[dict[int, int]]:
    """The even-word invariant contractions that are not zero on mod_a ⊗ mod_b,
    as coefficient rows, one per slot pairing and word: every other slot
    permutation gives plus or minus one of these rows.  A contraction's row K
    is an n² x n² matrix, entry (ab, cd) at ab*n² + cd, so its coefficients
    on the two canonical bases are A K Bᵀ, entry (i, j) at column i*d_b + j:
    K's rows restricted to mod_b, then the columns of that restricted to
    mod_a.  No product basis is built.
    """
    n2 = space.n ** 2
    db = mod_b.dim
    rows = []
    for perm in SLOT_PAIRINGS:
        for word in EVEN_PAIR_WORDS:
            k_rows: dict[int, dict[int, int]] = {}
            for c, v in invariant_contraction_row(perm, word, space).items():
                ab, cd = divmod(c, n2)
                k_rows.setdefault(ab, {})[cd] = v
            kb_cols: dict[int, dict[int, int]] = {}
            for ab, kb in zip(k_rows, restrict_rows(mod_b, k_rows.values())):
                for j, v in kb.items():
                    kb_cols.setdefault(j, {})[ab] = v
            row = {i * db + j: v for j, akb in zip(kb_cols, restrict_rows(mod_a, kb_cols.values()))
                   for i, v in akb.items()}
            if row:
                rows.append(row)
    return rows


def invariant_span_dimension(mod_a: Subspace, mod_b: Subspace, space: ModelSpace) -> int:
    """Rank of all even-word invariant contraction functionals on mod_a ⊗ mod_b."""
    return rank_of_rows(invariant_rows(mod_a, mod_b, space))


# ---------------------------------------------------------------------------
# Probe forms and multilinear evaluation helpers
# ---------------------------------------------------------------------------


def probe_opposed_form(space: ModelSpace) -> Vec:
    """The standard 2-form in the opposed pull-back eigenspace, supported on
    the first two planes: e^0 ∧ e^2 + u e^1 ∧ e^3 (0-based indices)."""
    n = space.n
    u = Fraction(structure_sign(space.kind))
    return {2: Fraction(1), 2 * n: Fraction(-1), n + 3: u, 3 * n + 1: -u}


def probe_aligned_form(space: ModelSpace) -> Vec:
    """An aligned traceless 2-form e^0 ∧ e^1 + delta e^2 ∧ e^3, with delta fixed
    by orthogonality to the fundamental form."""
    n = space.n
    omega = kaehler_form(space)
    first = {1: Fraction(1), n: Fraction(-1)}
    second = {2 * n + 3: Fraction(1), 3 * n + 2: Fraction(-1)}
    c1 = inner2(space, first, omega)
    c2 = inner2(space, second, omega)
    if not c2:
        raise ValueError("degenerate probe configuration")
    delta = -c1 / c2
    if delta:
        first.update((c, delta * v) for c, v in second.items())
    return first


def eval_with_structure(space: ModelSpace, t: Vec, idx: Sequence[int], jmask: Sequence[bool]) -> Fraction:
    """Evaluate t on basis vectors, applying J to the slots flagged in jmask."""
    perm = j_signed_permutation(space)
    sign = 1
    out_idx = []
    for i, masked in zip(idx, jmask):
        if masked:
            p, s = perm[i]
            sign *= s
            out_idx.append(p)
        else:
            out_idx.append(i)
    return Fraction(sign) * t.get(flatten4(space.n, *out_idx), Fraction(0))


# ---------------------------------------------------------------------------
# Claim verifiers
# ---------------------------------------------------------------------------


# Each verifier returns ``(quantities, verdict, witnesses)``; run_claim
# checks the claim's preconditions first and builds the report.
Outcome = tuple[dict, bool, list]


def verify_weyl_direct_sum(space: ModelSpace) -> Outcome:
    """The weyl space splits orthogonally as riemann space plus the five-term-map image.

    Decided on one parity block per orbit (see :class:`BlockChain`).  The Gram
    count sums over blocks; it is 0 on an orbit if on its representative, as
    the permutations are isometries, and otherwise, as it depends on the
    basis, every block of the orbit is counted from its own rows."""
    n = space.n
    cat = catalog(space)
    dims = cat.chain_dims(("weyl", "riemann", "sigma_image"))
    meet_dim = violations = 0
    sum_is_weyl = True

    def count(block: BlockChain) -> int:
        return orthogonality_violations(block.riemann, block.sigma_image, lambda c: gram_weight4(space, c))

    for mask, size, others in cat.orbits:
        block = cat.block_chain(mask)
        total = subspace_sum(block.riemann, block.sigma_image)
        meet_dim += size * (block.riemann.dim + block.sigma_image.dim - total.dim)
        sum_is_weyl = sum_is_weyl and total == block.weyl
        if count(block):
            violations += sum(map(count, map(cat.block_chain, [mask] + others)))
    expected_weyl = n * n * (n * n - 1) // 12 + n * (n - 1) // 2
    quantities = {
        "dim_weyl": dims["weyl"],
        "dim_riemann": dims["riemann"],
        "dim_sigma_image": dims["sigma_image"],
        "dim_intersection": meet_dim,
        "sum_equals_weyl": sum_is_weyl,
        "gram_orthogonality_violations": violations,
        "dim_weyl_closed_form": expected_weyl,
    }
    verdict = (
        meet_dim == 0
        and sum_is_weyl
        and violations == 0
        and dims["weyl"] == dims["riemann"] + dims["sigma_image"]
        and dims["weyl"] == expected_weyl
    )
    return quantities, verdict, []


def verify_riemann_ricci_split(space: ModelSpace) -> Outcome:
    """Ricci-based form of the three-piece splitting of the riemann space.

    It reads no J, so it is decided on the axis parity blocks of the space
    without its structure (:attr:`CurvatureCatalog.axes`), one block per
    orbit.  Ric(x, y) lies in the block of x and y, so a Ricci rank is the
    sum of its ranks on the blocks, each the rank of the Ricci rows anchored
    there.  On each representative the Ricci kernel on riemann must be the
    block's conformal, and the orbit sizes must weigh those kernels up to
    conformal's dimension n(n+1)(n+2)(n-3)/12.  conformal's O-certificate
    runs on the blocks (:func:`conformal_o_invariant`); when it fails, the
    witness is the full walk's over the union of every block's conformal,
    so a failed report names it as a certificate over every coordinate
    would."""
    n = space.n
    axes = catalog(space).axes
    dim_r = rank_r = rank_w = dim_c = 0
    kernel_matches = True
    for mask, size, _ in axes.orbits:
        block = axes.block_chain(mask)
        ric = ricci_rows(axes.space, block.block)
        dim_r += size * block.riemann.dim
        rank_r += size * rank_of_rows(restrict_rows(block.riemann, ric))
        rank_w += size * rank_of_rows(restrict_rows(block.weyl, ric))
        dim_c += size * block.conformal.dim
        kernel_matches = kernel_matches and meet_kernel(block.riemann, ric, axes.solved) == block.conformal
    conformal_dim = n * (n + 1) * (n + 2) * (n - 3) // 12
    kernel_matches = kernel_matches and dim_c == conformal_dim
    sym_dim = n * (n + 1) // 2
    witness = None
    if not conformal_o_invariant(axes):
        witness = invariance_witness(axes.conformal, axes.space, "O")
        if witness is None:
            raise RuntimeError("conformal's O-certificate fails on the parity blocks but not on their union")
    quantities = {
        "dim_riemann": dim_r,
        "ricci_rank_on_riemann": rank_r,
        "expected_ricci_rank": sym_dim,
        "dim_conformal": dim_c,
        "ricci_kernel_equals_conformal": kernel_matches,
        "dims_identity": dim_r == 1 + (sym_dim - 1) + conformal_dim,
        "ricci_rank_on_weyl": rank_w,
        "expected_ricci_rank_on_weyl": n * n,
        "conformal_o_invariant": witness is None,
    }
    verdict = (rank_r == sym_dim and kernel_matches and quantities["dims_identity"] and rank_w == n * n
               and witness is None)
    return quantities, verdict, [] if witness is None else [witness]


def verify_kaehler_identity_collapse(space: ModelSpace) -> Outcome:
    """Structure-compatible weyl tensors are riemannian for n >= 6; strict gap at n = 4.

    For n >= 6 the claim passes when both compatible subspaces agree and the
    compatible weyl subspace is contained in the riemann space.  For n = 4
    the claim passes when the documented failure is exhibited: a strict
    dimension gap together with an explicit witness tensor that satisfies
    the first-pair, cyclic, weyl and structure-compatibility identities but
    not the last-pair alternation.

    Decided on one parity block per orbit.  The witness is the failing row of
    least pivot over them, the catalog's first, as at n = 4 each orbit is one block.
    """
    n = space.n
    cat = catalog(space)
    dims = cat.chain_dims(("weyl", "riemann", "kaehler_weyl", "kaehler_riemann"))
    d1 = dims["kaehler_weyl"]
    d2 = dims["kaehler_riemann"]
    sigma_meet = 0
    outside = None  # the basis row of kaehler_weyl of least pivot outside riemann
    for mask, size, _ in cat.orbits:
        block = cat.block_chain(mask)
        sigma_meet += size * kaehler_subspace(block.sigma_image, space, block.block).dim
        # a block's first row outside riemann; a row's least column is its pivot
        reducer = SubspaceReducer(block.riemann)
        row = next((row for row in map(dict, block.kaehler_weyl.row_items()) if not reducer.contains(row)), None)
        if row is not None and (outside is None or min(row) < min(outside)):
            outside = row
    contained = outside is None
    quantities = {
        "dim_kaehler_weyl": d1,
        "dim_kaehler_riemann": d2,
        "kaehler_weyl_inside_riemann": contained,
        "dim_sigma_image_meet_kaehler": sigma_meet,
        "dim_weyl": dims["weyl"],
        "dim_riemann": dims["riemann"],
    }
    if n >= 6:
        return quantities, d1 == d2 and contained and sigma_meet == 0, []
    # n == 4: exhibit the documented failure with a re-verified witness
    quantities["gap"] = d1 - d2
    if outside is None:
        quantities["witness_found"] = False
        return quantities, False, []
    scale = outside[min(outside)]
    t = Tensor4.from_dict(n, {c: Fraction(v, scale) for c, v in outside.items()})
    checks = {
        "witness_first_pair_alternating": defect_antisym(t).is_zero(),
        "witness_cyclic_identity": defect_bianchi(t).is_zero(),
        "witness_weyl_identity": defect_weyl(t, space).is_zero(),
        "witness_structure_identity": defect_kaehler(t, space).is_zero(),
        "witness_breaks_last_pair_alternation": not defect_riemann(t).is_zero(),
    }
    quantities.update(checks)
    witness = {"tensor": {"rank": 4, "n": n, "components": list(t.components)}}
    return quantities, d1 > d2 and all(checks.values()), [witness]


_PROBE_T1 = (4, 0, 2, 4)
_PROBE_T2 = (4, 5, 0, 3)


def verify_probe_suite(space: ModelSpace) -> Outcome:
    """Recompute every itemized probe value and the resulting exclusions.

    The probes evaluate the five-term map on the fundamental form, the
    five-term map on an aligned traceless 2-form, and both maps on an opposed
    2-form, at specific basis tuples both plain and with the structure
    applied to the last two slots.  Expected values are the closed forms
    evaluated in the chosen signature.

    The opposed pair's structure meet is read on one parity block per orbit,
    each weighted by its size, as thm1.5's sigma-image meet is: a unit
    permutation is in U and carries the images of the two maps and the
    structure rows on one block onto another's.
    """
    u = structure_sign(space.kind)
    eps = space.eps
    omega = kaehler_form(space)
    psi0 = probe_aligned_form(space)
    psi1 = probe_opposed_form(space)
    s_omega = sigma(omega, space)
    s_psi0 = sigma(psi0, space)
    s_psi1 = sigma(psi1, space)
    p_psi1 = psi_map(psi1, space)

    def ev(t: Vec, idx, jmask=(False, False, False, False)) -> Fraction:
        return eval_with_structure(space, t, idx, jmask)

    jzw = (False, False, True, True)
    probes = [
        ("sigma(omega)@(1,4,3,1)", ev(s_omega, (0, 3, 2, 0)), Fraction(-eps[0] * eps[3])),
        ("sigma(omega)@(1,4,J3,J1)", ev(s_omega, (0, 3, 2, 0), jzw), Fraction(-u * eps[0] * eps[3])),
        ("sigma(aligned)@(5,1,2,5)", ev(s_psi0, (4, 0, 1, 4)), Fraction(-eps[4])),
        ("sigma(aligned)@(5,1,J2,J5)", ev(s_psi0, (4, 0, 1, 4), jzw), Fraction(0)),
        ("sigma(opposed)@(5,1,3,5)", ev(s_psi1, (4, 0, 2, 4)), Fraction(-eps[4])),
        ("sigma(opposed)@(5,1,4,6)", ev(s_psi1, (4, 0, 3, 5)), Fraction(0)),
        ("psi(opposed)@(5,1,3,5)", ev(p_psi1, (4, 0, 2, 4)), Fraction(0)),
        ("psi(opposed)@(5,1,4,6)", ev(p_psi1, (4, 0, 3, 5)), Fraction(-eps[4])),
        ("sigma(opposed)@(5,6,1,4)", ev(s_psi1, (4, 5, 0, 3)), Fraction(0)),
        ("sigma(opposed)@(5,6,J1,J4)", ev(s_psi1, (4, 5, 0, 3), jzw), Fraction(0)),
        ("psi(opposed)@(5,6,1,4)", ev(p_psi1, (4, 5, 0, 3)), Fraction(2 * eps[4])),
        ("psi(opposed)@(5,6,J1,J4)", ev(p_psi1, (4, 5, 0, 3), jzw), Fraction(2 * u * eps[4])),
    ]
    quantities: dict = {}
    all_match = True
    for label, computed, expected in probes:
        ok = computed == expected
        all_match = all_match and ok
        quantities[label] = {"computed": computed, "expected": expected, "match": ok}

    def compat_defect(t: Vec, idx) -> Fraction:
        return ev(t, idx) + u * ev(t, idx, jzw)

    omega_line_excluded = compat_defect(s_omega, (0, 3, 2, 0)) != 0
    aligned_excluded = compat_defect(s_psi0, (4, 0, 1, 4)) != 0
    # pair coefficients (a, b) of a*sigma + b*psi against the two probe tuples
    system = [{0: compat_defect(s_psi1, t), 1: compat_defect(p_psi1, t)} for t in (_PROBE_T1, _PROBE_T2)]
    pair_rank = rank_of_rows(system)
    cat = catalog(space)
    meet_dim = 0
    for mask, size, _ in cat.orbits:
        block = cat.block_chain(mask)
        meet_dim += size * kaehler_subspace(subspace_sum(block.psi_span, block.sigma_opposed_span),
                                            space, block.block).dim
    quantities["omega_line_excluded"] = omega_line_excluded
    quantities["aligned_traceless_excluded"] = aligned_excluded
    quantities["pair_sweep_rank"] = pair_rank
    quantities["dim_opposed_pair_meet_kaehler"] = meet_dim
    verdict = all_match and omega_line_excluded and aligned_excluded and pair_rank == 2 and meet_dim == 0
    return quantities, verdict, []


def verify_invariant_span_bound(space: ModelSpace) -> Outcome:
    """The opposed 2-form module pairs with itself through a single invariant."""
    two = catalog(space).two_tensors
    dim_span = invariant_span_dimension(two.alt_opposed, two.alt_opposed, space)
    return {"invariant_span_dimension": dim_span, "expected": 1}, dim_span == 1, []


def verify_commutant_line(space: ModelSpace) -> Outcome:
    """Equivariant self-maps of the opposed 2-form module are scalar."""
    cat = catalog(space)
    try:
        mats = cat.opposed_matrices
    except NotInvariantError as err:
        return {"alt_opposed_invariant": False}, False, [err.witness]
    d = cat.two_tensors.alt_opposed.dim
    dim_comm = commutant_dimension(mats.values(), d)
    # the unextended group: U and Ustar share the Lie elements and the
    # cycles, which commute with J, and its representatives are the kept
    # Ustar ones that lie in U
    unitary = component_reps(space, "U")
    extended = component_reps(space, "Ustar")
    unextended = [m for (action, idx), m in mats.items() if action != "component_rep" or extended[idx] in unitary]
    dim_unextended = commutant_dimension(unextended, d)
    quantities = {
        "commutant_dimension": dim_comm,
        "expected": 1,
        # informational only: without the extension the commutant is larger
        # (real dimension 2), and no irreducibility verdict is drawn from it
        "commutant_dimension_unextended_group": dim_unextended,
    }
    return quantities, dim_comm == 1, []


def verify_doubled_commutant(space: ModelSpace) -> Outcome:
    """Doubling the opposed module yields the 2x2 commutant of a multiplicity-2 block."""
    cat = catalog(space)
    try:
        mats = cat.opposed_matrices
    except NotInvariantError as err:
        return {"alt_opposed_invariant": False}, False, [err.witness]
    d = cat.two_tensors.alt_opposed.dim
    kernel = commutant_kernel([_block_diag(m, d) for m in mats.values()], 2 * d)
    # every line {(a t, b t)} of the double is invariant exactly when the
    # commutant is the block scalars, which holds once its dimension is 4
    lines_ok = kernel == _block_scalars(d)
    quantities = {
        "doubled_commutant_dimension": kernel.dim,
        "expected": 4,
        "diagonal_line_family_invariant": lines_ok,
    }
    return quantities, kernel.dim == 4 and lines_ok, []


# claim -> (description, verifier, needs a structure, least n, notes); a
# structured space has n >= 4
Claim = tuple[str, Callable[[ModelSpace], Outcome], bool, int, tuple[str, ...]]
CLAIMS: dict[str, Claim] = {
    "thm4.1": ("ricci contraction has full symmetric rank on the riemann space; its kernel is the conformal space",
               verify_riemann_ricci_split, False, 4, ()),
    "thm4.2": ("weyl curvature space = riemann curvature space ⊕ five-term-map image, orthogonally",
               verify_weyl_direct_sum, False, 4, ()),
    "thm1.5": ("structure-compatible weyl tensors are riemannian (n >= 6); documented strict failure at n = 4",
               verify_kaehler_identity_collapse, True, 4, ()),
    "sec5": ("itemized probe values and the exclusion sweep for the structure-compatible subspace",
             verify_probe_suite, True, 6, ()),
    "eq4c": ("even-word invariant functionals restricted to opposed ⊗ opposed span one dimension",
             verify_invariant_span_bound, True, 4, ()),
    "eq4d": ("the commutant of the extended structure group on the opposed 2-form module is the scalar line",
             verify_commutant_line, True, 4,
             ("the unextended-group commutant dimension is reported without an irreducibility verdict",)),
    "lemma4.9": ("the doubled opposed module has a four-dimensional commutant; its diagonal line family is invariant",
                 verify_doubled_commutant, True, 4, ()),
}


def claim_entry(claim: str) -> Claim:
    """The :data:`CLAIMS` entry of ``claim``; an unknown name is an :class:`UnknownClaim`."""
    if claim not in CLAIMS:
        raise UnknownClaim(f"unknown claim {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    return CLAIMS[claim]


def run_claim(claim: str, space: ModelSpace) -> VerificationReport:
    """Run one claim's verifier and build its report: the claim's
    description and notes, the space's description in exact mode, and the
    verifier's quantities, verdict and witnesses.  A space the claim is not
    stated for raises :class:`ClaimNotApplicable` before the verifier runs:
    first an unstructured space where the claim needs a structure, then too
    small an n."""
    description, verify, structured, least_n, notes = claim_entry(claim)
    if structured and space.kind == "none":
        raise ClaimNotApplicable("needs a structured space")
    if space.n < least_n:
        raise ClaimNotApplicable(f"needs n >= {least_n}")
    quantities, verdict, witnesses = verify(space)
    return VerificationReport(claim, description, {**space.describe(), "mode": "exact"},
                              quantities, verdict, witnesses, notes)

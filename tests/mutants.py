"""Replayable mutations: each one must make the tests named with it fail.

Run from anywhere, with the interpreter that runs the test suite:

    python3 tests/mutants.py          # every mutant
    python3 tests/mutants.py 3 5      # mutants 3 and 5, numbered as listed

A mutant is ``(label, file, old text, new text, tests)``.  For each one the
tree (``src``, ``tests`` and ``pyproject.toml``) is copied to a temporary
directory, the one occurrence of ``old`` in ``file`` is replaced by ``new``,
and pytest runs the named tests there.  The mutant is killed when they fail.
A mutant whose old text no longer occurs exactly once is reported as stale,
so that a refactor cannot drop a guard unseen.  First the named tests run
once on an unmutated copy, which must pass.  The script prints one line per
mutant and exits 1 if any survives or is stale, 2 if the control run fails
or a number is not one of the listed mutants'.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINALG = "src/curvlab/linalg.py"
TENSORS = "src/curvlab/tensors.py"
CURVATURE = "src/curvlab/curvature.py"
CLI = "src/curvlab/cli.py"
SPACES = "src/curvlab/spaces.py"
NIJENHUIS = "src/curvlab/nijenhuis.py"

# the two loops of curvature._group_images, for the mutant that swaps them
_LIE_WALK = (
    "    for idx, x in lie:\n"
    "        den, rows = action_rows(x, n)\n"
    "        table = derivation_table(rows, n)\n"
    "        for j, (vec, scale) in enumerate(basis):\n"
    "            yield (\"lie\", idx), j, lie_apply_vec(table, vec, rank, n), den * scale\n"
)
_SIGNED_WALK = (
    "    signed = chain((((\"cycle\", k), perm, ()) for k, perm in enumerate(gens.cycles)),\n"
    "                   (((\"component_rep\", idx), range(n), flips) for idx, flips in gens.reps))\n"
    "    for key, perm, flips in signed:\n"
    "        targets, signs = signed_pair_table(perm, flips)\n"
    "        for j, (vec, scale) in enumerate(basis):\n"
    "            yield key, j, permute_vec(targets, signs, vec, rank, n), scale\n"
)
# the head of the loop of tensors.weyl_rows, riemann_rows and kaehler_rows over
# the anchors of a block, and a skip of the first pairs (i, i + 1) that a
# mutant inserts into one of them
_ANCHORS = (
    "    for f, lasts in _anchors(n, block):\n"
    "        f *= n * n\n"
    "        for c in lasts:\n"
)
_SKIP_ADJACENT = (
    "            if f // (n * n) % n == f // (n * n * n) + 1:\n"
    "                continue\n"
)
# the two precondition checks of curvature.run_claim, for the mutant that swaps them
_STRUCTURE_CHECK = (
    "    if structured and space.kind == \"none\":\n"
    "        raise ClaimNotApplicable(\"needs a structured space\")\n"
)
_LEAST_N_CHECK = (
    "    if space.n < least_n:\n"
    "        raise ClaimNotApplicable(f\"needs n >= {least_n}\")\n"
)

MUTANTS = [
    (
        "reduced_rows without its sign fix",
        LINALG,
        "            if row[c] < 0:\n"
        "                for c2 in row:\n"
        "                    row[c2] = -row[c2]\n",
        "",
        ["tests/test_linalg.py::test_echelon_add_stores_the_same_primitive_int_rows_from_ints_and_fractions",
         "tests/test_linalg.py::test_catalog_rows_are_canonical_primitive_integers"],
    ),
    (
        "kernel terms kept for every column",
        LINALG,
        "f: [] for f in range(ncols) if last - f not in ech.pivot_rows and f not in up and f not in zero}",
        "f: [] for f in range(ncols)}",
        ["tests/test_linalg.py::test_kernel_single_equation",
         "tests/test_linalg.py::test_kernel_matches_textbook_oracle"],
    ),
    (
        "meet shortcut taken while one row remains",
        LINALG,
        "    if not rows:\n        return base\n",
        "    if len(rows) < 2:\n        return base\n",
        ["tests/test_linalg.py::test_meet_returns_its_base_when_every_row_restricts_to_zero"],
    ),
    (
        "contains without its lcm rescaling",
        LINALG,
        "diff = dict(vec) if lead == 1 else {c: lead * v for c, v in vec.items()}",
        "diff = dict(vec)",
        ["tests/test_linalg.py::test_membership_and_coordinates_match_dense_oracle",
         "tests/test_linalg.py::test_membership_with_non_unit_pivots_matches_dense_oracle"],
    ),
    (
        "signed pair table negating a pair once per flipped axis, not once per slot",
        SPACES,
        "[x * y for x in s for y in s]",
        "[min(x, y) for x in s for y in s]",
        ["tests/test_group_actions.py::test_sign_characters_match_slot_pullback",
         "tests/test_tensors.py::test_sparse_actions_match_dense"],
    ),
    (
        "generating set keeping every representative, not only the ones the cycles miss",
        SPACES,
        "        if flips and _component(space, group, range(n), flips) not in reached:\n",
        "        if True:\n",
        ["tests/test_group_actions.py::test_lemma49_applies_each_generator_once",
         "tests/test_group_actions.py::test_eq4d_applies_each_generator_once"],
    ),
    (
        "signed permutation signing only the low half of a rank-4 index",
        TENSORS,
        "= signs[hi] * signs[lo] * v",
        "= signs[lo] * v",
        ["tests/test_group_actions.py::test_sign_characters_match_slot_pullback",
         "tests/test_tensors.py::test_sparse_actions_match_dense"],
    ),
    (
        "derivation table moving only the first slot of a coordinate pair",
        TENSORS,
        "[[(b * n + q, k) for b, k in rows[p]] + [(p * n + b, k) for b, k in rows[q]]",
        "[[(b * n + q, k) for b, k in rows[p]]",
        ["tests/test_tensors.py::test_sparse_actions_match_dense"],
    ),
    (
        "certificate walk yielding the cycles and representatives before the Lie elements",
        CURVATURE,
        _LIE_WALK + _SIGNED_WALK,
        _SIGNED_WALK + _LIE_WALK,
        ["tests/test_group_actions.py::test_witness_order_matches_dense_walk_element_by_element"],
    ),
    (
        "run_claim dropping eq4d's notes",
        CURVATURE,
        "             verify_commutant_line, True, 4,\n"
        "             (\"the unextended-group commutant dimension is reported without an irreducibility verdict\",)),\n",
        "             verify_commutant_line, True, 4, ()),\n",
        ["tests/test_golden_reports.py::test_report_bytes_unchanged[verify eq4d --n 6 --kind para --format md]",
         "tests/test_cli.py::test_failed_certificate_report_bytes_unchanged[eq4d-md]"],
    ),
    (
        "run_claim checking the least n before the structure",
        CURVATURE,
        _STRUCTURE_CHECK + _LEAST_N_CHECK,
        _LEAST_N_CHECK + _STRUCTURE_CHECK,
        ["tests/test_cli.py::test_bad_inputs_are_reported_in_order[structure-before-n]"],
    ),
    (
        "sweep exiting 0 whatever its cells' verdicts",
        CLI,
        "_sweep_table, report.exit_code_for(reports)",
        "_sweep_table, 0",
        ["tests/test_cli.py::test_sweep_non_invariant_module_is_a_failed_cell"],
    ),
    (
        "cli.py importing dataclasses",
        CLI,
        "import argparse\n",
        "import argparse\nimport dataclasses\n",
        ["tests/test_imports.py::test_cli_import_leaves_out_dataclasses"],
    ),
    (
        "add storing a row read from Fractions negated",
        LINALG,
        "        self.pivot_rows[c] = r\n",
        "        self.pivot_rows[c] = {k: -v for k, v in r.items()}"
        " if any(type(v) is not int for v in row.values()) else r\n",
        ["tests/test_linalg.py::test_echelon_add_stores_the_same_primitive_int_rows_from_ints_and_fractions"],
    ),
    (
        "contains starting from dict(vec) and subtracting v // scale",
        LINALG,
        "        diff = dict(vec) if lead == 1 else {c: lead * v for c, v in vec.items()}\n"
        "        for row, scale, v in touched:\n"
        "            m = v * (lead // scale)\n",
        "        diff = dict(vec)\n"
        "        for row, scale, v in touched:\n"
        "            m = v // scale\n",
        ["tests/test_linalg.py::test_membership_of_half_the_sum_of_two_non_unit_pivot_rows",
         "tests/test_linalg.py::test_membership_with_non_unit_pivots_matches_dense_oracle"],
    ),
    (
        "trace row written at last pair (0, 1) instead of (0, 0)",
        TENSORS,
        "[{f * n * n: 1} for f in",
        "[{f * n * n + 1: 1} for f in",
        ["tests/test_curvature.py::test_trace_rows_cut_what_the_full_riemann_rows_cut"],
    ),
    (
        "block affine row b ⊗ e_l written at column l * n^3 + c instead of c * n + l",
        CURVATURE,
        "x * n + l if k % 2 == 0",
        "l * n ** 3 + x if k % 2 == 0",
        ["tests/test_curvature.py::test_first_pair_rows_cut_what_the_full_rows_cut",
         "tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "parent row reused for a coefficient row with two entries",
        LINALG,
        "        if len(coeffs) == 2:\n",
        "        if len(coeffs) <= 4:\n",
        ["tests/test_curvature.py::test_trace_rows_cut_what_the_full_riemann_rows_cut",
         "tests/test_linalg.py::test_meet_kernel_equals_intersection_with_the_kernel"],
    ),
    (
        "meet coefficient kernels kept by the base's dimension alone",
        LINALG,
        "        key = (base.dim, frozenset(frozenset(row.items()) for row in rows))\n",
        "        key = base.dim\n",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate",
         "tests/test_linalg.py::test_meet_kernel_solves_each_kept_system_once"],
    ),
    (
        "meet solving a coefficient system again when it was solved before",
        LINALG,
        "        kernel = solved.get(key)\n",
        "        kernel = None\n",
        ["tests/test_curvature.py::test_claims_and_dims_build_each_kernel_once",
         "tests/test_linalg.py::test_meet_kernel_solves_each_kept_system_once"],
    ),
    (
        "row-side index dropping the last row",
        LINALG,
        "    for acc, row in zip(accs, rows):\n",
        "    for acc, row in zip(accs, rows[:-1]):\n",
        ["tests/test_curvature.py::test_trace_rows_cut_what_the_full_riemann_rows_cut"],
    ),
    (
        "weyl meet on each block given every weyl row anchored there but the first",
        CURVATURE,
        "meet_kernel(self.affine, weyl_rows(self.space, self.block), self.solved)",
        "meet_kernel(self.affine, weyl_rows(self.space, self.block)[1:], self.solved)",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "riemann meet given every trace row but the last",
        CURVATURE,
        "meet_kernel(self.weyl, riemann_trace_rows(self.space.n, self.block), self.solved)",
        "meet_kernel(self.weyl, riemann_trace_rows(self.space.n, self.block)[:-1], self.solved)",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "structure rows written for first pairs j > i + 1 only",
        TENSORS,
        _ANCHORS + "            if c in classes:\n",
        _ANCHORS + _SKIP_ADJACENT + "            if c in classes:\n",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "conformal meet on each block given every Ricci row anchored there but the last",
        CURVATURE,
        "riemann_rows(self.space.n, self.block) + ricci_rows(self.space, self.block),\n",
        "riemann_rows(self.space.n, self.block) + ricci_rows(self.space, self.block)[:-1],\n",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "traceless symmetric aligned piece without its orthogonality row",
        CURVATURE,
        "kernel_subspace(sym_rows + aligned + [h_orth_row], amb)",
        "kernel_subspace(sym_rows + aligned, amb)",
        ["tests/test_curvature.py::test_slot_lie_and_split_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "presolve tie sign flipped when the two entries are equal",
        LINALG,
        "s = -sa * sb if va == vb else sa * sb",
        "s = sa * sb if va == vb else sa * sb",
        ["tests/test_linalg.py::test_kernel_presolve_cases",
         "tests/test_linalg.py::test_kernel_with_presolvable_rows_matches_dense_oracle",
         "tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "presolve zero class not carried through a union",
        LINALG,
        "    zero = {find(c)[0] for c in zero}",
        "    zero = {c for c in zero if c not in up}",
        ["tests/test_linalg.py::test_kernel_presolve_cases",
         "tests/test_linalg.py::test_kernel_with_presolvable_rows_matches_dense_oracle"],
    ),
    (
        "presolve taking the larger column as the root",
        LINALG,
        "up[max(a, b)] = (min(a, b), s)",
        "up[min(a, b)] = (max(a, b), s)",
        ["tests/test_linalg.py::test_kernel_presolve_cases",
         "tests/test_linalg.py::test_kernel_with_presolvable_rows_matches_dense_oracle",
         "tests/test_linalg.py::test_catalog_rows_are_canonical_primitive_integers"],
    ),
    (
        "presolve testing row lengths before explicit zeros are dropped",
        LINALG,
        "        if 0 in row.values():\n"
        "            row = {c: v for c, v in row.items() if v}\n",
        "",
        ["tests/test_linalg.py::test_kernel_presolve_cases",
         "tests/test_linalg.py::test_kernel_with_presolvable_rows_matches_dense_oracle"],
    ),
    (
        "commutant fed only the first matrix's rows",
        CURVATURE,
        "kernel_subspace(chain.from_iterable(_commutator_rows(m, d) for m in mats), d * d)",
        "kernel_subspace(next((_commutator_rows(m, d) for m in mats), []), d * d)",
        ["tests/test_group_actions.py::test_commutant_dimensions",
         "tests/test_group_actions.py::test_commutant_matches_dense_oracle",
         "tests/test_group_actions.py::test_commutant_of_random_block_diagonal_sets_matches_dense_oracle",
         "tests/test_group_actions.py::test_commutant_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "meet keeping the restricted rows that are zero",
        LINALG,
        "rows = [row for row in restrict_rows(base, rows) if row]",
        "rows = list(restrict_rows(base, rows))",
        ["tests/test_linalg.py::test_meet_returns_its_base_when_every_row_restricts_to_zero",
         "tests/test_curvature.py::test_kaehler_riemann_is_the_kaehler_weyl_basis_from_n6",
         "tests/test_linalg.py::test_meet_eliminates_exactly_the_nonzero_restricted_rows"],
    ),
    (
        "reducer reading the pivot scale at the column slot of the stored row",
        LINALG,
        "                scale = row[1]\n",
        "                scale = row[0]\n",
        ["tests/test_linalg.py::test_membership_of_half_the_sum_of_two_non_unit_pivot_rows",
         "tests/test_linalg.py::test_membership_and_coordinates_match_dense_oracle"],
    ),
    (
        "_freeze_row keeping the dict's order of columns",
        LINALG,
        "    cols = sorted(row)\n",
        "    cols = list(row)\n",
        ["tests/test_linalg.py::test_stored_rows_are_flat_canonical_integer_tuples"],
    ),
    (
        "block affine row b ⊗ e_l dropping the + l of column c * n + l",
        CURVATURE,
        "x * n + l if k % 2 == 0",
        "x * n if k % 2 == 0",
        ["tests/test_linalg.py::test_stored_rows_are_flat_canonical_integer_tuples",
         "tests/test_curvature.py::test_first_pair_rows_cut_what_the_full_rows_cut"],
    ),
    (
        "generating set without its sign-block cycles",
        SPACES,
        "    return GeneratingSet(lie, cycles, tuple(reps))\n",
        "    return GeneratingSet(lie, (), tuple(reps))\n",
        ["tests/test_group_actions.py::test_non_invariant_subspace_is_rejected_by_both_walks",
         "tests/test_group_actions.py::test_representation_scales_match_dense_oracle",
         "tests/test_spaces.py::test_cycles_and_kept_reps_reach_every_component"],
    ),
    (
        "closure proof without its conjugation by the cycles",
        SPACES,
        "chain((_bracket(x, y, n) for x in lie), ({t[c]: v for c, v in y.items()} for t in tables))",
        "chain((_bracket(x, y, n) for x in lie), ())",
        ["tests/test_group_actions.py::test_closure_proof_needs_every_generator",
         "tests/test_spaces.py::test_generating_set_is_proven"],
    ),
    (
        "cycles not checked to be isometries",
        SPACES,
        "    if sorted(perm) != list(range(n)) or any(space.eps[perm[a]] != space.eps[a] for a in range(n)):\n",
        "    if sorted(perm) != list(range(n)):\n",
        ["tests/test_cli.py::test_cycle_that_is_not_a_group_element_exits_three"],
    ),
    (
        "Nijenhuis closed form with t3's sign flipped",
        NIJENHUIS,
        "t3 = tuple(-u * v for v in column(jd, y))",
        "t3 = tuple(u * v for v in column(jd, y))",
        ["tests/test_nijenhuis.py"],
    ),
    (
        "block affine rows left in the order they are written, not sorted by pivot",
        CURVATURE,
        "Subspace(n ** 4, tuple(sorted(rows)))",
        "Subspace(n ** 4, tuple(rows))",
        ["tests/test_linalg.py::test_stored_rows_are_flat_canonical_integer_tuples"],
    ),
    (
        "weyl rows written for first pairs j > i + 1 only",
        TENSORS,
        _ANCHORS + "            k, l = divmod(c, n)\n            if k < l:\n",
        _ANCHORS + _SKIP_ADJACENT + "            k, l = divmod(c, n)\n            if k < l:\n",
        ["tests/test_curvature.py::test_first_pair_rows_cut_what_the_full_rows_cut",
         "tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "riemann rows written for first pairs j > i + 1 only",
        TENSORS,
        _ANCHORS + "            k, l = divmod(c, n)\n            if k <= l:\n",
        _ANCHORS + _SKIP_ADJACENT + "            k, l = divmod(c, n)\n            if k <= l:\n",
        ["tests/test_curvature.py::test_conformal_is_the_direct_kernel_over_every_coordinate",
         "tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "weyl diagonal ties written with 1 in place of eps_k",
        TENSORS,
        "{f + c: eps[k], f: -eps[0]}",
        "{f + c: 1, f: -eps[0]}",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate",
         "tests/test_curvature.py::test_first_pair_rows_cut_what_the_full_rows_cut"],
    ),
    (
        "weyl rows without their diagonal ties",
        TENSORS,
        "            elif k == l > 0:\n                rows.append({f + c: eps[k], f: -eps[0]})\n",
        "",
        ["tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "orbit size read off all units, whatever their sign type",
        SPACES,
        "size = comb(len(plus), a) * comb(len(minus), weight - a)",
        "size = comb(len(plus) + len(minus), weight)",
        ["tests/test_blocks.py::test_blocks_partition_the_coordinates",
         "tests/test_golden_reports.py::test_report_bytes_unchanged[dims --n 7 --kind none --sig 4,3]"],
    ),
    (
        "rank-2 coordinates grouped by their units or-ed, not xor-ed",
        TENSORS,
        "groups.setdefault(bits[a] ^ bits[b], []).append(a * n + b)",
        "groups.setdefault(bits[a] | bits[b], []).append(a * n + b)",
        ["tests/test_blocks.py::test_blocks_union_is_the_stored_basis"],
    ),
    (
        "representatives and permutations chosen without regard to unit sign type",
        SPACES,
        "    plus = [u for u in range(m) if space.eps[u * width] > 0]\n"
        "    minus = [u for u in range(m) if space.eps[u * width] < 0]\n",
        "    plus = list(range(m))\n"
        "    minus = []\n",
        ["tests/test_blocks.py::test_each_block_is_its_representative_relabelled"],
    ),
    (
        "n = 4 witness taken from the first block with a failing row, not the least pivot",
        CURVATURE,
        "if row is not None and (outside is None or min(row) < min(outside)):",
        "if row is not None and outside is None:",
        ["tests/test_blocks.py::test_n4_witness_does_not_depend_on_block_order"],
    ),
    (
        "nonzero Gram count taken as orbit size times the representative's",
        CURVATURE,
        "violations += sum(map(count, map(cat.block_chain, [mask] + others)))",
        "violations += size * count(block)",
        ["tests/test_blocks.py::test_nonzero_gram_count_is_the_full_basis_count"],
    ),
    (
        "catalog's chain spaces read off the representative blocks only",
        CURVATURE,
        "for mask in [rep, *others]\n",
        "for mask in [rep]\n",
        ["tests/test_blocks.py::test_blocks_union_is_the_stored_basis",
         "tests/test_curvature.py::test_catalog_kernels_pass_the_modular_rank_certificate"],
    ),
    (
        "thm4.1's Ricci rank on riemann not weighted by the orbit size",
        CURVATURE,
        "rank_r += size * rank_of_rows(",
        "rank_r += rank_of_rows(",
        ["tests/test_blocks.py::test_thm41_block_ranks_are_the_full_ranks",
         "tests/test_golden_reports.py::test_report_bytes_unchanged[verify thm4.1 --n 7 --kind none --sig 4,3]"],
    ),
    (
        "thm4.1 without its check of the weighted kernel dimensions against conformal's closed form",
        CURVATURE,
        "    kernel_matches = kernel_matches and dim_c == conformal_dim\n",
        "",
        ["tests/test_blocks.py::test_thm41_weighs_the_representatives_up_to_the_closed_form"],
    ),
    (
        "conformal's closed-form dimension with (n - 2) for (n - 3)",
        CURVATURE,
        "conformal_dim = n * (n + 1) * (n + 2) * (n - 3) // 12",
        "conformal_dim = n * (n + 1) * (n + 2) * (n - 2) // 12",
        ["tests/test_verifiers.py::test_riemann_ricci_split",
         "tests/test_golden_reports.py::test_report_bytes_unchanged[verify thm4.1 --n 9 --kind none]"],
    ),
    (
        "block O-certificate without the check that a cycle's target block has the representative's dimension",
        CURVATURE,
        "            if axes.block_chain(target).conformal.dim != sub.dim:\n"
        "                return False\n",
        "",
        ["tests/test_blocks.py::test_thm41_sees_a_cycle_target_larger_than_its_representative"],
    ),
    (
        "block O-certificate checking Lie images only against their source block",
        CURVATURE,
        "        for _, _, img, _ in _group_images(sub, space, \"O\"):\n",
        "        for key, _, img, _ in _group_images(sub, space, \"O\"):\n"
        "            img = {c: v for c, v in img.items() if key[0] != \"lie\" or parity_mask(bits, n, c, 4) == rep}\n",
        ["tests/test_blocks.py::test_thm41_checks_lie_images_in_the_blocks_they_land_in"],
    ),
    (
        "conformal meet on each block without its Ricci rows",
        CURVATURE,
        "riemann_rows(self.space.n, self.block) + ricci_rows(self.space, self.block),\n",
        "riemann_rows(self.space.n, self.block),\n",
        ["tests/test_curvature.py::test_conformal_is_the_direct_kernel_over_every_coordinate",
         "tests/test_blocks.py::test_representative_blocks_pass_the_modular_rank_certificate"],
    ),
    (
        "dims' conformal entry not weighted by the orbit size",
        CURVATURE,
        "return {name: sum(size * getattr(block, name).dim for size, block in blocks) for name in names}",
        "return {name: sum((1 if name == \"conformal\" else size) * getattr(block, name).dim\n"
        "                      for size, block in blocks) for name in names}",
        ["tests/test_blocks.py::test_dims_are_the_dims_of_the_unions",
         "tests/test_golden_reports.py::test_report_bytes_unchanged[dims --n 6 --kind complex]"],
    ),
    (
        "piece rows grouped by the mask of a rank-3 coordinate, not a rank-2 one",
        CURVATURE,
        "groups.setdefault(parity_mask(bits, n, min(row), 2), []).append(row)",
        "groups.setdefault(parity_mask(bits, n, min(row), 3), []).append(row)",
        ["tests/test_blocks.py::test_span_unions_are_the_images_of_the_whole_pieces",
         "tests/test_blocks.py::test_blocks_union_is_the_stored_basis"],
    ),
    (
        "catalog's conformal read off the representative blocks only",
        CURVATURE,
        "    conformal = cached_property(lambda self: self._union(\"conformal\"))\n",
        "    conformal = cached_property(lambda self: Subspace(self.space.n ** 4, tuple(sorted(\n"
        "        row for rep, _, _ in self.orbits for row in self.block_chain(rep).conformal.basis))))\n",
        ["tests/test_blocks.py::test_blocks_union_is_the_stored_basis",
         "tests/test_curvature.py::test_conformal_is_the_direct_kernel_over_every_coordinate"],
    ),
    (
        "invariant contractions read on two of the three slot pairings",
        TENSORS,
        "SLOT_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))",
        "SLOT_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3))",
        ["tests/test_tensors.py::test_every_slot_permutation_gives_its_pairings_row_up_to_sign",
         "tests/test_group_actions.py::test_invariant_rows_match_per_pair_oracle"],
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tests: list[str], file: str | None = None, text: str | None = None) -> int:
    """pytest's exit code on ``tests`` in a fresh copy of the tree, with
    ``file`` replaced by ``text`` if given."""
    with tempfile.TemporaryDirectory(prefix="curvlab-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if file is not None:
            (dest / file).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=dest, env=env, capture_output=True, timeout=600,
        ).returncode


def run_mutant(file: str, old: str, new: str, tests: list[str]) -> str:
    """``killed``, ``survived`` or ``stale``; raises if pytest cannot run."""
    text = (ROOT / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "stale"
    code = _pytest(tests, file, text.replace(old, new))
    if code > 1:
        raise RuntimeError(f"pytest exited {code} on the mutant of {file}")
    return "killed" if code else "survived"


def main(argv: list[str]) -> int:
    numbers = [str(k) for k in range(1, len(MUTANTS) + 1)]
    if any(a not in numbers for a in argv):
        print(f"usage: mutants.py [N ...], each N from 1 to {len(MUTANTS)}", file=sys.stderr)
        return 2
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    start = time.perf_counter()
    # a kill counts only if the same tests pass on the unmutated tree
    control = sorted({t for k in chosen for t in MUTANTS[k - 1][4]})
    if _pytest(control):
        print("the named tests fail on the unmutated tree; no mutant was run")
        return 2
    bad = []
    for k in chosen:
        label, file, old, new, tests = MUTANTS[k - 1]
        t0 = time.perf_counter()
        outcome = run_mutant(file, old, new, tests)
        print(f"{k:2d} {outcome:8s} {time.perf_counter() - t0:6.1f}s  {label}", flush=True)
        if outcome != "killed":
            bad.append(k)
    print(f"{len(chosen) - len(bad)} of {len(chosen)} killed in {time.perf_counter() - start:.1f}s"
          + (f"; not killed: {', '.join(map(str, bad))}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

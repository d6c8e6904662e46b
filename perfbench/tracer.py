"""Outside-in layer tracer for curvlab.

The tracer wraps public functions and methods of the curvlab modules from
outside the package, without editing it.  Every wrapped name belongs to one
layer.  A call opens a span unless the innermost open span already belongs to
the same layer (or to a layer the name is absorbed into), so recursive and
nested same-layer calls cost one counter increment and no clock reads.

Spans are not stored one by one: the tracer keeps, per phase, an aggregate
for each (parent layer, layer) edge with its span count, total time and self
time (total minus the time of child spans).  Everything stays in memory and
is written once, by the caller, when the run ends.

A name listed in ``WRAPS`` that no longer exists is recorded in ``missing``;
the time spent in its replacement then falls to the enclosing span, which is
how it shows up in ``trace.unattributed_frac``.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# Layers whose self time is glue around the measured layers: the claim
# verifiers, catalog builders and the benchmark's own loop.  Their self time
# is reported as unattributed.
GLUE = "curvature.glue"
ROOT = "root"

ELIM = "linalg.eliminate"
BACKSUB = "linalg.backsub"
MEET = "linalg.meet"
MEMBER = "linalg.membership"
GRAM = "linalg.gram"
ROWS = "tensors.rows"
IMAGE = "tensors.image"
OPERATOR = "tensors.operator"
GROUP = "tensors.group_apply"
CONTRACT = "tensors.contract"
RECHECK = "tensors.recheck"
CERTS = "curvature.certs"
COMMUTANT = "curvature.commutant"
SPACES = "spaces"
NIJENHUIS = "nijenhuis"
SERIALISE = "report.serialise"
CLI = "cli"

LAYERS = (ELIM, BACKSUB, MEET, MEMBER, GRAM, ROWS, IMAGE, OPERATOR, GROUP, CONTRACT,
          RECHECK, CERTS, COMMUTANT, SPACES, NIJENHUIS, SERIALISE, CLI, GLUE)


# -- result counters -------------------------------------------------------


def _count_add(tracer: "Tracer", result) -> None:
    c = tracer.counters
    c["linalg.rows_in"] += 1
    if result is not None:
        c["linalg.pivots"] += 1


def _count_kernel(tracer: "Tracer", result) -> None:
    tracer.counters["linalg.kernel_dim"] += len(result)


def _count_reduced(tracer: "Tracer", result) -> None:
    c = tracer.counters
    bits = c["linalg.max_coeff_bits"]
    nnz = 0
    for _, row in result:
        nnz += len(row)
        for v in row.values():
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > bits:
                bits = b
    c["linalg.nnz_out"] += nnz
    c["linalg.max_coeff_bits"] = bits


def _count_rows(tracer: "Tracer", result) -> None:
    c = tracer.counters
    c["tensors.rows_count"] += len(result)
    c["tensors.rows_nnz"] += sum(len(r) for r in result)


COUNTERS = ("linalg.rows_in", "linalg.pivots", "linalg.kernel_dim", "linalg.nnz_out",
            "linalg.max_coeff_bits", "tensors.rows_count", "tensors.rows_nnz")

# (module, qualified name, layer, layers it is absorbed into, result counter)
WRAPS: list[tuple[str, str, str, tuple[str, ...], object]] = [
    # linalg: forward elimination, absorbed when it serves a membership read
    ("curvlab.linalg", "Echelon.add", ELIM, (MEMBER,), _count_add),
    ("curvlab.linalg", "Echelon.add_all", ELIM, (MEMBER,), None),
    ("curvlab.linalg", "Echelon.reduce", ELIM, (MEMBER,), None),
    ("curvlab.linalg", "Echelon.contains", ELIM, (MEMBER,), None),
    ("curvlab.linalg", "rank_of_rows", ELIM, (), None),
    ("curvlab.linalg", "rref", ELIM, (), None),
    ("curvlab.linalg", "Matrix.rank", ELIM, (), None),
    ("curvlab.curvature", "ExactEngine.rank_of_vectors", ELIM, (), None),
    # back-substitution, kernels, canonical RREF and Subspace freezing
    ("curvlab.linalg", "Echelon.reduced_rows", BACKSUB, (), _count_reduced),
    ("curvlab.linalg", "Echelon.kernel", BACKSUB, (), _count_kernel),
    ("curvlab.linalg", "rref_vectors", BACKSUB, (), None),
    ("curvlab.linalg", "kernel_of_rows", BACKSUB, (), None),
    ("curvlab.linalg", "kernel_basis", BACKSUB, (), None),
    ("curvlab.linalg", "Subspace.from_vectors", BACKSUB, (), None),
    ("curvlab.curvature", "kernel_of_rows_subspace", BACKSUB, (), None),
    ("curvlab.curvature", "ExactEngine.kernel", BACKSUB, (), None),
    ("curvlab.curvature", "ExactEngine.span", BACKSUB, (), None),
    # meets and sums
    ("curvlab.linalg", "intersect", MEET, (), None),
    ("curvlab.linalg", "subspace_sum", MEET, (), None),
    ("curvlab.curvature", "kaehler_subspace", MEET, (), None),
    ("curvlab.curvature", "ExactEngine.meet_operator_kernel", MEET, (), None),
    ("curvlab.curvature", "ExactEngine.intersect", MEET, (), None),
    ("curvlab.curvature", "ExactEngine.sum", MEET, (), None),
    # membership reads against fixed subspaces
    ("curvlab.linalg", "SubspaceReducer.__init__", MEMBER, (), None),
    ("curvlab.linalg", "SubspaceReducer.residual", MEMBER, (), None),
    ("curvlab.linalg", "SubspaceReducer.contains", MEMBER, (), None),
    ("curvlab.linalg", "SubspaceReducer.coordinates", MEMBER, (), None),
    ("curvlab.linalg", "Subspace.contains", MEMBER, (), None),
    ("curvlab.linalg", "Subspace.is_subspace_of", MEMBER, (), None),
    ("curvlab.linalg", "contains", MEMBER, (), None),
    ("curvlab.curvature", "ExactEngine.reducer", MEMBER, (), None),
    ("curvlab.curvature", "ExactEngine.contains", MEMBER, (), None),
    ("curvlab.curvature", "ExactEngine.is_subspace", MEMBER, (), None),
    # inner products
    ("curvlab.linalg", "orthogonal_complement", GRAM, (), None),
    ("curvlab.linalg", "is_totally_isotropic", GRAM, (), None),
    ("curvlab.linalg", "sparse_dot", GRAM, (), None),
    ("curvlab.tensors", "inner2", GRAM, (), None),
    ("curvlab.tensors", "inner4", GRAM, (), None),
    ("curvlab.curvature", "ExactEngine.orthogonality_violations", GRAM, (), None),
    # constraint-row assembly
    ("curvlab.tensors", "antisym_rows", ROWS, (), _count_rows),
    ("curvlab.tensors", "bianchi_rows", ROWS, (), _count_rows),
    ("curvlab.tensors", "riemann_rows", ROWS, (), _count_rows),
    ("curvlab.tensors", "weyl_rows", ROWS, (), _count_rows),
    ("curvlab.tensors", "ricci_rows", ROWS, (), _count_rows),
    ("curvlab.tensors", "kaehler_rows", ROWS, (), _count_rows),
    # map images
    ("curvlab.tensors", "sigma", IMAGE, (), None),
    ("curvlab.tensors", "psi_map", IMAGE, (), None),
    ("curvlab.curvature", "build_sigma_image", IMAGE, (), None),
    ("curvlab.curvature", "build_map_image", IMAGE, (), None),
    # sparse operators
    ("curvlab.tensors", "apply_kaehler", OPERATOR, (), None),
    ("curvlab.tensors", "apply_ricci", OPERATOR, (), None),
    ("curvlab.tensors", "apply_weyl", OPERATOR, (), None),
    ("curvlab.tensors", "apply_antisym", OPERATOR, (), None),
    ("curvlab.tensors", "apply_bianchi", OPERATOR, (), None),
    ("curvlab.tensors", "apply_riemann", OPERATOR, (), None),
    ("curvlab.tensors", "ricci", OPERATOR, (), None),
    ("curvlab.tensors", "alt_ricci", OPERATOR, (), None),
    # group actions on vectors
    ("curvlab.tensors", "lie_apply_vec", GROUP, (), None),
    ("curvlab.tensors", "pullback_apply_vec", GROUP, (), None),
    ("curvlab.tensors", "lie_action", GROUP, (), None),
    ("curvlab.tensors", "pullback", GROUP, (), None),
    # invariant contractions and their spans
    ("curvlab.tensors", "invariant_contraction_product", CONTRACT, (), None),
    ("curvlab.tensors", "invariant_contraction", CONTRACT, (), None),
    ("curvlab.curvature", "invariant_span_dimension", CONTRACT, (), None),
    # witness rechecks (dense defect tensors)
    ("curvlab.tensors", "defect_antisym", RECHECK, (), None),
    ("curvlab.tensors", "defect_bianchi", RECHECK, (), None),
    ("curvlab.tensors", "defect_riemann", RECHECK, (), None),
    ("curvlab.tensors", "defect_weyl", RECHECK, (), None),
    ("curvlab.tensors", "defect_kaehler", RECHECK, (), None),
    # group-action certificates and commutants
    ("curvlab.curvature", "invariance_witness", CERTS, (), None),
    ("curvlab.curvature", "representation_matrices", CERTS, (), None),
    ("curvlab.curvature", "commutant_dimension", COMMUTANT, (), None),
    ("curvlab.curvature", "commutant_dimension_doubled", COMMUTANT, (), None),
    ("curvlab.curvature", "diagonal_pair_line_invariant", COMMUTANT, (), None),
    # model spaces and group data
    ("curvlab.spaces", "make_standard", SPACES, (), None),
    ("curvlab.spaces", "j_signed_permutation", SPACES, (), None),
    ("curvlab.spaces", "lie_algebra_basis", SPACES, (), None),
    ("curvlab.spaces", "component_reps", SPACES, (), None),
    ("curvlab.spaces", "structure_reversal", SPACES, (), None),
    ("curvlab.spaces", "group_spec", SPACES, (), None),
    ("curvlab.spaces", "random_lie_elements", SPACES, (), None),
    ("curvlab.spaces", "ModelSpace.gram", SPACES, (), None),
    ("curvlab.spaces", "ModelSpace.describe", SPACES, (), None),
    # Nijenhuis probe
    ("curvlab.nijenhuis", "linear_angle", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "constant_rotation_angle", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "twist", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "standard_patch", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "coordinate_field", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "linear_field", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "structure_applied", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "bracket_at", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "nijenhuis_at", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "flat_curvature_check", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "PlaneTwist.value", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "PlaneTwist.inverse_value", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "PlaneTwist.derivative", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "TwistedStructure.value", NIJENHUIS, (), None),
    ("curvlab.nijenhuis", "TwistedStructure.derivative", NIJENHUIS, (), None),
    # serialisation (the cli module's own ``json`` binding is proxied)
    ("curvlab.report", "scrub", SERIALISE, (), None),
    ("curvlab.report", "VerificationReport.to_json_dict", SERIALISE, (), None),
    ("curvlab.report", "render_markdown", SERIALISE, (), None),
    ("curvlab.report", "exit_code_for", SERIALISE, (), None),
    ("curvlab.jsonio", "matrix_to_obj", SERIALISE, (), None),
    ("curvlab.jsonio", "subspace_to_obj", SERIALISE, (), None),
    ("curvlab.jsonio", "tensor2_to_obj", SERIALISE, (), None),
    ("curvlab.jsonio", "tensor4_to_obj", SERIALISE, (), None),
    ("curvlab.jsonio", "form_to_obj", SERIALISE, (), None),
    ("curvlab.jsonio", "model_space_to_obj", SERIALISE, (), None),
    ("curvlab.cli", "json.dumps", SERIALISE, (), None),
    # command-line front end
    ("curvlab.cli", "main", CLI, (), None),
    ("curvlab.cli", "cmd_dims", CLI, (), None),
    ("curvlab.cli", "cmd_verify", CLI, (), None),
    ("curvlab.cli", "cmd_eval", CLI, (), None),
    ("curvlab.cli", "cmd_sweep", CLI, (), None),
    # glue: verifiers and builders whose self time no layer claims
    ("curvlab.curvature", "run_claim", GLUE, (), None),
    ("curvlab.curvature", "engine_for_mode", GLUE, (), None),
    ("curvlab.curvature", "build_catalog", GLUE, (), None),
    ("curvlab.curvature", "build_affine", GLUE, (), None),
    ("curvlab.curvature", "build_weyl", GLUE, (), None),
    ("curvlab.curvature", "build_riemann", GLUE, (), None),
    ("curvlab.curvature", "build_conformal", GLUE, (), None),
    ("curvlab.curvature", "decompose_two_tensors", GLUE, (), None),
    ("curvlab.curvature", "probe_opposed_form", GLUE, (), None),
    ("curvlab.curvature", "probe_aligned_form", GLUE, (), None),
    ("curvlab.curvature", "verify_weyl_direct_sum", GLUE, (), None),
    ("curvlab.curvature", "verify_riemann_ricci_split", GLUE, (), None),
    ("curvlab.curvature", "verify_kaehler_identity_collapse", GLUE, (), None),
    ("curvlab.curvature", "verify_probe_suite", GLUE, (), None),
    ("curvlab.curvature", "verify_invariant_span_bound", GLUE, (), None),
    ("curvlab.curvature", "verify_commutant_line", GLUE, (), None),
    ("curvlab.curvature", "verify_doubled_commutant", GLUE, (), None),
]


class Tracer:
    """Installs the wraps and accumulates per-phase edge aggregates."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]
        self.phases: dict[str, dict] = {}
        self.agg: dict[tuple[str, str], list] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.counter_s = 0.0
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._phase: str | None = None
        self._phase_start = 0.0

    # -- installation ------------------------------------------------------

    def install(self, wraps=WRAPS) -> None:
        for module_name, qualname, layer, absorb, post in wraps:
            label = f"{module_name}:{qualname}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            if self._install_one(module, qualname, label, layer, absorb, post):
                self.wrapped.append(label)
            else:
                self.missing.append(label)

    def _install_one(self, module, qualname, label, layer, absorb, post) -> bool:
        head, _, attr = qualname.rpartition(".")
        if not head:
            fn = getattr(module, attr, None)
            if not callable(fn):
                return False
            self._rebind(fn, self._wrap(fn, label, layer, absorb, post))
            return True
        owner = getattr(module, head, None)
        if owner is None or "." in head:
            return False
        if isinstance(owner, types.ModuleType) and not owner.__name__.startswith("curvlab"):
            # a foreign module bound in this namespace: wrap through a proxy
            # so other users of that module are left alone
            fn = getattr(owner, attr, None)
            if not callable(fn):
                return False
            proxy = types.ModuleType(owner.__name__)
            proxy.__dict__.update(owner.__dict__)
            setattr(proxy, attr, self._wrap(fn, label, layer, absorb, post))
            setattr(module, head, proxy)
            return True
        if not isinstance(owner, type):
            return False
        raw = owner.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self._wrap(raw.__func__, label, layer, absorb, post)))
            return True
        if isinstance(raw, types.FunctionType):
            setattr(owner, attr, self._wrap(raw, label, layer, absorb, post))
            return True
        return False

    @staticmethod
    def _rebind(fn, wrapper) -> None:
        """Replace every binding of ``fn`` in the loaded curvlab namespaces,
        including values of module-level dicts such as the claim table."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "curvlab" or name.startswith("curvlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper

    def _wrap(self, fn, label, layer, absorb, post):
        tracer = self
        stack = self.stack
        calls = self.calls
        calls[label] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[label] += 1
            top = stack[-1]
            if top[0] == layer or top[0] in absorb:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    top[1] += dur
                    key = (top[0], layer)
                    rec = tracer.agg.get(key)
                    if rec is None:
                        rec = tracer.agg[key] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
            if post is not None:
                t1 = clock()
                post(tracer, result)
                spent = clock() - t1
                # counting is tracer work: keep it out of the caller's self time
                stack[-1][1] += spent
                tracer.counter_s += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- phases ------------------------------------------------------------

    def begin(self, phase: str) -> None:
        self.agg = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counter_s = 0.0
        for label in self.calls:
            self.calls[label] = 0
        self.stack[0][1] = 0.0
        self._phase = phase
        self._phase_start = time.perf_counter()

    def end(self) -> None:
        wall = time.perf_counter() - self._phase_start
        self.phases[self._phase] = {
            "wall_s": wall,
            "edges": [[p, c, n, tot, own] for (p, c), (n, tot, own) in sorted(self.agg.items())],
            "calls": {k: v for k, v in self.calls.items() if v},
            "counters": self.counters,
            "counter_s": self.counter_s,
        }
        self._phase = None

    def snapshot(self) -> dict:
        """Everything the run collected, as one JSON-ready object."""
        return {
            "phases": self.phases,
            "wrapped": len(self.wrapped),
            "missing": self.missing,
        }

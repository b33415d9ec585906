"""Layer spans recorded from the benchmark's side of each hdivkit call.

`Tracer.install()` replaces public functions and methods of the hdivkit
modules with wrappers that time each call; `uninstall()` puts the
originals back.  Functions are replaced under every name a module looks
them up by (`from .dofs import dof_vector_ld` binds a second name), and
methods on their class, so every caller is covered.  A name the program
no longer has is skipped and its metrics read 0.

A span's self time is its duration minus the time covered by the spans
it directly encloses.  Spans are aggregated by name as they close rather
than stored, so tracing memory stays flat however long the run.

Inside `dofs.dof_vector_ld` the tracer also counts field evaluations:
the outermost `uv`/`div_values` call of any field object, and the number
of points passed to it, per (family, k) of the DOF set.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import workloads

# (module, attribute, span name); "Class.method" attributes are patched on
# the class.  Several attributes may share one span name.
SPANS = (
    ("quadrature", "gauss_legendre_01", "quadrature.gauss_legendre_01"),
    ("legendre", "grid_to_basis_exact", "legendre.grid_to_basis_exact"),
    ("poly", "Polynomial2D.eval", "poly.Polynomial2D.eval"),
    ("elements", "build_space", "elements.build_space"),
    ("elements", "span_check", "elements.span_check"),
    ("elements", "SpaceMember.__init__", "elements.SpaceMember.init"),
    ("elements", "SpaceMember.uv", "elements.SpaceMember.uv"),
    ("elements", "SpaceMember.div_values", "elements.SpaceMember.div_values"),
    ("dofs", "build_dofs", "dofs.build_dofs"),
    ("dofs", "dof_matrix_ld", "dofs.dof_matrix_ld"),
    ("dofs", "dof_vector_ld", "dofs.dof_vector_ld"),
    ("interpolation", "InterpolationOperator.__init__", "interpolation.InterpolationOperator"),
    ("interpolation", "InterpolationOperator.solve_coefficients",
     "interpolation.solve_coefficients"),
    ("interpolation", "L2Projector.__init__", "interpolation.L2Projector"),
    ("interpolation", "L2Projector.coeffs_internal", "interpolation.coeffs_internal"),
    ("interpolation", "commuting_residual", "interpolation.commuting_residual"),
    ("fields", "ManufacturedField.uv", "fields.uv"),
    ("fields", "ManufacturedField.eval", "fields.uv"),
    ("fields", "ManufacturedField.div_values", "fields.uv"),
    ("fields", "ManufacturedField.div_eval", "fields.uv"),
    ("harness", "interpolate_on_rect", "harness.interpolate_on_rect"),
    ("harness", "error_Lp", "harness.error_Lp"),
    ("harness", "run_refinement_study", "harness.run_refinement_study"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("quadrature", "legendre", "poly", "elements", "dofs", "interpolation", "fields",
          "harness", "cli")

# Field classes whose evaluations are counted inside a DOF vector.
FIELD_METHODS = (
    ("elements", "SpaceMember"),
    ("poly", "VectorPoly2D"),
    ("fields", "ManufacturedField"),
    ("fields", "CallableField"),
    ("harness", "PulledBackField"),
    ("harness", "PhysicalMemberField"),
)
EVAL_METHODS = ("uv", "div_values")

SETUP_METRICS = ("quadrature.gauss_legendre_01.ms",)
PASS_MS = (
    "legendre.grid_to_basis_exact", "poly.Polynomial2D.eval", "elements.build_space",
    "elements.span_check", "elements.SpaceMember.init", "elements.SpaceMember.uv",
    "elements.SpaceMember.div_values",
    "dofs.build_dofs", "dofs.dof_matrix_ld", "dofs.dof_vector_ld",
    "interpolation.InterpolationOperator", "interpolation.L2Projector",
    "interpolation.solve_coefficients", "interpolation.coeffs_internal",
    "interpolation.commuting_residual", "fields.uv", "harness.interpolate_on_rect",
    "harness.error_Lp", "harness.run_refinement_study", "cli.main",
)
PASS_CALLS = (
    "legendre.grid_to_basis_exact", "poly.Polynomial2D.eval", "elements.span_check",
    "elements.SpaceMember.init", "elements.SpaceMember.uv", "dofs.dof_matrix_ld",
    "dofs.dof_vector_ld", "harness.error_Lp",
)
PAIR_TAGS = tuple(f"{f}_{k}" for f, k in workloads.PAIRS)


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = [(n, "ms") for n in SETUP_METRICS]
    names += [(f"{n}.ms", "ms") for n in PASS_MS]
    names += [(f"{n}.calls", "count") for n in PASS_CALLS]
    names.append(("elements.SpaceMember.uv.points", "count"))
    names += [(f"dofs.field_evals_per_dof_vector.{t}", "count") for t in PAIR_TAGS]
    names += [(f"dofs.points_per_dof_vector.{t}", "count") for t in PAIR_TAGS]
    names += [("cli.bytes_written", "bytes"), ("trace.overhead", "ratio")]
    return names


def _module(name: str):
    return importlib.import_module(f"hdivkit.{name}")


def _npoints(x) -> int:
    return int(getattr(x, "size", 1))


class _DofContext:
    __slots__ = ("key", "depth", "evals", "points")

    def __init__(self, key):
        self.key = key
        self.depth = 0
        self.evals = 0
        self.points = 0


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        # (family_k) -> set of (evals, points) seen for non-polynomial fields
        self.dof_counts = defaultdict(set)
        self._stack = []
        self._dof = []
        self._patches = []

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.points.clear()
        self.dof_counts.clear()

    # --- wrappers --------------------------------------------------------

    def _timed(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                self.self_s[name] += duration - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration

        return wrapper

    def _dof_vector(self, fn):
        from hdivkit.poly import VectorPoly2D

        def wrapper(dofset, field, *args, **kwargs):
            if isinstance(field, VectorPoly2D):
                return fn(dofset, field, *args, **kwargs)
            ctx = _DofContext(f"{dofset.family.value}_{dofset.k}")
            self._dof.append(ctx)
            try:
                return fn(dofset, field, *args, **kwargs)
            finally:
                self._dof.pop()
                self.dof_counts[ctx.key].add((ctx.evals, ctx.points))

        return wrapper

    def _counted_eval(self, fn, points_name=None):
        dof = self._dof

        def wrapper(obj, x, *args, **kwargs):
            if points_name is not None:
                self.points[points_name] += _npoints(x)
            ctx = dof[-1] if dof else None
            if ctx is None:
                return fn(obj, x, *args, **kwargs)
            if ctx.depth == 0:
                ctx.evals += 1
                ctx.points += _npoints(x)
            ctx.depth += 1
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                ctx.depth -= 1

        return wrapper

    # --- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr, make):
        """Replace owner.attr by make(current) wherever callers look it up.

        A method is replaced on its class.  A function is replaced under
        every name an hdivkit module binds it to.  Patches stack and
        `uninstall` pops them in reverse, so one attribute may be wrapped
        more than once.
        """
        current = vars(owner).get(attr) if owner is not None else None
        if current is None:
            return
        wrapped = make(current)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for modname, module in list(sys.modules.items()):
            if module is not None and (modname == "hdivkit" or modname.startswith("hdivkit.")):
                for name, value in list(vars(module).items()):
                    if value is current:
                        self._set(module, name, wrapped)

    def install(self):
        if self._patches:
            return
        # import every layer first: a module imported after a patch would
        # bind the wrapper under its own name, which uninstall never sees
        for modname in LAYERS:
            _module(modname)
        # innermost first: the DOF-vector context and the evaluation
        # counters sit inside the timed spans of the same functions
        self._wrap(_module("dofs"), "dof_vector_ld", self._dof_vector)
        for modname, clsname in FIELD_METHODS:
            cls = getattr(_module(modname), clsname, None)
            for method in EVAL_METHODS:
                points = "elements.SpaceMember.uv" if (clsname, method) == ("SpaceMember", "uv") \
                    else None
                self._wrap(cls, method, lambda fn: self._counted_eval(fn, points))
        for modname, attr, span in SPANS:
            module = _module(modname)
            owner, _, name = attr.rpartition(".")
            self._wrap(getattr(module, owner, None) if owner else module, name,
                       lambda fn: self._timed(span, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- metrics ---------------------------------------------------------

    def setup_metrics(self) -> dict:
        """Cold quadrature-rule construction, timed while the workload sets up."""
        return {"quadrature.gauss_legendre_01.ms":
                1e3 * self.self_s["quadrature.gauss_legendre_01"]}

    def pass_metrics(self, passes: int) -> dict:
        """Per-pass self times and counts over `passes` traced passes."""
        out = {}
        for name in PASS_MS:
            out[f"{name}.ms"] = 1e3 * self.self_s[name] / passes
        for name in PASS_CALLS:
            out[f"{name}.calls"] = self.calls[name] / passes
        out["elements.SpaceMember.uv.points"] = self.points["elements.SpaceMember.uv"] / passes
        for tag in PAIR_TAGS:
            seen = self.dof_counts.get(tag, set())
            evals = max((e for e, _ in seen), default=0)
            points = max((p for _, p in seen), default=0)
            out[f"dofs.field_evals_per_dof_vector.{tag}"] = evals
            out[f"dofs.points_per_dof_vector.{tag}"] = points
        return out

    def count_consistency(self) -> dict:
        """(family_k) pairs whose DOF vectors did not all share one count."""
        return {tag: sorted(seen) for tag, seen in self.dof_counts.items() if len(seen) > 1}

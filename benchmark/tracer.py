"""Per-layer tracing from outside the package, for the traced benchmark run.

The layers are the modules of ``maxbound``.  ``Tracer.install`` replaces
each listed public function with a wrapper that records a span (name,
start, end, parent) in memory, in every ``maxbound`` module namespace
that bound the function: ``majorant``, ``optimize``, ``solver`` and the
others import the operators by name, so patching ``maxbound.operators``
alone would see none of their calls.  Methods are patched on their class.

``gronwall`` is left out on purpose: no user path spends data-dependent
time in it, and the bound's Gronwall kernel ``exp_weighted_cumulative``
is timed under ``operators``.

Byte counts are computed from the sizes of the arrays a call takes and
returns; they are not measured memory traffic.
"""

import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "config": ("load_config", "problem_from_config"),
    "problem": ("assemble_problem",),
    "fields": ("FieldTrajectory.from_fields", "FieldTrajectory.sample",
               "StaggeredField.sample"),
    "operators": ("curl_edge_to_face", "curl_face_to_edge", "cell_average",
                  "cell_average_adjoint", "apply_material_staggered",
                  "trajectory_derivative", "gram_apply", "weighted_inner",
                  "zero_tangential", "cumulative_trapezoid",
                  "exp_weighted_cumulative"),
    "solver": ("leapfrog_solve", "project_exact"),
    "snapshot": ("save_snapshot", "load_snapshot"),
    "majorant": ("certify", "residuals", "default_Y", "zero_term_parts",
                 "true_error_norms"),
    "optimize": ("optimize_all", "optimize_Y", "optimize_gamma_rho",
                 "conjugate_gradient", "BoundQuadratic.gradient", "golden_section"),
    "cli": ("main",),
}

# Top-level pipeline stages whose rise in the process high-water mark is reported.
STAGES = {
    "problem.assemble_problem": "assemble",
    "solver.leapfrog_solve": "solve",
    "snapshot.save_snapshot": "snapshot_save",
    "snapshot.load_snapshot": "snapshot_load",
    "solver.project_exact": "project",
    "majorant.certify": "certify",
    "optimize.optimize_all": "optimize_all",
}

DERIVED = {
    "fields.node.calls": ("count", "lower"),
    "solver.steps_per_s": ("1/s", "higher"),
    "snapshot.bytes": ("B", "lower"),
    "optimize.cg.iterations": ("count", "lower"),
    "optimize.cg.converged_share": ("ratio", "higher"),
    "optimize.cg.max_rel_residual": ("ratio", "lower"),
    "optimize.golden.evals": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            key = f"{module}.{func}"
            specs.append((f"{key}.calls", "count", "lower"))
            specs.append((f"{key}.self_s", "s", "lower"))
            if module == "operators":
                specs.append((f"{key}.bytes", "B", "lower"))
        specs.append((f"{module}.self_s", "s", "lower"))
    specs += [(f"{stage}.peak_rise_mb", "MB", "lower") for stage in STAGES.values()]
    specs += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return specs


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nbytes(obj, fields, material):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, fields):
        return obj.x.nbytes + obj.y.nbytes + obj.z.nbytes
    if isinstance(obj, material):
        return obj.values.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, fields, material) for o in obj)
    return 0


class Tracer:
    """Spans and counters of one traced job, kept in memory until ``metrics``."""

    def __init__(self):
        self.keys = []
        # [key index, start, end, parent span index or -1, seconds of hooks
        # run inside this span on behalf of its children]
        self.spans = []
        self._stack = []
        self.node_calls = 0
        self.bytes = defaultdict(int)
        self.stage_rise = defaultdict(float)
        self.snapshot_bytes = 0
        self.steps = 0
        self.cg_solves = 0
        self.cg_converged = 0
        self.cg_iterations = 0
        self.cg_max_rel = 0.0
        self.golden_evals = 0

    # -- installation -------------------------------------------------------

    def install(self):
        import maxbound.fields

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "maxbound" or name.startswith("maxbound."))]
        for module, funcs in LAYERS.items():
            home = sys.modules[f"maxbound.{module}"]
            for func in funcs:
                key = f"{module}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(key, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(key, raw))
                    continue
                orig = getattr(home, func)
                wrapper = self._wrap(key, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

        traj = maxbound.fields.FieldTrajectory
        node = traj.node

        def counted_node(obj, k):
            self.node_calls += 1
            return node(obj, k)

        traj.node = counted_node

    def _wrap(self, key, fn):
        kid = len(self.keys)
        self.keys.append(key)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        pre, post = self._hooks(key, fn)

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            parent = stack[-1] if stack else -1
            rec = [kid, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                for hook in post:
                    hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][4] += clock() - rec[2]
            return result

        return wrapper

    def _hooks(self, key, fn):
        """Hooks that take counts at this boundary.

        Returns ``pre(args) -> args``, run before the span opens (or None),
        and a list of ``post(args, kwargs, result)`` run after it closes.
        """
        pre = None
        post = []
        if key in STAGES:
            stage = STAGES[key]
            before = []

            def pre(args):
                before.append(_maxrss_mb())
                return args

            def stage_rise(args, kwargs, result):
                self.stage_rise[stage] += _maxrss_mb() - before.pop()

            post.append(stage_rise)
        if key.startswith("operators."):
            import maxbound.fields as mf

            kinds = ((mf.StaggeredField, mf.FieldTrajectory), mf.MaterialField)

            def computed_bytes(args, kwargs, result):
                self.bytes[key] += (_nbytes(args, *kinds) + _nbytes(result, *kinds)
                                    + _nbytes(tuple(kwargs.values()), *kinds))

            post.append(computed_bytes)
        elif key == "solver.leapfrog_solve":
            def steps(args, kwargs, result):
                self.steps += args[0].grid.nt - 1

            post.append(steps)
        elif key.startswith("snapshot."):
            def archive_bytes(args, kwargs, result):
                self.snapshot_bytes += os.path.getsize(args[0])

            post.append(archive_bytes)
        elif key == "optimize.conjugate_gradient":
            sig = inspect.signature(fn)

            def cg_outcome(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _, iters, rel = result
                self.cg_solves += 1
                self.cg_iterations += iters
                self.cg_converged += rel <= bound.arguments["tol"]
                self.cg_max_rel = max(self.cg_max_rel, rel)

            post.append(cg_outcome)
        elif key == "optimize.golden_section":
            def pre(args):
                target = args[0]

                def counted(u):
                    self.golden_evals += 1
                    return target(u)

                return (counted,) + tuple(args[1:])
        return pre, post

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"keys": self.keys, "spans": self.spans}, fh)

    def metrics(self, run_s):
        """Per-layer metrics of the traced job (``trace.overhead_share`` excepted)."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        hooks = np.array([s[4] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = dur - child - hooks
        calls = defaultdict(int)
        key_self = defaultdict(float)
        key_total = defaultdict(float)
        for i, s in enumerate(self.spans):
            key = self.keys[s[0]]
            calls[key] += 1
            key_self[key] += float(self_s[i])
            key_total[key] += float(dur[i])

        out = {}
        for module, funcs in LAYERS.items():
            for func in funcs:
                key = f"{module}.{func}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = key_self[key]
                if module == "operators":
                    out[f"{key}.bytes"] = self.bytes[key]
            out[f"{module}.self_s"] = sum(key_self[f"{module}.{f}"] for f in funcs)
        for stage in STAGES.values():
            out[f"{stage}.peak_rise_mb"] = self.stage_rise[stage]
        solve_s = key_total["solver.leapfrog_solve"]
        out["fields.node.calls"] = self.node_calls
        out["solver.steps_per_s"] = self.steps / solve_s if solve_s > 0 else 0.0
        out["snapshot.bytes"] = self.snapshot_bytes
        out["optimize.cg.iterations"] = self.cg_iterations
        out["optimize.cg.converged_share"] = (
            self.cg_converged / self.cg_solves if self.cg_solves else 0.0)
        out["optimize.cg.max_rel_residual"] = self.cg_max_rel
        out["optimize.golden.evals"] = self.golden_evals
        # Hook time is tracing overhead, not a layer's and not unattributed.
        attributed = float(self_s.sum() + hooks.sum())
        out["trace.unattributed_share"] = max(run_s - attributed, 0.0) / run_s
        return out

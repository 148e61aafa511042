"""Per-layer tracing from outside the program.

``Tracer.install`` replaces selected functions and methods of the btpgeo
modules with wrappers that record spans (name, start, duration, parent,
job) or plain counts; ``uninstall`` puts the originals back.  Nothing inside
``src/`` changes.  A function imported by name into several modules is
replaced in each of them, so every call site is seen.

A span's self time is its duration minus the time covered by its direct
child spans.  ``total`` counts only the outermost span of a name, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from btpgeo import charts, cli, forms, frames, goldens, jets, lie, linalg, scalars

# (module, attribute or "Class.method", span name, hot, reported fields).
# A hot span is called too often to keep one record per call; only its
# totals are kept.  The reported fields become the per-layer metrics
# "<span name>.<field>" (see LAYER_METRICS).
SPANS: List[Tuple[object, str, str, bool, Tuple[str, ...]]] = [
    (forms, "InvariantForm.wedge", "forms.wedge", True, ("calls", "self_ms")),
    (forms, "exterior_d", "forms.exterior_d", True, ("calls", "self_ms")),
    (lie, "classify", "lie.classify", False, ("total_ms",)),
    (lie, "solvability_profile", "lie.solvability_profile", False, ("self_ms", "total_ms")),
    (lie, "curvature_of", "lie.curvature_of", False, ("self_ms",)),
    (lie, "_btp_residuals_from", "lie.btp_residuals", False, ("self_ms",)),
    (lie, "d_squared_residual", "lie.validate", False, ("total_ms",)),
    (linalg, "hermitian_rank", "linalg.hermitian_rank", False, ("self_ms",)),
    (linalg, "exact_rank", "linalg.exact_rank", False, ("calls", "self_ms")),
    (linalg, "takagi_factorize", "linalg.takagi_factorize", False, ("total_ms",)),
    (jets, "Jet2.__mul__", "jets.Jet2.mul", True, ("calls", "self_ms")),
    (jets, "jet_matrix_inverse", "jets.jet_matrix_inverse", False, ("total_ms",)),
    (charts, "wallach_metric", "charts.wallach_metric", False, ("total_ms",)),
    (charts, "chern_curvature_at", "charts.chern_curvature_at", False, ("self_ms",)),
    (charts, "btp_residual_at", "charts.btp_residual_at", False, ("self_ms",)),
    (charts, "riemannian_curvature_at", "charts.riemannian_curvature_at", False,
     ("self_ms", "total_ms")),
    (charts, "sectional_numerator", "charts.sectional_numerator", True, ("calls", "self_ms")),
    (charts, "ricci_curvature", "charts.ricci_curvature", True, ("calls", "self_ms")),
    (frames, "build_special_frame", "frames.build_special_frame", False, ("total_ms",)),
    (cli, "_emit", "cli.emit", False, ("self_ms",)),
    (cli, "main", "cli.main", False, ()),      # the root span of each job
] + [(goldens, f"{name}_suite", f"goldens.{name}", False, ("total_ms",))
     for name in goldens.SUITES]

# ExactComplex operations are counted, not timed: a span per scalar
# operation would cost more than the operation itself.
SCALAR_COUNTS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "scalars.construct": ("__init__",),
}

# per-layer metric name -> (snapshot field, span or count name)
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    **{f"{name}.calls": ("calls", name) for name in SCALAR_COUNTS},
    **{f"{name}.{fld}": (fld, name) for _, _, name, _, flds in SPANS for fld in flds},
}

# Aliases bound at class creation that must follow the method they alias.
ALIASES = {"InvariantForm.wedge": ("__matmul__",)}

MODULES = (scalars, forms, linalg, jets, lie, charts, frames, goldens, cli)


class Tracer:
    """Aggregates spans per name; keeps full records of non-hot spans.

    A record's ``job`` is the id of the outermost span on the stack, the
    ``cli.main`` call of the job it belongs to.
    """

    def __init__(self, capture_operands: int = 0):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.terms_out = 0
        self.records: List[dict] = []
        self.enabled = False
        self.operands = {"mul": [], "add": []}
        self._capture_left = capture_operands
        self._stack: List[list] = []          # [name, start_ns, child_ns, span_id]
        self._active: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._restore: List[tuple] = []

    # ---- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.terms_out = 0
        self.records = []

    def _span(self, name: str, hot: bool, fn):
        tracer = self
        counts_terms = name in ("forms.wedge", "forms.exterior_d")

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [name, time.perf_counter_ns(), 0, tracer._next_id]
            parent = tracer._stack[-1][3] if tracer._stack else 0
            job = tracer._stack[0][3] if tracer._stack else frame[3]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._active[name] -= 1
                dur = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[2]
                if not tracer._active[name]:
                    tracer.total_ns[name] += dur
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                if not hot:
                    tracer.records.append({"name": name, "id": frame[3], "parent": parent,
                                           "job": job, "start_ns": frame[1],
                                           "dur_ns": dur})
            if counts_terms:
                tracer.terms_out += len(out.terms)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, kind: str, fn):
        tracer = self

        def wrapper(self_, *args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] += 1
                if (kind and tracer._capture_left and args
                        and type(args[0]) is scalars.ExactComplex):
                    tracer._capture_left -= 1
                    tracer.operands[kind].append((self_, args[0]))
            return fn(self_, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installing --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name, hot, _ in SPANS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = getattr(cls, meth)
                wrapped = self._span(name, hot, orig)
                for alias in (meth,) + ALIASES.get(attr, ()):
                    self._set(cls, alias, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._span(name, hot, orig)
            if name == "lie.validate":          # only the check in __init__
                self._set(lie, attr, wrapped)
                continue
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
                    elif isinstance(val, dict) and any(v is orig for v in val.values()):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._restore.append((val, k, v))
                                val[k] = wrapped
        ec = scalars.ExactComplex
        for name, methods in SCALAR_COUNTS.items():
            kind = name.split(".")[1] if name != "scalars.construct" else ""
            for meth in methods:
                self._set(ec, meth, self._counter(name, kind, vars(ec)[meth]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore = []

    # ---- results -----------------------------------------------------------
    def snapshot(self) -> dict:
        names = {name for _, _, name, _, _ in SPANS} | set(SCALAR_COUNTS)
        return {
            "calls": {n: self.calls.get(n, 0) for n in sorted(names)},
            "total_ms": {n: self.total_ns.get(n, 0) / 1e6 for n in sorted(names)},
            "self_ms": {n: self.self_ns.get(n, 0) / 1e6 for n in sorted(names)},
            "terms_out": self.terms_out,
        }


def time_scalar_ops(operands, reps: int = 7) -> Dict[str, float]:
    """Median microseconds per multiply and add on captured operand pairs."""
    ec = scalars.ExactComplex
    out = {}
    for kind, op in (("mul", ec.__mul__), ("add", ec.__add__)):
        pairs = operands[kind]
        if not pairs:
            raise ValueError(f"no ExactComplex {kind} operands were captured")
        samples = []
        for _ in range(reps):
            t = time.perf_counter()
            for x, y in pairs:
                op(x, y)
            samples.append((time.perf_counter() - t) / len(pairs) * 1e6)
        out[kind] = statistics.median(samples)
    return out

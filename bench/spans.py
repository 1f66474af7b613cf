"""Span recording around specloc's layers, installed from outside the package.

A :class:`Tracer` replaces, for the duration of a traced round, every
public function of every specloc module with a wrapper that records a
span ``(id, name, start, end, parent, answer)``.  The wrapper is bound
in every specloc namespace that holds the original function (``from
.linalg import operator_norm`` makes a second binding), so the call
graph is seen whichever name a caller uses.  ``TolerancePolicy.tau`` is
wrapped on the class.  Below specloc, the ``numpy.linalg`` kernels it
calls are wrapped too, including the ``svd`` that ``norm(., 2)`` calls
internally, so that SVDs hidden in spectral norms are counted.

Spans stay in memory; :func:`layer_metrics` reduces them to per-answer
counts, self times and computed operation counts.  A span's self time
is its duration minus the durations of its direct children (one thread,
so children never overlap).
"""

import functools
import inspect
import os
import sys
import time

MODULES = ("linalg", "gap", "localizer", "homotopy", "models", "clifford",
           "serialize", "cli", "svgplot")
NUMPY_KERNELS = ("svd", "eigvalsh", "eigh", "eigvals", "inv", "norm")
HERMITIAN_EIGENSOLVES = ("numpy.eigvalsh", "numpy.eigh")

# Leading-order real flop counts for an m x n matrix (m >= n), from the
# operation counts in Golub & Van Loan, "Matrix Computations": Householder
# bidiagonalization for the SVD, tridiagonalization for eigvalsh.  A
# complex multiply-add costs four real ones, so complex inputs count four
# times as much.  These are computed from the matrix dimensions, not measured.
COMPLEX_FACTOR = 4


def svd_flops(m: int, n: int, vectors: bool) -> float:
    m, n = max(m, n), min(m, n)
    if vectors:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def eigvalsh_flops(n: int) -> float:
    return 4.0 * n ** 3 / 3.0


def _shape_attrs(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    attrs = {"shape": list(shape[-2:]),
             "complex": bool(getattr(getattr(a, "dtype", None), "kind", "") == "c")}
    if "compute_uv" in kwargs:
        attrs["vectors"] = bool(kwargs["compute_uv"])
    elif len(args) > 2:
        attrs["vectors"] = bool(args[2])
    else:
        attrs["vectors"] = True
    return attrs


def _path_samples(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"samples": len(path.samples)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


ATTRS = {
    "homotopy.verify_path": _path_samples,
    "serialize.load_matrix": _file_bytes,
    "serialize.dumps": _text_bytes,
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, answer, attrs]
        self.answer = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            record = [len(spans), name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.answer, attrs]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if after:
                record[6] = after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy.linalg

        import specloc
        from specloc import linalg

        impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
        for kernel in NUMPY_KERNELS:
            original = getattr(numpy.linalg, kernel)
            wrapped = self._wrap(f"numpy.{kernel}", original,
                                 before=_shape_attrs if kernel != "norm" else None)
            self._patch(numpy.linalg, kernel, wrapped)
            if kernel == "svd":  # the binding norm(., 2) calls
                self._patch(impl, kernel, wrapped)

        modules = [specloc] + [sys.modules[f"specloc.{m}"] for m in MODULES
                               if f"specloc.{m}" in sys.modules]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, after=ATTRS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        policy_cls = linalg.TolerancePolicy
        self._patch(policy_cls, "tau", self._wrap("linalg.tau", policy_cls.tau))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def as_dicts(self):
        keys = ("id", "name", "start", "end", "parent", "answer", "attrs")
        return [dict(zip(keys, record)) for record in self.spans]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _under(spans, prefix):
    """Per span: True when some ancestor's name starts with ``prefix``."""
    flags = []
    for _, _, _, _, parent, _, _ in spans:
        flags.append(parent is not None
                     and (flags[parent] or spans[parent][1].startswith(prefix)))
    return flags


def _flops(name, attrs):
    rows, cols = attrs["shape"]
    factor = COMPLEX_FACTOR if attrs["complex"] else 1
    if name == "numpy.svd":
        return factor * svd_flops(rows, cols, attrs["vectors"])
    return factor * eigvalsh_flops(rows)


PER_ANSWER_CALLS = ("numpy.svd", "numpy.eigvalsh", "linalg.operator_norm", "linalg.tau",
                    "linalg.eig_hermitian", "localizer.build_generalized",
                    "gap.delta_singular_check", "gap.s_gap")
PER_ANSWER_SELF = ("numpy.svd", "numpy.eigvalsh", "linalg.operator_norm",
                   "linalg.eig_hermitian", "localizer.build_generalized",
                   "localizer.build_reduced", "localizer.index", "localizer.valid_region",
                   "localizer.commutator_norm", "localizer.localizer_gap",
                   "gap.delta_singular_check", "gap.bordered", "homotopy.verify_path",
                   "homotopy.contract_invertible", "models.winding_demo",
                   "models.circle_unitary_truncation", "clifford.clifford_rep",
                   "serialize.load_matrix", "serialize.dumps",
                   "svgplot.eigenvalue_scatter", "cli.main")
PER_ANSWER_BYTES = ("serialize.load_matrix", "serialize.dumps")


def layer_metrics(spans, answers):
    """Reduce spans of ``answers`` traced answers to the per-layer metric table."""
    own = self_times(spans)
    calls, self_s, gflop, nbytes = {}, {}, {}, {}
    max_eig_dim = 0
    for (_, name, _, _, _, _, attrs), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if name in ("numpy.svd", "numpy.eigvalsh"):
            gflop[name] = gflop.get(name, 0.0) + _flops(name, attrs) / 1e9
        if name == "numpy.eigvalsh":
            max_eig_dim = max(max_eig_dim, attrs["shape"][0])
        if attrs and "bytes" in attrs:
            nbytes[name] = nbytes.get(name, 0) + attrs["bytes"]

    in_localizer = _under(spans, "localizer.")
    in_verify = _under(spans, "homotopy.verify_path")
    eig_dim_localizer = 0
    path_eigensolves = 0
    for record, loc, ver in zip(spans, in_localizer, in_verify):
        if record[1] in HERMITIAN_EIGENSOLVES:
            eig_dim_localizer += record[6]["shape"][0] if loc else 0
            path_eigensolves += 1 if ver else 0
    path_samples = sum(r[6]["samples"] for r in spans if r[1] == "homotopy.verify_path")
    eigensolves = sum(calls.get(n, 0) for n in HERMITIAN_EIGENSOLVES)

    metrics = {}
    for name in PER_ANSWER_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / answers, "calls/answer")
    for name in PER_ANSWER_SELF:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / answers, "s/answer")
    for name in ("numpy.svd", "numpy.eigvalsh"):
        metrics[f"{name}.gflop_computed"] = (gflop.get(name, 0.0) / answers, "GFLOP/answer")
    for name in PER_ANSWER_BYTES:
        metrics[f"{name}.bytes"] = (nbytes.get(name, 0) / answers, "bytes/answer")
    other = sum(t for n, t in self_s.items()
                if n.startswith("numpy.") and n not in ("numpy.svd", "numpy.eigvalsh"))
    metrics["numpy.other.self_s"] = (other / answers, "s/answer")
    metrics["numpy.eigvalsh.max_dim"] = (max_eig_dim, "rows")
    metrics["linalg.svd_per_eigensolve"] = (
        calls.get("numpy.svd", 0) / eigensolves if eigensolves else 0.0, "ratio")
    metrics["localizer.eig_dim_per_answer"] = (eig_dim_localizer / answers, "rows/answer")
    metrics["homotopy.eigensolves_per_sample"] = (
        path_eigensolves / path_samples if path_samples else 0.0, "ratio")
    return metrics


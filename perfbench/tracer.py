"""Outside-in span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
program: every name that binds a target function in any loaded
``tensor_chernoff`` module is replaced by a timing wrapper (``runner`` and
``chernoff`` both bind ``sample_walks_array``, for example), and three
methods are wrapped on their classes. Nothing inside ``src/`` records spans.

Spans are kept in memory as ``(name, start, end, parent, job)`` and written
out once, at the end. A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "tensor_chernoff"

# (span name, defining module, attribute) for module-level functions
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("config.load_config", "config", "load_config"),
    ("runner.run", "runner", "run"),
    ("reporting.emit", "reporting", "emit"),
    ("graphs.sample_walks_array", "graphs", "sample_walks_array"),
    ("graphs.spectral_expansion", "graphs", "spectral_expansion"),
    ("chernoff.empirical_tail_sweep", "chernoff", "empirical_tail_sweep"),
    ("chernoff.contraction_certificate", "chernoff", "contraction_certificate"),
    ("chernoff.transfer_expectation", "chernoff", "transfer_expectation"),
    ("chernoff.theorem_bound", "chernoff", "theorem_bound"),
    ("chernoff.fit_gaussian_domination", "chernoff", "fit_gaussian_domination"),
    ("chernoff.random_assignment", "chernoff", "random_assignment"),
    ("inequalities.golden_thompson_rhs_log", "inequalities", "golden_thompson_rhs_log"),
    ("inequalities.golden_thompson_rhs_linear", "inequalities", "golden_thompson_rhs_linear"),
    ("inequalities.golden_thompson_lhs", "inequalities", "golden_thompson_lhs"),
    (
        "inequalities.verify_discrete_average_majorization",
        "inequalities",
        "verify_discrete_average_majorization",
    ),
    ("tensors.hermitian_eig", "tensors", "hermitian_eig"),
    ("tensors.abs_tensor", "tensors", "abs_tensor"),
    ("tensors.spectral_map", "tensors", "spectral_map"),
    ("norms.ky_fan_norm", "norms", "ky_fan_norm"),
    ("majorization.check_kyfan_sum_inequality", "majorization", "check_kyfan_sum_inequality"),
    ("sampling.random_tensor", "sampling", "random_tensor"),
    ("sampling.random_hermitian", "sampling", "random_hermitian"),
    ("sampling.random_positive", "sampling", "random_positive"),
    ("sampling.random_unitary", "sampling", "random_unitary"),
    ("sampling.random_bounded_hermitian", "sampling", "random_bounded_hermitian"),
)

# (span name, defining module, class, method) for methods wrapped on the class
METHODS = (
    ("inequalities.nodes_weights", "inequalities", "QuadratureSpec", "nodes_weights"),
    ("graphs.edge_slots", "graphs", "RegularGraph", "edge_slots"),
    ("tensors.HermitianTensor", "tensors", "HermitianTensor", "__init__"),
)

SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS) + tuple(name for name, *_ in METHODS)


def _graph_digest(graph) -> str:
    return hashlib.blake2b(graph.adjacency.tobytes(), digest_size=16).hexdigest()


def _nodes_key(spec, node_count=None):
    return (spec.node_count if node_count is None else int(node_count), float(spec.truncation))


# Per-call keys: distinct keys over calls is the share of calls doing new
# work, the rest being repeats a cache could serve.
KEYS = {
    "inequalities.nodes_weights": _nodes_key,
    "graphs.edge_slots": _graph_digest,
    "graphs.spectral_expansion": _graph_digest,
}


class TraceError(RuntimeError):
    """A function the tracer must wrap could not be found."""


class Tracer:
    """Records spans and call keys while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.keys: dict[tuple[str, int], list] = defaultdict(list)
        self.walks: dict[int, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.binding_sites: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for span, module, attr in FUNCTIONS:
            target = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr, None)
            if not callable(target):
                raise TraceError(f"{PACKAGE}.{module}.{attr} not found; update perfbench/tracer.py")
            wrapper = self._wrap(span, target)
            sites = 0
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, name, target))
                        setattr(mod, name, wrapper)
                        sites += 1
            self.binding_sites[span] = sites
        for span, module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name, None)
            target = vars(cls).get(method) if isinstance(cls, type) else None
            if not callable(target):
                raise TraceError(
                    f"{PACKAGE}.{module}.{cls_name}.{method} not found; update perfbench/tracer.py"
                )
            self._restore.append((cls, method, target))
            setattr(cls, method, self._wrap(span, target))
            self.binding_sites[span] = 1

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        key_fn = KEYS.get(span)
        count_walks = span == "graphs.sample_walks_array"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                self.keys[(span, self.job)].append(key_fn(*args, **kwargs))
            if count_walks:
                num = kwargs.get("num_walks", args[2] if len(args) > 2 else 0)
                self.walks[self.job] += int(num)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[span] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.job)

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, _, _, _, _ in self.spans:
            out[name] += 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")

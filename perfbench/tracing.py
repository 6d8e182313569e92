"""Span wrappers and Scalar operator counters for the traced run.

Nothing here edits hvlab's files.  ``Tracer.install`` replaces, at run
time, every public function of each layer module wherever it is bound:
``decompose`` calls ``validate_behavior`` through its own module
namespace, so that binding is wrapped too.  ``uninstall`` puts the
originals back.  Scalar arithmetic is counted, not timed: one clock read
costs about as much as the operation it would time.

Spans are kept in memory as ``[name, start, end, parent]`` lists; a root
span per item makes the spans of one item share an identifier (the root
index).  They are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# The package's modules, which are the benchmark's layers.  ``scalar``
# is measured by operator counts only.
LAYERS = ("scalar", "boxes", "hvmodel", "bell", "decompose", "simplex", "formats", "catalog", "cli")
TIMED_LAYERS = LAYERS[1:]
# Private functions worth a span: every file read goes through _load_json.
EXTRA_FUNCTIONS = {"formats": ("_load_json",)}
LOAD_FUNCTIONS = {
    "formats.load_box",
    "formats.load_model",
    "formats.load_expression",
    "formats.load_any",
    "formats._load_json",
    "formats.behavior_from_dict",
    "formats.model_from_dict",
    "formats.expression_from_dict",
}
SAVE_FUNCTIONS = {
    "formats.save_box",
    "formats.save_model",
    "formats.save_expression",
    "formats.behavior_to_dict",
    "formats.model_to_dict",
    "formats.expression_to_dict",
    "formats.dump_json",
}
SCALAR_OPERATORS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__rsub__": "add",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "sign": "sign",
}
ROOT = "item"
# The functions whose calls, inclusive (busy) and exclusive (self) time
# the traced run reports.
COUNTED_FUNCTIONS = (
    "simplex.solve_lp",
    "simplex.check_certificate",
    "bell.evaluate",
    "boxes.validate_behavior",
    "boxes.is_no_signalling",
    "boxes.deterministic_behavior",
    "hvmodel.validate_model",
)
BUSY_FUNCTIONS = COUNTED_FUNCTIONS + (
    "decompose.enumerate_local_vertices",
    "decompose.content_lp_problem",
    "decompose.verify_decomposition",
    "decompose.decomposition_to_model",
    "bell.local_bound",
    "boxes.mix",
    "boxes.check_product",
    "hvmodel.check_locality",
    "hvmodel.check_triviality",
    "hvmodel.nontrivial_weight",
    "hvmodel.guessing_probability",
    "hvmodel.first_mover_joint",
    "hvmodel.reconstruct",
)
SELF_FUNCTIONS = ("decompose.max_local_content", "bell.ns_bound")


def _bits(scalar) -> int:
    return max(
        scalar.a.numerator.bit_length(),
        scalar.a.denominator.bit_length(),
        scalar.b.numerator.bit_length(),
        scalar.b.denominator.bit_length(),
    )


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.roots: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: module for name, module in sys.modules.items() if name == "hvlab" or name.startswith("hvlab.")}
        wrappers: dict[object, object] = {}
        for layer in TIMED_LAYERS:
            module = modules[f"hvlab.{layer}"]
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in EXTRA_FUNCTIONS.get(layer, ()):
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        scalar_class = modules["hvlab.scalar"].Scalar
        for attribute, op in SCALAR_OPERATORS.items():
            self._patch(scalar_class, attribute, self._count(getattr(scalar_class, attribute), op))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _count(self, fn, op: str):
        counts = self.counts
        if op == "mul":

            def counted(self_, other):
                counts["mul"] += 1
                if self_.b or getattr(other, "b", 0):
                    counts["mul_sqrt2"] += 1
                return fn(self_, other)

        elif op == "sign":

            def counted(self_):
                counts["sign"] += 1
                return fn(self_)

        else:

            def counted(self_, other):
                counts[op] += 1
                return fn(self_, other)

        return functools.wraps(fn)(counted)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        hook = {
            "simplex.solve_lp": self._after_solve,
            "formats._load_json": self._after_load,
            "formats.save_box": self._after_save,
            "formats.save_model": self._after_save,
            "formats.save_expression": self._after_save,
        }.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _after_solve(self, args, solution) -> None:
        problem = args[0]
        self.counts["lp_cells"] += len(problem.b) * len(problem.c)
        values = list(solution.q or ()) + list(solution.dual or ())
        if solution.value is not None:
            values.append(solution.value)
        bits = max((_bits(v) for v in values), default=0)
        self.counts["max_bits"] = max(self.counts["max_bits"], bits)

    def _after_load(self, args, _result) -> None:
        self.counts["load_bytes"] += os.path.getsize(args[0])

    def _after_save(self, args, _result) -> None:
        self.counts["save_bytes"] += os.path.getsize(args[1])

    @contextmanager
    def item(self, key: str):
        """Root span of one item; every span it causes shares its index."""
        index = len(self.spans)
        span = [ROOT, perf_counter(), 0.0, -1]
        self.roots[index] = key
        self.stack.append(index)
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function calls and shares of the traced time, plus the
        derived layer figures, keyed as in BENCHMARK.json.

        Times are given as shares of the time the traced items took, so
        that they do not move with the speed of the machine: ``busy`` is
        inclusive, ``self`` excludes the time of the span's children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_local_bound = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_local_bound[i] = in_local_bound[parent] or spans[parent][0] == "bell.local_bound"
        total = sum(end - start for name, start, end, _ in spans if name == ROOT) or 1.0
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        load_busy = save_busy = 0.0
        strategies = 0
        for i, (name, start, end, parent) in enumerate(spans):
            if name == ROOT:
                continue
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            own = duration - child_time[i]
            self_time[name] += own
            layer_self[name.split(".", 1)[0]] += own
            outermost = parent < 0 or not spans[parent][0].startswith("formats.")
            if outermost and name in LOAD_FUNCTIONS:
                load_busy += duration
            if outermost and name in SAVE_FUNCTIONS:
                save_busy += duration
            if name == "boxes.deterministic_behavior" and in_local_bound[i]:
                strategies += 1
        out: dict[str, float] = {}
        for function in COUNTED_FUNCTIONS:
            out[f"{function}.calls"] = calls[function]
        for function in BUSY_FUNCTIONS:
            out[f"{function}.busy_share"] = busy[function] / total
        for function in SELF_FUNCTIONS:
            out[f"{function}.self_share"] = self_time[function] / total
        out["bell.local_bound.strategies"] = strategies
        out["simplex.lp.cells"] = self.counts["lp_cells"]
        out["simplex.solution.max_bits"] = self.counts["max_bits"]
        for op in ("mul", "add", "div", "sign"):
            out[f"scalar.{op}.calls"] = self.counts[op]
        out["scalar.mul.sqrt2_share"] = self.counts["mul_sqrt2"] / self.counts["mul"] if self.counts["mul"] else 0.0
        out["formats.load.busy_share"] = load_busy / total
        out["formats.load.bytes"] = self.counts["load_bytes"]
        out["formats.save.busy_share"] = save_busy / total
        out["formats.save.bytes"] = self.counts["save_bytes"]
        for layer in TIMED_LAYERS:
            out[f"layer.{layer}.self_share"] = layer_self[layer] / total
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, tagged with the key of the item that caused it."""
        item_of = [""] * len(self.spans)
        for i, (name, _start, _end, parent) in enumerate(self.spans):
            item_of[i] = self.roots.get(i, "") if parent < 0 else item_of[parent]
        rows = [
            [name, round(start, 7), round(end, 7), parent, item_of[i]]
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "fields": ["name", "start", "end", "parent", "item"], "spans": rows}))

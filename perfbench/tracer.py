"""Spans around the public function of each pipeline layer, from outside.

The tracer swaps wrappers into the module attributes that the calling code
looks up, and puts the original functions back when it is removed, so an
untraced pass runs the unwrapped code.  Names are reached through
``sys.modules`` because ``import secres`` rebinds ``secres.discriminant``
and friends to functions.  ``cli.main`` is wrapped where the benchmark calls
it, the stage functions where ``secres.cli`` imports them, and ``all_roots``
where ``secular``, ``charpoly`` and ``discriminant`` import it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# layer name -> the (module, attribute) bindings the pipeline calls it through
LAYERS = {
    "cli.main": [("secres.cli", "main")],
    "model.load_model": [("secres.cli", "load_model")],
    "rspt.p_space_series": [("secres.cli", "p_space_series")],
    "secular.reconstruct": [("secres.cli", "reconstruct")],
    "secular.eigenvalues_at": [("secres.cli", "eigenvalues_at")],
    "charpoly.characteristic_polynomial": [("secres.cli", "characteristic_polynomial")],
    "charpoly.exact_eigenvalues_at": [("secres.cli", "exact_eigenvalues_at")],
    "discriminant.discriminant": [("secres.cli", "discriminant")],
    "discriminant.exceptional_points": [("secres.cli", "exceptional_points")],
    "roots.all_roots": [
        ("secres.secular", "all_roots"),
        ("secres.charpoly", "all_roots"),
        ("secres.discriminant", "all_roots"),
    ],
}


class Tracer:
    """Records (name, start_ns, end_ns, parent index) spans and layer counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for name, bindings in LAYERS.items():
            for module_name, attr in bindings:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)

    def _wrap(self, name, fn):
        stack = self._stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per layer: calls, busy seconds and self seconds over the held spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[index]) * 1e-9
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name},{start},{end},{parent}\n")


def _observe_roots(counters, args, result) -> None:
    degree = len(result.roots)
    counters["roots.all_roots.degree_sum"] += degree
    counters["roots.all_roots.degree_max"] = max(counters["roots.all_roots.degree_max"], degree)
    counters["roots.all_roots.unconverged"] += not result.converged
    counters["roots.all_roots.residual_max"] = max(
        counters["roots.all_roots.residual_max"], result.max_residual
    )


def _observe_discriminant(counters, args, result) -> None:
    counters["discriminant.discriminant.sylvester_n_max"] = max(
        counters["discriminant.discriminant.sylvester_n_max"], 2 * args[0].degree - 1
    )
    counters["discriminant.discriminant.lambda_degree_max"] = max(
        counters["discriminant.discriminant.lambda_degree_max"], result.degree
    )


_OBSERVERS = {
    "roots.all_roots": _observe_roots,
    "discriminant.discriminant": _observe_discriminant,
}

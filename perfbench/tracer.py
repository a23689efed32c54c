"""Spans around the public functions of each twoec module, from outside.

A wrapper is installed on the module attribute the caller looks the
function up in (a name imported with `from .oracle import min_2ecss` is a
global of the importing module), so one function can be traced separately
per caller. Spans are kept in memory as tuples and written out once, at the
end of the run. `uninstall` puts every original function back.
"""

import functools
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from twoec import harness, oracle, reduction

# maps a call's result to the span's outcome count
Outcome = Optional[Callable[[object], int]]


def _found(result: object) -> int:
    return int(result is not None)


def _glue_moves(result: object) -> int:
    return len(result[1])


# (module, attribute looked up by the caller, layer name, outcome)
WRAPPED: List[Tuple[object, str, str, Outcome]] = [
    (harness, "solve", "harness.solve", None),
    (harness, "reduce", "reduction.reduce", None),
    (reduction, "cut_vertices", "graph.cut_vertices", None),
    (reduction, "find_irrelevant_edge", "graph.find_irrelevant_edge", _found),
    (reduction, "two_vertex_cuts", "graph.two_vertex_cuts", None),
    (reduction, "opt_type", "oracle.opt_type", None),
    (reduction, "find_contractible_subgraph",
     "oracle.find_contractible_subgraph", _found),
    (oracle, "min_inner_edges", "oracle.min_inner_edges", None),
    (reduction, "min_2ecss", "oracle.min_2ecss.base", None),
    (oracle, "min_2ecss", "oracle.min_2ecss.contract", None),
    (harness, "min_2ecss", "oracle.min_2ecss.opt", None),
    (harness, "structured_solver", "harness.structured_solver", None),
    (harness, "initial_cover", "cover.initial_cover", None),
    (harness, "canonicalize", "cover.canonicalize", None),
    (harness, "cover_all", "bridge_cover.cover_all", None),
    (harness, "glue_all", "gluing.glue_all", _glue_moves),
    (harness, "verify", "harness.verify", None),
    (harness, "parse_instance", "harness.parse_instance", None),
]

LAYERS = [layer for _m, _a, layer, _o in WRAPPED]

# span: (layer index, start, end, parent span index or -1, instance, outcome)
Span = Tuple[int, float, float, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instance = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for li, (module, attr, _layer, outcome) in enumerate(WRAPPED):
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, li, outcome))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, fn: Callable, li: int, outcome: Outcome) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserved so children get larger indices
            stack.append(sid)
            note = -1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    note = outcome(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (li, t0, t1, parent, self.instance, note)
        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy time (union of its spans, so a span nested
        in a span of the same layer is not counted twice), self time (span
        time not covered by child spans) and the sum of call outcomes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for li, t0, t1, parent, _inst, _note in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "hits": 0}
               for layer in LAYERS}
        for sid, (li, t0, t1, parent, _inst, note) in enumerate(spans):
            row = out[LAYERS[li]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[sid]
            if note > 0:
                row["hits"] += note
            p = parent
            while p >= 0 and spans[p][0] != li:
                p = spans[p][3]
            if p < 0:
                row["busy_s"] += t1 - t0
        return out

    def write(self, path, extra: Dict[str, object]) -> None:
        """Spans (times in microseconds from the first span) and the
        per-layer summary, as one JSON file."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["layers"] = LAYERS
        doc["span_fields"] = ["layer", "start_us", "end_us", "parent",
                              "instance", "outcome"]
        doc["spans"] = [[li, round((t0 - base) * 1e6),
                         round((t1 - base) * 1e6), parent, inst, note]
                        for li, t0, t1, parent, inst, note in self.spans]
        doc["summary"] = self.summary()
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

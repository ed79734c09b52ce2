"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function, recorded from the
benchmark's side of the call: name (``layer.function``), start and end in
``perf_counter_ns`` units, the index of the enclosing span (-1 for none), the
operation id, counts noted at the same boundary, and whether the call
raised. Spans stay in memory until the run ends, then go to one JSON file.

The untraced run uses ``NULL``, whose spans record nothing, so the code
under measurement is the same in both runs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("corridor", "scoring", "ivim", "rsu", "cli")


class _Span:
    __slots__ = ("_recorder", "name", "counts", "_index", "_parent", "_start")

    def __init__(self, recorder: "Recorder", name: str, counts: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.counts = counts

    def note(self, key: str, value: float) -> None:
        self.counts[key] = value

    def __enter__(self) -> "_Span":
        rec = self._recorder
        self._parent = rec._stack[-1] if rec._stack else -1
        self._index = len(rec.spans)
        rec.spans.append(None)
        rec._stack.append(self._index)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = perf_counter_ns()
        rec = self._recorder
        rec._stack.pop()
        rec.spans[self._index] = (
            self.name, self._start, end, self._parent, rec.op, self.counts, exc_type is not None
        )


class _NullSpan:
    __slots__ = ()

    def note(self, key: str, value: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class _NullRecorder:
    active = False
    op = -1
    _span = _NullSpan()

    def span(self, name: str, **counts) -> _NullSpan:
        return self._span


NULL = _NullRecorder()


class Recorder:
    """Collects spans; ``op`` is the id stamped on spans opened from now on."""

    active = True

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str, **counts) -> _Span:
        return _Span(self, name, counts)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _, _ in self.spans]
        for _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-function self times (ns, one entry per call), counts, total
        time and calls of each ``parent>child`` pair, and each layer's self
        time per traced operation. An ``op`` span notes in ``ops`` how many
        operations it holds."""
        own = self.self_times()
        per_call: dict[str, list[int]] = defaultdict(list)
        counts: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        failed: dict[str, int] = defaultdict(int)
        layer_ns: dict[str, int] = defaultdict(int)
        children: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        n_ops = 0
        for (name, start, end, parent, op, span_counts, raised), self_ns in zip(self.spans, own):
            per_call[name].append(self_ns)
            if parent >= 0:
                total = children[f"{self.spans[parent][0]}>{name}"]
                total[0] += end - start
                total[1] += 1
            for key, value in span_counts.items():
                counts[name][key].append(value)
            failed[name] += raised
            if name == "op":
                n_ops += span_counts.get("ops", 1)
            elif self._under_op(parent):
                layer_ns[name.split(".")[0]] += self_ns
        return {
            "per_call_ns": dict(per_call),
            "counts": {name: dict(c) for name, c in counts.items()},
            "failed": dict(failed),
            "children": dict(children),
            "layer_self_ms_per_op": {
                layer: layer_ns.get(layer, 0) / 1e6 / max(1, n_ops) for layer in LAYERS
            },
        }

    def _under_op(self, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == "op":
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ["name", "start_ns", "end_ns", "parent", "op", "counts", "raised"]
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"fields": keys, "spans": self.spans}, handle)


"""Spans and counters recorded from outside the package.

A Tracer replaces functions in a module's namespace, so every caller
that looks the name up there goes through the wrapper. Spans (name,
start, end, parent span, operation id) stay in memory until dump().
The hottest functions are counted without spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.jw_pairs: set[tuple[int, str, str]] = set()  # (op id, a, b): distinct within an operation
        self.lookups: list[tuple[str, tuple]] = []  # dictionary lookups, for replay
        self.op_id = 0
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end))

    def patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner: object, attr: str, name: str, count: str | None = None) -> None:
        """Record a span named `name` around every call of owner.attr."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            return self.call(name, original, *args, **kwargs)

        self.patch(owner, attr, wrapper)

    def wrap_count(self, owners: list[object], attr: str, count: str) -> None:
        """Count calls of attr in each namespace, without spans."""
        original = getattr(owners[0], attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return original(*args, **kwargs)

        for owner in owners:
            self.patch(owner, attr, wrapper)

    def wrap_jaro_winkler(self, owners: list[object]) -> None:
        original = getattr(owners[0], "jaro_winkler")
        counts = self.counts
        pairs = self.jw_pairs

        def wrapper(a, b):
            counts["strsim.jaro_winkler_calls"] += 1
            pairs.add((self.op_id, a, b))
            return original(a, b)

        for owner in owners:
            self.patch(owner, "jaro_winkler", wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (span-name prefix) not covered by child spans,
        over the spans of operations (op id > 0)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, op, name, start, end in self.spans:
            if op:
                out[name.split(".", 1)[0]] += (end - start) - child_time[span_id]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


ALIGN_STAGES = ("translate", "string", "lexical", "structure", "select")
ALIGN_COUNTS = (
    "labelkit.translator_calls",
    "dictstore.lookup_calls",
    "labelkit.tokenize_calls",
    "labelkit.token_sequence_match_calls",
    "strsim.jaro_winkler_calls",
    "taxsim.lexical_match_calls",
    "structsim.tree_similarity_calls",
)


def align_layers(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation counts, stage seconds and layer self times of `ops`
    traced align() operations."""
    ops = max(ops, 1)
    out = {name: tracer.counts[name] / ops for name in ALIGN_COUNTS}
    out["strsim.distinct_pair_ratio"] = len(tracer.jw_pairs) / max(
        tracer.counts["strsim.jaro_winkler_calls"], 1
    )
    for stage in ALIGN_STAGES:
        out[f"aligner.{stage}_s"] = tracer.total(f"aligner.{stage}") / ops
    for step in ("rules", "expand_tree", "tree_similarity"):
        out[f"structsim.{step}_s"] = tracer.total(f"structsim.{step}") / ops
    for layer, seconds in tracer.self_times().items():
        if layer != "bench":  # the benchmark's own span around each operation
            out[f"{layer}.self_s"] = seconds / ops
    return out


def instrument_aligner(tracer: Tracer) -> None:
    """Spans around each align() stage; counts for the hot helpers."""
    from lexalign import aligner, labelkit, structsim

    tracer.wrap_span(aligner, "align", "aligner.align")
    tracer.wrap_span(aligner, "_translated", "aligner.translate")
    tracer.wrap_span(aligner, "string_correspondences", "aligner.string")
    tracer.wrap_span(aligner, "lexical_correspondences", "aligner.lexical")
    tracer.wrap_span(aligner, "structural_correspondences", "aligner.structure")
    tracer.wrap_span(aligner, "greedy_one_to_one", "aligner.select")
    tracer.wrap_span(aligner, "translate_label", "labelkit.translate_label")
    tracer.wrap_span(aligner, "triple_rule", "structsim.rules")
    tracer.wrap_span(aligner, "subclass_rule", "structsim.rules")
    tracer.wrap_span(aligner, "expand_tree", "structsim.expand_tree")
    tracer.wrap_span(
        aligner, "tree_similarity", "structsim.tree_similarity", count="structsim.tree_similarity_calls"
    )
    tracer.wrap_count([aligner], "lexical_match", "taxsim.lexical_match_calls")
    tracer.wrap_count([aligner, labelkit, structsim], "tokenize", "labelkit.tokenize_calls")
    tracer.wrap_count(
        [aligner, structsim], "token_sequence_match", "labelkit.token_sequence_match_calls"
    )
    tracer.wrap_jaro_winkler([aligner, structsim])


def instrument_translator(tracer: Tracer, translator) -> None:
    """Span and count every translate() call of one translator object."""
    tracer.wrap_span(translator, "translate", "labelkit.translator", count="labelkit.translator_calls")


def instrument_lookups(
    tracer: Tracer, owner: object, names: dict[str, str], span: str, count: str, first: int = 0
) -> None:
    """Span, count and record for replay every dictionary lookup made
    through owner.<attr>. `names` maps each attr to the DictionaryStore
    method it mirrors; the lookup's three arguments start at `first`."""
    for attr, method in names.items():
        original = getattr(owner, attr)

        def wrapper(*args, _original=original, _method=method, **kwargs):
            tracer.counts[count] += 1
            tracer.lookups.append((_method, args[first : first + 3]))
            return tracer.call(span, _original, *args, **kwargs)

        tracer.patch(owner, attr, wrapper)


def instrument_store(tracer: Tracer, store) -> None:
    instrument_lookups(
        tracer,
        store,
        {"translations": "translations", "reverse_translations": "reverse_translations"},
        "dictstore.lookup",
        "dictstore.lookup_calls",
    )


def replay_lookups(store, lookups: list[tuple[str, tuple]], repeat: int = 3) -> float:
    """Mean microseconds per lookup when the recorded lookups run again
    in-process on `store`; the fastest of `repeat` passes."""
    if not lookups:
        return 0.0
    calls = [(getattr(store, method), args) for method, args in lookups]
    best = float("inf")
    for _ in range(repeat):
        start = _clock()
        for fn, args in calls:
            fn(*args)
        best = min(best, _clock() - start)
    return best / len(calls) * 1e6

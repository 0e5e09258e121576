"""Span recording around the public calls of each mastrat module.

The wrappers live here, outside the package: installing them replaces a
module function or class attribute with a timing wrapper, and removing
them puts the original back.  Spans (name, phase, start, end, parent) are
kept in memory and written out once the traced pass ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from mastrat import aberration, blocks, gf2, keys, search

# (owner, attribute, span name).  Run-phase spans cover the timed rounds;
# set-up spans cover building the inputs.  `blocks` and the problem
# constructor are set-up layers, so inside the timed phase their time
# stays with the caller.
RUN_TARGETS = (
    (gf2.BitMatrix, "inverse", "gf2.inverse"),
    (keys.GeneratorSet, "is_invertible", "keys.is_invertible"),
    (search.RegularEvaluator, "__init__", "search.evaluator_init"),
    (search.RegularEvaluator, "counts", "search.counts"),
    (search.RegularEvaluator, "value", "search.value"),
    (search, "mix_regular", "search.mix_regular"),
    (search, "run_algorithm3", "search.run_algorithm3"),
    (search, "mix_nonregular", "search.mix_nonregular"),
    (search.NonregularProblem, "exact_value", "search.exact_value"),
    (search, "run_algorithm4", "search.run_algorithm4"),
    (search.NonregularProblem, "design_rows", "search.design_rows"),
    (aberration, "compute_Bki_matrix", "aberration.compute_Bki_matrix"),
    (aberration, "criterion_vector", "aberration.criterion_vector"),
)
SETUP_TARGETS = (
    (blocks, "parse_structure", "blocks.parse_structure"),
    (blocks.BlockStructure, "from_class_table", "blocks.from_class_table"),
    (blocks, "strata_projectors", "blocks.strata_projectors"),
    # search imported the name, so its module needs the wrapper too.
    (search, "strata_projectors", "blocks.strata_projectors"),
    (search.NonregularProblem, "__init__", "search.problem_init"),
)
RUN_SPANS = tuple(dict.fromkeys(name for _, _, name in RUN_TARGETS))
SETUP_SPANS = tuple(dict.fromkeys(name for _, _, name in SETUP_TARGETS))
# Spans whose False returns are counted (singular keys).
COUNT_FALSE = frozenset({"keys.is_invertible"})


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    false_returns: int = 0


class Recorder:
    """In-memory span log for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.false_returns: Counter[tuple[str, str]] = Counter()
        self.phase = "setup"
        self.origin = perf_counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_false = name in COUNT_FALSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, self.phase, start, end, parent)
            if count_false and out is False:
                self.false_returns[(self.phase, name)] += 1
            return out

        return wrapper

    def install(self, targets) -> None:
        for owner, attr, name in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def stats(self, phase: str) -> dict[str, SpanStats]:
        """Calls, inclusive time and self time per span name in one phase.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because every call is on one thread.
        """
        child_s = [0.0] * len(self.spans)
        for name, ph, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, ph, start, end, parent) in enumerate(self.spans):
            if ph != phase:
                continue
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_s[i]
        for (ph, name), n in self.false_returns.items():
            if ph == phase:
                out.setdefault(name, SpanStats()).false_returns = n
        return out

    def covered_s(self, phase: str) -> float:
        """Time covered by the phase's outermost spans."""
        return sum(
            end - start
            for name, ph, start, end, parent in self.spans
            if ph == phase and parent < 0
        )

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times relative to the pass start."""
        with gzip.open(path, "wt") as fh:
            for name, ph, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        [name, ph, start - self.origin, end - self.origin, parent]
                    )
                    + "\n"
                )

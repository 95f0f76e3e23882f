"""In-memory span tracing of rankrel's public functions, from outside.

``Tracer.install()`` wraps each target function where it is defined and at
every ``rankrel`` module binding that imported it by name, plus the listed
class methods; ``uninstall()`` puts the originals back.  Span targets record
name, start, end, parent span and request id into flat arrays, and keep
running per-name totals: calls, self time (duration minus the time covered
by child spans), and rows in/out where the arguments and result are tables.
Counter targets (per-row score comparisons and connectives, the recursive
formula evaluator) only count calls, since a span each would cost more than
the work it measures.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from rankrel.table import RankedTable
from rankrel.topk import SortedSource, TopKResult

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("rankrel.algebra", "natural_join", "algebra.natural_join"),
    ("rankrel.algebra", "restrict", "algebra.restrict"),
    ("rankrel.algebra", "project", "algebra.project"),
    ("rankrel.algebra", "union_tables", "algebra.union_tables"),
    ("rankrel.algebra", "difference", "algebra.difference"),
    ("rankrel.algebra", "semijoin", "algebra.semijoin"),
    ("rankrel.algebra", "rename", "algebra.rename"),
    ("rankrel.table", "RankedTable.__init__", "table.build"),
    ("rankrel.table", "RankedTable.rows_by_rank", "table.rows_by_rank"),
    ("rankrel.table", "read_table_csv", "table.read_table_csv"),
    ("rankrel.table", "write_table_csv", "table.write_table_csv"),
    ("rankrel.conditions", "ExprCondition.score_of", "conditions.score_of"),
    ("rankrel.conditions", "TableCondition.score_of", "conditions.score_of"),
    ("rankrel.conditions", "ComposedCondition.score_of", "conditions.score_of"),
    ("rankrel.topk", "SortedSource.from_table", "topk.from_table"),
    ("rankrel.topk", "top_k", "topk.top_k"),
    ("rankrel.maps", "compose_table", "maps.compose_table"),
    ("rankrel.ordinal", "first_inclusion_violation", "ordinal.first_inclusion_violation"),
    ("rankrel.ordinal", "ordinally_included", "ordinal.ordinally_included"),
    ("rankrel.calculus", "parse_formula", "calculus.parse_formula"),
    ("rankrel.calculus", "structure_from_tables", "calculus.structure_from_tables"),
    ("rankrel.calculus", "table_of", "calculus.table_of"),
    ("rankrel.planner", "parse_query", "planner.parse_query"),
    ("rankrel.planner", "normalize_to_join_chain", "planner.normalize_to_join_chain"),
    ("rankrel.planner", "evaluate", "planner.evaluate"),
    ("rankrel.catalog", "Catalog.from_dir", "catalog.from_dir"),
    ("rankrel.cli", "main", "cli.main"),
)

# Score.__gt__/__ge__ delegate to __le__/__lt__, so every ordering
# comparison counts exactly once.
COUNTERS = (
    ("rankrel.chain", "Score.__lt__", "chain.score_cmp"),
    ("rankrel.chain", "Score.__le__", "chain.score_cmp"),
    ("rankrel.chain", "meet", "chain.connective"),
    ("rankrel.chain", "join_sup", "chain.connective"),
    ("rankrel.chain", "residuum", "chain.connective"),
    ("rankrel.chain", "abjunction", "chain.connective"),
    ("rankrel.calculus", "evaluate", "calculus.evaluate"),
)


def _size(value) -> int:
    """Rows held by a table, a top-k source or result, or a ranked row list."""
    if isinstance(value, (RankedTable, list)):
        return len(value)
    if isinstance(value, SortedSource):
        return len(value.ranked)
    if isinstance(value, TopKResult):
        return len(value.items)
    return 0


def _rows_in(name: str, args) -> int:
    if name == "table.build":  # RankedTable.__init__(self, scheme, chain, entries)
        return len(args[3])
    total = 0
    for value in args:
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, (RankedTable, SortedSource)):
                total += _size(item)
    return total


class Tracer:
    """Spans and counters for one traced run; ``install`` before, ``uninstall`` after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self.calls = Counter()
        self.self_ns = Counter()
        self.rows_in = Counter()
        self.rows_out = Counter()
        self.counts = Counter()
        self.request = -1
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0)
            self.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
            self.rows_in[name] += _rows_in(name, args)
            self.rows_out[name] += _size(result)
            if name == "topk.top_k":
                self.counts["topk.sorted_accesses"] += result.sorted_accesses
                self.counts["topk.random_accesses"] += result.random_accesses
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, name=name: self._span(name, fn))
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, lambda fn, name=name: self._counter(name, fn))

    def _patch(self, module_name: str, attr: str, wrap) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(original.__func__))
            else:
                replacement = wrap(original)
            self._restore.append((owner, method, original))
            setattr(owner, method, replacement)
            return
        original = getattr(module, attr)
        replacement = wrap(original)
        for other_name, other in list(sys.modules.items()):
            if other_name != "rankrel" and not other_name.startswith("rankrel."):
                continue
            for binding, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, binding, original))
                    setattr(other, binding, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request means of every recorded stat, keyed ``<module>.<function>.<stat>``."""
        metrics: dict[str, float] = {}
        for name in self.names:
            metrics[f"{name}.calls"] = self.calls[name] / requests
            metrics[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / requests
            metrics[f"{name}.rows_in"] = self.rows_in[name] / requests
            metrics[f"{name}.rows_out"] = self.rows_out[name] / requests
        for name, count in self.counts.items():
            key = name if name.startswith("topk.") else f"{name}.calls"
            metrics[key] = count / requests
        source_rows = self.rows_in["topk.top_k"]
        metrics["topk.sorted_access_ratio"] = (
            self.counts["topk.sorted_accesses"] / source_rows if source_rows else 0.0
        )
        return metrics

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span; times in ns from the first span."""
        origin = min(self.span_start) if self.span_start else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i] - origin}\t"
                    f"{self.span_end[i] - origin}\t{self.span_parent[i]}\t{self.span_request[i]}\n"
                )

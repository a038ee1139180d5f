"""Out-of-process-boundary tracer for the benchmark: spans and counts are
recorded by swapping module attributes the pipeline looks up at call time,
so the program itself carries no instrumentation.

A span hook replaces ``module.name`` with a wrapper that records (name,
parent, start, end) into flat arrays kept in memory; a count hook only
increments a counter. Self time is a span's duration minus the durations of
its direct children. A hooked name that the program no longer has is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Hook:
    """``owner`` is a dotted path below the package (``sim`` or
    ``sim.Ecosystem``); ``attr`` is the looked-up name; ``label`` is the
    span or counter it feeds."""

    owner: str
    attr: str
    label: str
    span: bool = True
    observe: Callable[["Tracer", Any], None] | None = None

    @property
    def where(self) -> str:
        return f"{self.owner}.{self.attr}"


def _resolve(package: Any, owner: str) -> Any:
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Collects spans and counts between install() and uninstall()."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.span_start)
        self.span_label.append(lid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn: Callable, hook: Hook) -> Callable:
        lid = self.label_id(hook.label)
        observe = hook.observe
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def _count_wrapper(self, fn: Callable, hook: Hook) -> Callable:
        counts = self.counts
        label = hook.label

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks ----------------------------------------------------------------

    def install(self, package: Any, hooks: tuple[Hook, ...]) -> None:
        for hook in hooks:
            try:
                owner = _resolve(package, hook.owner)
                original = getattr(owner, hook.attr)
            except AttributeError:
                if hook.where not in self.absent:
                    self.absent.append(hook.where)
                continue
            make = self._span_wrapper if hook.span else self._count_wrapper
            self._installed.append((owner, hook.attr, original))
            setattr(owner, hook.attr, make(original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results --------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to bound a totals() window."""
        return len(self.span_start)

    def totals(self, since: int = 0) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """(total seconds, self seconds, span count) per label, over spans
        opened since index ``since``. Nested spans of one label count once
        in the total."""
        n = len(self.span_start)
        child = [0.0] * (n - since)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: Counter[str] = Counter()
        start, end, parent, label = self.span_start, self.span_end, self.span_parent, self.span_label
        # children always follow their parent, so a reverse pass has every
        # child's duration summed before its parent is visited
        for i in range(n - 1, since - 1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= since:
                child[p - since] += dur
            name = self.labels[label[i]]
            self_time[name] = self_time.get(name, 0.0) + dur - child[i - since]
            calls[name] += 1
            if p < since or label[p] != label[i]:
                total[name] = total.get(name, 0.0) + dur
        return total, self_time, calls

    def write(self, path: Path) -> None:
        """Dump every span as ``index parent label start end`` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.labels[self.span_label[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

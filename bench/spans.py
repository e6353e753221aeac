"""Outside-in spans: time calls into each layer without editing the layers.

The traced pass replaces public entry points *on the instances* reachable from
the host (``server.tick_begin``, ``server.chunks.update``, ``platform.invoke``
...) with recording wrappers, so every call the program makes through them
becomes a span.  No file under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

#: span name of the traced pass's whole timed window (the root of the tree)
ROOT = "window"
#: span name of the benchmark's own per-span bookkeeping (count hooks)
HOOK = "trace.hook"


class SpanRecorder:
    """Spans kept in memory as ``[name, start_s, end_s, parent_index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        hook: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``function`` recorded as a span; ``hook(result)`` runs in its own span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if hook is not None:
            hook = self.wrap(HOOK, hook)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, span count).

        A span's self time is its duration minus the part its child spans
        cover; everything runs on one thread, so children never overlap and
        the self times of a tree sum to its root's duration.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for (name, start, end, _parent), child_time in zip(spans, covered):
            self_s, count = totals.get(name, (0.0, 0))
            totals[name] = (self_s + (end - start) - child_time, count + 1)
        return totals

    def write(self, path: Path, header: dict) -> None:
        """Dump the spans as JSON: times in microseconds from the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round((start - origin) * 1e6, 2), round((end - origin) * 1e6, 2), parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {**header, "columns": ["name", "start_us", "end_us", "parent"],
                 "names": names, "spans": rows},
                handle,
                separators=(",", ":"),
            )


@dataclass
class TraceCounts:
    """Work counted at the span boundaries (what the layers were asked to do)."""

    circuits_stepped: int = 0
    cells_stepped: int = 0
    chunks_streamed: int = 0
    generation_backlog_max: int = 0
    constructs_advanced: int = 0
    constructs_skipped_quiescent: int = 0
    interest_entries: int = 0
    interest_flushes: int = 0
    interest_staleness_max: int = 0


class _CostModelProxy:
    """Delegates to a (frozen) ``TickCostModel`` with ``duration_ms`` traced."""

    def __init__(self, model: Any, duration_ms: Callable[..., float]) -> None:
        self._model = model
        self.duration_ms = duration_ms

    def __getattr__(self, name: str) -> Any:
        return getattr(self._model, name)


def servers_of(host: Any) -> list:
    """The game servers behind a host: a cluster's shards, or the server itself."""
    return list(getattr(host, "shards", None) or [host])


def instrument(host: Any, recorder: SpanRecorder) -> TraceCounts:
    """Wrap every layer entry point reachable from ``host``; returns the counts.

    Objects shared between shards (engine, FaaS platform, executor) are
    wrapped once.  Span names are ``<layer>.<entry point>``; the construct
    backend's layer is its defining module (``sc_engine`` or ``speculative``).
    """
    counts = TraceCounts()
    wrapped: set[tuple[int, str]] = set()

    def wrap_attr(target: Any, attr: str, name: str, hook=None) -> None:
        key = (id(target), attr)
        if target is None or key in wrapped or not hasattr(target, attr):
            return
        wrapped.add(key)
        setattr(target, attr, recorder.wrap(name, getattr(target, attr), hook))

    def on_step(circuits: list) -> None:
        counts.circuits_stepped += len(circuits)
        counts.cells_stepped += sum(circuit.cell_count for circuit in circuits)

    def on_construct_report(report: Any) -> None:
        counts.constructs_advanced += report.advanced
        counts.constructs_skipped_quiescent += report.skipped_quiescent

    def plan_hook(backend_layer: str) -> Callable[[Any], None]:
        def on_plan(plan: Any) -> None:
            # The plan is rebuilt every tick, so its closures are wrapped here.
            on_step(plan.circuits)
            plan.finish = recorder.wrap(
                f"{backend_layer}.finish", plan.finish, on_construct_report
            )
            plan.step_inline = recorder.wrap("constructs.step", plan.step_inline)

        return on_plan

    def on_chunk_report(report: Any) -> None:
        counts.chunks_streamed += report.chunks_streamed
        counts.generation_backlog_max = max(
            counts.generation_backlog_max, report.generation_backlog
        )

    def on_flush(report: Any) -> None:
        counts.interest_entries += report.entries_encoded
        counts.interest_flushes += report.flushes
        counts.interest_staleness_max = max(
            counts.interest_staleness_max, report.staleness_max
        )

    wrap_attr(host.engine, "advance_to", "engine.advance_to")
    wrap_attr(getattr(host, "executor", None), "step_circuits", "constructs.step")
    for server in servers_of(host):
        wrap_attr(server, "tick_begin", "gameloop.tick_begin")
        wrap_attr(server, "tick_finish", "gameloop.tick_finish")
        wrap_attr(server.chunks, "update", "chunkmanager.update", on_chunk_report)
        wrap_attr(server.chunks, "persist_dirty", "chunkmanager.persist_dirty")
        backend_layer = type(server.constructs).__module__.rsplit(".", 1)[-1]
        wrap_attr(
            server.constructs, "begin_tick", f"{backend_layer}.begin_tick",
            plan_hook(backend_layer),
        )
        wrap_attr(server.executor, "step_circuits", "constructs.step")
        if server.interest is not None:
            wrap_attr(server.interest, "note_dirty", "interest.note_dirty")
            wrap_attr(server.interest, "flush", "interest.flush", on_flush)
            listeners = server.chunks.center_listeners
            for position, listener in enumerate(listeners):
                if listener == server.interest.update_center:
                    listeners[position] = recorder.wrap("interest.update_center", listener)
        server.cost_model = _CostModelProxy(
            server.cost_model,
            recorder.wrap("costmodel.duration_ms", server.cost_model.duration_ms),
        )
        for method in ("read", "write", "prefetch_for_avatars", "flush"):
            wrap_attr(server.storage, method, f"storage.{method}")
        runtime = server.runtime
        if runtime is not None:
            for method in ("invoke", "invoke_async", "invoke_with_retry"):
                wrap_attr(runtime.platform, method, f"faas.{method}")
            wrap_attr(runtime.terrain_provider, "request", "terrain.request")
    return counts

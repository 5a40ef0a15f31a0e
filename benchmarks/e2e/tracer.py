"""Per-layer tracing from outside the program: wrappers, not edits.

A traced repeat replaces the public methods named in ``sut.WRAP_TARGETS``
with wrappers that open a span on entry and close it on return. Spans
nest on one stack (the stack is single-threaded, like the event loop),
and a span's **self time** is its duration minus the time its child
spans covered — so the self times of all layers add up to the time spent
under any wrapper, with nothing counted twice.

Spans are aggregated as they close (seconds and calls per layer); a
5-second saturated window closes about a million of them, and keeping
each one would cost more than the program under test.

Coroutines (``KVClient.run_pipelined``) are traced step by step: every
resumption between two awaits is one span, so time the event loop spends
elsewhere while the coroutine is suspended is not charged to it.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        #: One ``[child_seconds]`` cell per open span, innermost last.
        self._stack: List[List[float]] = []
        #: layer -> summed self time (CPU-equivalent seconds).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: wrapped callable -> calls (coroutines count once, not per step).
        self.calls: Dict[str, int] = defaultdict(int)
        #: free-form tallies written by ``tally`` hooks and ``count``.
        self.counts: Dict[str, float] = defaultdict(float)
        #: layer -> wall duration of every span (blocking layers only).
        self.wall: Dict[str, List[float]] = defaultdict(list)
        self._installed: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget everything measured so far (end of warm-up)."""
        for table in (self.self_s, self.calls, self.counts, self.wall):
            table.clear()

    def freeze(self) -> "Tracer":
        """A copy of the tallies as they stand (the window's edge); the
        wrappers keep writing to the original."""
        frozen = Tracer(self.clock, self.cpu_clock)
        frozen.self_s.update(self.self_s)
        frozen.calls.update(self.calls)
        frozen.counts.update(self.counts)
        frozen.wall.update({layer: list(spans) for layer, spans in self.wall.items()})
        return frozen

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def _open(self) -> List[float]:
        cell = [0.0]
        self._stack.append(cell)
        return cell

    def _close(self, layer: str, cell: List[float], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        self.self_s[layer] += elapsed - cell[0]

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        name: Optional[str] = None,
        tally: Optional[Callable[[Dict[str, float], tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """Span around a synchronous, CPU-bound call.

        Self time goes to *layer*; calls are counted under *name* (the
        layer when omitted), since one layer may wrap several methods.
        *tally*, when given, runs after the span closed with
        ``(counts, args, result)`` to record sizes the layer's own
        counters do not expose (bytes fed, messages per feed ...).
        """
        name = name or layer
        clock, calls, counts = self.clock, self.calls, self.counts
        open_span, close_span = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            cell = open_span()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(layer, cell, clock() - start)
                calls[name] += 1
            if tally is not None:
                tally(counts, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_blocking(
        self,
        layer: str,
        fn: Callable[..., Any],
        name: Optional[str] = None,
        sample: Optional[Callable[[Any], bool]] = None,
    ) -> Callable[..., Any]:
        """Span around a call that may sleep in the kernel (fsync).

        The enclosing span is relieved of the full wall duration, but
        the layer's own budget entry is charged thread CPU time only, so
        the budget keeps summing to CPU; the wall durations are kept in
        ``wall[layer]`` for the wait-time metrics — of every call, or
        of those whose result *sample* accepts.
        """
        name = name or layer
        clock, cpu_clock, calls = self.clock, self.cpu_clock, self.calls
        stack, self_s, wall = self._stack, self.self_s, self.wall

        def traced(*args: Any, **kwargs: Any) -> Any:
            cell = self._open()
            start, cpu_start = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed, cpu = clock() - start, cpu_clock() - cpu_start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += max(0.0, cpu - cell[0])
                calls[name] += 1
            if sample is None or sample(result):
                wall[layer].append(elapsed)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(
        self, layer: str, fn: Callable[..., Any], name: Optional[str] = None
    ) -> Callable[..., Any]:
        """Span around every resumption of the coroutine *fn* returns."""
        name = name or layer
        calls = self.calls

        def traced(*args: Any, **kwargs: Any) -> "_SteppedCoroutine":
            calls[name] += 1
            return _SteppedCoroutine(self, layer, fn(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls of *fn* without timing them (no span, no nesting)."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    # ------------------------------------------------------------------
    # Installing wrappers on classes / modules, and taking them off.
    # ------------------------------------------------------------------

    def install(self, owner: Any, attribute: str, wrapper: Callable[..., Any]) -> None:
        self._installed.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


class _SteppedCoroutine:
    """Awaitable that drives a coroutine, one span per resumption."""

    def __init__(self, tracer: Tracer, layer: str, coroutine: Any) -> None:
        self._tracer = tracer
        self._layer = layer
        self._coroutine = coroutine

    def __await__(self):
        tracer, layer, coroutine = self._tracer, self._layer, self._coroutine
        clock = tracer.clock
        step, argument = coroutine.send, None
        while True:
            cell = tracer._open()
            start = clock()
            try:
                yielded = step(argument)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._close(layer, cell, clock() - start)
            try:
                argument = yield yielded
                step = coroutine.send
            except BaseException as error:  # cancellation, close(): forward it
                argument = error
                step = coroutine.throw


class GcWatch:
    """Collector pauses via ``gc.callbacks`` — observation only; the
    benchmark never changes collector settings."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._started = 0.0
        self.reset()

    def reset(self) -> None:
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2 = 0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = self._clock()
            return
        pause = self._clock() - self._started
        self.pause_s += pause
        if pause > self.max_pause_s:
            self.max_pause_s = pause
        if info.get("generation") == 2:
            self.gen2 += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

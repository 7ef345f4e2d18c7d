"""Outside-in span tracing of the program's layers.

The tracer wraps public entry points of each layer at the class level, from
the benchmark's own files; the program is not edited.  :meth:`Tracer.install`
replaces the class attributes and :meth:`Tracer.restore` puts the original
objects back (the benchmark's tests check that nothing is left wrapped).

Each span has a name, a start, an end, a parent span and the identifier of
the simulator event whose callback it runs under (``events_processed`` at
span start).  Spans are kept in memory in flat arrays and written out once,
at the end.  While spans are recorded, each one's *self time* (its duration
minus the time its child spans cover) is added to its name's total, so the
self times of all spans plus the time outside the root span sum to the
traced wall time.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Optional

from repro.core.decision_cache import DecisionCache
from repro.core.execution_env import ExecutionEnvironment
from repro.core.host import Host
from repro.core.ilp import ILPHeader
from repro.core.ipc import InvocationChannel
from repro.core.packet import L3Header
from repro.core.pipe_terminus import PipeTerminus
from repro.core.psp import PSPContext
from repro.core.service_node import ServiceNode
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import NetNode

BENCH = "bench"


def _one(args: tuple, result: Any) -> int:
    return 1


def _arg_len(args: tuple, result: Any) -> int:
    return len(args[1])


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


#: (layer, class, attribute, units-of-work counter) for every wrapped entry
#: point.  The counter turns one call into the packets it handled.
TARGETS: list[tuple[str, type, str, Callable[[tuple, Any], int]]] = [
    ("netsim.engine", Simulator, "run", _one),
    ("netsim.link", NetNode, "send_frame", _one),
    ("netsim.link", Link, "transmit", _one),
    ("netsim.link", NetNode, "receive_frame", _one),
    ("netsim.link", NetNode, "receive_burst", _arg_len),
    ("core.host", Host, "connect", _one),
    ("core.host", Host, "send", _one),
    ("core.host", Host, "close", _one),
    ("core.host", Host, "handle_frame", _one),
    ("core.packet", L3Header, "__init__", _one),
    ("core.ilp", ILPHeader, "encode", _one),
    ("core.ilp", ILPHeader, "decode", _one),
    ("core.psp", PSPContext, "seal", _one),
    ("core.psp", PSPContext, "open", _one),
    ("core.psp", PSPContext, "seal_batch", _result_len),
    ("core.psp", PSPContext, "open_batch", _result_len),
    ("core.psp", PSPContext, "seal_run", _result_len),
    ("core.psp", PSPContext, "seal_gather", _result_len),
    ("core.service_node", ServiceNode, "handle_frame", _one),
    ("core.service_node", ServiceNode, "receive_burst", _arg_len),
    ("core.pipe_terminus", PipeTerminus, "receive", _one),
    ("core.pipe_terminus", PipeTerminus, "receive_batch", _arg_len),
    ("core.decision_cache", DecisionCache, "lookup", _one),
    ("core.decision_cache", DecisionCache, "lookup_run", _one),
    ("core.decision_cache", DecisionCache, "lookup_many", _result_len),
    ("core.decision_cache", DecisionCache, "install", _one),
    ("core.decision_cache", DecisionCache, "install_many", _arg_len),
    ("core.decision_cache", DecisionCache, "invalidate_connection", _one),
    ("core.execution_env", InvocationChannel, "invoke", _one),
    ("core.execution_env", InvocationChannel, "invoke_batch", _result_len),
    ("core.execution_env", ExecutionEnvironment, "dispatch", _one),
    ("core.execution_env", ExecutionEnvironment, "dispatch_batch", _arg_len),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in TARGETS))


def span_name(cls: type, attr: str) -> str:
    return f"{cls.__name__}.{attr}"


class Tracer:
    """Span recorder with per-name call, unit, inclusive and self totals."""

    def __init__(self) -> None:
        self.names: list[str] = [BENCH]
        self.layer_of: list[str] = [BENCH]
        for layer, cls, attr, _ in TARGETS:
            self.names.append(span_name(cls, attr))
            self.layer_of.append(layer)
        n = len(self.names)
        self.calls = [0] * n
        self.units = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        #: calls made directly under the root span (simulator callbacks)
        self.top_calls = [0] * n
        self.sim: Optional[Simulator] = None
        self._originals: list[tuple[type, str, Any]] = []
        self._stack: list[list] = []
        self.reset_spans()

    # -- span storage ------------------------------------------------------
    def reset_spans(self) -> None:
        """Drop recorded spans (the totals are kept)."""
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_event = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: str, header: str = "") -> None:
        """Write the recorded spans as CSV: one line per span."""
        names = self.names
        with open(path, "w") as out:
            if header:
                out.write(f"# {header}\n")
            out.write("id,name,parent,event,start_s,end_s\n")
            t0 = self.span_start[0] if self.span_count else 0.0
            out.writelines(
                f"{i},{names[n]},{p},{e},{s - t0:.9f},{x - t0:.9f}\n"
                for i, (n, p, e, s, x) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_event,
                    self.span_start, self.span_end))
            )

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name_id: int, fn: Callable, units: Callable) -> Callable:
        tracer = self
        stack = self._stack
        calls, unit_counts = self.calls, self.units
        total_s, self_s, top_calls = self.total_s, self.self_s, self.top_calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            sim = tracer.sim
            tracer.span_event.append(sim.events_processed if sim else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            tracer.span_start.append(t0)
            tracer.span_end.append(t0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                tracer.span_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                total_s[name_id] += dur
                self_s[name_id] += dur - frame[1]
                calls[name_id] += 1
                unit_counts[name_id] += units(args, result)
                if stack:
                    stack[-1][1] += dur
                    if len(stack) == 1:
                        top_calls[name_id] += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def bench(self, fn: Callable) -> Callable:
        """Wrap one of the benchmark's own callbacks in a ``bench`` span."""
        return self._wrap(0, fn, _one)

    def install(self, sim: Simulator) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.sim = sim
        for name_id, (_, cls, attr, units) in enumerate(TARGETS, start=1):
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            if isinstance(original, staticmethod):
                wrapped: Any = staticmethod(
                    self._wrap(name_id, original.__func__, units))
            else:
                wrapped = self._wrap(name_id, original, units)
            setattr(cls, attr, wrapped)

    def restore(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)
        self.sim = None

    # -- aggregation -------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in [*LAYERS, BENCH]}
        for name_id, layer in enumerate(self.layer_of):
            out[layer] += self.self_s[name_id]
        return out

    def by_name(self, name: str) -> int:
        return self.names.index(name)

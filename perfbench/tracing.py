"""Span tracing from outside the program.

The benchmark does not edit ``src/``.  For a traced run it swaps the
public functions and methods listed in ``TRACED_CALLS`` for thin
wrappers, runs the workload, and puts the originals back.  Each wrapper
records one span: name, start, end, parent span and the unit of work
(pass, transfer or session) it belongs to.  Spans stay in memory and
are written out when the run ends.

Self time is a span's duration minus the time its child spans cover,
computed as each span closes.  Only calls that go through the patched
name are seen.  A module that bound a function with ``from x import
y`` keeps the original, and the work lands in the caller's span.  The
bindings that matter on the measured paths are patched as well
(``engine.build_registry`` and ``scenarios.load_topology``).  The one
left alone is ``trace.py``'s ``from .packet import build_tcp, ...``,
used only by ``synthesize_mixed_trace``, which runs as input
generation, outside every span.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from stegnet import crypto, engine, handlers, packet, scenarios, simnet, topology
from stegnet import trace as trace_mod

# Spans kept for the span file; the per-name statistics cover every span.
SPAN_CAP = 50_000

# (span name, owner, attribute, index of a positional argument whose
# length is summed as the octets the call handled, or None)
TRACED_CALLS: List[Tuple[str, object, str, Optional[int]]] = [
    ("packet.parse", packet, "parse_packet", None),
    ("packet.serialize", packet, "serialize_packet", None),
    ("packet.build", packet, "build_tcp", None),
    ("packet.build", packet, "build_udp", None),
    ("packet.build", packet, "build_icmp_echo", None),
    # Every checksum in packet.py, fix and validate alike, goes
    # through this module-level name.
    ("packet.checksum", packet, "checksum16", None),
    ("engine.fuse", engine.CovertGateway, "fuse", None),
    ("engine.extract", engine.CovertGateway, "extract", None),
    ("handlers.match", handlers.HandlerRegistry, "match", None),
    ("handlers.select", handlers.HandlerRegistry, "select", None),
    ("handlers.build_registry", handlers, "build_registry", None),
    ("handlers.build_registry", engine, "build_registry", None),
    ("crypto.keygen", crypto, "generate_keypair", None),
    ("crypto.rsa_encrypt", crypto, "rsa_encrypt", None),
    ("crypto.rsa_decrypt", crypto, "rsa_decrypt", None),
    ("crypto.stream", crypto, "encrypt_stream", 2),
    ("crypto.stream", crypto, "decrypt_stream", 2),
    ("trace.read", trace_mod, "read_trace", None),
    ("trace.write", trace_mod, "write_trace", None),
    ("topology.load", topology, "load_topology", None),
    ("topology.load", scenarios, "load_topology", None),
    ("simnet.init", simnet.Simulation, "__init__", None),
    ("simnet.run", simnet.Simulation, "run", None),
]


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "octets")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.octets = 0


class Tracer:
    """Records spans while installed and ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.unit = -1
        self.stats: Dict[str, SpanStat] = {}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._stack: List[list] = []
        self._originals: List[Tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_unit = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0

    # -- installing ------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._originals)

    def set_active(self, on: bool) -> None:
        """Install the wrappers or put the originals back, so untraced
        stretches pay nothing for tracing.  Statistics carry over."""
        if on and not self.active:
            self.install()
        elif not on:
            self.remove()

    def install(self) -> None:
        for name, owner, attr, size_arg in TRACED_CALLS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, size_arg))
        self.enabled = True

    def remove(self) -> None:
        self.enabled = False
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable, size_arg: Optional[int]) -> Callable:
        stat = self.stats.setdefault(name, SpanStat())
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = tracer._open(name_id, stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if size_arg is not None:
                    stat.octets += len(args[size_arg])
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end

        return traced

    def _open(self, name_id: int, parent: int) -> int:
        self.spans_seen += 1
        if len(self.span_name) >= SPAN_CAP:
            return -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_unit.append(self.unit)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    # -- reading -----------------------------------------------------------

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name) or SpanStat()

    def calls(self) -> Dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}

    def write_spans(self, path) -> None:
        """TSV of the kept spans, times in microseconds from the first."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("# spans kept %d of %d\n" % (len(self.span_name), self.spans_seen))
            out.write("id\tparent\tunit\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_name)):
                out.write("%d\t%d\t%d\t%s\t%.3f\t%.3f\n" % (
                    i, self.span_parent[i], self.span_unit[i], self.names[self.span_name[i]],
                    (self.span_start[i] - origin) * 1e6, (self.span_end[i] - origin) * 1e6))

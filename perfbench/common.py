"""Pieces shared by the three workloads: times kept as measured and
rescaled, the phase record, the quiet-core gate, quantiles,
fingerprints and run metadata."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import struct
from array import array
from dataclasses import dataclass, field, replace
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# Failure messages kept per phase; the count covers all of them.
MAX_MESSAGES = 20


class Times:
    """Times as measured (``raw``) and rescaled by the speed factor of
    the slice each was measured in (``scaled``; see ``QuietCore``)."""

    __slots__ = ("raw", "scaled")

    def __init__(self) -> None:
        self.raw = array("d")
        self.scaled = array("d")

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)

    def rescale_from(self, start: int, factor: float) -> None:
        """Give the raw times from ``start`` on, appended during one
        slice, their rescaled values."""
        self.scaled.extend(t * factor for t in self.raw[start:])

    def view(self, scaled: bool) -> array:
        return self.scaled if scaled else self.raw


class Stopwatch:
    """Sums the timed slices of one piece of work, as measured and
    rescaled.  ``slice`` waits for a quiet core and sets the factor
    that ``add`` applies until the next slice."""

    def __init__(self, quiet: "QuietCore") -> None:
        self.quiet = quiet
        self.factor = 1.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def slice(self) -> float:
        self.factor = self.quiet.wait()
        return self.factor

    def add(self, raw_s: float) -> None:
        self.raw_s += raw_s
        self.scaled_s += raw_s * self.factor

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` as one timed slice; return its result."""
        self.slice()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.add(perf_counter() - t0)
        return result


@dataclass
class Phase:
    """What one measured phase did.

    ``sessions`` holds each unit of work's time inside its timed slices;
    waits and the correctness checks between slices are excluded.
    Counts that must repeat exactly (``first_unit``) cover the first
    unit of work only, because the number of units done in a timed
    phase depends on speed.
    """

    started: float = field(default_factory=perf_counter)
    units: int = 0
    secret_octets: int = 0
    attempted: int = 0
    failed: int = 0
    desyncs: int = 0
    messages: List[str] = field(default_factory=list)
    carriers: Times = field(default_factory=Times)
    sessions: Times = field(default_factory=Times)
    unit_octets: List[int] = field(default_factory=list)
    unit_traced: List[bool] = field(default_factory=list)
    fingerprint: Dict[str, object] = field(default_factory=dict)
    first_unit: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    _mark: int = field(default=0, repr=False)
    _traced: bool = field(default=False, repr=False)

    def begin_unit(self, tracer) -> None:
        """Start a unit of work.  In a traced phase even units are
        traced and odd ones run with the originals, so the two halves
        see the same host and their goodputs give tracing's cost."""
        self._mark = self.secret_octets
        self._traced = tracer is not None and self.units % 2 == 0
        if tracer is not None:
            tracer.unit = self.units
            tracer.set_active(self._traced)

    def end_unit(self, watch: Stopwatch) -> None:
        """End a unit of work whose timed slices ``watch`` summed."""
        self.sessions.add(watch.raw_s, watch.scaled_s)
        self.unit_octets.append(self.secret_octets - self._mark)
        self.unit_traced.append(self._traced)
        self.units += 1

    def busy_s(self, scaled: bool) -> float:
        return sum(self.sessions.view(scaled))

    def goodput(self, scaled: bool, traced: Optional[bool] = None) -> float:
        """Secret octets delivered per busy second, over every unit of
        work or only over the traced (True) or untraced (False) ones."""
        pick = [traced is None or t == traced for t in self.unit_traced]
        octets = sum(o for o, p in zip(self.unit_octets, pick) if p)
        return octets / sum(s for s, p in zip(self.sessions.view(scaled), pick) if p)

    def more(self, seconds: float, min_units: int = 1) -> bool:
        """Whether to start another unit: until ``min_units`` are done
        and ``seconds`` of wall time, waits included, have passed."""
        return self.units < min_units or perf_counter() - self.started < seconds

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


@dataclass(frozen=True)
class _ProbeRecord:
    a: int
    b: bytes
    c: tuple


_PROBE_STRUCT = struct.Struct("!HHIIBBHHH")
_PROBE_BLOB = bytes(range(256)) * 2


def _probe_work() -> list:
    """About 0.5 ms of the interpreter work stegnet is made of: frozen
    dataclass ``replace``, struct packing, slicing and small dicts."""
    out = []
    for i in range(150):
        r = replace(_ProbeRecord(i, _PROBE_BLOB[i:i + 40], (i, str(i))), a=i + 1)
        fields = _PROBE_STRUCT.unpack_from(_PROBE_BLOB, i)
        out.append((r, _PROBE_STRUCT.pack(*fields), {"k": fields[0], "v": r.b[:8]}))
    return out


class QuietCore:
    """Holds timed slices for a full-speed core and measures its speed.

    On a shared host a core can run the same Python code 1.2 to 1.9
    times slower, for seconds to minutes, while a neighbour is busy
    (measured on a 2-CPU cloud VM, where a fixed probe and stegnet's
    own packet code slowed down together).  Two things keep timings
    comparable across runs:

    * ``wait`` runs before every timed slice.  It repeats a fixed probe
      until one reads within ``SLOW`` of the fastest probe of the run,
      so slices start on an uncontended core.  The wait is capped per
      slice and per run; slices let through at a cap count as
      ``forced``.  Waiting is never timed.
    * ``wait`` returns the slice's speed factor: ``REFERENCE_PROBE_US``
      over the probe that let the slice through, raised to ``TRACKING``.
      Multiplying the slice's times by it makes them read as on a core
      where the probe takes that long, so a slice forced through on a
      slow core, or a run on a host that is slow throughout, reads like
      one that is not.  Contention slows the probe more than stegnet:
      over 30 runs of the three workloads the program's slowdown went
      as the probe's to the power 0.53 to 0.85, hence ``TRACKING``.
      Code that is mostly big-integer arithmetic (RSA key generation)
      hardly slows down at all, so its slices are the ones this
      corrects worst.

    Every time is also kept as measured (``Times.raw``) and the run's
    record carries the end-to-end metrics computed from those, so the
    rescaling can be checked against the plain numbers.  The probe is
    the benchmark's own code, but it shares the process, heap and
    garbage collector with stegnet; a change that moves the probe shows
    in ``probe_best_us`` of the record.
    """

    SLOW = 1.2
    REFERENCE_PROBE_US = 450.0
    TRACKING = 0.65
    MAX_WAIT_S = 0.5
    BUDGET_S = 8.0

    def __init__(self, budget_s: float = BUDGET_S):
        self.budget_s = budget_s
        self.best = float("inf")
        self.factors: List[float] = []
        self.waited_s = 0.0
        self.forced = 0
        for _ in range(40):
            self._probe()

    def _probe(self) -> float:
        t0 = perf_counter()
        _probe_work()
        elapsed = perf_counter() - t0
        self.best = min(self.best, elapsed)
        return elapsed

    def wait(self) -> float:
        """Hold until the core is quiet; return the slice's speed factor."""
        start = perf_counter()
        while True:
            probe = self._probe()
            if probe <= self.SLOW * self.best:
                break
            waited = perf_counter() - start
            if waited > self.MAX_WAIT_S or self.waited_s + waited > self.budget_s:
                self.forced += 1
                break
        self.waited_s += perf_counter() - start
        factor = (self.REFERENCE_PROBE_US / (probe * 1e6)) ** self.TRACKING
        self.factors.append(factor)
        return factor

    def mean_factor(self) -> float:
        return sum(self.factors) / len(self.factors)

    def summary(self) -> Dict[str, float]:
        return {"slices": len(self.factors), "forced": self.forced, "waited_s": self.waited_s,
                "probe_best_us": self.best * 1e6, "mean_factor": self.mean_factor()}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def fingerprint_digest(fields: Dict[str, object]) -> str:
    """One hash over a fingerprint's fields, for quick comparison."""
    return digest(json.dumps(fields, sort_keys=True).encode())


def sync_share(counters: Sequence[Dict[str, int]]) -> float:
    sync = sum(c["sync_octets"] for c in counters)
    data = sum(c["data_octets"] for c in counters)
    return sync / (sync + data) if sync + data else 0.0


def excluded_share(counters: Sequence[Dict[str, int]]) -> float:
    seen = sum(c["carriers_seen"] for c in counters)
    return sum(c["carriers_excluded"] for c in counters) / seen if seen else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without
    starting git; ``unknown`` otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "stegnet").glob("*.py")))


def metadata() -> Dict[str, object]:
    try:
        crypto_version = version("cryptography")
    except PackageNotFoundError:
        crypto_version = "unknown"
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_stegnet_lines": src_lines(),
    }


def write_json(path: Path, payload: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

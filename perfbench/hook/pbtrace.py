"""Span tracer for the benchmark's traced run.

:func:`start` wraps the public entry points of each layer of ``repro``
(class attributes and module functions, replaced in place) so every call
records a span ``[name, start, end, parent]`` — start and end on the
thread's CPU clock — where ``parent`` is the index of the span that was
open when the call began, or ``-1``.  Spans stay in
memory and are written to ``<out_dir>/spans-<pid>.json`` when the
process exits, together with:

* ``hot`` — per ``(name, parent name)`` call counts of the hottest
  boundaries.  Those are counted on every call but, past their first
  ``HOT_TIMED_FIRST`` calls, timed only on one call in
  ``HOT_SAMPLE_EVERY``: timing each of the ~10⁶ block offers of a large
  simulation would slow the run by a third;
* ``sampled`` — per hot name, the indexes of the spans of that uniform
  one-in-``HOT_SAMPLE_EVERY`` sample;
* ``samples`` — per-call measurements (send-phase lateness, in ms);
* ``stats`` — the summed ``stats`` counters of every ingest pipeline and
  message bus the process built;
* ``span_cost`` — what a span reads around an empty call, measured at
  start-up, so estimates scaled from sampled calls can leave it out.

Every wrapped function is synchronous, so one stack per process gives
exact parent links even inside an asyncio event loop.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import time
from array import array
from functools import wraps

#: One call in this many of a hot boundary is timed as a span...
HOT_SAMPLE_EVERY = 64
#: ...after its first calls per (name, parent), which are all timed: a
#: deployment worker offers a few thousand blocks, too few for a sample.
HOT_TIMED_FIRST = 4096

#: span name -> (module, class or None for a module function, attributes).
TIMED = {
    "tally.set_votes": ("repro.chain.tally", "PrefixTally", ("set_votes",)),
    "tally.grade": ("repro.chain.tally", "PrefixTally", ("grade",)),
    "votes.record": ("repro.core.expiration", "LatestVoteStore", ("record_table", "record_batch")),
    "votes.latest": ("repro.core.expiration", "LatestVoteStore", ("latest",)),
    "votes.prune": ("repro.core.expiration", "LatestVoteStore", ("prune",)),
    "protocol.send": ("repro.protocols.tob_base", "SleepyTOBProcess", ("send",)),
    "protocol.receive": ("repro.protocols.tob_base", "SleepyTOBProcess", ("receive_batch",)),
    "ingest.batch": ("repro.engine.ingest", "IngestPipeline", ("batch",)),
    "bus.publish": ("repro.engine.bus", "MessageBus", ("publish",)),
    "bus.deliver": (
        "repro.engine.bus",
        "MessageBus",
        ("deliver_all", "deliver_chosen", "deliverable"),
    ),
    "adversary.deliver": ("repro.attacks.adversary", "ScriptedAdversary", ("deliver",)),
    "crypto.verify": ("repro.crypto.signatures", "KeyRegistry", ("verify_batch",)),
    "wire.encode": ("repro.net.socket_transport", None, ("encode_batch",)),
    "wire.decode": ("repro.net.socket_transport", None, ("decode_batch",)),
    "wire.send_many": ("repro.net.socket_transport", "SocketTransport", ("send_many",)),
    "node.send_phase": ("repro.runtime.node", "DeployedNode", ("run_send_phase",)),
    "node.receive_phase": ("repro.runtime.node", "DeployedNode", ("run_receive_phase",)),
}

#: Hot boundaries: name -> (module, class, attribute, sampling interval; 0 = count only).
HOT = {
    "chain.offer": ("repro.chain.store", "BlockBuffer", "offer", HOT_SAMPLE_EVERY),
    "chain.view_add": ("repro.chain.shared", "ChainView", "add", 0),
}

#: Classes whose ``stats`` dict is summed at exit: (module, class, key).
STATS = (
    ("repro.engine.ingest", "IngestPipeline", "ingest"),
    ("repro.engine.bus", "MessageBus", "bus"),
)


class Tracer:
    """Parent-linked spans, hot-call counts and samples of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        # Spans as parallel columns: flat arrays hold no Python objects,
        # so a long trace adds no work to the garbage collector, whose
        # passes would otherwise land inside (and inflate) later spans.
        self.names: list[str] = []
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.hot: dict[tuple[str, str | None], int] = {}
        self.sampled: dict[str, list[int]] = {}
        self.samples: dict[str, list[float]] = {}
        self.stats: dict[str, list[dict]] = {}
        self.clock = None
        self.span_cost = 0.0

    def timed(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        # The thread's CPU clock: a process preempted inside a span (two
        # workers and a coordinator share the cores) does not charge the
        # wait to the layer, and one preemption cannot swamp the mean of
        # a sampled hot boundary.
        stack, now = self.stack, time.thread_time

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn, every: int):
        names, stack, hot = self.names, self.stack, self.hot
        timed = self.timed(name, fn)
        sampled = self.sampled.setdefault(name, [])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, names[stack[-1]] if stack else None)
            calls = hot.get(key, 0) + 1
            hot[key] = calls
            if not every:
                return fn(*args, **kwargs)
            if calls <= HOT_TIMED_FIRST:
                return timed(*args, **kwargs)
            if calls % every == 0:
                sampled.append(len(names))  # the index timed() gives this span
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def send_phase(self, fn):
        """``DeployedNode.run_send_phase``, also sampling how late it started."""
        timed = self.timed("node.send_phase", fn)
        lateness = self.samples.setdefault("node.send_lateness_ms", [])

        @wraps(fn)
        def wrapper(node, round_number, *args, **kwargs):
            clock = self.clock
            if clock is not None and clock.started:
                lateness.append((clock.elapsed() - clock.start_of(round_number)) * 1000.0)
            return timed(node, round_number, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, (module_name, class_name, attrs) in TIMED.items():
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                fn = getattr(owner, attr)
                if name == "node.send_phase":
                    setattr(owner, attr, self.send_phase(fn))
                else:
                    setattr(owner, attr, self.timed(name, fn))
        for name, (module_name, class_name, attr, every) in HOT.items():
            owner = getattr(importlib.import_module(module_name), class_name)
            setattr(owner, attr, self.counted(name, getattr(owner, attr), every))
        for module_name, class_name, key in STATS:
            self._collect_stats(getattr(importlib.import_module(module_name), class_name), key)
        clock_class = importlib.import_module("repro.runtime.clock").RoundClock
        for attr in ("start", "start_at"):
            self._remember_clock(clock_class, attr)

    def _collect_stats(self, cls, key: str) -> None:
        init = cls.__init__
        registry = self.stats.setdefault(key, [])

        @wraps(init)
        def wrapper(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            # The dict is updated in place for the object's lifetime;
            # holding it (not the object) keeps nothing else alive.
            registry.append(instance.stats)

        cls.__init__ = wrapper

    def _remember_clock(self, cls, attr: str) -> None:
        fn = getattr(cls, attr)

        @wraps(fn)
        def wrapper(clock, *args, **kwargs):
            self.clock = clock
            return fn(clock, *args, **kwargs)

        setattr(cls, attr, wrapper)

    def dump(self) -> None:
        stats = {}
        for key, dicts in self.stats.items():
            summed: dict[str, int] = {}
            for counters in dicts:
                for counter, value in counters.items():
                    summed[counter] = summed.get(counter, 0) + value
            stats[key] = summed
        payload = {
            "spans": [
                list(row) for row in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "hot": [[name, parent, calls] for (name, parent), calls in self.hot.items()],
            "sampled": self.sampled,
            "samples": self.samples,
            "stats": stats,
            "span_cost": self.span_cost,
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def span_cost(calls: int = 2000) -> float:
    """Median duration a span reads around an empty call."""
    probe = Tracer("")
    empty = probe.timed("empty", lambda: None)
    for _ in range(calls):
        empty()
    durations = sorted(end - start for start, end in zip(probe.starts, probe.ends))
    return durations[len(durations) // 2]


def start(out_dir: str) -> Tracer:
    """Install the wrappers in this process and dump its trace at exit."""
    tracer = Tracer(out_dir)
    tracer.span_cost = span_cost()
    tracer.install()
    atexit.register(tracer.dump)
    return tracer

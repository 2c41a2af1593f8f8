"""Traced runs: spans around the public entry points of each layer.

The wrappers live here, in the benchmark, and wrap the program's
functions from outside; nothing under ``src/`` changes.  A span records
its name, start, end, parent span and op id.  Spans are kept in flat
arrays in memory and written out once, when the run ends.  Self time
(a span's time minus its child spans') is summed per span group as the
spans close.

A layer's entry point that calls itself through ``super()`` (one span
name directly nested in itself) is one span, not two.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

#: Every layer, in report order.  ``bench`` is the harness itself.
LAYERS = ("hw", "pmap", "core", "pager", "sched", "obs", "fs", "unix",
          "analysis", "bench")


def entry_points() -> list[tuple[str, object, str]]:
    """``(span group, owner, attribute)`` for every wrapped entry point.

    The group's first dotted part is its layer.  Owners are classes
    (methods defined in that class's own namespace) or modules (the
    global a caller looks up at call time).
    """
    import repro.inject.pagers  # noqa: F401  (registers pager classes)
    import repro.pager.netmemory  # noqa: F401
    import repro.pager.vnode_pager  # noqa: F401
    import repro.pmap.registry  # noqa: F401  (imports every pmap)
    from repro.analysis import flow, layering, race, typestate
    from repro.core import kernel as kernel_module
    from repro.core.kernel import MachKernel
    from repro.core.pageout import PageoutDaemon
    from repro.fs.buffer_cache import BufferCache
    from repro.fs.filesystem import FileSystem
    from repro.hw.mmu import MMU
    from repro.obs.bus import EventBus
    from repro.obs.telemetry import FaultTelemetry
    from repro.pager.protocol import PagerProtocol
    from repro.pmap.interface import Pmap, PmapSystem
    from repro.sched.scheduler import Scheduler
    from repro.unix.process import UnixProcess

    points = [("hw.translate", MMU, "translate")]
    for cls in _with_subclasses(Pmap):
        for name in ("enter", "enter_batch", "remove", "protect",
                     "forget"):
            points.append(("pmap.op", cls, name))
    for name in ("shootdown", "copy_on_write", "page_protect"):
        points.append(("pmap.system", PmapSystem, name))
    points += [
        ("core.fault", MachKernel, "fault"),
        ("core.fault", MachKernel, "fault_batch"),
        # The MMU-trap lane enters the fault handler here, not through
        # MachKernel.fault.
        ("core.fault", kernel_module, "resolve_task_fault"),
        ("core.task", MachKernel, "task_create"),
        ("core.task", MachKernel, "task_terminate"),
        ("core.task", MachKernel, "vm_allocate"),
        ("core.task", MachKernel, "vm_deallocate"),
        ("core.access", MachKernel, "task_memory_read"),
        ("core.access", MachKernel, "task_memory_write"),
        ("core.pageout", PageoutDaemon, "run"),
    ]
    for cls in _with_subclasses(PagerProtocol):
        for name in ("data_request", "data_write"):
            points.append(("pager.call", cls, name))
    points += [
        ("sched.step", Scheduler, "step"),
        ("obs.emit", EventBus, "emit"),
        ("obs.emit", EventBus, "span"),
        ("obs.telemetry", FaultTelemetry, "_on_event"),
    ]
    for name in ("read", "write", "read_direct", "write_direct"):
        points.append(("fs.file", FileSystem, name))
    for name in ("read", "write", "sync", "invalidate"):
        points.append(("fs.cache", BufferCache, name))
    for name in ("fork", "exec", "exit", "read_file", "write_file"):
        points.append(("unix.process", UnixProcess, name))
    points += [
        ("analysis.layering", layering, "lint_package"),
        ("analysis.race", race, "lint_concurrency"),
        ("analysis.flow", flow, "run_flow_passes"),
        ("analysis.callgraph", typestate, "build_callgraph"),
        ("analysis.callgraph", typestate, "compute_summaries"),
        ("analysis.passes", flow, "_analyze_module"),
        ("analysis.conformance", flow, "_run_conformance"),
    ]
    # Keep only functions the owner itself defines (an inherited method
    # is wrapped once, on the class that defines it); skip abstract
    # declarations, which never run.
    return [(group, owner, name) for group, owner, name in points
            if callable(vars(owner).get(name))
            and not getattr(vars(owner)[name], "__isabstractmethod__",
                            False)]


def _with_subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


class Tracer:
    """Records spans for the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name id -> name
        self.groups: list[str] = []         # span name id -> group
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1
        self.clear()

    def clear(self) -> None:
        """Forget every span recorded so far."""
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)

    # -- wrapping -----------------------------------------------------------

    def _name(self, group: str, label: str) -> int:
        self.names.append(f"{group}:{label}")
        self.groups.append(group)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def span(self, group: str, label: str, fn):
        """*fn* wrapped so that each call records one span."""
        nid = self._name(group, label)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, child = tracer._stack, tracer._child
            if stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name_id.append(nid)
            tracer.op_id.append(tracer.op)
            tracer.end.append(0.0)
            stack.append(index)
            child.append(0.0)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.end[index] = t1
                stack.pop()
                inner = child.pop()
                took = t1 - t0
                tracer.self_s[nid] += took - inner
                tracer.calls[nid] += 1
                if child:
                    child[-1] += took

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point of :func:`entry_points`."""
        for group, owner, attr in entry_points():
            original = vars(owner)[attr]
            label = f"{getattr(owner, '__qualname__', owner.__name__)}" \
                    f".{attr}"
            setattr(owner, attr, self.span(group, label, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def by_group(self) -> dict[str, tuple[int, float]]:
        """``group -> (calls, self seconds)``."""
        out: dict[str, list] = {}
        for nid, group in enumerate(self.groups):
            entry = out.setdefault(group, [0, 0.0])
            entry[0] += self.calls[nid]
            entry[1] += self.self_s[nid]
        return {group: (calls, secs) for group, (calls, secs)
                in out.items()}

    def write(self, path: Path, meta: dict) -> None:
        """Write the recorded spans: one JSON header line (names,
        fields, count, *meta*), then each field as a raw native-endian
        array, in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = (("start_s", self.start), ("end_s", self.end),
                  ("name", self.name_id), ("parent", self.parent),
                  ("op", self.op_id))
        header = dict(meta, names=self.names, count=len(self.start),
                      fields=[[name, arr.typecode] for name, arr
                              in fields])
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _name, arr in fields:
                arr.tofile(out)

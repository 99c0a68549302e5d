"""The benchmark's own spans: wrappers around each layer's public calls.

Nothing under ``src/`` is changed.  :func:`install` replaces each entry
point named in :data:`TARGETS` with a timing wrapper, wherever a caller
looks the name up: the defining module or class, plus every loaded
``repro`` module that imported the function by name.  Wrappers are
installed before the pool forks, so forked workers inherit them.

A span is ``(id, parent, name, layer, start, end, pid)``, with times from
``time.monotonic()``, which every process on the host shares.  Spans stay
in memory.  A forked process appends its spans to ``spans-<pid>.jsonl``
each time its outermost span closes, because pool workers leave through
``os._exit`` and never run exit hooks; the parent merges the files.

The arithmetic at the end of the module (self time, coverage, critical
path) works on plain span dicts, so tests can feed it synthetic trees.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (module, qualified name, layer) of every wrapped entry point.  The
#: layer is the repo module the call belongs to; ``check_consistency``
#: is the serving audit, so it is charged to ``serve``.
TARGETS = (
    ("repro.graph.datasets", "dataset_by_name", "graph"),
    ("repro.graph.shm", "publish_datasets", "graph"),
    ("repro.apps.base", "GraphApp.run_once", "apps"),
    ("repro.mem.cache", "WorkingSetCache.hit_mask", "mem"),
    ("repro.mem.costmodel", "CostModel.price_profile", "mem"),
    ("repro.sim.reusepack", "build_reuse_profile", "reuse"),
    ("repro.sim.reusepack", "fold_reuse_chunks", "reuse"),
    ("repro.sim.reusepack", "ReuseProfile.hit_mask_for", "reuse"),
    ("repro.sim.profilepack", "build_profile", "profile"),
    ("repro.sim.tracecache", "TraceCache.trace", "tracecache"),
    ("repro.sim.tracecache", "TraceCache.hit_mask", "tracecache"),
    ("repro.sim.tracecache", "TraceCache.reuse_profile", "tracecache"),
    ("repro.sim.tracecache", "TraceCache.profile", "tracecache"),
    ("repro.sim.tracestore", "TraceStore.save_trace", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.load_trace", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.save_mask", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.load_mask", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.save_profile", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.load_profile", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.save_reuse", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.load_reuse", "tracestore"),
    ("repro.sim.tracestore", "TraceStore.wait_for_lease", "tracestore"),
    ("repro.sim.executor", "TraceExecutor.run", "executor"),
    ("repro.sim.parallel", "execute_job", "executor"),
    ("repro.core.runtime", "AtMemRuntime.atmem_optimize", "core"),
    ("repro.sim.parallel", "ExperimentPool.run", "pool"),
    ("repro.serve.service", "PlacementService.submit", "serve"),
    ("repro.sim.multitenant", "MultiTenantHost.profile_tenant", "serve"),
    ("repro.sim.multitenant", "MultiTenantHost.optimize_tenant", "serve"),
    ("repro.sim.multitenant", "MultiTenantHost.measure_tenant", "serve"),
    ("repro.mem.system", "HeterogeneousMemorySystem.check_consistency", "serve"),
    ("repro.serve.journal", "ServiceJournal.append", "journal"),
    ("repro.serve.journal", "ServiceJournal.checkpoint", "journal"),
)

#: Every layer, in the order results are printed.
LAYERS = (
    "graph", "apps", "mem", "reuse", "profile", "tracecache", "tracestore",
    "executor", "core", "pool", "serve", "journal",
)

#: The span wrapping a pool batch; worker spans hang under it.
POOL_SPAN = "ExperimentPool.run"


class Recorder:
    """Collects spans for one process and, after a fork, for its child."""

    def __init__(self, sidecar_dir: Path) -> None:
        self.sidecar_dir = Path(sidecar_dir)
        self.spans: list[dict] = []
        self.pid = os.getpid()
        self.root_pid = self.pid
        self._local = threading.local()
        self._next = 0
        #: The span open in the parent when this process was forked.
        self._fork_parent: str | None = None
        #: Sizes of the traces ``GraphApp.run_once`` returned.
        self.accesses = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self._fork_parent = stack[-1] if stack else self._fork_parent
        self._local = threading.local()
        self.spans = []
        self.pid = os.getpid()
        self.accesses = 0

    def open(self, name: str, layer: str) -> dict:
        stack = self._stack()
        self._next += 1
        record = {
            "id": f"{self.pid}:{self._next}",
            "parent": stack[-1] if stack else self._fork_parent,
            "name": name,
            "layer": layer,
            "start": time.monotonic(),
            "end": None,
            "pid": self.pid,
        }
        stack.append(record["id"])
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == record["id"]:
            stack.pop()
        elif record["id"] in stack:
            stack.remove(record["id"])
        self.spans.append(record)
        if not stack and self.pid != self.root_pid:
            self.flush()

    def flush(self) -> None:
        """Append this forked process's spans to its sidecar file."""
        if not self.spans:
            return
        path = self.sidecar_dir / f"spans-{self.pid}.jsonl"
        lines = "".join(json.dumps(s) + "\n" for s in self.spans)
        lines += json.dumps({"accesses": self.accesses}) + "\n"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)
        self.spans = []
        self.accesses = 0

    def merged(self) -> tuple[list[dict], int]:
        """This process's spans plus every worker's, and total accesses."""
        spans = list(self.spans)
        accesses = self.accesses
        for path in sorted(self.sidecar_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                if "accesses" in row:
                    accesses += row["accesses"]
                else:
                    spans.append(row)
        return spans, accesses


def _wrap(fn, name: str, layer: str, recorder: Recorder):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            record = recorder.open(name, layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(record)

        return async_wrapper

    count_accesses = name == "GraphApp.run_once"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if count_accesses:
            recorder.accesses += result.total_accesses
        return result

    return wrapper


def _with_subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry where its callers look it up."""
    importlib.import_module("repro.apps")  # registers every GraphApp subclass
    for module_name, qualname, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            # Subclasses that override the method (each app's run_once)
            # are entry points of the same layer.
            for cls in _with_subclasses(getattr(module, owner_name)):
                if attr in cls.__dict__:
                    setattr(cls, attr, _wrap(cls.__dict__[attr], qualname, layer, recorder))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, qualname, layer, recorder)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro") and getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)


# ----------------------------------------------------------------------
# arithmetic on span dicts


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: list[dict]) -> dict[str, list[dict]]:
    kids: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its own spans but in none of their children.

    A span's self time is its duration minus the part of its interval
    its child spans cover; overlapping children (parallel workers) are
    counted once.
    """
    kids = _children(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = _union(
            [
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in kids.get(s["id"], [])
                if c["end"] > s["start"] and c["start"] < s["end"]
            ]
        )
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def totals(spans: list[dict], *names: str) -> tuple[float, int]:
    """Summed duration and count of the outermost spans called any of ``names``.

    A span nested inside another span of the set (a recursive or
    delegating call) is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    seconds, count = 0.0, 0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            seconds += s["end"] - s["start"]
            count += 1
    return seconds, count


def critical_path(spans: list[dict], pool: dict) -> list[dict]:
    """The chain of worker spans that held up ``pool``'s end.

    Walks back from the pool span's end: the child that finished last
    before the current instant is on the path, and the walk continues
    from its start.  Gaps between chained spans are time in which no
    traced work blocked the batch (dispatch, pickling, waiting).
    """
    kids = [c for c in spans if c["parent"] == pool["id"]]
    chain: list[dict] = []
    t = pool["end"]
    while True:
        before = [c for c in kids if c["end"] <= t and c["start"] >= pool["start"]]
        if not before:
            break
        last = max(before, key=lambda c: c["end"])
        chain.append(last)
        t = last["start"]
    chain.reverse()
    return chain


def coverage(spans: list[dict], root_pid: int, start: float, end: float) -> dict:
    """How much of ``[start, end]`` traced work explains.

    Top-level spans of the measuring process cover the wall.  A pool span
    that fanned out to workers covers only the stretches its critical
    path is busy, so an idle wait is not counted as explained.
    """
    tops = [
        s for s in spans
        if s["pid"] == root_pid and s["parent"] is None
        and s["end"] > start and s["start"] < end
    ]
    intervals: list[tuple[float, float]] = []
    path_s = 0.0
    for s in tops:
        chain = (
            critical_path(spans, s)
            if s["name"] == POOL_SPAN
            and any(c["parent"] == s["id"] and c["pid"] != root_pid for c in spans)
            else None
        )
        if chain is None:
            intervals.append((s["start"], s["end"]))
            continue
        path_s += sum(c["end"] - c["start"] for c in chain)
        intervals.extend((c["start"], c["end"]) for c in chain)
    clipped = [(max(a, start), min(b, end)) for a, b in intervals]
    wall = end - start
    return {
        "covered_frac": _union([iv for iv in clipped if iv[1] > iv[0]]) / wall if wall > 0 else 0.0,
        "critical_path_s": path_s,
    }


def worker_time(spans: list[dict], root_pid: int) -> tuple[float, float]:
    """Busy and idle seconds of forked workers within their pool spans.

    Busy is the union of a worker's top-level spans; idle is the rest of
    the enclosing pool spans' time, summed over the workers that ran.
    """
    pools = [s for s in spans if s["name"] == POOL_SPAN and s["pid"] == root_pid]
    busy = idle = 0.0
    for pool in pools:
        by_pid: dict[int, list[tuple[float, float]]] = {}
        for c in spans:
            if c["parent"] == pool["id"] and c["pid"] != root_pid:
                by_pid.setdefault(c["pid"], []).append((c["start"], c["end"]))
        for intervals in by_pid.values():
            b = _union(intervals)
            busy += b
            idle += max(0.0, (pool["end"] - pool["start"]) - b)
    return busy, idle

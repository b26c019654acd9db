"""Spans around each layer's public functions, installed from outside.

The traced run replaces a fixed set of public methods (see ``HOOKS``)
with wrappers that time each call, then puts the originals back.  No
code under ``src/`` knows about it.  A span's *self time* is its
duration minus the time its child spans cover; the parent of a span is
the innermost span open in the same thread or asyncio task (tracked in
a :class:`contextvars.ContextVar`, so two clients interleaving on one
event loop never nest inside each other).

Aggregates (calls, total and self time per span name) are exact and
cover every call inside a recording window.  The Chrome ``trace_event``
file is a sample: every ``SAMPLE_EVERY``-th top-level span is kept with
its whole subtree, so the file stays small while showing complete call
trees.  Service requests are sampled by request id, so a sampled
request appears on both the client and the shard side.

The service shard is a forked child: wrappers installed before
``ServiceSupervisor.start()`` are inherited, the shard's recording
window is opened and closed by marker pings (``bench_mark``), and the
shard writes its aggregates to ``dump_path`` when ``Shard.drain_all``
returns on the SIGTERM stop path.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import json
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.counters.events import CounterEvent
from repro.obs.trace import EventTracer

#: keep every Nth top-level span (with its subtree) in the Chrome trace
SAMPLE_EVERY = 16
#: Chrome-trace ring-buffer size (events); aggregates are never dropped
TRACE_CAPACITY = 100_000

MARK_FIELD = "bench_mark"
RID_FIELD = "bench_rid"


class _Frame:
    __slots__ = ("name", "start", "child", "parent", "rid", "tid", "gen", "sampled")

    def __init__(self, name, start, parent, rid, tid, gen, sampled):
        self.name = name
        self.start = start
        self.child = 0
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.gen = gen
        self.sampled = sampled


_CURRENT: contextvars.ContextVar[_Frame | None] = contextvars.ContextVar(
    "bench_span", default=None
)


def _task_label() -> str:
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return "main"
    return task.get_name() if task is not None else "main"


class SpanRecorder:
    """Exact per-span-name aggregates plus a sampled Chrome trace."""

    def __init__(self, dump_path: str | pathlib.Path | None = None) -> None:
        self.dump_path = pathlib.Path(dump_path) if dump_path else None
        self.tracer = EventTracer(capacity=TRACE_CAPACITY, enabled=True)
        self.t0 = time.perf_counter_ns()
        self.recording = False
        self._gen = 0
        self._next_rid = 0
        self._open_top = 0
        self._window_start = self._covered_since = 0
        self.reset()

    # -- windows ------------------------------------------------------------

    def reset(self) -> None:
        """Forget every aggregate, count and trace event."""
        #: span name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.queue_waits_ms: list[float] = []
        self.window_ns = 0
        self.covered_ns = 0
        self._enqueued: dict[str, int] = {}
        self._top_seen = 0
        self.tracer.clear()

    def open_window(self) -> None:
        """Start recording; spans opened before this call are ignored."""
        self._gen += 1
        self._open_top = 0
        self._window_start = time.perf_counter_ns()
        self.recording = True

    def close_window(self) -> None:
        now = time.perf_counter_ns()
        self.recording = False
        self.window_ns += now - self._window_start
        if self._open_top:
            self.covered_ns += now - self._covered_since

    @contextmanager
    def window(self) -> Iterator[None]:
        self.open_window()
        try:
            yield
        finally:
            self.close_window()

    # -- spans --------------------------------------------------------------

    def next_rid(self) -> str:
        self._next_rid += 1
        return str(self._next_rid)

    def count(self, name: str, amount: int = 1) -> None:
        if self.recording:
            self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, name: str, rid: str | None = None):
        """Open a span; returns a handle for :meth:`exit` (or None)."""
        parent = _CURRENT.get()
        if parent is not None and parent.name == name:
            # Same-name re-entry (decrypt -> encrypt, write_many ->
            # flush): the outer span already accounts for it.
            return None
        now = time.perf_counter_ns()
        if parent is None or parent.gen != self._gen:
            parent = None
            if self._open_top == 0:
                self._covered_since = now
            self._open_top += 1
            tid = _task_label()
            if rid is not None:
                sampled = int(rid) % SAMPLE_EVERY == 0
            else:
                sampled = self._top_seen % SAMPLE_EVERY == 0
            self._top_seen += 1
        else:
            tid = parent.tid
            rid = rid if rid is not None else parent.rid
            sampled = parent.sampled
        frame = _Frame(name, now, parent, rid, tid, self._gen, sampled)
        return frame, _CURRENT.set(frame)

    def exit(self, handle) -> None:
        if handle is None:
            return
        frame, token = handle
        now = time.perf_counter_ns()
        _CURRENT.reset(token)
        if not self.recording or frame.gen != self._gen:
            return
        duration = now - frame.start
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame.child
        if frame.parent is None:
            self._open_top -= 1
            if self._open_top == 0:
                self.covered_ns += now - self._covered_since
        else:
            frame.parent.child += duration
        if frame.sampled:
            args = {"rid": frame.rid} if frame.rid is not None else {}
            self.tracer.complete(
                frame.name,
                ts=(frame.start - self.t0) / 1000.0,
                dur=duration / 1000.0,
                cat=frame.name.split(".", 1)[0],
                tid=frame.tid,
                clock="wall",
                **args,
            )

    # -- queue wait (service shard) ------------------------------------------

    def enqueued(self, rid: str | None) -> None:
        if self.recording and rid is not None:
            self._enqueued[rid] = time.perf_counter_ns()

    def dispatched(self, rid: str | None) -> None:
        start = self._enqueued.pop(rid, None) if rid is not None else None
        if self.recording and start is not None:
            self.queue_waits_ms.append((time.perf_counter_ns() - start) / 1e6)

    # -- export ---------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Aggregates and sampled events as plain JSON-able data."""
        trace = self.tracer.chrome_trace()
        return {
            "stats": self.stats,
            "counts": self.counts,
            "queue_waits_ms": self.queue_waits_ms,
            "window_ns": self.window_ns,
            "covered_ns": self.covered_ns,
            "events": [e for e in trace["traceEvents"] if e["ph"] != "M"],
            "thread_names": {
                str(e["tid"]): e["args"]["name"]
                for e in trace["traceEvents"]
                if e["name"] == "thread_name"
            },
            "dropped": trace["otherData"]["dropped"],
        }

    def dump(self) -> None:
        if self.dump_path is not None:
            self.dump_path.write_text(json.dumps(self.export()))


def chrome_trace(parts: list[tuple[str, dict[str, Any]]]) -> dict[str, Any]:
    """Merge ``(process name, export)`` pairs into one Chrome trace."""
    events: list[dict[str, Any]] = []
    dropped = 0
    for pid, (process, export) in enumerate(parts, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process}}
        )
        for tid, label in export["thread_names"].items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid,
                 "tid": int(tid), "args": {"name": label}}
            )
        events.extend({**event, "pid": pid} for event in export["events"])
        dropped += export["dropped"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"sample_every": SAMPLE_EVERY, "dropped": dropped},
    }


# -- wrappers ------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One wrapped function: where it lives and how its span is named.

    ``span`` is a fixed name or a function of the call's arguments
    returning the name (or None to pass the call through untimed).
    ``after`` sees the arguments and result and records counts.
    """

    module: str
    qualname: str
    span: str | Callable[..., str | None]
    after: Callable[[SpanRecorder, tuple, dict, Any], None] | None = None


def _flush_span(memory, *args, **kwargs) -> str | None:
    # The batch layer's flush runs whatever is queued; name it by what
    # that is, so service writes (queue + flush) and engine write_many
    # calls land under the same span name.
    queue = memory._queue
    if not queue:
        return None
    return "batch.write" if queue[0][0] == "write" else "batch.read"


def _kernel_span(table, name, *args, **kwargs) -> str:
    return "kernels." + name.replace(".", "_")


def _kernel_blocks(recorder, args, kwargs, result) -> None:
    recorder.count(_kernel_span(*args) + ".blocks", kwargs.get("blocks", 1))


_OUTCOME_COUNTS = (
    (CounterEvent.WIDEN, "counters.widen"),
    (CounterEvent.RE_ENCODE, "counters.reencode"),
    (CounterEvent.GLOBAL_RE_ENCRYPT, "counters.global_reencrypt"),
)


def _counter_events(recorder, args, kwargs, outcome) -> None:
    for event, name in _OUTCOME_COUNTS:
        if outcome.has(event):
            recorder.count(name)
    if outcome.reencrypted_group is not None:
        recorder.count("counters.group_reencrypt")


def _journal_bytes(recorder, args, kwargs, result) -> None:
    recorder.count("store.journal_bytes", len(args[1]))


def _checkpoint_bytes(recorder, args, kwargs, result) -> None:
    recorder.count("store.checkpoint_bytes", len(args[2]))


def _frame_span(side: str) -> Callable[..., str]:
    def name(*args, **kwargs) -> str:
        parent = _CURRENT.get()
        client = parent is not None and parent.name == "client.request"
        return f"{'client' if client else 'server'}.frame.{side}"

    return name


HOOKS: tuple[Hook, ...] = (
    Hook("repro.fast.batch_memory", "BatchSecureMemory.write_many", "batch.write"),
    Hook("repro.fast.batch_memory", "BatchSecureMemory.read_many", "batch.read"),
    Hook("repro.fast.batch_memory", "BatchSecureMemory.flush", _flush_span),
    # The batch layer's stages, so that its own Python is attributed to
    # a stage rather than left in the whole-call spans above: the
    # per-write counter sequencing and group commits, the per-block
    # ciphertext + ECC store loop, and the whole read path's glue.
    Hook("repro.fast.batch_memory", "BatchSecureMemory._run_writes",
         "batch.write.run"),
    Hook("repro.fast.batch_memory", "BatchSecureMemory._flush_pending",
         "batch.write.store"),
    Hook("repro.fast.batch_memory", "BatchSecureMemory._flush_reads",
         "batch.read.run"),
    Hook("repro.fast.kernels", "KernelTable.run", _kernel_span, _kernel_blocks),
    Hook("repro.core.counters.base", "CounterScheme.on_write",
         "counters.on_write", _counter_events),
    Hook("repro.ecc.hamming", "HammingSecDed.encode", "ecc.hamming_encode"),
    Hook("repro.core.ecc_mac.layout", "MacEccCodec.recover_mac", "ecc.recover_mac"),
    Hook("repro.core.engine.tree", "BonsaiMerkleTree.update_leaf", "tree.update_leaf"),
    Hook("repro.core.engine.tree", "BonsaiMerkleTree.verify_leaf", "tree.verify_leaf"),
    Hook("repro.crypto.ctr", "CtrModeCipher.encrypt", "crypto.scalar"),
    Hook("repro.crypto.ctr", "CtrModeCipher.decrypt", "crypto.scalar"),
    Hook("repro.crypto.mac", "CarterWegmanMac.tag", "crypto.scalar"),
    Hook("repro.core.engine.secure_memory", "SecureMemory.read", "engine.scalar_read"),
    Hook("repro.service.server", "read_frame", _frame_span("read")),
    Hook("repro.service.server", "write_frame", _frame_span("write")),
    Hook("repro.service.tenant", "Tenant.write", "tenant.write"),
    Hook("repro.service.tenant", "Tenant.write_batch", "tenant.batch"),
    Hook("repro.service.tenant", "Tenant.read", "tenant.read"),
    Hook("repro.persist.manager", "PersistenceManager.commit_txn", "persist.commit"),
    Hook("repro.persist.manager", "PersistenceManager.checkpoint",
         "persist.checkpoint"),
    Hook("repro.service.storage", "FileStore.journal_append",
         "store.journal_append", _journal_bytes),
    Hook("repro.service.storage", "FileStore.journal_seal", "store.journal_seal"),
    Hook("repro.service.storage", "FileStore.checkpoint_write",
         "store.checkpoint_write", _checkpoint_bytes),
    Hook("repro.service.storage", "FileStore.journal_truncate",
         "store.journal_truncate"),
    Hook("repro.faultfs.layer", "FaultFS.write_bytes", "faultfs.write_bytes"),
    Hook("repro.faultfs.layer", "FaultFS.fsync", "faultfs.fsync"),
    Hook("repro.faultfs.layer", "FaultFS.fsync_dir", "faultfs.fsync_dir"),
)


def _span_wrapper(recorder: SpanRecorder, hook: Hook, original: Callable) -> Callable:
    span, after = hook.span, hook.after

    def name_of(args, kwargs):
        return span if isinstance(span, str) else span(*args, **kwargs)

    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            if not recorder.recording:
                return await original(*args, **kwargs)
            name = name_of(args, kwargs)
            handle = recorder.enter(name) if name is not None else None
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.exit(handle)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return original(*args, **kwargs)
        name = name_of(args, kwargs)
        handle = recorder.enter(name) if name is not None else None
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit(handle)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def _client_request(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    async def request(client, payload, *args, **kwargs):
        if not recorder.recording:
            return await original(client, payload, *args, **kwargs)
        rid = recorder.next_rid()
        handle = recorder.enter("client.request", rid=rid)
        try:
            return await original(
                client, {**payload, RID_FIELD: rid}, *args, **kwargs
            )
        finally:
            recorder.exit(handle)

    return request


def _shard_submit(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    async def submit(shard, request):
        recorder.enqueued(request.get(RID_FIELD))
        return await original(shard, request)

    return submit


def _shard_handle(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def handle_request(shard, request):
        mark = request.get(MARK_FIELD)
        if mark == "start":
            recorder.reset()
            recorder.open_window()
        elif mark == "stop":
            recorder.close_window()
        if mark is not None or not recorder.recording:
            return original(shard, request)
        rid = request.get(RID_FIELD)
        recorder.dispatched(rid)
        handle = recorder.enter("server.handle", rid=rid)
        try:
            return original(shard, request)
        finally:
            recorder.exit(handle)

    return handle_request


def _shard_drain(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def drain_all(shard):
        report = original(shard)
        recorder.dump()
        return report

    return drain_all


#: wrappers with behaviour beyond a plain span: request ids, the shard's
#: recording window and queue-wait clock, and the shard's dump on stop
SPECIAL_HOOKS: tuple[tuple[str, str, Callable], ...] = (
    ("repro.service.server", "ServiceClient.request", _client_request),
    ("repro.service.server", "Shard.submit", _shard_submit),
    ("repro.service.server", "Shard.handle_request", _shard_handle),
    ("repro.service.server", "Shard.drain_all", _shard_drain),
)


def _owner(module: str, qualname: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def wrapped_targets() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` the traced run replaces."""
    return [_owner(h.module, h.qualname) for h in HOOKS] + [
        _owner(module, qualname) for module, qualname, _ in SPECIAL_HOOKS
    ]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every hooked function for the duration; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for hook in HOOKS:
            owner, attr = _owner(hook.module, hook.qualname)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _span_wrapper(recorder, hook, original))
        for module, qualname, factory in SPECIAL_HOOKS:
            owner, attr = _owner(module, qualname)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(recorder, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

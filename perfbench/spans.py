"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each layer from outside — no
file of the verifier changes — and records one span per call: name, start,
end, parent span and request id, plus a few attributes read off the
call's result.  Spans stay in memory and are written as JSON lines when the
process ends; forked prover workers (the process-pool farm) write their own
file when they exit, so prover spans are collected from every process.

Parents follow the ``contextvars`` context, so a span opened on a request
thread is the parent of the spans its coroutine opens on the event loop
(``asyncio.run_coroutine_threadsafe`` copies the caller's context).  Batch
work that serves several requests runs on lane threads with no request
context; its spans name the requests they served instead.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class SpanRecorder:
    """In-memory spans of one process, written out at exit."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._requests = itertools.count(1)
        #: id(sequent) -> span id of the VerifyService.prove call it came in
        #: with, so the batch dispatch that proves it can name its requests.
        self.sequent_owner: Dict[int, str] = {}

    # -- recording ----------------------------------------------------------

    def new_request_id(self) -> str:
        return f"{self.role}-{os.getpid()}-{next(self._requests)}"

    def start(self, name: str, request_id: Optional[str] = None) -> Dict[str, Any]:
        parent = _CURRENT.get()
        span = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "name": name,
            "role": self.role,
            "parent": parent["id"] if parent is not None else None,
            "request": request_id if request_id is not None else _REQUEST.get(),
            "start": time.perf_counter(),
            "end": None,
        }
        return span

    def finish(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             new_request: bool = False) -> Callable:
        """A traced version of ``fn``; ``attrs(result, args)`` may return
        attributes to store on the span."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = recorder.new_request_id() if new_request else None
            span = recorder.start(name, request)
            token = _CURRENT.set(span)
            request_token = _REQUEST.set(span["request"])
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.update(attrs(result, args))
                return result
            finally:
                _REQUEST.reset(request_token)
                _CURRENT.reset(token)
                recorder.finish(span)

        return traced

    # -- output -------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}.jsonl"
        with path.open("a") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")

    def after_fork_in_child(self) -> None:
        """A forked worker starts with no spans and writes its own at exit.

        Registered with ``multiprocessing.util.register_after_fork``: a
        multiprocessing child clears the finalizers it inherited before
        running the after-fork hooks, so the exit hook is added here."""
        from multiprocessing import util

        self.spans = []
        self._lock = threading.Lock()
        self.role = "worker"
        util.Finalize(None, self.flush, exitpriority=100)


# -- the wrappers -------------------------------------------------------------


def _answer_attrs(answer, args) -> Dict[str, Any]:
    return {
        "prover": answer.prover,
        "proved": bool(answer.proved),
        "instances": answer.instances,
        "phases": dict(answer.phases),
    }


def _vc_attrs(method_vc, args) -> Dict[str, Any]:
    return {
        "sequents": len(method_vc.sequents),
        "proved_during_splitting": method_vc.proved_during_splitting,
    }


def _dispatch_attrs(result, args) -> Dict[str, Any]:
    attempts = sum(stats.attempted for stats in result.stats.values())
    return {
        "sequents": result.total,
        "proved": result.proved,
        "proved_live": result.proved_live,
        "attempts": attempts,
        "dedup_replayed": result.dedup_replayed,
        "cache_hits": result.cache_stats.hits,
        "cache_misses": result.cache_stats.misses,
    }


def _lookup_attrs(entry, args) -> Dict[str, Any]:
    return {"hit": entry is not None}


def install(recorder: SpanRecorder) -> None:
    """Patch every traced entry point; call once, before any worker forks."""
    from multiprocessing import util

    from repro.core import verifier
    from repro.provers import base, dispatcher

    verifier.parse_program = recorder.wrap("java.parse", verifier.parse_program)
    verifier.generate_method_vc = recorder.wrap(
        "vcgen.generate", verifier.generate_method_vc, _vc_attrs
    )
    dispatcher.Dispatcher.prove_all = recorder.wrap(
        "dispatcher.prove_all", dispatcher.Dispatcher.prove_all, _dispatch_attrs
    )
    parallel_prove_all = dispatcher.ParallelDispatcher.prove_all

    def served_attrs(result, args) -> Dict[str, Any]:
        attrs = _dispatch_attrs(result, args)
        owners = {recorder.sequent_owner.get(id(s)) for s in args[1]}
        attrs["serves"] = sorted(owner for owner in owners if owner is not None)
        return attrs

    dispatcher.ParallelDispatcher.prove_all = recorder.wrap(
        "parallel.prove_all", parallel_prove_all, served_attrs
    )
    base.Prover.prove = recorder.wrap("prover.prove", base.Prover.prove, _answer_attrs)
    util.register_after_fork(recorder, SpanRecorder.after_fork_in_child)


def install_daemon(recorder: SpanRecorder) -> None:
    """The daemon-side entry points: request handling, batching, the
    verdict store and the wire encoders."""
    from repro.server import daemon, store, wire

    install(recorder)
    daemon.verify = recorder.wrap("daemon.verify", daemon.verify, new_request=True)
    daemon.verify_class = recorder.wrap(
        "daemon.verify", daemon.verify_class, new_request=True
    )
    store.ShardedVerdictStore.lookup = recorder.wrap(
        "store.lookup", store.ShardedVerdictStore.lookup, _lookup_attrs
    )
    store.ShardedVerdictStore.store = recorder.wrap(
        "store.store", store.ShardedVerdictStore.store
    )
    _wrap_wire(recorder, (daemon, wire))

    service_prove = daemon.VerifyService.prove

    @functools.wraps(service_prove)
    async def traced_prove(self, sequents, *args, **kwargs):
        span = recorder.start("service.prove")
        token = _CURRENT.set(span)
        owned = [id(s) for s in sequents]
        for key in owned:
            recorder.sequent_owner[key] = span["id"]
        try:
            return await service_prove(self, sequents, *args, **kwargs)
        finally:
            for key in owned:
                recorder.sequent_owner.pop(key, None)
            _CURRENT.reset(token)
            recorder.finish(span)

    daemon.VerifyService.prove = traced_prove


def install_client(recorder: SpanRecorder) -> None:
    """The wire encoders and decoders the client (the generator) calls."""
    from repro.server import client, wire

    _wrap_wire(recorder, (client, wire))


def _wrap_wire(recorder: SpanRecorder, modules) -> None:
    """Wrap every ``repro.server.wire`` codec where ``modules`` look it up."""
    from repro.server import wire

    for name in dir(wire):
        kind = (
            "wire.encode" if name.endswith("_to_wire")
            else "wire.decode" if name.endswith("_from_wire")
            else None
        )
        for module in modules:
            if kind is not None and hasattr(module, name):
                setattr(module, name, recorder.wrap(kind, getattr(wire, name)))


# -- reading spans back -------------------------------------------------------


def load_spans(out_dir: Path) -> List[Dict[str, Any]]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open() as lines:
            spans.extend(json.loads(line) for line in lines if line.strip())
    return spans


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result

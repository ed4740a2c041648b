"""The ``repro serve`` daemon: batched async compile-as-a-service.

One long-lived process hosts the warm state every compile request needs
— the hash-cons expression arena, pre-built discrimination-tree rule
indexes, the open content-addressed :class:`~repro.fabric.ResultCache`,
memoized interpreter programs — behind a
:class:`~repro.session.CompilerSession`, so a request pays ~3ms of
actual instruction selection instead of a full process cold start.

Architecture (one asyncio event loop)::

    connections ──lines──> per-request tasks ──┐ (fabric ops)
                                               v
    inline ops (ping/cache-stats/shutdown)   request queue
         │                                     │  coalesced by the
         v                                     v  dispatch loop
       reply                              batch of TaskSpecs
                                               │ one pump thread
                                               v
                      run_tasks(... pool=WorkerPool)   <- forked AFTER
                                               │          warm-up
                                               v
                                 futures resolve -> replies

* **Batching** — concurrent requests arriving within ``batch_window_s``
  (or queued while a batch is in flight) coalesce into one
  ``run_tasks`` call, sharded over the session's persistent
  :class:`~repro.fabric.WorkerPool`; with ``jobs=1`` the batch runs
  inline on the pump thread against the warm caches.
* **Deadlines** — a request whose ``deadline_s`` expires before
  dispatch is answered ``deadline`` without executing; one that expires
  while its batch runs is answered ``deadline`` rather than handed a
  stale result.
* **Graceful shutdown** — SIGINT/SIGTERM or the ``shutdown`` op stops
  accepting work, drains the queue and in-flight batch, writes every
  pending reply, then tears down the pool — and emits the ``--report``
  RunReport / ``--trace`` Chrome trace, in which per-request worker
  spans are merged onto the daemon timeline.
* **Observability** — ``serve_request_seconds``/``serve_batch_size``
  quantile histograms, ``serve_requests``/``serve_batches`` counters
  and ``serve_queue_depth``/``serve_connections`` gauges, served live
  as Prometheus text exposition from ``GET /metrics`` on the side HTTP
  listener (``--metrics-port``).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..session import CompilerSession
from .protocol import (
    FABRIC_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
    to_task_spec,
)

__all__ = ["ServeDaemon"]

#: queue sentinel that tells the dispatch loop to drain and exit
_STOP = object()

#: longest request line (bytes) a connection's stream reader accepts
LINE_LIMIT = 2 ** 16


@dataclass
class _PendingRequest:
    """One fabric-op request waiting for (or riding in) a batch."""

    req: Request
    future: "asyncio.Future[Dict[str, Any]]"
    #: ``time.monotonic()`` at enqueue
    received: float
    #: absolute monotonic deadline (None: unbounded)
    deadline: Optional[float] = None


class ServeDaemon:
    """Batched line-delimited-JSON compile service over TCP/unix."""

    def __init__(
        self,
        session: Optional[CompilerSession] = None,
        batch_window_s: float = 0.002,
        max_batch: int = 64,
        report_path: Optional[str] = None,
        trace_path: Optional[str] = None,
        warm_targets: Optional[List[str]] = None,
    ):
        from ..observe import MetricsRegistry, Tracer

        self.session = session if session is not None else CompilerSession()
        if self.session.metrics is None:
            self.session.metrics = MetricsRegistry()
        if report_path and self.session.phase_tracer is None:
            self.session.phase_tracer = Tracer()
        self.metrics = self.session.metrics
        self.tracer = Tracer() if trace_path else None
        self.batch_window_s = batch_window_s
        self.max_batch = max(1, max_batch)
        self.report_path = report_path
        self.trace_path = trace_path
        self.warm_targets = warm_targets

        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        #: one pump thread => batches execute strictly one at a time
        self._pump = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._line_tasks: set = set()
        self._conn_tasks: set = set()
        self._writers: set = set()
        self._draining = False
        self._stopped = asyncio.Event()
        #: holds the ``serve`` report phase open until shutdown
        self._serving = contextlib.ExitStack()
        self.requests_served = 0
        self.batches_run = 0
        #: (host, port) after start(); None for unix sockets
        self.address: Optional[Tuple[str, int]] = None
        self.unix_path: Optional[str] = None
        self.metrics_address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
        metrics_port: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Warm up, fork the pool, bind sockets, start dispatching.

        Returns the warm-up summary.  ``port=0`` (and
        ``metrics_port=0``) bind an ephemeral port; read the chosen one
        from :attr:`address` / :attr:`metrics_address`.
        """
        with self.session.phase("warm-up"):
            summary = self.session.warm_up(targets=self.warm_targets)
            # Fork workers only now, so they inherit the warm indexes.
            self.session.ensure_pool()
        if unix is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=unix, limit=LINE_LIMIT
            )
            self.unix_path = unix
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host, port, limit=LINE_LIMIT
            )
            self.address = self._server.sockets[0].getsockname()[:2]
        if metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_http, host, metrics_port
            )
            self.metrics_address = (
                self._metrics_server.sockets[0].getsockname()[:2]
            )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._serving.enter_context(self.session.phase("serve"))
        return summary

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix: Optional[str] = None,
        metrics_port: Optional[int] = None,
        quiet: bool = False,
    ) -> int:
        """`start()` + signal handlers + block until shutdown completes."""
        import signal

        summary = await self.start(
            host=host, port=port, unix=unix, metrics_port=metrics_port
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(
                    sig,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
        if not quiet:
            where = (
                self.unix_path
                if self.unix_path
                else "%s:%d" % self.address
            )
            print(
                f"repro serve: warm in {summary['seconds']:.2f}s "
                f"({len(summary['targets'])} targets); "
                f"serving on {where} "
                f"(jobs={self.session.jobs}, "
                f"batch window {self.batch_window_s * 1e3:.0f}ms, "
                f"max batch {self.max_batch})",
                flush=True,
            )
            if self.metrics_address is not None:
                print(
                    "metrics on http://%s:%d/metrics"
                    % self.metrics_address,
                    flush=True,
                )
        await self._stopped.wait()
        if not quiet:
            print(
                f"repro serve: drained; {self.requests_served} requests "
                f"in {self.batches_run} batches",
                flush=True,
            )
        return 0

    async def shutdown(self) -> None:
        """Drain in-flight work, reply to everything, tear down."""
        if self._draining:
            return
        self._draining = True
        # 1. stop accepting connections
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. drain the dispatch loop (resolves every queued future)
        await self._queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        # 3. wait for in-flight handlers to write their replies
        if self._line_tasks:
            await asyncio.gather(
                *list(self._line_tasks), return_exceptions=True
            )
        # 4. close lingering connections and the metrics listener
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(
                        *list(self._conn_tasks), return_exceptions=True
                    ),
                    timeout=5.0,
                )
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # 5. release the pool + pump, finalize observability artifacts
        self.session.close()
        self._pump.shutdown(wait=True)
        self._serving.close()
        if self.trace_path and self.tracer is not None:
            self.tracer.write_chrome_trace(self.trace_path)
            print(f"wrote Chrome trace to {self.trace_path}", flush=True)
        if self.report_path:
            self.session.write_report(
                self.report_path,
                "serve",
                tracer=self.tracer,
                extra={
                    "requests_served": self.requests_served,
                    "batches_run": self.batches_run,
                    "jobs": self.session.jobs,
                    "max_batch": self.max_batch,
                    "batch_window_s": self.batch_window_s,
                },
            )
        self._stopped.set()

    # -- connection handling -------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        conn_task = asyncio.current_task()
        self._conn_tasks.add(conn_task)
        self._writers.add(writer)
        self.metrics.gauge("serve_connections").inc()
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past LINE_LIMIT the rest of the line is still
                    # unread, so the stream cannot be resynchronised:
                    # answer once, then close this connection.
                    self._account("<malformed>", "bad-request",
                                  time.monotonic())
                    await self._write(writer, write_lock, error_reply(
                        None, "bad-request",
                        f"request line exceeds the {LINE_LIMIT}-byte "
                        f"limit; closing the connection",
                    ))
                    break
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.append(task)
                self._line_tasks.add(task)
                task.add_done_callback(self._line_tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._conn_tasks.discard(conn_task)
            self.metrics.gauge("serve_connections").dec()
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _write(self, writer, write_lock, reply: Dict[str, Any]) -> None:
        """Serialize one reply onto a shared connection; losing the
        client mid-write is not an error worth a traceback."""
        data = encode_reply(reply)
        with contextlib.suppress(ConnectionResetError, OSError):
            async with write_lock:
                writer.write(data)
                await writer.drain()

    def _account(self, op: str, outcome: str, received: float) -> None:
        self.requests_served += 1
        self.metrics.counter("serve_requests", op=op, outcome=outcome).inc()
        self.metrics.histogram("serve_request_seconds", op=op).observe(
            time.monotonic() - received
        )

    async def _handle_line(self, line, writer, write_lock) -> None:
        received = time.monotonic()
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            self._account("<malformed>", exc.code, received)
            await self._write(
                writer, write_lock, error_reply(None, exc.code, exc.message)
            )
            return
        try:
            reply = await self._dispatch_request(req, received)
        except ProtocolError as exc:
            reply = error_reply(req.id, exc.code, exc.message)
            self._account(req.op, exc.code, received)
        except Exception as exc:  # pragma: no cover - daemon-side bug
            reply = error_reply(
                req.id, "internal", f"{type(exc).__name__}: {exc}"
            )
            self._account(req.op, "internal", received)
        await self._write(writer, write_lock, reply)

    async def _dispatch_request(
        self, req: Request, received: float
    ) -> Dict[str, Any]:
        """Answer inline ops; enqueue fabric ops and await their batch."""
        if req.op == "ping":
            reply = ok_reply(
                req.id,
                {
                    "pong": True,
                    "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                    "draining": self._draining,
                },
            )
            self._account("ping", "ok", received)
            return reply
        if req.op == "cache-stats":
            cache = self.session.cache
            if cache is None:
                result: Dict[str, Any] = {"cache": None}
            else:
                # stats() walks the disk; keep the event loop free.
                result = await asyncio.get_running_loop().run_in_executor(
                    None, cache.stats
                )
            self._account("cache-stats", "ok", received)
            return ok_reply(req.id, result)
        if req.op == "shutdown":
            self._account("shutdown", "ok", received)
            asyncio.ensure_future(self.shutdown())
            return ok_reply(req.id, {"draining": True})
        if req.op not in FABRIC_OPS:
            raise ProtocolError("unknown-op", f"unknown op {req.op!r}")
        if self._draining:
            raise ProtocolError(
                "shutting-down", "daemon is draining; request refused"
            )
        pending = _PendingRequest(
            req=req,
            future=asyncio.get_running_loop().create_future(),
            received=received,
            deadline=(
                received + req.deadline_s
                if req.deadline_s is not None
                else None
            ),
        )
        await self._queue.put(pending)
        self.metrics.gauge("serve_queue_depth").set(self._queue.qsize())
        return await pending.future

    # -- batching ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Coalesce queued requests into fabric batches, forever.

        The loop blocks on the queue, then (batch window permitting)
        sleeps once to let concurrent arrivals coalesce, then drains up
        to ``max_batch`` requests into one ``run_tasks`` call.  The
        ``_STOP`` sentinel — enqueued exactly once, by ``shutdown()`` —
        drains everything still queued and exits.
        """
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            stop = item is _STOP
            batch: List[_PendingRequest] = [] if stop else [item]
            if not stop:
                if self.batch_window_s > 0:
                    await asyncio.sleep(self.batch_window_s)
                while len(batch) < self.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    batch.append(nxt)
            self.metrics.gauge("serve_queue_depth").set(self._queue.qsize())
            if batch:
                await self._run_batch(batch, loop)
            if stop:
                # Everything enqueued before the sentinel (FIFO) has
                # been consumed above or is drained here; nothing can
                # arrive after it because _draining rejects new work.
                rest: List[_PendingRequest] = []
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is not _STOP:
                        rest.append(nxt)
                while rest:
                    chunk, rest = rest[: self.max_batch], rest[self.max_batch:]
                    await self._run_batch(chunk, loop)
                return

    async def _run_batch(self, batch: List[_PendingRequest], loop) -> None:
        now = time.monotonic()
        ready: List[_PendingRequest] = []
        specs = []
        for pend in batch:
            if pend.deadline is not None and now >= pend.deadline:
                self._resolve(
                    pend,
                    error_reply(
                        pend.req.id,
                        "deadline",
                        f"deadline of {pend.req.deadline_s}s expired "
                        f"before dispatch",
                    ),
                    "deadline",
                )
                continue
            try:
                spec = to_task_spec(pend.req)
            except ProtocolError as exc:
                self._resolve(
                    pend,
                    error_reply(pend.req.id, exc.code, exc.message),
                    exc.code,
                )
                continue
            ready.append(pend)
            specs.append(spec)
        if not ready:
            return
        self.batches_run += 1
        self.metrics.counter("serve_batches").inc()
        self.metrics.histogram("serve_batch_size").observe(len(ready))
        results = await loop.run_in_executor(
            self._pump, functools.partial(self._execute_batch, specs)
        )
        end = time.monotonic()
        for pend, res in zip(ready, results):
            if pend.deadline is not None and end >= pend.deadline:
                self._resolve(
                    pend,
                    error_reply(
                        pend.req.id,
                        "deadline",
                        f"deadline of {pend.req.deadline_s}s expired "
                        f"during execution (result discarded)",
                    ),
                    "deadline",
                )
            elif res.ok:
                self._resolve(
                    pend,
                    ok_reply(
                        pend.req.id,
                        res.value,
                        cached=res.cached,
                        seconds=res.seconds,
                    ),
                    "cached" if res.cached else "ok",
                )
            else:
                self._resolve(
                    pend,
                    error_reply(
                        pend.req.id,
                        "task-failed",
                        res.error or "task failed",
                    ),
                    "task-failed",
                )

    def _execute_batch(self, specs) -> List:
        """Run one coalesced batch on the pump thread (fabric inside)."""
        if self.tracer is not None:
            with self.tracer.span("serve:batch", size=len(specs)):
                return self.session.run_tasks(specs, tracer=self.tracer)
        return self.session.run_tasks(specs)

    def _resolve(
        self, pend: _PendingRequest, reply: Dict[str, Any], outcome: str
    ) -> None:
        self._account(pend.req.op, outcome, pend.received)
        if not pend.future.done():
            pend.future.set_result(reply)

    # -- /metrics HTTP side-channel ------------------------------------
    async def _on_http(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.0 responder: just enough for a
        Prometheus scrape of ``/metrics`` (plus ``/healthz``)."""
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            path = path.split("?", 1)[0]
            if path == "/metrics":
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = self.metrics.to_prometheus()
            elif path in ("/", "/healthz"):
                status = "200 OK"
                ctype = "text/plain; charset=utf-8"
                body = "ok\n"
            else:
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
                body = f"no such path: {path}\n"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

"""The ``repro serve`` daemon: async compile-as-a-service.

One long-lived process hosts the warm state every compile request needs
— the hash-cons expression arena, pre-built discrimination-tree rule
indexes, the open content-addressed :class:`~repro.fabric.ResultCache`,
memoized interpreter programs — behind a
:class:`~repro.session.CompilerSession`, so a request pays ~3ms of
actual instruction selection instead of a full process cold start.

Architecture (one asyncio event loop, one pump thread per worker)::

    connections ──lines──> per-request tasks ──> inline ops (ping/
                                 │               cache-stats/shutdown)
                                 │ fabric op: one cache lookup
                 hit ┌───────────┴──────────┐ miss (+ its key)
                     v                      v
          reply at admission     MISS_DELAY_S on the event loop
                                            │ a free pump thread
                                            v
                   execute_tasks([(spec, key)], pool=WorkerPool)
                                            │   (pool forked AFTER warm-up)
                                            v
                              result stored, then replied

* **Admission** — a fabric request is turned into its
  :class:`~repro.fabric.TaskSpec` (a bad one is answered
  ``bad-request`` here) and cache key (:func:`~repro.fabric.task_key`),
  and looked up in the session's result cache exactly once
  (:func:`~repro.fabric.cached_result`).  A request whose op and params
  hit before takes its spec and key from a bounded memo of hits
  instead of deriving them again.  A hit is answered on the spot, never
  queued behind a miss: the cache hands over the result's canonical
  text, which :func:`~repro.serve.protocol.encode_ok` splices into the
  frame, so a hit held in the cache's memory tier reads no file and
  decodes nothing.  It counts as ``serve_requests{outcome="cached"}``
  and ``fabric_tasks{outcome="cached"}``, as a hit inside
  ``run_tasks`` does.
* **Misses** — each miss is its own one-task
  :func:`~repro.fabric.execute_tasks` call on a pump thread, and is
  answered when that call returns, its result already stored in the
  cache.  There is one pump thread per worker, so up to ``jobs``
  misses run at once and none waits behind another while a worker is
  idle.  With ``jobs>1`` every miss runs in the session's persistent
  :class:`~repro.fabric.WorkerPool`; with ``jobs=1`` it runs inline on
  the one pump thread, against the warm caches, in arrival order.
* **Deadlines** — a request whose ``deadline_s`` has expired when its
  lookup hits, or when a pump thread takes it, is answered
  ``deadline`` without executing; one that expires while its task runs
  is answered ``deadline`` rather than handed a stale result.
* **Graceful shutdown** — SIGINT/SIGTERM or the ``shutdown`` op stops
  accepting work, answers every admitted request, closes the
  connections that linger, then tears down the pool — and emits the
  ``--report`` RunReport / ``--trace`` Chrome trace, in which
  per-request worker spans are merged onto the daemon timeline.
* **Observability** — ``serve_request_seconds`` quantile histograms,
  ``serve_requests`` counters (an op the daemon does not know counts as
  ``<unknown>``) and ``serve_queue_depth`` (misses admitted and not yet
  answered)/``serve_connections`` gauges, served live as Prometheus
  text exposition from ``GET /metrics`` on the side HTTP listener
  (``--metrics-port``), with the result cache's session counts as
  ``repro_cache_*`` series.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..fabric import (
    TaskResult,
    TaskSpec,
    account_result,
    cached_result,
    encode_value,
    execute_tasks,
    task_key,
)
from ..observe import MetricsRegistry, Tracer
from ..session import CompilerSession
from .protocol import (
    FABRIC_OPS,
    INLINE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_ok,
    encode_reply,
    error_reply,
    parse_request,
    to_task_spec,
)

__all__ = ["ServeDaemon"]

#: longest request line (bytes) a connection's stream reader accepts
LINE_LIMIT = 2 ** 16

#: how long a miss waits on the event loop before it takes a pump
#: thread, so that hits read in the same burst are answered first: a
#: miss run inline (``jobs=1``) holds the GIL for milliseconds at a
#: time, and the loop answering those hits would wait on it.
MISS_DELAY_S = 0.002

#: bound of the hit memo, in requests: an entry holds about 1.2 KB (a
#: compile request) to 1.8 KB (a verify-rule one with every param set),
#: so a full memo stays under 1 MB
HIT_MEMO_ENTRIES = 512

#: the ``op`` labels of the serve metrics; any other op, which a client
#: chose, is accounted as ``<unknown>``
OP_LABELS = frozenset((*FABRIC_OPS, *INLINE_OPS, "<malformed>"))

#: the cache's session counts that ``/metrics`` exports as
#: ``repro_cache_*`` counters (``memory_bytes`` goes as a gauge)
CACHE_COUNTS = ("hits", "memory_hits", "misses", "stores", "store_errors",
                "evictions")


def _error_frame(req_id: Any, code: str, message: str) -> bytes:
    return encode_reply(error_reply(req_id, code, message))


def _deadline_frame(req: Request, when: str) -> bytes:
    """The ``deadline`` error for a request, saying when it expired."""
    return _error_frame(
        req.id, "deadline", f"deadline of {req.deadline_s}s expired {when}"
    )


class ServeDaemon:
    """Line-delimited-JSON compile service over TCP/unix."""

    def __init__(
        self,
        session: Optional[CompilerSession] = None,
        report_path: Optional[str] = None,
        trace_path: Optional[str] = None,
        warm_targets: Optional[List[str]] = None,
    ):
        self.session = session if session is not None else CompilerSession()
        if self.session.metrics is None:
            self.session.metrics = MetricsRegistry()
        if report_path and self.session.phase_tracer is None:
            self.session.phase_tracer = Tracer()
        if trace_path and self.session.tracer is None:
            self.session.tracer = Tracer()
        self.metrics = self.session.metrics
        self.tracer = self.session.tracer
        self.report_path = report_path
        self.trace_path = trace_path
        self.warm_targets = warm_targets

        #: one pump thread per worker => up to ``jobs`` misses at once
        self._pump = ThreadPoolExecutor(
            max_workers=self.session.jobs,
            thread_name_prefix="serve-miss",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._line_tasks: set = set()
        self._conn_tasks: set = set()
        #: every open connection's writer, /metrics ones included
        self._writers: set = set()
        self._draining = False
        self._stopped = asyncio.Event()
        #: holds the ``serve`` report phase open until shutdown
        self._serving = contextlib.ExitStack()
        self.requests_served = 0
        #: (op, the params' (name, type, value) triples) -> (spec, cache
        #: key) of each request whose last lookup hit, least recent first
        self._hits: "OrderedDict[tuple, Tuple[TaskSpec, str]]" = (
            OrderedDict()
        )
        #: (op label, outcome) -> its serve_requests counter and its op's
        #: serve_request_seconds histogram
        self._instruments: Dict[Tuple[str, str], tuple] = {}
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
        """Warm up, fork the pool, bind sockets.

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
                f"serving on {where} (jobs={self.session.jobs})",
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
                f"repro serve: drained; {self.requests_served} requests",
                flush=True,
            )
        return 0

    async def shutdown(self) -> None:
        """Drain in-flight work, reply to everything, tear down.

        From Python 3.12.1 a server's ``wait_closed()`` waits until
        every connection has dropped, so it comes last: one idle client
        must not hold the daemon open.
        """
        if self._draining:
            return
        self._draining = True
        servers = [
            s for s in (self._server, self._metrics_server) if s is not None
        ]
        # 1. stop accepting connections
        for server in servers:
            server.close()
        # 2. answer every admitted request (a miss awaits its own task)
        if self._line_tasks:
            await asyncio.gather(
                *list(self._line_tasks), return_exceptions=True
            )
        # 3. close lingering connections, /metrics ones included
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
        # 4. with no connection left, the listeners finish closing
        for server in servers:
            await server.wait_closed()
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
                extra={
                    "requests_served": self.requests_served,
                    "jobs": self.session.jobs,
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
        # This connection's unfinished line tasks: finished ones drop
        # out, so a long-lived connection holds no history.
        tasks: set = set()
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
                    await self._write(writer, write_lock, _error_frame(
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
                for group in (tasks, self._line_tasks):
                    group.add(task)
                    task.add_done_callback(group.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._conn_tasks.discard(conn_task)
            self.metrics.gauge("serve_connections").dec()
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _write(self, writer, write_lock, frame: bytes) -> None:
        """Write one reply frame onto a shared connection; losing the
        client mid-write is not an error worth a traceback."""
        with contextlib.suppress(ConnectionResetError, OSError):
            async with write_lock:
                writer.write(frame)
                await writer.drain()

    def _account(self, op: str, outcome: str, received: float) -> None:
        self.requests_served += 1
        if op not in OP_LABELS:
            op = "<unknown>"
        instruments = self._instruments.get((op, outcome))
        if instruments is None:
            instruments = self._instruments[(op, outcome)] = (
                self.metrics.counter("serve_requests", op=op,
                                     outcome=outcome),
                self.metrics.histogram("serve_request_seconds", op=op),
            )
        requests, seconds = instruments
        requests.inc()
        seconds.observe(time.monotonic() - received)

    async def _handle_line(self, line, writer, write_lock) -> None:
        received = time.monotonic()
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            self._account("<malformed>", exc.code, received)
            await self._write(
                writer, write_lock, _error_frame(None, exc.code, exc.message)
            )
            return
        try:
            frame = await self._dispatch_request(req, received)
        except ProtocolError as exc:
            frame = _error_frame(req.id, exc.code, exc.message)
            self._account(req.op, exc.code, received)
        except Exception as exc:  # pragma: no cover - daemon-side bug
            frame = _error_frame(
                req.id, "internal", f"{type(exc).__name__}: {exc}"
            )
            self._account(req.op, "internal", received)
        await self._write(writer, write_lock, frame)

    async def _dispatch_request(self, req: Request, received: float) -> bytes:
        """Answer inline ops and cache hits; run a miss as its own task
        and await it.  Returns the reply frame."""
        if req.op == "ping":
            frame = encode_ok(req.id, encode_value({
                "pong": True,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "draining": self._draining,
            }))
            self._account("ping", "ok", received)
            return frame
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
            return encode_ok(req.id, encode_value(result))
        if req.op == "shutdown":
            self._account("shutdown", "ok", received)
            asyncio.ensure_future(self.shutdown())
            return encode_ok(req.id, encode_value({"draining": True}))
        if req.op not in FABRIC_OPS:
            raise ProtocolError("unknown-op", f"unknown op {req.op!r}")
        if self._draining:
            raise ProtocolError(
                "shutting-down", "daemon is draining; request refused"
            )
        spec, cache_key, hit = self._admit(req)
        deadline = (
            received + req.deadline_s if req.deadline_s is not None else None
        )
        if hit is not None:
            # A hit is answered here, never queued behind a miss, with
            # the cache's text spliced into its frame, never decoded.
            account_result(hit, self.metrics, self.tracer)
            if deadline is not None and time.monotonic() >= deadline:
                self._account(req.op, "deadline", received)
                return _deadline_frame(req, "before dispatch")
            self._account(req.op, "cached", received)
            return encode_ok(req.id, hit.encoded, cached=True)
        return await self._run_miss(req, spec, cache_key, received, deadline)

    def _admit(self, req: Request
               ) -> Tuple[TaskSpec, Optional[str], Optional[TaskResult]]:
        """A fabric request's spec, cache key and cache hit (``None`` on
        a miss), from one cache read (none without a cache).

        The spec and key come from the hit memo when the same op and
        params hit before, else from :func:`to_task_spec` (which raises
        ``bad-request``) and :func:`task_key`.  The memo key keeps each
        param's type, so ``false`` and ``0.0`` never pass for ``0``.
        Only a hit enters the memo, a miss leaves it, and past
        :data:`HIT_MEMO_ENTRIES` the least recent request goes.
        """
        memo_key: Optional[tuple] = (
            req.op, *[(k, type(v), v) for k, v in req.params.items()]
        )
        try:
            known = self._hits.pop(memo_key, None)
        except TypeError:  # a list or object param, never a valid one
            memo_key = known = None
        if known is None:
            spec = to_task_spec(req)
            cache_key = task_key(spec, self.session.cache)
        else:
            spec, cache_key = known
        hit = cached_result(spec, cache_key, self.session.cache)
        if hit is not None and memo_key is not None:
            self._hits[memo_key] = (spec, cache_key)
            if len(self._hits) > HIT_MEMO_ENTRIES:
                self._hits.popitem(last=False)
        return spec, cache_key, hit

    # -- misses --------------------------------------------------------
    async def _run_miss(self, req: Request, spec: TaskSpec,
                        cache_key: Optional[str], received: float,
                        deadline: Optional[float]) -> bytes:
        """Run one miss as its own fabric task on a pump thread (in a
        worker when the session has a pool); answer it when it ends."""

        def execute() -> Optional[TaskResult]:  # on a pump thread
            if deadline is not None and time.monotonic() >= deadline:
                return None
            results: List[TaskResult] = []
            execute_tasks(
                [(spec, cache_key)],
                lambda _i, res: results.append(res),
                cache=self.session.cache,
                observe_metrics=True,
                observe_spans=self.tracer is not None,
                pool=self.session.ensure_pool(),
            )
            return results[0]

        depth = self.metrics.gauge("serve_queue_depth")
        depth.inc()
        try:
            await asyncio.sleep(MISS_DELAY_S)
            res = await asyncio.get_running_loop().run_in_executor(
                self._pump, execute
            )
        finally:
            depth.dec()
        if res is None:
            self._account(req.op, "deadline", received)
            return _deadline_frame(req, "before dispatch")
        account_result(res, self.metrics, self.tracer)
        if deadline is not None and time.monotonic() >= deadline:
            frame = _deadline_frame(
                req, "during execution (result discarded)"
            )
            outcome = "deadline"
        elif res.ok:
            try:
                frame = encode_ok(req.id, encode_value(res.value),
                                  seconds=res.seconds)
                outcome = "ok"
            except (TypeError, ValueError) as exc:  # not JSON data
                frame = _error_frame(req.id, "internal",
                                     f"{type(exc).__name__}: {exc}")
                outcome = "internal"
        else:
            frame = _error_frame(
                req.id, "task-failed", res.error or "task failed"
            )
            outcome = "task-failed"
        self._account(req.op, outcome, received)
        return frame

    # -- /metrics HTTP side-channel ------------------------------------
    def _exposition(self) -> str:
        """The ``/metrics`` text: the registry, then the cache's session
        counts as they stand now."""
        text = self.metrics.to_prometheus()
        cache = self.session.cache
        if cache is not None:
            stats = cache.session_stats()
            counts = MetricsRegistry()
            for name in CACHE_COUNTS:
                counts.counter(f"cache_{name}").inc(stats[name])
            counts.gauge("cache_memory_bytes").set(stats["memory_bytes"])
            text += counts.to_prometheus()
        return text

    async def _on_http(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.0 responder: just enough for a
        Prometheus scrape of ``/metrics`` (plus ``/healthz``).  A line
        past the stream limit gets ``400 Bad Request``."""
        self._writers.add(writer)
        try:
            path = None  # stays None for a line past the stream limit
            with contextlib.suppress(ValueError):
                request_line = await reader.readline()
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                parts = request_line.decode("latin-1").split()
                path = parts[1] if len(parts) >= 2 else "/"
                path = path.split("?", 1)[0]
            if path is None:
                status = "400 Bad Request"
                ctype = "text/plain; charset=utf-8"
                body = "line too long\n"
            elif path == "/metrics":
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = self._exposition()
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
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

"""Blocking client for the ``repro serve`` daemon.

:class:`ServeClient` speaks the line-delimited JSON protocol of
:mod:`repro.serve.protocol` over TCP or a unix socket.  Replies may
arrive out of order (a hit is answered before an earlier miss), so the
client matches them to requests by ``id``; :meth:`ServeClient.batch`
pipelines many requests on one connection and returns replies
re-sorted into request order.

Used by the ``python -m repro client`` CLI, the serve test-suite, and
``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A structured error reply, surfaced as an exception.

    ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES`; the
    original reply frame is kept on ``reply``.
    """

    def __init__(self, reply: Dict[str, Any]):
        err = reply.get("error") or {}
        self.code = err.get("code", "internal")
        self.reply = reply
        super().__init__(f"{self.code}: {err.get('message', '')}")


class ServeClient:
    """One connection to a daemon; requests are matched to replies by id."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix: Optional[str] = None,
        timeout: Optional[float] = 60.0,
    ):
        if unix is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(unix)
        else:
            if port is None:
                raise ValueError("need either a port or a unix socket path")
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0

    # -- framing -------------------------------------------------------
    def send(self, frame: Dict[str, Any]) -> None:
        """Write one raw request frame (caller-supplied id and all)."""
        self._file.write(
            (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")
        )
        self._file.flush()

    def recv(self) -> Dict[str, Any]:
        """Read one raw reply frame (whatever id arrives next)."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    # -- request/reply -------------------------------------------------
    def _frame(
        self,
        op: str,
        params: Optional[Dict[str, Any]],
        deadline_s: Optional[float],
    ) -> Dict[str, Any]:
        self._next_id += 1
        frame: Dict[str, Any] = {"id": self._next_id, "op": op}
        if params:
            frame["params"] = params
        if deadline_s is not None:
            frame["deadline_s"] = deadline_s
        return frame

    def request(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request, one reply; raises :class:`ServeError` on error."""
        frame = self._frame(op, params, deadline_s)
        self.send(frame)
        reply = self.recv()
        if not reply.get("ok"):
            raise ServeError(reply)
        return reply

    def batch(
        self,
        requests: Sequence[
            Union[Tuple[str, Dict[str, Any]], Dict[str, Any]]
        ],
        deadline_s: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Pipeline many requests; replies come back in *request* order.

        Each request is ``(op, params)`` or a dict with ``op`` and
        optional ``params``/``deadline_s``.  Error replies are returned
        in place (``ok: false``), not raised — a batch is a report, and
        one bad cell must not hide the other results.  A null-id error
        (unparsable frame) cannot be matched and does raise.
        """
        frames = []
        for req in requests:
            if isinstance(req, dict):
                frame = self._frame(
                    req["op"],
                    req.get("params"),
                    req.get("deadline_s", deadline_s),
                )
            else:
                op, params = req
                frame = self._frame(op, params, deadline_s)
            frames.append(frame)
        for frame in frames:
            self.send(frame)
        by_id: Dict[Any, Dict[str, Any]] = {}
        while len(by_id) < len(frames):
            reply = self.recv()
            if reply.get("id") is None:
                raise ServeError(reply)
            by_id[reply["id"]] = reply
        return [by_id[f["id"]] for f in frames]

    # -- conveniences --------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")["result"]

    def compile(
        self, workload: str, target: str, **params: Any
    ) -> Dict[str, Any]:
        params.update(workload=workload, target=target)
        return self.request("compile", params)["result"]

    def cache_stats(self) -> Dict[str, Any]:
        return self.request("cache-stats")["result"]

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")["result"]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Compile-as-a-service: the ``repro serve`` daemon and its client.

* :mod:`repro.serve.protocol` — the line-delimited JSON wire protocol
  (requests, replies, structured error codes, op -> TaskSpec mapping).
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, the asyncio daemon
  hosting a warm :class:`~repro.session.CompilerSession`: cache hits
  are answered at admission, and each miss runs as its own task in a
  persistent warm-forked worker pool.
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  client used by ``python -m repro client``, tests and benchmarks.
"""

from .client import ServeClient, ServeError  # noqa: F401
from .daemon import ServeDaemon  # noqa: F401
from .protocol import (  # noqa: F401
    ERROR_CODES,
    FABRIC_OPS,
    INLINE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_ok,
    encode_reply,
    error_reply,
    ok_reply,
    parse_request,
    to_task_spec,
)

__all__ = [
    "ERROR_CODES",
    "FABRIC_OPS",
    "INLINE_OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "encode_ok",
    "encode_reply",
    "error_reply",
    "ok_reply",
    "parse_request",
    "to_task_spec",
]

"""The wire protocol of ``repro serve``: line-delimited JSON frames.

One request per line, one reply per line, over TCP or a unix socket.
Requests::

    {"id": 7, "op": "compile",
     "params": {"workload": "sobel3x3", "target": "arm-neon"},
     "deadline_s": 5.0}

``id`` is any JSON scalar (string, number, boolean or null) chosen by
the client and echoed verbatim on the reply — replies may arrive out of
order (the daemon batches and shards requests), so clients match by
``id``, not position.  ``deadline_s`` is a relative per-request budget
in seconds; a request the daemon cannot *finish* within it gets a
structured ``deadline`` error instead of a stale result.  A frame whose
``id`` is an object or array, or that holds a number JSON cannot carry
(``NaN``, ``Infinity``, or a literal past the float range) anywhere, is
a ``bad-request`` with a null ``id``.

Replies are ``{"id": ..., "ok": true, "result": {...}, "cached": bool,
"seconds": float}`` on success and ``{"id": ..., "ok": false, "error":
{"code": ..., "message": ...}}`` on failure — a malformed line, unknown
op, bad parameter, expired deadline or crashed task always produces an
error *reply*, never a dropped connection.

Ops
---
``compile``, ``evaluate``, ``coverage``, ``verify-rule`` and ``lint``
are **fabric ops**: each maps onto one :class:`~repro.fabric.TaskSpec`
of an existing job kind (``compile`` / ``runtime`` / ``coverage`` /
``verify-rule`` / ``machinelint``), so daemon replies reuse exactly the
cell semantics — and content-addressed cacheability — of the one-shot
sweeps.  A reply's ``result`` is the kind's return value; for
``coverage`` that is the cell's fire table, sorted
``[phase, rule, source, fires]`` rows, identical on a cache hit::

    {"id": 3, "ok": true,
     "result": [["lift", "lift-extending-add", "hand", 4], ...,
                ["lower", "arm-uabd", "hand", 2], ...],
     "cached": false, "seconds": 0.01}

``ping``, ``cache-stats`` and ``shutdown`` are **inline ops**
answered on the event loop without touching the batcher.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, NoReturn, Optional

from ..fabric import TaskSpec, encode_value, get_job_kind

__all__ = [
    "FABRIC_OPS",
    "INLINE_OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "encode_ok",
    "encode_reply",
    "error_reply",
    "ok_reply",
    "parse_request",
    "to_task_spec",
]

PROTOCOL_VERSION = 1

#: op name -> fabric job kind
FABRIC_OPS: Dict[str, str] = {
    "compile": "compile",
    "evaluate": "runtime",
    "coverage": "coverage",
    "verify-rule": "verify-rule",
    "lint": "machinelint",
}
#: ops the daemon answers inline, without batching
INLINE_OPS = ("ping", "cache-stats", "shutdown")

#: stable error codes (the protocol's whole error vocabulary)
ERROR_CODES = (
    "bad-request",    # unparsable line / malformed or invalid fields
    "unknown-op",     # op not in FABRIC_OPS or INLINE_OPS
    "deadline",       # per-request deadline expired
    "task-failed",    # the job body raised (worker crash included)
    "shutting-down",  # request arrived after drain began
    "internal",       # daemon-side bug; the reply names the exception
)


class ProtocolError(Exception):
    """A request the daemon must answer with a structured error."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


@dataclass
class Request:
    """One parsed request frame."""

    op: str
    id: Any = None
    params: Dict[str, Any] = field(default_factory=dict)
    #: relative deadline in seconds (None: no deadline)
    deadline_s: Optional[float] = None


def _not_json(name: str) -> NoReturn:
    """``parse_constant`` hook: ``NaN`` and ``Infinity`` are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    """``parse_float`` hook: a literal past the float range is not a
    number JSON can carry back (it would decode to infinity)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is out of the float range")
    return value


_DECODER = json.JSONDecoder(parse_constant=_not_json,
                            parse_float=_finite_float)


def parse_request(line: bytes) -> Request:
    """Parse one frame; raises :class:`ProtocolError` on malformed input.

    The ``id`` of a frame that fails to parse as a JSON object, holds a
    non-JSON number or carries a non-scalar ``id`` is not echoed — the
    error reply carries ``id: null``; clients that pipeline must treat a
    null-id error as poisoning the whole batch.
    """
    try:
        doc = _DECODER.decode(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("bad-request", f"unparsable frame: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError(
            "bad-request", f"frame must be a JSON object, got {type(doc).__name__}"
        )
    if not isinstance(doc.get("id"), (str, int, float, type(None))):
        raise ProtocolError("bad-request", "'id' must be a JSON scalar")
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "missing or non-string 'op'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("bad-request", "'params' must be an object")
    deadline = doc.get("deadline_s")
    if deadline is not None:
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or deadline <= 0
        ):
            raise ProtocolError(
                "bad-request", "'deadline_s' must be a positive number"
            )
        deadline = float(deadline)
    return Request(
        op=op, id=doc.get("id"), params=params, deadline_s=deadline
    )


def _pop_key(params: Dict[str, Any], name: str, registry=None) -> str:
    """Remove the key param ``name``: a string in ``registry``, if any."""
    value = params.pop(name, None)
    if value is None:
        raise ProtocolError("bad-request", f"missing param {name!r}")
    if not isinstance(value, str):
        raise ProtocolError("bad-request", f"param {name!r} must be str, "
                            f"got {type(value).__name__}")
    if registry is not None and value not in registry:
        raise ProtocolError("bad-request", f"param {name!r}: unknown value "
                            f"{value!r} (expected one of {sorted(registry)})")
    return value


def to_task_spec(req: Request) -> TaskSpec:
    """Map a fabric-op request onto its job-kind descriptor.

    The key params (``workload`` and ``target``, or ``ruleset`` and
    ``rule``) are checked eagerly against their registries, so a bad
    name is a ``bad-request`` here, not a worker traceback.  The other
    params build the kind's params class (:mod:`repro.fabric.jobs`),
    whose fields are the wire names: a wrong type, a value out of range
    or an unknown name is a ``bad-request`` from that one definition,
    and a default request is the matching sweep's cell, cache entry
    included.  ``evaluate`` is the exception: Figure 5 sets
    ``with_rake`` and ``leave_one_out``, but the defaults are false.
    Leave-one-out builds a compiler per workload × target: the 192 keys
    the ``serve-mixed`` benchmark prefills, served in one process,
    peaked at 43.3 MB RSS with it against 40.3 MB without, past that
    benchmark's 5% bound on the daemon's ~47 MB peak.
    """
    kind = FABRIC_OPS.get(req.op)
    if kind is None:
        raise ProtocolError("unknown-op", f"not a fabric op: {req.op!r}")
    params = dict(req.params)
    if req.op == "verify-rule":
        from ..fabric.jobs import VERIFY_RULESETS, resolve_rule

        key = (
            _pop_key(params, "ruleset", VERIFY_RULESETS),
            _pop_key(params, "rule"),
        )
        try:
            resolve_rule(*key)
        except KeyError as exc:
            raise ProtocolError("bad-request", str(exc.args[0]))
    else:
        from ..targets import ALL_TARGETS
        from ..workloads import WORKLOADS

        key = (
            _pop_key(params, "workload", WORKLOADS),
            _pop_key(params, "target", ALL_TARGETS),
        )
    try:
        return TaskSpec(kind, key, get_job_kind(kind).params(**params))
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad-request", str(exc)) from None


def ok_reply(req_id: Any, result: Any, cached: bool = False,
             seconds: float = 0.0) -> Dict[str, Any]:
    """A success frame, as a dict (:func:`encode_ok` writes its bytes)."""
    return {
        "id": req_id,
        "ok": True,
        "result": result,
        "cached": cached,
        "seconds": seconds,
    }


def error_reply(req_id: Any, code: str, message: str) -> Dict[str, Any]:
    """A structured-error frame."""
    assert code in ERROR_CODES, code
    return {
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_reply(reply: Dict[str, Any]) -> bytes:
    """One reply, framed: compact JSON with sorted keys + newline."""
    return (encode_value(reply) + "\n").encode("utf-8")


def encode_ok(req_id: Any, result: str, cached: bool = False,
              seconds: float = 0.0) -> bytes:
    """The one encoder of a success frame, around its result's
    canonical text (:func:`~repro.fabric.encode_value`), which it
    splices in rather than encodes: the bytes of
    ``encode_reply(ok_reply(req_id, value, cached, seconds))``."""
    return ('{"cached":%s,"id":%s,"ok":true,"result":%s,"seconds":%s}\n' % (
        "true" if cached else "false", encode_value(req_id), result,
        encode_value(seconds),
    )).encode("utf-8")

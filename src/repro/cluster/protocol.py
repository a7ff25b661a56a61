"""The cluster wire protocol: JSON lines over TCP or a Unix socket.

One message per line, each a JSON object with a ``type`` field.  The
worker side is strictly request/response for flow control — a worker
sends ``lease`` and reads exactly one of ``job`` / ``drain`` back, held
by the scheduler until one of the two is due — while ``heartbeat``,
``result`` and ``goodbye`` are one-way (the scheduler never replies to
them, so a single reader loop on each side suffices and messages can
never interleave).

Worker → scheduler (field types are checked by
:func:`check_worker_message`; ``?`` marks an optional field)::

    register   {worker_id, pid?, protocol?}
    lease      {worker_id}                     -> job | drain (held)
    heartbeat  {worker_id}                     (one-way)
    result     {worker_id, campaign_id, lease_id, job_id, status,
                duration, metrics?, error?, timeout_enforced?,
                trace?}                        (one-way)
    goodbye    {worker_id}                     (one-way, then close)

Scheduler → worker::

    registered {heartbeat_seconds, lease_seconds}
    job        {campaign_id, lease_id, job_id, payload, final,
                store_root, trial, trace?}
    drain      {}
    error      {error}                         (register refused)

The optional ``trace`` field is the campaign's observability trace
context, ``{trace: <trace_id>, parent: <scheduler campaign span id>}``
(:func:`repro.obs.tracectx.wire_context`).  A worker adopts it for the
duration of the leased job — so the job's spans join the scheduler's
span tree — and echoes it verbatim on the ``result``.  It is absent
when the scheduler runs without observability.

Version 2 dropped the ``idle {retry_after}`` reply: an idle worker's
``lease`` is parked until a job or the drain is due.  A worker that
registers with another ``protocol`` version, or with the id of a
worker that is still connected, gets an ``error`` reply and the
connection closes.  A holder silent for a lease (a half-open socket)
no longer holds its id: a restarted worker takes it over, the old
holder's leases go back to the queue and its connection is dropped at
its next message.  A connection registers once: a second ``register``
is a :class:`ProtocolError`.

Control client → scheduler (the ``repro cluster submit|status|cancel``
commands use the same stream)::

    submit     {spec, store, resume}           -> ok {campaign_id} | error
    status     {}                              -> status {…}
    cancel     {campaign_id}                   -> ok | error
    shutdown   {}                              -> ok

A ``lease``, ``heartbeat`` or ``result`` must name the worker its
connection registered as; anything else is a :class:`ProtocolError`.

Determinism note: nothing on the wire feeds the job's metrics — the
``payload`` carries the same ``(experiment, params, seed)`` triple the
inline runner runs, so transport cannot perturb results.
"""

from __future__ import annotations

import json
import os
import socket
import stat
import threading
from dataclasses import dataclass
from typing import Optional

from repro.campaign.store import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)

PROTOCOL_VERSION = 2

# A line larger than this is a protocol violation, not a big job — the
# largest legitimate message is a result with a metrics dict.
MAX_LINE_BYTES = 4 * 1024 * 1024

# Pending connections a listening scheduler queues (asyncio's default).
LISTEN_BACKLOG = 100

# worker -> scheduler
MSG_REGISTER = "register"
MSG_LEASE = "lease"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_GOODBYE = "goodbye"
# scheduler -> worker
MSG_REGISTERED = "registered"
MSG_JOB = "job"
MSG_DRAIN = "drain"
# control plane
MSG_SUBMIT = "submit"
MSG_STATUS = "status"
MSG_CANCEL = "cancel"
MSG_SHUTDOWN = "shutdown"
MSG_OK = "ok"
MSG_ERROR = "error"


class ProtocolError(Exception):
    """A malformed, oversized, or out-of-order protocol message."""


_NUMBER = (int, float)
# (required, optional) fields of each worker -> scheduler message, with
# the types a value may have.  An optional field may also be null.
WORKER_FIELDS = {
    MSG_REGISTER: ({"worker_id": str}, {"pid": int, "protocol": int}),
    MSG_LEASE: ({"worker_id": str}, {}),
    MSG_HEARTBEAT: ({"worker_id": str}, {}),
    MSG_RESULT: (
        {
            "worker_id": str,
            "campaign_id": str,
            "lease_id": str,
            "job_id": str,
            "status": str,
            "duration": _NUMBER,
        },
        {
            "error": str,
            "timeout_enforced": bool,
            "trace": dict,
            "metrics": dict,
        },
    ),
    MSG_GOODBYE: ({}, {"worker_id": str}),
}
RESULT_STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT, STATUS_CRASHED)


def check_worker_message(message: dict) -> None:
    """Raise :class:`ProtocolError` unless a worker → scheduler message
    carries every field it needs, each with an allowed type.

    Other message types pass unchecked.  The scheduler drops a
    connection on a malformed message, which charges the worker's
    leases, instead of letting a bad value raise inside the scheduler.
    """
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError(f"message type {kind!r} is not a string")
    if kind not in WORKER_FIELDS:
        return
    required, optional = WORKER_FIELDS[kind]
    for name, types in {**required, **optional}.items():
        value = message.get(name)
        if name not in required and value is None:
            continue
        if name not in message:
            raise ProtocolError(f"{kind} message has no {name!r}")
        # bool is an int subclass; only a bool field accepts one.
        if not isinstance(value, types) or (
            isinstance(value, bool) and types is not bool
        ):
            raise ProtocolError(
                f"{kind} field {name!r} has a bad value {value!r}"
            )
    if kind == MSG_RESULT and message["status"] not in RESULT_STATUSES:
        raise ProtocolError(f"result has unknown status {message['status']!r}")


def encode_message(message: dict) -> bytes:
    """One JSON line, ready for the socket."""
    if "type" not in message:
        raise ProtocolError("message has no 'type'")
    data = json.dumps(message, sort_keys=True, separators=(",", ":"))
    line = data.encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    return line


def decode_message(line: bytes) -> dict:
    """Parse one received line into an object with a string ``type``;
    raises :class:`ProtocolError` on junk (including nesting too deep
    for the JSON parser)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from exc
    except RecursionError:
        raise ProtocolError("protocol line nests too deeply") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("protocol line is not an object with a string 'type'")
    return message


@dataclass(frozen=True)
class Endpoint:
    """Where the scheduler listens: ``tcp`` host/port or a Unix socket.

    Spelled ``unix:/path/to.sock``, ``tcp:host:port``, or bare
    ``host:port`` (tcp).  Unix sockets are the default transport for
    same-host fleets — no port allocation, file permissions for free.
    """

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    def connect(self, timeout: Optional[float] = 30.0) -> socket.socket:
        """Open a client socket to this endpoint."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        sock.settimeout(None)
        return sock

    def listen(self) -> tuple[socket.socket, "Endpoint"]:
        """Bind a listening server socket here; returns it with the
        bound endpoint (a TCP port ``0`` resolved to the real port).
        A stale Unix socket file at the path is replaced."""
        if self.kind == "unix":
            try:
                if stat.S_ISSOCK(os.stat(self.path).st_mode):
                    os.unlink(self.path)
            except FileNotFoundError:
                pass
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self.path)
            sock.listen(LISTEN_BACKLOG)
            return sock, self
        sock = socket.create_server(
            (self.host or "127.0.0.1", self.port), backlog=LISTEN_BACKLOG
        )
        host, port = sock.getsockname()[:2]
        return sock, Endpoint(kind="tcp", host=host, port=port)


def parse_endpoint(text: str) -> Endpoint:
    """Parse an endpoint string (see :class:`Endpoint` for spellings)."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path in {text!r}")
        return Endpoint(kind="unix", path=path)
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cannot parse endpoint {text!r}; expected unix:/path, "
            f"tcp:host:port, or host:port"
        )
    try:
        port_num = int(port)
    except ValueError as exc:
        raise ValueError(f"bad port in endpoint {text!r}") from exc
    return Endpoint(kind="tcp", host=host, port=port_num)


class MessageStream:
    """Blocking message framing over one socket.

    ``send`` is serialized with a lock so the worker's heartbeat thread
    and its main loop can share the connection; ``recv`` has a single
    caller by protocol design (see module docstring).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, message: dict) -> None:
        """Write one message (thread-safe)."""
        data = encode_message(message)
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self) -> Optional[dict]:
        """Read one message; ``None`` on a clean EOF."""
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        return decode_message(line.rstrip(b"\n"))

    def close(self) -> None:
        """Tear the connection down, quietly."""
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

"""Blocking JSON-lines client for :class:`repro.serve.server.SolveService`.

Deliberately synchronous: callers are scripts, tests and the ``repro
submit`` CLI command, none of which want an event loop.  One persistent
connection per client; requests and replies are strictly
request/response over it.

For anything that must survive a flaky network, a restarting server or
a solve that outlives one socket timeout, use
:class:`repro.serve.resilience.ResilientClient` — the retrying,
circuit-breaking wrapper around this class.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional

from .. import api

#: Sentinel so ``timeout=None`` (block forever) stays expressible.
_UNSET = object()


class ServeError(RuntimeError):
    """The server answered ``ok: false`` (or the connection died)."""


class ServeRejected(ServeError):
    """Admission control refused the job (queue full, client cap,
    instance too large, or quarantine) — resubmission later may work."""


class ServeClient:
    """A connected client; usable as a context manager.

    ``timeout`` is the *default* bound on each blocking socket
    operation.  :meth:`solve` derives a per-request bound from its
    ``deadline`` argument (or the request's own wall-clock budget via
    :class:`~repro.serve.resilience.ResilientClient`), so a slow solve
    under a generous budget no longer masquerades as a dead server and
    a short probe no longer waits out the full default.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7227,
                 timeout: Optional[float] = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------

    def _call(self, envelope: Dict, timeout=_UNSET) -> Dict:
        """One request/response exchange.  ``timeout`` overrides the
        default socket timeout for this exchange only."""
        self._sock.settimeout(self.timeout if timeout is _UNSET
                              else timeout)
        self._stream.write(json.dumps(envelope).encode("utf-8") + b"\n")
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ServeError("server closed the connection")
        reply = json.loads(line)
        if not isinstance(reply, dict):
            raise ServeError(f"malformed reply: {reply!r}")
        return reply

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations ----------------------------------------------------

    def ping(self, timeout=_UNSET) -> Dict:
        """Liveness check; returns the server's ping reply."""
        reply = self._call({"op": "ping"}, timeout=timeout)
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "ping failed"))
        return reply

    def solve(self, request: "api.SolveRequest",
              deadline: Optional[float] = None) -> "api.SolveResponse":
        """Submit one request and block for its response.

        ``deadline`` bounds this call's socket operations, in seconds;
        omitted, the client-wide default ``timeout`` applies.  Raises
        :class:`ServeRejected` on admission refusal and
        :class:`ServeError` on protocol/server errors; solver trouble
        (timeouts, budget exhaustion, worker errors) comes back as a
        normal response with the corresponding status.
        """
        reply = self._call({"op": "solve", "request": request.to_wire()},
                           timeout=(deadline if deadline is not None
                                    else _UNSET))
        if not reply.get("ok"):
            message = str(reply.get("error", "unknown server error"))
            if reply.get("rejected"):
                raise ServeRejected(message)
            raise ServeError(message)
        return api.SolveResponse.from_wire(reply["response"])

    def metrics(self, timeout=_UNSET) -> Dict:
        """The server's ``/metrics``-style dump: ``metrics`` (registry
        snapshot), ``cache`` (counters + occupancy), ``admission`` and
        ``pool`` — plus ``journal`` when the server keeps one."""
        reply = self._call({"op": "metrics"}, timeout=timeout)
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "metrics failed"))
        return reply

    def shutdown(self) -> None:
        """Ask the server to drain and exit (the reply is the bye)."""
        try:
            self._call({"op": "shutdown"})
        except (ServeError, OSError):
            pass  # the server may win the race and close first

"""Roadside-unit policy handoff.

Wire protocol: UTF-8 JSON objects, one per line, newline-terminated, over TCP;
one request per connection. A vehicle sends

    {"type": "hello", "vehicle_id": "...", "x": 12.0, "y": 3.0}

and receives exactly one of

    {"type": "policy", "artifact": {...}}        inside the geofence
    {"type": "none", "reason": "outside_geofence"}
    {"type": "error", "code": "bad_request", "detail": "..."}

The policy's artifact is the version-2 document of `imitation.PolicyArtifact.to_doc`:

    {"format_version": 2, "model": {...}, "encoder": {...}, "params": "<base64>", "checksum": 123}

`params` is one base64 run of little-endian float64, the params in `rnn.SeqModel.PARAM_NAMES`
order, and `checksum` the CRC32 of the canonical JSON (sorted keys, no spaces) of
`format_version`, `model` and `encoder`, chained with those raw bytes. `fetch` also
verifies a version-1 document, the decimal one an artifact file holds.

The server is handed the loaded `PolicyArtifact`, builds its document once and serves
it byte-identical across requests; `RsuServer` is a `socketserver.ThreadingTCPServer`.
A request line that is not JSON, or a hello whose x or y is a bool, is not finite or
is too large for a float, is answered `bad_request`.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .config import Config, finite_number
from .imitation import WIRE_VERSION, PolicyArtifact, artifact_from_doc

MAX_REQUEST = 4 * 1024  # a hello is ~60 bytes; bounds what each connection may buffer
MAX_LINE = 64 * 1024 * 1024  # guard against unbounded response lines
MAX_TIMEOUT = threading.TIMEOUT_MAX  # the longest timeout a socket accepts (~292 years)


class RsuError(Exception):
    pass


class RsuConnectError(RsuError):
    """Endpoint unreachable or unresponsive."""


class RsuProtocolError(RsuError):
    """Peer sent something outside the protocol."""


@dataclass(frozen=True)
class Geofence(Config):
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def check(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("geofence must have x_min < x_max and y_min < y_max")

    def contains(self, x: float, y: float) -> bool:
        # half-open: inside iff x_min <= x < x_max and y_min <= y < y_max
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max


@dataclass(frozen=True)
class RsuConfig(Config):
    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral
    geofence: Geofence = field(default_factory=lambda: Geofence(0.0, 100.0, 0.0, 100.0))
    artifact_path: str = ""
    max_connections: int = 16
    timeout: float = 5.0

    def check(self):
        # a cap of 0 would leave every connection waiting for a slot
        if self.max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {self.max_connections}")
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ValueError(f"timeout must be > 0 and <= {MAX_TIMEOUT}, got {self.timeout}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {self.port}")


def handle_request(msg, geofence: Geofence, artifact_doc: dict) -> dict:
    """Pure request->response map; any malformed message yields a bad_request."""
    if not isinstance(msg, dict) or msg.get("type") != "hello":
        return {"type": "error", "code": "bad_request", "detail": "expected a hello message"}
    vid = msg.get("vehicle_id")
    x, y = msg.get("x"), msg.get("y")
    if not isinstance(vid, str) or not finite_number(x) or not finite_number(y):
        return {"type": "error", "code": "bad_request", "detail": "hello needs vehicle_id, x, y"}
    if geofence.contains(float(x), float(y)):
        return {"type": "policy", "artifact": artifact_doc}
    return {"type": "none", "reason": "outside_geofence"}


def _read_line(conn: socket.socket, limit: int, deadline: float) -> bytes:
    """The first line `conn` sends, without its newline, read by `deadline` (time.monotonic).

    One deadline bounds the whole line, so a peer that trickles bytes cannot
    hold the connection for longer than a silent one.
    """
    chunks = []
    size = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("line not complete before the deadline")
        conn.settimeout(remaining)
        chunk = conn.recv(min(limit, 65536))
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
        if b"\n" in chunk:
            break
        if size > limit:
            raise RsuProtocolError(f"line longer than {limit} bytes")
    return b"".join(chunks).split(b"\n", 1)[0]


class RsuServer(socketserver.ThreadingTCPServer):
    """Threaded one-request-per-connection server around an immutable artifact; it binds when constructed."""

    daemon_threads = True
    block_on_close = False  # stop() does not wait for a handler blocked on a slow client
    allow_reuse_address = True
    request_queue_size = 64

    def __init__(self, cfg: RsuConfig, artifact: PolicyArtifact):
        self.cfg = cfg
        self._artifact_doc = artifact.to_doc(WIRE_VERSION)
        self._payload = (json.dumps({"type": "policy", "artifact": self._artifact_doc}) + "\n").encode("utf-8")
        self._slots = threading.Semaphore(cfg.max_connections)
        self._stop = threading.Event()
        self._serving: Optional[threading.Thread] = None
        self.requests_served = 0
        self._count_lock = threading.Lock()
        super().__init__((cfg.host, cfg.port), None)  # binds and listens; no handler class: see finish_request

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        self._serving = threading.Thread(target=self.serve_forever, args=(0.2,), daemon=True)
        self._serving.start()

    def verify_request(self, request, client_address) -> bool:
        """Wait for a free slot; False (the connection is closed unanswered) once stop() is called."""
        while not self._stop.is_set():
            if self._slots.acquire(timeout=0.2):
                return True
        return False

    def finish_request(self, conn, client_address) -> None:
        try:
            try:
                line = _read_line(conn, MAX_REQUEST, time.monotonic() + self.cfg.timeout)
            except (socket.timeout, RsuProtocolError, OSError):
                return  # silent, trickling or abusive client: close and move on
            try:
                msg = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # not UTF-8 or JSON, nested too deep, or an over-long integer
                msg = None
            response = handle_request(msg, self.cfg.geofence, self._artifact_doc)
            if response["type"] == "policy":
                out = self._payload  # byte-identical across requests
            else:
                out = (json.dumps(response) + "\n").encode("utf-8")
            # count before sending: a client may read the response and check the count at once
            with self._count_lock:
                self.requests_served += 1
            try:
                conn.settimeout(self.cfg.timeout)
                conn.sendall(out)
            except OSError:
                with self._count_lock:
                    self.requests_served -= 1
        finally:
            self._slots.release()

    def handle_error(self, request, client_address) -> None:
        raise  # a handler bug stays an unhandled exception in its thread

    def stop(self) -> None:
        self._stop.set()
        if self._serving is not None:  # shutdown() waits for serve_forever, so without it it never returns
            self.shutdown()
        self.server_close()


def serve(cfg: RsuConfig, artifact: PolicyArtifact) -> int:
    """Blocking server run of `artifact`; returns the request count after SIGINT/SIGTERM.

    Once bound it prints `listening host:port` on stderr, so a port of 0
    (ephemeral) can be found by clients.
    """
    import signal  # here, not at the top: only rsu-serve needs it, and its import costs every other command ~0.7 ms
    server = RsuServer(cfg, artifact)
    # Handlers go in before the first request is served and only append (Event.set takes a lock the main thread may
    # hold); the main thread polls, as a signal that lands on another thread (numpy's BLAS pool) does not wake it.
    stopping = []
    for signo in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signo, lambda signo, _frame: stopping.append(signo))
    server.start()
    print(f"listening {cfg.host}:{server.port}", file=sys.stderr, flush=True)
    while not stopping:
        time.sleep(0.2)
    server.stop()
    return server.requests_served


def fetch(
    host: str,
    port: int,
    vehicle_id: str,
    x: float,
    y: float,
    timeout: float = 5.0,
) -> Optional[PolicyArtifact]:
    """Hello the RSU; returns the verified artifact, or None outside the zone.

    `timeout` bounds the whole exchange: connect, hello and response. Raises
    RsuConnectError (unreachable/timeout), RsuProtocolError (bad response),
    or ChecksumMismatchError (corrupt payload) - all distinct. A `timeout` outside
    (0, MAX_TIMEOUT], a `port` outside 1..65535, or an `x` or `y` that is not a
    finite number raises RsuError before any connection is made.
    """
    if not 0 < timeout <= MAX_TIMEOUT:
        raise RsuError(f"timeout must be > 0 and <= {MAX_TIMEOUT}, got {timeout}")
    if not 1 <= port <= 65535:  # getaddrinfo would take the port modulo 65536
        raise RsuError(f"port must be in 1..65535, got {port}")
    if not (finite_number(x) and finite_number(y)):  # the server answers bad_request to NaN or Infinity
        raise RsuError(f"x and y must be finite numbers, got {x!r}, {y!r}")
    hello = json.dumps({"type": "hello", "vehicle_id": vehicle_id, "x": x, "y": y}) + "\n"
    deadline = time.monotonic() + timeout
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.sendall(hello.encode("utf-8"))
            line = _read_line(conn, MAX_LINE, deadline)
    except (ConnectionError, socket.timeout, TimeoutError, OSError) as exc:
        raise RsuConnectError(f"cannot reach {host}:{port}: {exc}") from exc

    if not line:
        raise RsuProtocolError("connection closed without a response")
    try:
        msg = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise RsuProtocolError(f"response is not a JSON line: {exc}") from exc
    if not isinstance(msg, dict):
        raise RsuProtocolError("response is not an object")
    kind = msg.get("type")
    if kind == "policy":
        return artifact_from_doc(msg.get("artifact"))
    if kind == "none":
        return None
    if kind == "error":
        raise RsuProtocolError(f"server rejected request: {msg.get('code')}: {msg.get('detail')}")
    raise RsuProtocolError(f"unknown response type {kind!r}")

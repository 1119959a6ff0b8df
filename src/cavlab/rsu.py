"""Roadside-unit policy handoff.

Wire protocol: UTF-8 JSON objects, one per line, newline-terminated, over TCP;
one request per connection. A vehicle sends

    {"type": "hello", "vehicle_id": "...", "x": 12.0, "y": 3.0}

and receives exactly one of

    {"type": "policy", "artifact": {...}}        inside the geofence
    {"type": "none", "reason": "outside_geofence"}
    {"type": "error", "code": "bad_request", "detail": "..."}

The served artifact document is loaded once at startup and byte-identical
across requests.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .config import Config
from .imitation import PolicyArtifact, artifact_from_doc, load_artifact

MAX_REQUEST = 4 * 1024  # a hello is ~60 bytes; bounds what each connection may buffer
MAX_LINE = 64 * 1024 * 1024  # guard against unbounded response lines


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
        # a cap of 0 would block the accept loop forever on its semaphore
        if self.max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {self.max_connections}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be > 0 and finite, got {self.timeout}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {self.port}")


def handle_request(msg, geofence: Geofence, artifact_doc: dict) -> dict:
    """Pure request->response map; any malformed message yields a bad_request."""
    if not isinstance(msg, dict) or msg.get("type") != "hello":
        return {"type": "error", "code": "bad_request", "detail": "expected a hello message"}
    vid = msg.get("vehicle_id")
    x, y = msg.get("x"), msg.get("y")
    if not isinstance(vid, str) or not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
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


class RsuServer:
    """Threaded one-request-per-connection server around an immutable artifact."""

    def __init__(self, cfg: RsuConfig, artifact_doc: Optional[dict] = None):
        self.cfg = cfg
        if artifact_doc is None:
            artifact_doc = load_artifact(cfg.artifact_path).to_doc()
        else:
            artifact_from_doc(artifact_doc)  # validate before serving
        self._artifact_doc = artifact_doc
        self._payload = (json.dumps({"type": "policy", "artifact": artifact_doc}) + "\n").encode("utf-8")
        self._slots = threading.Semaphore(cfg.max_connections)
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self.requests_served = 0
        self._count_lock = threading.Lock()

    @property
    def port(self) -> int:
        if self._sock is None:
            raise RuntimeError("server not started")
        return self._sock.getsockname()[1]

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.cfg.host, self.cfg.port))
        except OSError:
            sock.close()
            raise
        sock.listen(64)
        sock.settimeout(0.2)  # lets the accept loop observe stop()
        self._sock = sock
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            while not self._slots.acquire(timeout=0.2):  # every slot held: keep watching for stop()
                if self._stop.is_set():
                    conn.close()
                    return
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            try:
                line = _read_line(conn, MAX_REQUEST, time.monotonic() + self.cfg.timeout)
            except (socket.timeout, RsuProtocolError, OSError):
                return  # silent, trickling or abusive client: close and move on
            try:
                msg = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
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
            try:
                conn.close()
            finally:
                self._slots.release()

    def stop(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)


def serve(cfg: RsuConfig) -> int:
    """Blocking server run; returns the request count after SIGINT/SIGTERM.

    Once bound it prints `listening host:port` on stderr, so a port of 0
    (ephemeral) can be found by clients.
    """
    import signal

    server = RsuServer(cfg)
    server.start()
    print(f"listening {cfg.host}:{server.port}", file=sys.stderr, flush=True)
    done = threading.Event()

    def _sig(_signo, _frame):
        done.set()

    signal.signal(signal.SIGINT, _sig)
    signal.signal(signal.SIGTERM, _sig)
    done.wait()
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
    or ChecksumMismatchError (corrupt payload) - all distinct.
    """
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

import base64
import contextlib
import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from cavlab import rnn
from cavlab.imitation import (
    ArtifactError,
    ChecksumMismatchError,
    EncoderConfig,
    PolicyArtifact,
    UnsupportedVersionError,
)
from cavlab.rsu import (
    Geofence,
    RsuConfig,
    RsuConnectError,
    RsuError,
    RsuProtocolError,
    RsuServer,
    fetch,
    handle_request,
)


@pytest.fixture(scope="module")
def artifact():
    cfg = rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=4, seed=3)
    model = rnn.SeqModel.initialize(cfg)
    return PolicyArtifact(cfg, EncoderConfig(), {n: a.copy() for n, a in model.params().items()})


@pytest.fixture(scope="module")
def artifact_doc(artifact):
    return artifact.to_doc()


@contextlib.contextmanager
def one_answer(line: bytes):
    """A listener on an ephemeral port that answers its first connection with `line`; yields the port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(line)

    server = threading.Thread(target=answer)
    server.start()
    try:
        yield listener.getsockname()[1]
    finally:
        server.join(timeout=5.0)
        listener.close()
    assert not server.is_alive()


@pytest.fixture()
def server(artifact):
    srv = RsuServer(RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0)), artifact)
    srv.start()
    yield srv
    srv.stop()


class TestGeofence:
    def test_half_open_bounds(self):
        g = Geofence(0.0, 10.0, 0.0, 5.0)
        assert g.contains(0.0, 0.0)
        assert g.contains(9.999, 4.999)
        assert not g.contains(10.0, 1.0)
        assert not g.contains(1.0, 5.0)
        assert not g.contains(-0.001, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Geofence(5.0, 5.0, 0.0, 1.0)


class TestRsuConfig:
    @pytest.mark.parametrize("bad", [
        {"max_connections": 0},
        {"max_connections": -3},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"port": -1},
        {"port": 65536},
        {"port": 70000},
        {"geofence": {"x_min": "0", "x_max": "1", "y_min": "0", "y_max": "1"}},
        {"max_connections": 1.5},
        {"host": 5},
        {"port": 0.5},
        {"artifact_path": 7},
        {"timeout": True},
        {"timeout": float("inf")},
        {"timeout": 1e10},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            RsuConfig(**bad)
        with pytest.raises(ValueError):
            RsuConfig.from_dict({"geofence": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1}, **bad})

    def test_accepts_edge_values(self):
        for ok in ({"max_connections": 1}, {"timeout": 1e-3}, {"port": 0}, {"port": 65535}):
            RsuConfig(**ok)


class TestHandleRequest:
    GEO = Geofence(0.0, 100.0, 0.0, 10.0)

    def test_hello_inside_returns_policy(self, artifact_doc):
        msg = {"type": "hello", "vehicle_id": "car1", "x": 50.0, "y": 5.0}
        out = handle_request(msg, self.GEO, artifact_doc)
        assert out["type"] == "policy"
        assert out["artifact"] is artifact_doc

    def test_hello_outside_returns_none_reason(self, artifact_doc):
        msg = {"type": "hello", "vehicle_id": "car1", "x": 101.0, "y": 5.0}
        out = handle_request(msg, self.GEO, artifact_doc)
        assert out == {"type": "none", "reason": "outside_geofence"}

    def test_max_edge_excluded(self, artifact_doc):
        msg = {"type": "hello", "vehicle_id": "car1", "x": 100.0, "y": 5.0}
        assert handle_request(msg, self.GEO, artifact_doc)["type"] == "none"

    @pytest.mark.parametrize(
        "msg",
        [
            None,
            {"type": "unknown"},
            {"type": "hello"},
            {"type": "hello", "vehicle_id": 7, "x": 1.0, "y": 1.0},
            {"type": "hello", "vehicle_id": "v", "x": "a", "y": 1.0},
            {"type": "hello", "vehicle_id": "v", "x": 10**400, "y": 1.0},  # too large for a float
            {"type": "hello", "vehicle_id": "v", "x": True, "y": 1.0},
            {"type": "hello", "vehicle_id": "v", "x": float("nan"), "y": 1.0},
            {"type": "hello", "vehicle_id": "v", "x": 1.0, "y": float("inf")},
        ],
    )
    def test_bad_requests(self, artifact_doc, msg):
        out = handle_request(msg, self.GEO, artifact_doc)
        assert out["type"] == "error" and out["code"] == "bad_request"

    def test_response_is_pure(self, artifact_doc):
        msg = {"type": "hello", "vehicle_id": "car1", "x": 50.0, "y": 5.0}
        a = handle_request(msg, self.GEO, artifact_doc)
        b = handle_request(msg, self.GEO, artifact_doc)
        assert a == b


class TestServeFetch:
    def test_in_zone_fetch_round_trip(self, server, artifact_doc):
        art = fetch("127.0.0.1", server.port, "car1", 50.0, 5.0)
        for name, flat in artifact_doc["params"].items():
            assert art.params[name].ravel().tolist() == flat

    def test_fetched_policy_predicts_identically(self, server, artifact_doc):
        art = fetch("127.0.0.1", server.port, "car1", 50.0, 5.0)
        local = art.build_model()
        from cavlab.imitation import artifact_from_doc

        remote = artifact_from_doc(artifact_doc).build_model()
        xs = np.linspace(0, 1, 45).reshape(5, 9)
        assert np.array_equal(rnn.forward(local, xs)[0], rnn.forward(remote, xs)[0])

    def test_out_of_zone_returns_none(self, server):
        assert fetch("127.0.0.1", server.port, "car1", 500.0, 5.0) is None

    def test_dead_endpoint_distinct_error(self):
        with pytest.raises(RsuConnectError):
            fetch("127.0.0.1", 1, "car1", 0.0, 0.0, timeout=0.5)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), 1e10])
    def test_timeout_out_of_range_refused_before_connecting(self, monkeypatch, timeout):
        def connect(*args, **kwargs):
            raise AssertionError("fetch tried to connect")

        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(RsuError, match="timeout must be > 0"):
            fetch("127.0.0.1", 1, "car1", 0.0, 0.0, timeout=timeout)

    @pytest.mark.parametrize("port", [0, -1, 65536, 65536 + 80])
    def test_port_out_of_range_refused_before_connecting(self, monkeypatch, port):
        def connect(*args, **kwargs):
            raise AssertionError("fetch tried to connect")

        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(RsuError, match=r"port must be in 1\.\.65535"):
            fetch("127.0.0.1", port, "car1", 0.0, 0.0)

    @pytest.mark.parametrize("x, y", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 0.0), (True, 0.0),
                                      (0.0, "1")])
    def test_coordinate_not_finite_refused_before_connecting(self, monkeypatch, x, y):
        def connect(*args, **kwargs):
            raise AssertionError("fetch tried to connect")

        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(RsuError, match="x and y must be finite numbers"):
            fetch("127.0.0.1", 1, "car1", x, y)

    @pytest.mark.parametrize("line", [
        b'{"type": "none", "n": ' + b"1" * 5000 + b"}\n",
        b"[" * 1100 + b"]" * 1100 + b"\n",
    ], ids=["5000-digit-integer", "nested-too-deep"])
    def test_unreadable_response_is_a_protocol_error(self, line):
        with one_answer(line) as port:
            with pytest.raises(RsuProtocolError, match="response is not a JSON line"):
                fetch("127.0.0.1", port, "car1", 50.0, 5.0)

    @pytest.mark.parametrize("value", [True, "0.5", 10**400], ids=["true", "string", "int-too-large"])
    def test_payload_param_that_is_no_float_is_an_artifact_error(self, artifact_doc, value):
        """A policy line whose checksum matches but which carries such a param fails verification, not as a crash."""
        doc = {**artifact_doc, "params": {**artifact_doc["params"], "by": [value, *artifact_doc["params"]["by"][1:]]}}
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        doc["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
        with one_answer(json.dumps({"type": "policy", "artifact": doc}).encode() + b"\n") as port:
            with pytest.raises(ArtifactError, match="^malformed artifact payload: "):
                fetch("127.0.0.1", port, "car1", 50.0, 5.0)

    @pytest.mark.parametrize("parts", [
        [b'{"type": "hello", "vehicle_id": "v", "x": ' + b"1" * 2500, b"1" * 2500 + b', "y": 1.0}\n'],
        [b'{"type": "hello", "vehicle_id": "v", "x": ' + b"1" * 400 + b', "y": 1.0}\n'],
        [b"[" * 1100 + b"]" * 1100 + b"\n"],
    ], ids=["5000-digit-x-in-two-parts", "400-digit-x", "nested-too-deep"])
    def test_unreadable_hello_gets_one_bad_request_line(self, server, parts):
        with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as conn:
            for part in parts:
                conn.sendall(part)
                time.sleep(0.05)
            assert [json.loads(line)["code"] for line in conn.makefile("rb")] == ["bad_request"]

    def test_malformed_line_gets_error_response(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as conn:
            conn.sendall(b"this is not json\n")
            data = conn.makefile("rb").readline()
        msg = json.loads(data)
        assert msg["type"] == "error" and msg["code"] == "bad_request"

    def test_oversized_request_line_closed(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=2.0) as conn:
            try:
                conn.sendall(b"x" * 65536)  # no newline
                assert conn.recv(1) == b""
            except (ConnectionResetError, BrokenPipeError):
                pass  # closed while the client was still sending
        assert fetch("127.0.0.1", server.port, "car1", 50.0, 5.0) is not None

    def test_corrupted_payload_fails_checksum(self, artifact):
        srv = RsuServer(RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0)), artifact)
        line = srv._payload
        at = line.index(b'"params": "') + len(b'"params": "') + 40  # a character inside the packed params
        srv._payload = line[:at] + (b"B" if line[at:at + 1] == b"A" else b"A") + line[at + 1:]  # set after it is built
        srv.start()
        try:
            with pytest.raises(ChecksumMismatchError):
                fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0)
        finally:
            srv.stop()

    def test_silent_client_timeout_server_survives(self, artifact):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), timeout=0.3)
        srv = RsuServer(cfg, artifact)
        srv.start()
        try:
            quiet = socket.create_connection(("127.0.0.1", srv.port), timeout=2.0)
            data = quiet.makefile("rb").readline()
            assert data == b""  # closed without a response
            quiet.close()
            assert fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0) is not None
        finally:
            srv.stop()

    def test_stop_without_start(self, artifact):
        srv = RsuServer(RsuConfig(), artifact)
        start = time.perf_counter()
        srv.stop()  # closes the bound, never served socket; a leak fails the test as a ResourceWarning
        assert time.perf_counter() - start < 1.0
        del srv
        gc.collect()

    def test_stop_with_every_slot_held(self, artifact):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=1, timeout=3.0)
        srv = RsuServer(cfg, artifact)
        srv.start()
        holder = socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
        time.sleep(0.3)  # the silent holder takes the only slot
        pending = socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
        time.sleep(0.3)  # the accept loop takes the second connection and waits for a slot
        try:
            start = time.perf_counter()
            srv.stop()
            assert time.perf_counter() - start < 1.0
            assert pending.recv(1) == b""  # closed without a response
        finally:
            holder.close()
            pending.close()

    def test_trickling_client_cannot_hold_the_only_slot(self, artifact):
        # one deadline bounds the whole request line, not each recv
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=1, timeout=0.5)
        srv = RsuServer(cfg, artifact)
        srv.start()
        done = threading.Event()

        def trickle():
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5.0) as conn:
                while not done.wait(0.3):
                    try:
                        conn.sendall(b"{")  # never a whole line
                    except OSError:
                        return

        trickler = threading.Thread(target=trickle)
        trickler.start()
        try:
            time.sleep(0.2)  # the trickler takes the only slot
            start = time.perf_counter()
            assert fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0, timeout=3.0) is not None
            assert time.perf_counter() - start < cfg.timeout + 1.0
        finally:
            done.set()
            trickler.join(timeout=5.0)
            srv.stop()
        assert not trickler.is_alive()

    def test_fetch_timeout_bounds_a_trickled_response(self):
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def trickle():
            conn, _ = listener.accept()
            with conn:
                for _ in range(20):  # at most 6 s, so a fetch bounded only per recv still returns
                    if done.wait(0.3):
                        return
                    try:
                        conn.sendall(b"{")  # never a whole line
                    except OSError:
                        return

        server = threading.Thread(target=trickle)
        server.start()
        try:
            start = time.perf_counter()
            with pytest.raises(RsuConnectError):
                fetch("127.0.0.1", listener.getsockname()[1], "car1", 50.0, 5.0, timeout=0.5)
            assert time.perf_counter() - start < 0.5 + 1.0
        finally:
            done.set()
            server.join(timeout=5.0)
            listener.close()
        assert not server.is_alive()

    def test_soak_32_clients_cap_16(self, artifact):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=16)
        srv = RsuServer(cfg, artifact)
        srv.start()
        results = [None] * 32
        errors = []

        def worker(i):
            try:
                results[i] = fetch("127.0.0.1", srv.port, f"car{i}", 50.0, 5.0, timeout=10.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors
            assert all(r is not None for r in results)
            reference = results[0].params
            for r in results[1:]:
                for name in reference:
                    assert np.array_equal(r.params[name], reference[name])
            assert srv.requests_served == 32
        finally:
            srv.stop()


@pytest.fixture(scope="module")
def wire_doc(artifact):
    """The artifact document of the policy line a server of `artifact` sends."""
    srv = RsuServer(RsuConfig(), artifact)
    srv.stop()
    return json.loads(srv._payload)["artifact"]


def signed(doc: dict, raw: bytes = None) -> dict:
    """`doc` with its params packed from `raw` when given, and its checksum recomputed by the packed rule: the CRC32
    of the canonical JSON of format_version, model and encoder, chained with the raw param bytes."""
    doc = dict(doc)
    if raw is None:
        raw = base64.b64decode(doc["params"])
    else:
        doc["params"] = base64.b64encode(raw).decode()
    header = {key: doc[key] for key in ("format_version", "model", "encoder") if key in doc}
    doc["checksum"] = zlib.crc32(raw, zlib.crc32(json.dumps(header, sort_keys=True, separators=(",", ":")).encode()))
    return doc


def fetch_doc(doc: dict):
    """What fetch returns for a policy line that carries `doc`."""
    with one_answer(json.dumps({"type": "policy", "artifact": doc}).encode() + b"\n") as port:
        return fetch("127.0.0.1", port, "car1", 50.0, 5.0)


class TestPackedWire:
    def test_the_policy_line_is_packed(self, artifact, wire_doc):
        assert sorted(wire_doc) == ["checksum", "encoder", "format_version", "model", "params"]
        assert wire_doc["format_version"] == 2
        raw = base64.b64decode(wire_doc["params"], validate=True)
        assert raw == b"".join(artifact.params[n].astype("<f8").tobytes() for n in rnn.SeqModel.PARAM_NAMES)
        assert signed(wire_doc)["checksum"] == wire_doc["checksum"]

    def test_params_round_trip_bit_for_bit(self, artifact):
        specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        params = {name: arr.copy() for name, arr in artifact.params.items()}
        params["wx"][0, :4] = specials
        params["by"][1] = -0.0
        srv = RsuServer(RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0)),
                        PolicyArtifact(artifact.model_cfg, artifact.encoder, params))
        srv.start()
        try:
            fetched = fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0)
        finally:
            srv.stop()
        assert fetched.params["wx"][0, :4].tolist() == specials
        assert np.signbit(fetched.params["by"][1])
        for name, arr in params.items():
            assert fetched.params[name].dtype == np.float64 and fetched.params[name].shape == arr.shape
            assert fetched.params[name].tobytes() == arr.tobytes()

    def test_a_version_1_line_still_verifies(self, artifact):
        """A server that sends the decimal document of an artifact file."""
        fetched = fetch_doc(artifact.to_doc(1))
        for name, arr in artifact.params.items():
            assert fetched.params[name].tobytes() == arr.tobytes()

    def test_flipped_base64_character_fails_checksum(self, wire_doc):
        params = wire_doc["params"]
        flipped = params[:10] + ("B" if params[10] == "A" else "A") + params[11:]
        with pytest.raises(ChecksumMismatchError, match="^artifact checksum mismatch$"):
            fetch_doc({**wire_doc, "params": flipped})

    @pytest.mark.parametrize("params", ["not base64!", [0.5, 0.25]], ids=["text", "list"])
    def test_params_that_are_no_base64_are_malformed(self, wire_doc, params):
        with pytest.raises(ArtifactError, match="^malformed artifact payload: "):
            fetch_doc({**wire_doc, "params": params})

    def test_short_params_name_the_byte_count(self, wire_doc):
        raw = base64.b64decode(wire_doc["params"])
        message = f"^malformed artifact payload: params must be {len(raw)} bytes for the model's shapes, got "
        with pytest.raises(ArtifactError, match=message + f"{len(raw) - 8}$"):
            fetch_doc(signed(wire_doc, raw[:-8]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_packed_non_finite_param_refused(self, wire_doc, value):
        values = np.frombuffer(base64.b64decode(wire_doc["params"]), dtype="<f8").copy()
        values[7] = value
        with pytest.raises(ArtifactError, match="^malformed artifact payload: params must be finite numbers$"):
            fetch_doc(signed(wire_doc, values.tobytes()))

    @pytest.mark.parametrize("version", [3, True, 2.0], ids=["3", "true", "float"])
    def test_other_version_refused(self, wire_doc, version):
        with pytest.raises(UnsupportedVersionError, match=f"^unsupported artifact version {version!r}$"):
            fetch_doc(signed({**wire_doc, "format_version": version}))

    def test_extra_key_refused(self, wire_doc):
        """The checksum covers only the header and the params, so a key outside them is refused by name."""
        with pytest.raises(ArtifactError, match=r"^malformed artifact payload: keys must be .*'note'"):
            fetch_doc({**wire_doc, "note": "x"})


def _swaps():
    keys = ("format_version", "model", "encoder", "params", "checksum")
    values = {"bool": True, "string": "x", "null": None, "list": [], "object": {}}
    return [(f"{key}-{kind}", lambda doc, key=key, value=value: {**doc, key: value})
            for key in keys for kind, value in values.items()]


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


# Each mutation maps the artifact document of a valid packed policy line to another; the list is fixed.
MUTATIONS = _swaps() + [
    ("version-huge", lambda doc: {**doc, "format_version": 10**400}),
    ("version-2**64", lambda doc: {**doc, "format_version": 2**64 + 2}),
    ("checksum-huge", lambda doc: {**doc, "checksum": 10**400}),
    ("checksum-2**64", lambda doc: {**doc, "checksum": 2**64 + doc["checksum"]}),
    ("checksum-negative", lambda doc: {**doc, "checksum": doc["checksum"] - 2**32}),
    ("params-truncated-4", lambda doc: {**doc, "params": doc["params"][:-4]}),
    ("params-truncated-1", lambda doc: {**doc, "params": doc["params"][:-1]}),
    ("params-empty", lambda doc: {**doc, "params": ""}),
    ("params-truncated-signed", lambda doc: signed(doc, base64.b64decode(doc["params"])[:-3])),
    ("params-not-ascii", lambda doc: {**doc, "params": "\u00e9" + doc["params"][1:]}),
    *[(f"drop-{key}", _drop(key)) for key in ("format_version", "model", "encoder", "params", "checksum")],
    ("extra-key", lambda doc: {**doc, "extra": 1}),
    ("extra-key-signed", lambda doc: signed({**doc, "extra": 1})),
    ("model-key-dropped-signed", lambda doc: signed({**doc, "model": _drop("seed")(doc["model"])})),
    ("model-key-extra-signed", lambda doc: signed({**doc, "model": {**doc["model"], "depth": 2}})),
    ("model-list-signed", lambda doc: signed({**doc, "model": []})),
    ("hidden-bool-signed", lambda doc: signed({**doc, "model": {**doc["model"], "hidden_dim": True}})),
    ("hidden-huge-signed", lambda doc: signed({**doc, "model": {**doc["model"], "hidden_dim": 10**30}})),
    ("encoder-string-signed", lambda doc: signed({**doc, "encoder": "x"})),
    ("k-negative-signed", lambda doc: signed({**doc, "encoder": {**doc["encoder"], "k": -1}})),
    ("checksum-nan", lambda doc: {**doc, "checksum": float("nan")}),
    ("version-nan", lambda doc: {**doc, "format_version": float("nan")}),
    ("v-norm-nan-signed", lambda doc: signed({**doc, "encoder": {**doc["encoder"], "v_norm": float("nan")}})),
    ("v-norm-infinity-signed", lambda doc: signed({**doc, "encoder": {**doc["encoder"], "v_norm": float("inf")}})),
    ("artifact-null", lambda doc: None),
    ("artifact-list", lambda doc: [doc]),
]


@pytest.mark.parametrize("mutate", [m for _, m in MUTATIONS], ids=[name for name, _ in MUTATIONS])
def test_mutated_policy_line_fails_as_rsu_or_artifact_error(wire_doc, mutate):
    """A mutated policy line is refused with one of fetch's documented errors, never another exception.
    json.dumps writes the NaN and Infinity tokens that Python's json.loads reads back."""
    with pytest.raises((RsuError, ArtifactError)):
        fetch_doc(mutate(json.loads(json.dumps(wire_doc))))


SERVE_THEN_SIGNAL_A_HELPER_THREAD = """
import signal, threading, time
from cavlab import rnn
from cavlab.imitation import EncoderConfig, PolicyArtifact
from cavlab.rsu import RsuConfig, serve

def kill_this_thread_once_handled():
    while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        time.sleep(0.01)
    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)

threading.Thread(target=kill_this_thread_once_handled, daemon=True).start()
cfg = rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=4, seed=3)
print(f"served={serve(RsuConfig(), PolicyArtifact(cfg, EncoderConfig(), rnn.SeqModel.initialize(cfg).params()))}")
"""


def test_serve_stops_on_a_signal_another_thread_takes():
    # the kernel may hand SIGTERM to any thread that does not block it; the main thread must still stop
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", SERVE_THEN_SIGNAL_A_HELPER_THREAD], env=env,
                          capture_output=True, timeout=10.0)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"served=0\n"

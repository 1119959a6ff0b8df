import json
import socket
import threading
import time

import numpy as np
import pytest

from cavlab import rnn
from cavlab.imitation import ChecksumMismatchError, EncoderConfig, PolicyArtifact
from cavlab.rsu import (
    Geofence,
    RsuConfig,
    RsuConnectError,
    RsuProtocolError,
    RsuServer,
    fetch,
    handle_request,
)


@pytest.fixture(scope="module")
def artifact_doc():
    cfg = rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=4, seed=3)
    model = rnn.SeqModel.initialize(cfg)
    art = PolicyArtifact(cfg, EncoderConfig(), {n: a.copy() for n, a in model.params().items()})
    return art.to_doc()


@pytest.fixture()
def server(artifact_doc):
    srv = RsuServer(RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0)), artifact_doc=artifact_doc)
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

    def test_corrupted_payload_fails_checksum(self, artifact_doc):
        bad = json.loads(json.dumps(artifact_doc))
        bad["params"]["by"][0] += 1.0
        srv = RsuServer.__new__(RsuServer)  # bypass validation to serve a corrupt doc
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0))
        srv.cfg = cfg
        srv._artifact_doc = bad
        srv._payload = (json.dumps({"type": "policy", "artifact": bad}) + "\n").encode()
        srv._slots = threading.Semaphore(cfg.max_connections)
        srv._stop = threading.Event()
        srv._sock = None
        srv._accept_thread = None
        srv.requests_served = 0
        srv._count_lock = threading.Lock()
        srv.start()
        try:
            with pytest.raises(ChecksumMismatchError):
                fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0)
        finally:
            srv.stop()

    def test_silent_client_timeout_server_survives(self, artifact_doc):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), timeout=0.3)
        srv = RsuServer(cfg, artifact_doc=artifact_doc)
        srv.start()
        try:
            quiet = socket.create_connection(("127.0.0.1", srv.port), timeout=2.0)
            data = quiet.makefile("rb").readline()
            assert data == b""  # closed without a response
            quiet.close()
            assert fetch("127.0.0.1", srv.port, "car1", 50.0, 5.0) is not None
        finally:
            srv.stop()

    def test_stop_with_every_slot_held(self, artifact_doc):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=1, timeout=3.0)
        srv = RsuServer(cfg, artifact_doc=artifact_doc)
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

    def test_trickling_client_cannot_hold_the_only_slot(self, artifact_doc):
        # one deadline bounds the whole request line, not each recv
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=1, timeout=0.5)
        srv = RsuServer(cfg, artifact_doc=artifact_doc)
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

    def test_soak_32_clients_cap_16(self, artifact_doc):
        cfg = RsuConfig(geofence=Geofence(0.0, 100.0, 0.0, 10.0), max_connections=16)
        srv = RsuServer(cfg, artifact_doc=artifact_doc)
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

"""HTTP transport: routes, error mapping, backpressure — on an ephemeral port."""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import EngineConfig, QAEngine, build_server
from repro.serve.server import MAX_BODY_BYTES

BERLIN_Q = "Who is the mayor of Berlin?"


@pytest.fixture(scope="module")
def served(kg, dictionary):
    """A live server on an ephemeral port (engine: 2 workers, 2 waiting)."""
    engine = QAEngine(kg, dictionary, EngineConfig(pool_size=2, queue_limit=2))
    engine.warm()
    server = build_server(engine, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}", engine
    server.shutdown()
    server.server_close()
    engine.close()


def _post(url: str, payload) -> tuple[int, dict]:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestAsk:
    def test_roundtrip(self, served):
        base, _engine = served
        status, body = _post(f"{base}/ask", {"question": BERLIN_Q})
        assert status == 200
        assert body["answers"] == ["res:Klaus_Wowereit"]
        assert body["degraded"] is False
        assert "timings_ms" in body

    def test_batch(self, served):
        base, _engine = served
        status, body = _post(
            f"{base}/batch",
            {"questions": ["What is the capital of Germany?", BERLIN_Q]},
        )
        assert status == 200
        assert len(body["responses"]) == 2
        assert body["responses"][1]["answers"] == ["res:Klaus_Wowereit"]

    def test_missing_question_is_400(self, served):
        base, _engine = served
        status, body = _post(f"{base}/ask", {"q": "nope"})
        assert status == 400
        assert "question" in body["error"]

    def test_invalid_json_is_400(self, served):
        base, _engine = served
        status, body = _post(f"{base}/ask", b"this is not json")
        assert status == 400

    def test_bad_deadline_is_400(self, served):
        base, _engine = served
        status, _body = _post(
            f"{base}/ask", {"question": BERLIN_Q, "deadline_s": -1}
        )
        assert status == 400

    def test_unknown_route_is_404(self, served):
        base, _engine = served
        assert _post(f"{base}/nope", {"question": BERLIN_Q})[0] == 404
        assert _get(f"{base}/nope")[0] == 404


class TestBackpressure:
    def test_saturated_admission_yields_429(self, served):
        base, engine = served
        # Deterministic saturation: hold every admission slot directly,
        # then any HTTP request must be rejected with 429 + Retry-After.
        tokens = [engine.admission.admit() for _ in range(engine.admission.capacity)]
        try:
            request = urllib.request.Request(
                f"{base}/ask",
                data=json.dumps({"question": BERLIN_Q}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.loads(excinfo.value.read())
            assert body["capacity"] == engine.admission.capacity
        finally:
            for token in tokens:
                token.release()
        # Slots released: the same request succeeds again.
        assert _post(f"{base}/ask", {"question": BERLIN_Q})[0] == 200


class TestKeepAlive:
    """HTTP/1.1 connection discipline: early rejections must not leave
    unread body bytes to be parsed as the next request."""

    def _raw(self, served) -> socket.socket:
        base, _engine = served
        host, port = base.removeprefix("http://").split(":")
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.settimeout(10)
        return sock

    def _response(self, sock: socket.socket) -> bytes:
        chunks = []
        while True:
            try:
                chunk = sock.recv(4096)
            except TimeoutError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)

    def test_missing_length_is_411_and_closes(self, served):
        with self._raw(served) as sock:
            sock.sendall(
                b"POST /ask HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            raw = self._response(sock)
        assert raw.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in raw

    def test_unframed_body_cannot_poison_next_request(self, served):
        # Without Content-Length the server cannot know these body bytes
        # exist; closing after the 411 is the only way they never get
        # parsed as a request line.  The socket must deliver exactly one
        # response and then EOF.
        with self._raw(served) as sock:
            sock.sendall(
                b"POST /ask HTTP/1.1\r\nHost: t\r\n\r\n"
                b'{"question": "poison"}'
            )
            raw = self._response(sock)
        assert raw.count(b"HTTP/1.1") == 1
        assert raw.startswith(b"HTTP/1.1 411")

    def test_unknown_route_body_cannot_poison_next_request(self, served):
        # A POST to an unknown route is answered before its body is read.
        # Kept alive, the body plus the next request line would be parsed
        # as one malformed request (a stdlib HTML 400); the 404 must
        # close, so the socket delivers exactly one JSON response.
        def post(path: str, body: bytes) -> bytes:
            head = f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
            return head.encode() + body

        with self._raw(served) as sock:
            sock.sendall(
                post("/nope", b'{"question": "poison"}')
                + post("/ask", json.dumps({"question": BERLIN_Q}).encode())
            )
            raw = self._response(sock)
        assert raw.count(b"HTTP/1.1") == 1
        assert raw.startswith(b"HTTP/1.1 404")
        assert b"Connection: close" in raw
        assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]

    def test_oversized_body_is_413_and_closes(self, served):
        declared = MAX_BODY_BYTES + 1
        with self._raw(served) as sock:
            # Headers only: the server must reject from the declared
            # length without waiting to read a body it refuses to hold.
            sock.sendall(
                b"POST /ask HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
            )
            raw = self._response(sock)
        assert raw.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in raw

    def test_connection_survives_fully_read_400(self, served):
        """A 400 whose body *was* fully read keeps the connection usable:
        the next request on the same socket must succeed."""
        base, _engine = served
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request(
                "POST", "/ask", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            first = connection.getresponse()
            first.read()
            assert first.status == 400
            connection.request(
                "POST", "/ask", body=json.dumps({"question": BERLIN_Q}),
                headers={"Content-Type": "application/json"},
            )
            second = connection.getresponse()
            body = json.loads(second.read())
            assert second.status == 200
            assert body["answers"] == ["res:Klaus_Wowereit"]
        finally:
            connection.close()


class TestClientDisconnect:
    def test_disconnect_counts_not_500s(self, served):
        """A client that hangs up mid-request is accounted as a disconnect,
        never as an internal error."""
        base, engine = served
        host, port = base.removeprefix("http://").split(":")
        errors_before = engine.metrics.counter("serve.internal_errors")
        disconnects_before = engine.metrics.counter("serve.client_disconnects")
        body = json.dumps({"question": BERLIN_Q, "no_cache": True}).encode()
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.sendall(
            b"POST /ask HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        # RST on close (SO_LINGER zero): the handler's eventual write hits
        # a dead socket instead of a kernel buffer that silently absorbs it.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if engine.metrics.counter("serve.client_disconnects") > disconnects_before:
                break
            time.sleep(0.05)
        assert engine.metrics.counter("serve.client_disconnects") > disconnects_before
        assert engine.metrics.counter("serve.internal_errors") == errors_before


class TestCacheBypass:
    def test_no_cache_skips_lookup_and_store(self, served):
        base, engine = served
        question = "Who created Wikipedia?"
        bypass_before = engine.metrics.counter("serve.cache_bypass")
        # Two bypassed requests: neither consults the cache...
        for _ in range(2):
            status, body = _post(
                f"{base}/ask", {"question": question, "no_cache": True}
            )
            assert status == 200
            assert body["cached"] is False
        assert engine.metrics.counter("serve.cache_bypass") == bypass_before + 2
        # ...and neither stored: the first cache-enabled request computes.
        status, body = _post(f"{base}/ask", {"question": question})
        assert status == 200
        assert body["cached"] is False
        status, body = _post(f"{base}/ask", {"question": question})
        assert status == 200
        assert body["cached"] is True

    def test_bypass_ignores_existing_entry(self, served):
        base, _engine = served
        question = "Who is the mayor of Philadelphia?"
        _post(f"{base}/ask", {"question": question})
        status, body = _post(f"{base}/ask", {"question": question})
        assert (status, body["cached"]) == (200, True)
        status, body = _post(
            f"{base}/ask", {"question": question, "no_cache": True}
        )
        assert (status, body["cached"]) == (200, False)


class TestIntrospection:
    def test_healthz_shape(self, served):
        base, engine = served
        status, body = _get(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["ready"] is True
        assert body["store_version"] == engine.store_version
        assert body["uptime_s"] >= 0

    def test_metrics_is_a_metrics_snapshot(self, served):
        base, _engine = served
        _post(f"{base}/ask", {"question": BERLIN_Q})
        status, body = _get(f"{base}/metrics")
        assert status == 200
        assert set(body) == {"counters", "histograms"}
        assert body["counters"]["serve.requests"] >= 1
        assert body["histograms"]["serve.latency_ms"]["count"] >= 1

    def test_stats_shape(self, served):
        base, _engine = served
        status, body = _get(f"{base}/stats")
        assert status == 200
        for key in ("answer_cache", "link_cache", "admission", "kernel", "config"):
            assert key in body
        # The laziness gauges: this engine was built from source, so every
        # row is boxed, every term an object, and nothing is mapped.
        assert body["kernel"]["rows_boxed"] == body["kernel"]["nodes_full"]
        assert body["store"]["terms_decoded"] == body["store"]["terms_total"] > 0
        assert body["store"]["snapshot_mapped_bytes"] == 0

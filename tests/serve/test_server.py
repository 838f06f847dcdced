"""HTTP transport: routes, error mapping, backpressure — on an ephemeral port."""

import errno
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
from repro.serve.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES
from tests.serve.wire import raw_exchange

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

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("route", ["/ask", "/batch"])
    def test_non_finite_deadline_is_400(self, served, route, deadline):
        """``json.loads`` reads ``NaN`` and ``Infinity``; a deadline at
        either would never come due, so a client could switch it off."""
        base, _engine = served
        payload = {"question": BERLIN_Q} if route == "/ask" else {"questions": [BERLIN_Q]}
        status, body = _post(f"{base}{route}", {**payload, "deadline_s": deadline})
        assert status == 400
        assert "finite" in body["error"]

    @pytest.mark.parametrize(
        "route, flag",
        [("/ask", "trace"), ("/ask", "no_cache"), ("/batch", "no_cache")],
    )
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flags_must_be_json_booleans(self, served, route, flag, value):
        base, _engine = served
        payload = {"question": BERLIN_Q} if route == "/ask" else {"questions": [BERLIN_Q]}
        status, body = _post(f"{base}{route}", {**payload, flag: value})
        assert status == 400
        assert flag in body["error"]
        status, body = _post(f"{base}{route}", {**payload, flag: False})
        assert status == 200
        assert "trace" not in (body if route == "/ask" else body["responses"][0])

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


def _raw_exchange(served, data: bytes, half_close: bool = False) -> bytes:
    host, port = served[0].removeprefix("http://").split(":")
    return raw_exchange((host, int(port)), data, half_close)


def _exchange(served, data: bytes) -> tuple[int, dict, bytes]:
    """The same for a single response: status, JSON body, raw."""
    raw = _raw_exchange(served, data)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body), raw


def _ask(extra: bytes = b"", line: bytes = b"POST /ask HTTP/1.1") -> bytes:
    """A well-formed /ask with ``extra`` header lines spliced in, followed
    on the same connection by a second request that must never be served."""
    body = json.dumps({"question": BERLIN_Q}).encode()
    framed = b"Host: t\r\n" + extra + b"Content-Length: %d\r\n\r\n" % len(body) + body
    return line + b"\r\n" + framed + b"POST /ask HTTP/1.1\r\n" + framed


class TestRequestHead:
    """The head is parsed by ``read_head`` and fails closed, in JSON: each
    of these got an HTML page (or was silently accepted, connection left
    open) from the stdlib's ``email``-based parser."""

    @pytest.mark.parametrize(
        "data, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"\r\nGET /healthz HTTP/1.1\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),                      # HTTP/0.9
            (b"GET  /healthz HTTP/1.1\r\n\r\n", 400),            # two blanks
            (b"GET /health z HTTP/1.1\r\n\r\n", 400),
            (_ask(line=b"POST /ask HTTP/2.0"), 400),
            (_ask(line=b"POST /ask HTTX/1.1"), 400),
            (_ask(line=b"POST /ask HTTP/1.10"), 400),
            (_ask(b"no colon here\r\n"), 400),
            (_ask(b"Bad Name: 1\r\n"), 400),
            (_ask(b"X-Trailing-Blank : 1\r\n"), 400),
            (_ask(b"X-Folded: 1\r\n  continued\r\n"), 400),
            (_ask(b"X-Nul: a\x00b\r\n"), 400),
            (_ask(b"X-Bare-CR: a\rb\r\n"), 400),
            (_ask(b"Content-Length: 3\r\n"), 400),                # differs
            (_ask(b"Content-Length: 41\r\n"), 400),               # or agrees
            (b"POST /ask HTTP/1.1\r\nContent-Length: +41\r\n\r\n", 400),
            (b"POST /ask HTTP/1.1\r\nContent-Length: 4_1\r\n\r\n", 400),
            (b"POST /ask HTTP/1.1\r\nContent-Length:\r\n\r\n", 400),
            (_ask(b"Transfer-Encoding: chunked\r\n"), 400),
            (_ask(b"transfer-encoding: identity\r\n"), 400),
            (_ask(b"X-Long: " + b"a" * MAX_LINE_BYTES + b"\r\n"), 431),
            (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 431),
            (_ask(b"X-H: 1\r\n" * (MAX_HEADERS - 1)), 431),       # + Host + C-L
            (_ask(line=b"PUT /ask HTTP/1.1"), 405),
            (b"HEAD /healthz HTTP/1.1\r\n\r\n", 405),
            (b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nGET ", 400),
        ],
    )
    def test_refused_heads_get_one_json_error_and_a_close(self, served, data, status):
        got, body, raw = _exchange(served, data)
        assert got == status
        assert body["error"]
        assert raw.count(b"HTTP/1.1 ") == 1          # nothing after it was served
        assert b"Connection: close\r\n" in raw
        assert b"Content-Type: application/json\r\n" in raw

    def test_405_names_the_allowed_methods(self, served):
        raw = _raw_exchange(served, b"DELETE /ask HTTP/1.1\r\n\r\n")
        assert b"Allow: GET, POST\r\n" in raw

    def test_truncated_head_is_400(self, served):
        raw = _raw_exchange(
            served, b"POST /ask HTTP/1.1\r\nHost: t\r\nContent-Le", half_close=True
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert "ended before" in json.loads(raw.partition(b"\r\n\r\n")[2])["error"]

    def test_limits_are_inclusive(self, served):
        """Exactly 100 headers and a line of exactly 65 536 bytes pass."""
        filler = b"X-H: 1\r\n" * (MAX_HEADERS - 4)        # + Host, C-L, two below
        longest = b"X-Long: " + b"a" * (MAX_LINE_BYTES - len(b"X-Long: \r\n")) + b"\r\n"
        data = _ask(filler + longest + b"Connection: close\r\n")
        status, body, raw = _exchange(served, data)
        assert status == 200
        assert body["answers"] == ["res:Klaus_Wowereit"]
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_lenient_where_the_stdlib_was(self, served):
        """Bare-LF line ends, any header-name case, blanks around values,
        leading zeros, HTTP/1.0 (closes unless asked to keep alive)."""
        body = json.dumps({"question": BERLIN_Q}).encode()
        data = (
            b"POST /ask HTTP/1.1\nhOsT: t\ncOnTeNt-LeNgTh: \t 00%d \t\n\n" % len(body)
            + body
            + b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
            + b"GET /healthz HTTP/1.0\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        raw = _raw_exchange(served, data)
        assert raw.count(b"HTTP/1.1 200 OK") == 3    # the fourth is never read

    def test_connection_close_among_other_options(self, served):
        data = (
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        assert _raw_exchange(served, data).count(b"HTTP/1.1 200 OK") == 1

    def test_expect_continue_is_answered_before_the_body_is_read(self, served):
        host, port = served[0].removeprefix("http://").split(":")
        body = json.dumps({"question": BERLIN_Q}).encode()
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /ask HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            raw = b"".join(iter(lambda: sock.recv(65536), b""))
        assert raw.startswith(b"HTTP/1.1 200")
        # A request that is refused before its body gets no invitation.
        raw = _raw_exchange(
            served, b"POST /nope HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 404")

    def test_huge_declared_length_is_413_not_a_conversion_error(self, served):
        # 5 000 digits: past CPython's int() limit of 4 300.
        data = b"POST /ask HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
        assert _exchange(served, data)[0] == 413


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


class TestShutdown:
    def test_keep_alive_request_after_close_is_503(self, kg, dictionary):
        """A connection kept alive across shutdown reaches a closed engine:
        the service is gone, not broken — 503 and a close, no internal
        error."""
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        server = build_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        body = json.dumps({"question": BERLIN_Q})
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
        try:
            connection.request("POST", "/ask", body)
            reply = connection.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["answers"] == ["res:Klaus_Wowereit"]
            kept = connection.sock
            server.shutdown()
            engine.close()
            errors = engine.metrics.counter("serve.internal_errors")
            connection.request("POST", "/ask", body)
            assert connection.sock is kept  # the same kept-alive connection
            reply = connection.getresponse()
            assert reply.status == 503
            assert reply.getheader("Connection") == "close"
            assert json.loads(reply.read()) == {"error": "engine is closed"}
            assert engine.metrics.counter("serve.internal_errors") == errors
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            engine.close()


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
        # The laziness gauges: this engine was built from source, so its
        # kernel boxes a row only when it is read (mining reads most, not
        # all), every term is an object, and nothing is mapped.
        assert body["kernel"]["rows_boxed"] < body["kernel"]["nodes_full"]
        assert body["store"]["terms_decoded"] == body["store"]["terms_total"] > 0
        assert body["store"]["snapshot_mapped_bytes"] == 0

    def test_stats_reports_thread_reuse(self, served):
        base, _engine = served
        first = _get(f"{base}/stats")[1]["server"]
        for _ in range(5):
            _get(f"{base}/healthz")
        second = _get(f"{base}/stats")[1]["server"]
        assert set(first) == {"threads_started", "connections_reused", "threads_idle"}
        assert first["threads_started"] >= 1
        # Six more connections, each a new thread or a hand-off — and a
        # fresh connection that finds a parked thread is a hand-off.
        assert second["threads_started"] + second["connections_reused"] == (
            first["threads_started"] + first["connections_reused"] + 6
        )
        assert second["connections_reused"] > first["connections_reused"]


    def test_cluster_metrics_report_an_unreachable_worker_never_a_500(self, served):
        """The fan-in merges the workers that answer and reports the rest —
        one refusing connections, one answering a body that is not
        JSON — in their per-worker entries."""
        from repro.serve.server import QAServer

        base, engine = served
        _post(f"{base}/ask", {"question": BERLIN_Q})
        with socket.create_server(("127.0.0.1", 0)) as closed:
            refused = closed.getsockname()[1]
        garbled = socket.create_server(("127.0.0.1", 0))

        def answer_garbage():
            connection, _address = garbled.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nnot json")

        liar = threading.Thread(target=answer_garbage, daemon=True)
        liar.start()
        peers = [
            {"index": 0, "url": "local"},
            {"index": 1, "url": base},
            {"index": 2, "url": f"http://127.0.0.1:{refused}"},
            {"index": 3, "url": f"http://127.0.0.1:{garbled.getsockname()[1]}"},
        ]
        fan_in = QAServer(("127.0.0.1", 0), engine, worker={"index": 0}, peers=peers)
        thread = threading.Thread(target=fan_in.serve_forever, daemon=True)
        thread.start()
        try:
            status, merged = _get(f"http://127.0.0.1:{fan_in.server_address[1]}/metrics")
        finally:
            fan_in.shutdown()
            fan_in.server_close()
            liar.join(timeout=10)
            garbled.close()
        assert status == 200
        entries = {entry["index"]: entry for entry in merged["workers"]}
        assert [("error" in entries[index]) for index in range(4)] == [False, False, True, True]
        assert entries[1]["pid"] == entries[0]["pid"]  # one process serves both here
        assert merged["counters"]["serve.requests"] == sum(
            entries[index]["counters"]["serve.requests"] for index in (0, 1)
        ) > 0

class TestBind:
    def test_a_taken_port_raises_the_bind_error(self, served):
        """The base constructor closes the server when its bind fails: the
        bind's ``OSError`` must come out, not one from the close."""
        _base, engine = served
        with socket.create_server(("127.0.0.1", 0)) as taken:
            with pytest.raises(OSError) as raised:
                build_server(engine, port=taken.getsockname()[1])
        assert raised.value.errno == errno.EADDRINUSE

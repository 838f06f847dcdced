"""Request threads are reused across connections: lifecycle, elasticity,
isolation.

One thread per *open* connection, and a thread whose connection has ended
parks for ``IDLE_SECONDS`` and is handed the next accepted socket
(``QAServer.process_request``).  Held here: nothing runs before the
first connection, sequential short-lived clients share a thread, a
held-open client can never make a newcomer wait, a connection that ends
badly costs only itself, and ``server_close()`` leaves no thread behind.
"""

import http.client
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.serve import server as server_module
from tests.serve.wire import running

BERLIN_Q = "Who is the mayor of Berlin?"


def request_threads(server) -> list[threading.Thread]:
    """The live request threads of ``server`` (and of no other test's)."""
    return [t for t in threading.enumerate() if getattr(t, "_server", None) is server]


def wait_for(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()


def fresh_get(server, path: str = "/healthz") -> tuple[int, dict]:
    """One request on a connection of its own, closed before returning."""
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def fresh_ask(server) -> dict:
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        connection.request("POST", "/ask", body=json.dumps({"question": BERLIN_Q}))
        response = connection.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        connection.close()


class TestLifecycle:
    def test_no_thread_before_the_first_connection(self, engine):
        with running(engine) as server:
            time.sleep(0.05)
            assert request_threads(server) == []
            assert server.thread_stats() == {
                "threads_started": 0, "connections_reused": 0, "threads_idle": 0,
            }
            fresh_get(server)
            assert server.thread_stats()["threads_started"] == 1

    def test_sequential_connections_share_one_thread(self, engine):
        """Each connection made once its predecessor's thread has parked:
        one thread serves all 200."""
        with running(engine) as server:
            for _ in range(200):
                assert fresh_ask(server)["answers"] == ["res:Klaus_Wowereit"]
                assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)
            assert server.thread_stats() == {
                "threads_started": 1, "connections_reused": 199, "threads_idle": 1,
            }
            assert len(request_threads(server)) == 1

    def test_back_to_back_connections_are_almost_all_hand_offs(self, engine):
        """A client that reconnects without waiting can be accepted while
        its previous thread is between its last read and the idle stack
        (here client and server also share one interpreter lock): that
        connection gets a new thread, as it must — it never waits — and
        every later one finds somebody parked."""
        with running(engine) as server:
            for _ in range(200):
                assert fresh_ask(server)["answers"] == ["res:Klaus_Wowereit"]
            stats = server.thread_stats()
            assert stats["threads_started"] + stats["connections_reused"] == 200
            assert stats["connections_reused"] >= 190
            assert len(request_threads(server)) == stats["threads_started"]
            assert wait_for(
                lambda: server.thread_stats()["threads_idle"] == stats["threads_started"]
            )

    def test_stats_route_reports_reuse(self, engine):
        with running(engine) as server:
            fresh_get(server)
            assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)
            _status, body = fresh_get(server, "/stats")
            # Read from inside the one request thread: started, reused for
            # this very connection, and so not idle.
            assert body["server"] == {
                "threads_started": 1, "connections_reused": 1, "threads_idle": 0,
            }

    def test_close_releases_parked_threads_every_time(self, engine):
        before = threading.active_count()
        for _ in range(20):
            with running(engine) as server:
                fresh_get(server)
                fresh_get(server)
                assert wait_for(lambda: server.thread_stats()["threads_idle"] >= 1)
            # server_close() joined what was parked; a thread it caught
            # between its connection and the idle stack exits by itself.
            assert wait_for(lambda: request_threads(server) == [], timeout=2.0)
        assert threading.active_count() <= before

    def test_idle_threads_exit_after_the_idle_time(self, engine, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_SECONDS", 0.05)
        with running(engine) as server:
            fresh_get(server)
            assert wait_for(lambda: request_threads(server) == [])
            assert server.thread_stats()["threads_idle"] == 0
            fresh_get(server)
            assert server.thread_stats()["threads_started"] == 2

    def test_parked_threads_are_capped(self, engine, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_PARKED_THREADS", 2)
        with running(engine) as server:
            held = [
                http.client.HTTPConnection(*server.server_address[:2], timeout=10)
                for _ in range(5)
            ]
            for connection in held:
                connection.request("GET", "/healthz")
                connection.getresponse().read()
            assert len(request_threads(server)) == 5
            for connection in held:
                connection.close()
            assert wait_for(lambda: len(request_threads(server)) == 2)
            assert server.thread_stats()["threads_idle"] == 2

    def test_a_hand_off_that_races_the_idle_timeout_is_not_lost(self, engine, monkeypatch):
        """With the idle time at the scale of a request, every hand-off
        competes with the parked thread's timeout; whichever wins, the
        connection is served (a claimed thread waits for its inbox, an
        unclaimed one leaves the stack before exiting)."""
        monkeypatch.setattr(server_module, "IDLE_SECONDS", 0.001)
        with running(engine) as server:
            for _ in range(300):
                assert fresh_get(server)[0] == 200
            stats = server.thread_stats()
            assert stats["threads_started"] + stats["connections_reused"] == 300
            assert wait_for(lambda: request_threads(server) == [])
            assert server.thread_stats()["threads_idle"] == 0


class TestElasticity:
    def test_held_open_connections_do_not_starve_a_newcomer(self, engine):
        with running(engine) as server:
            held = [
                http.client.HTTPConnection(*server.server_address[:2], timeout=10)
                for _ in range(16)
            ]
            try:
                for connection in held:
                    connection.request("GET", "/healthz")
                    assert connection.getresponse().read()
                # Sixteen threads sit in a read on idle keep-alive sockets.
                assert server.thread_stats()["threads_idle"] == 0
                started = time.monotonic()
                assert fresh_ask(server)["answers"] == ["res:Klaus_Wowereit"]
                assert time.monotonic() - started < 2.0
                assert server.thread_stats()["threads_started"] == 17
                # ... and the held ones still answer.
                held[0].request("GET", "/healthz")
                assert held[0].getresponse().status == 200
            finally:
                for connection in held:
                    connection.close()

    def test_concurrent_fresh_connections_are_all_counted_and_answered(self, engine):
        """More clients than cores under a 10 µs switch interval: every
        connection is either a started thread or a reuse — a lost update
        on the idle stack or its counters would break the sum, a lost
        hand-off would hang a client."""
        clients, per_client = 8, 40
        failures: list[BaseException] = []

        def client(server) -> None:
            try:
                for _ in range(per_client):
                    assert fresh_get(server)[0] == 200
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running(engine) as server:
                threads = [
                    threading.Thread(target=client, args=(server,)) for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                stats = server.thread_stats()
                assert stats["threads_started"] + stats["connections_reused"] == (
                    clients * per_client
                )
                # A client's next connection can be accepted while the
                # thread of its last one is still on the way to the idle
                # stack, so up to two threads per client — sometimes one
                # more — get started; all the rest are hand-offs.
                assert stats["connections_reused"] >= clients * per_client * 3 // 4
        finally:
            sys.setswitchinterval(interval)


class TestIsolation:
    def test_a_handler_that_raises_costs_only_its_connection(
        self, engine, monkeypatch, capsys
    ):
        with running(engine) as server:
            fresh_get(server)
            assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)

            def broken_stats():
                raise RuntimeError("stats exploded")

            monkeypatch.setattr(engine, "stats", broken_stats)
            with pytest.raises((http.client.HTTPException, ConnectionError)):
                fresh_get(server, "/stats")
            monkeypatch.undo()
            assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)
            # The same thread (no other was ever started) serves the next.
            assert fresh_ask(server)["answers"] == ["res:Klaus_Wowereit"]
            assert server.thread_stats()["threads_started"] == 1
            assert "stats exploded" in capsys.readouterr().err

    def test_a_reset_mid_request_costs_only_its_connection(self, engine):
        with running(engine) as server:
            fresh_get(server)
            assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)
            errors = engine.metrics.counter("serve.internal_errors")
            disconnects = engine.metrics.counter("serve.client_disconnects")
            body = json.dumps({"question": BERLIN_Q, "no_cache": True}).encode()
            sock = socket.create_connection(server.server_address[:2], timeout=10)
            sock.sendall(
                b"POST /ask HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            # RST on close: the handler's write meets a dead socket.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            assert wait_for(
                lambda: engine.metrics.counter("serve.client_disconnects") > disconnects
            )
            assert engine.metrics.counter("serve.internal_errors") == errors
            assert wait_for(lambda: server.thread_stats()["threads_idle"] == 1)
            assert fresh_ask(server)["answers"] == ["res:Klaus_Wowereit"]
            assert server.thread_stats()["threads_started"] == 1

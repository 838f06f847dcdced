"""Shared raw-socket and live-server helpers for the transport tests."""

import contextlib
import socket
import threading

from repro.serve import build_server


@contextlib.contextmanager
def running(engine):
    """A live server over ``engine``; closed (and its threads gone) on exit."""
    server = build_server(engine, port=0)
    # A short poll interval only so that shutdown() returns promptly.
    acceptor = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    acceptor.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        acceptor.join(timeout=10)
        assert not acceptor.is_alive()


def raw_exchange(address, data: bytes, half_close: bool = False) -> bytes:
    """Write ``data`` on a fresh socket; everything the server sent, to EOF.

    A server that closes over input it never read answers with an RST
    behind its reply; the reply itself still arrives in order, so a reset
    ends the read like an EOF.  A timeout (a hang) propagates.
    ``half_close`` shuts the sending side down after ``data``, so a head
    left incomplete is seen as ended rather than as still arriving.
    """
    chunks = []
    with socket.create_connection(address[:2], timeout=10) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except ConnectionError:
            pass
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionError:
            pass
    return b"".join(chunks)

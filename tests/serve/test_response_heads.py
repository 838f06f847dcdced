"""What the server writes back, pinned byte for byte, and one keep-alive
connection driven through every kind of request at once.

* **Heads.**  One case per status the transport answers.  The status
  line and every header line but ``Date`` are exact — names, order and
  values — and ``Date`` is an IMF-fixdate of the moment of the reply.
* **Keep-alive machine.**  A Hypothesis state machine over one live
  connection interleaves valid ``/ask``s, refused heads, POSTs refused
  before their body is read, ``Expect: 100-continue``, bodies that are
  read and refused, and ``Connection: close``.  Every reply must parse,
  none is a 5xx, nothing follows a close, and a valid ask is answered
  correctly whatever came before it on the connection.  Derandomized
  and bounded (25 runs of at most 10 steps; a step that answers on a
  kept-alive connection waits out the client's delayed ACK, ~40 ms).
"""

import contextlib
import email.utils
import json
import platform
import re
import socket
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from tests.serve.wire import running

BERLIN_Q = "Who is the mayor of Berlin?"
BERLIN_A = ["res:Klaus_Wowereit"]
_BODY = json.dumps({"question": BERLIN_Q}).encode()


def _ask(extra: bytes = b"", body: bytes = _BODY) -> bytes:
    return (
        b"POST /ask HTTP/1.1\r\nHost: t\r\n" + extra
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


def _read_reply(stream) -> tuple[str, list[str], bytes]:
    """One reply off ``stream``: status line, header lines, body."""
    status = stream.readline()
    assert status.endswith(b"\r\n"), status
    lines = []
    while (line := stream.readline()) != b"\r\n":
        assert line.endswith(b"\r\n"), line
        lines.append(line[:-2].decode("latin-1"))
    length = [line for line in lines if line.startswith("Content-Length: ")]
    body = stream.read(int(length[0].partition(": ")[2])) if length else b""
    return status[:-2].decode("latin-1"), lines, body


def _one_reply(address, data: bytes) -> tuple[str, list[str], bytes]:
    with socket.create_connection(address[:2], timeout=10) as sock:
        sock.sendall(data)
        with sock.makefile("rb") as stream:
            return _read_reply(stream)


# ---------------------------------------------------------------------- #
# Heads
# ---------------------------------------------------------------------- #

SERVER = f"Server: repro-serve/1.0 Python/{platform.python_version()}"
CLOSE = ["Connection: close"]
_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT"
)

HEADS = {
    "200-healthz": (b"GET /healthz HTTP/1.1\r\n\r\n", "200 OK", []),
    "200-ask": (_ask(), "200 OK", []),
    "400-garbage": (b"GARBAGE\r\n\r\n", "400 Bad Request", CLOSE),
    "401": (
        b"POST /ingest HTTP/1.1\r\nX-Ingest-Token: wrong\r\nContent-Length: 2\r\n\r\n{}",
        "401 Unauthorized", CLOSE,
    ),
    "403": (
        b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", "403 Forbidden", CLOSE,
    ),
    "404-get": (b"GET /nope HTTP/1.1\r\n\r\n", "404 Not Found", []),
    "404-post": (
        b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", "404 Not Found", CLOSE,
    ),
    "405": (
        b"PUT /ask HTTP/1.1\r\n\r\n", "405 Method Not Allowed",
        [*CLOSE, "Allow: GET, POST"],
    ),
    "411": (b"POST /ask HTTP/1.1\r\n\r\n", "411 Length Required", CLOSE),
    "413": (
        b"POST /ask HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        "413 Request Entity Too Large", CLOSE,
    ),
    "429": (_ask(), "429 Too Many Requests", ["Retry-After: 1"]),
    "431": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-H: 1\r\n" * 101 + b"\r\n",
        "431 Request Header Fields Too Large", CLOSE,
    ),
}


@pytest.fixture(scope="module")
def servers(engine):
    """A server without an ingest token, and one with the token ``tok``."""
    with running(engine) as plain, running(engine, ingest_token="tok") as gated:
        yield plain, gated, engine


@pytest.mark.parametrize("case", sorted(HEADS))
def test_response_head_is_pinned(servers, case):
    plain, gated, engine = servers
    data, status, extra = HEADS[case]
    held = []
    if case == "429":
        held = [engine.admission.admit() for _ in range(engine.admission.capacity)]
    try:
        before = time.time()
        line, headers, body = _one_reply(
            (gated if case == "401" else plain).server_address, data
        )
        after = time.time()
    finally:
        for token in held:
            token.release()
    assert line == f"HTTP/1.1 {status}"
    assert len(headers) == 4 + len(extra)
    date = headers.pop(1)
    assert headers == [
        SERVER,
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra,
    ]
    assert date.startswith("Date: ") and _FIXDATE.fullmatch(date[6:]), date
    stamp = email.utils.parsedate_to_datetime(date[6:]).timestamp()
    assert int(before) <= stamp <= after
    reply = json.loads(body)
    if status.startswith("200"):
        assert reply.get("answers", BERLIN_A) == BERLIN_A
    else:
        assert reply["error"]


# ---------------------------------------------------------------------- #
# Keep-alive machine
# ---------------------------------------------------------------------- #

#: Heads the server refuses outright: an error, then the connection closes.
REFUSED_HEADS = [
    b"GARBAGE\r\n\r\n",
    b"PUT /ask HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/2.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nno colon\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX: 1\r\n folded\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\n" + b"X-H: 1\r\n" * 101 + b"\r\n",
    _ask(b"Transfer-Encoding: chunked\r\n"),
    _ask(b"Content-Length: 3\r\n"),
]
#: Requests answered before their body is read (status, head, body).
EARLY_REJECTS = [
    (404, b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n", b"{}"),
    (403, b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n\r\n", b"{}"),
    (403, b"POST /compact HTTP/1.1\r\nContent-Length: 2\r\n\r\n", b"{}"),
    (411, b"POST /ask HTTP/1.1\r\n\r\n", b""),
    (413, b"POST /ask HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", b"{}"),
    (400, b"POST /ask HTTP/1.1\r\nContent-Length: 0\r\n\r\n", b""),
    (400, b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n", b"{}"),
]
#: Bodies that are read in full and refused: the connection stays open.
REFUSED_BODIES = [b"{", b"[]", b'{"question": ""}', b'{"question": 1}', b"\xff\xfe"]


class KeepAliveMachine(RuleBasedStateMachine):
    def __init__(self, address):
        super().__init__()
        self.address = address[:2]
        self.sock: socket.socket | None = None
        self.stream = None

    def _send(self, data: bytes) -> None:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=10)
            self.stream = self.sock.makefile("rb")
        with contextlib.suppress(ConnectionError):
            self.sock.sendall(data)

    def _reply(self, closes: bool) -> tuple[int, dict]:
        line, headers, body = _read_reply(self.stream)
        version, code, _phrase = line.split(" ", 2)
        assert version == "HTTP/1.1"
        assert "Content-Type: application/json" in headers
        assert len(body) == int(
            next(h for h in headers if h.startswith("Content-Length: "))[16:]
        )
        status, reply = int(code), json.loads(body)
        assert status < 500, (status, reply)
        if status >= 400:
            assert reply["error"]
        if ("Connection: close" in headers) or closes:
            self._assert_nothing_follows()
        return status, reply

    def _assert_nothing_follows(self) -> None:
        try:
            rest = self.stream.read()
        except ConnectionError:
            rest = b""
        assert rest == b""
        self.teardown()

    def teardown(self) -> None:
        if self.sock is not None:
            self.stream.close()
            self.sock.close()
        self.sock = self.stream = None

    @rule()
    def ask(self):
        self._send(_ask())
        status, reply = self._reply(closes=False)
        assert (status, reply["answers"]) == (200, BERLIN_A)

    @rule()
    def ask_and_close(self):
        self._send(_ask(b"Connection: close\r\n"))
        status, reply = self._reply(closes=True)
        assert (status, reply["answers"]) == (200, BERLIN_A)

    @rule()
    def healthz(self):
        self._send(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert self._reply(closes=False)[0] == 200

    @rule(head=st.sampled_from(REFUSED_HEADS))
    def refused_head(self, head):
        self._send(head)
        assert self._reply(closes=True)[0] in (400, 405, 431)

    @rule(case=st.sampled_from(EARLY_REJECTS), with_body=st.booleans())
    def rejected_before_the_body(self, case, with_body):
        status, head, body = case
        self._send(head + body if with_body else head)
        assert self._reply(closes=True)[0] == status

    @rule()
    def expect_continue(self):
        self._send(
            b"POST /ask HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(_BODY)
        )
        assert self.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert self.stream.readline() == b"\r\n"
        self._send(_BODY)
        status, reply = self._reply(closes=False)
        assert (status, reply["answers"]) == (200, BERLIN_A)

    @rule(body=st.sampled_from(REFUSED_BODIES))
    def refused_body(self, body):
        self._send(_ask(body=body))
        assert self._reply(closes=False)[0] == 400


def test_one_keep_alive_connection_survives_any_interleaving(servers):
    plain, _gated, _engine = servers
    run_state_machine_as_test(
        lambda: KeepAliveMachine(plain.server_address),
        settings=settings(
            max_examples=25, stateful_step_count=10, deadline=None, derandomize=True,
        ),
    )

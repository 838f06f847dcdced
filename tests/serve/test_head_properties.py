"""Hypothesis properties of the request-head parser (``read_head``).

Two properties, the first slice of ROADMAP item 7's raw-socket state
machine:

* **Oracle.**  On well-formed heads the values the handler reads are the
  values ``http.client.parse_headers`` — the ``email``-package path this
  parser replaced, kept here as the reference only — returns for them.
  Budget: 400 examples, no I/O.
* **Fail closed.**  Whatever bytes are written to a live server, what
  comes back is a run of well-formed JSON replies, none of them a 5xx,
  with nothing after a ``Connection: close``; no handler raises, nothing
  hangs, and a well-formed ``/ask`` that follows on the same connection
  is either answered correctly or never answered because the connection
  was closed.  Budget: 250 derandomized examples of about a millisecond
  each (one connection per example).
"""

import http.client
import io
import json
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.server import BadHead, read_head
from tests.serve.wire import raw_exchange, running

BERLIN_Q = "Who is the mayor of Berlin?"
KEPT = ("authorization", "connection", "content-length", "expect", "x-ingest-token")

# ---------------------------------------------------------------------- #
# Oracle: read_head == http.client.parse_headers on well-formed heads
# ---------------------------------------------------------------------- #

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _random_case(name: str):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda flips: "".join(
            c.upper() if flip else c for c, flip in zip(name, flips)
        )
    )


header_names = st.one_of(
    st.sampled_from([n for n in KEPT if n != "content-length"]).flatmap(_random_case),
    st.text(TCHAR, min_size=1, max_size=12).filter(
        lambda n: n.lower() not in ("transfer-encoding", "content-length")
    ),
)
# Visible latin-1 with inner blanks and tabs; the ends are added separately.
inner_values = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0xFF, exclude_characters="\x7f")
    .filter(lambda c: not 0x80 <= ord(c) < 0xA0)
    | st.sampled_from(" \t"),
    max_size=24,
).map(lambda v: v.strip(" \t"))
blanks = st.text(" \t", max_size=3)
header_lines = st.tuples(header_names, blanks, inner_values, blanks)


@st.composite
def well_formed_heads(draw):
    lines = draw(st.lists(header_lines, max_size=12))
    if draw(st.booleans()):
        length = (
            draw(_random_case("content-length")), draw(blanks),
            "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, 10**7))),
            draw(blanks),
        )
        lines.insert(draw(st.integers(0, len(lines))), length)
    method = draw(st.sampled_from(["GET", "POST", "PUT", "x-custom"]))
    target = draw(st.text(
        st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=20
    ))
    minor = draw(st.integers(0, 9))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    head = f"{method} {target} HTTP/1.{minor}{eol}" + "".join(
        f"{name}:{before}{value}{after}{eol}" for name, before, value, after in lines
    ) + eol
    return method, target, minor, head.encode("latin-1")


@settings(max_examples=400, deadline=None)
@given(well_formed_heads(), st.binary(max_size=16))
def test_kept_headers_equal_the_stdlib_parser(head, body):
    method, target, minor, raw = head
    stream = io.BytesIO(raw + body)
    assert read_head(stream) is not None
    assert stream.read() == body                 # consumed the head, no more
    stream.seek(0)
    got_method, got_target, got_minor, headers = read_head(stream)
    assert (got_method, got_target, got_minor) == (method, target, minor)

    oracle_stream = io.BytesIO(raw)
    oracle_stream.readline()                     # the request line
    oracle = http.client.parse_headers(oracle_stream)
    assert set(headers) <= set(KEPT)
    for name in KEPT:
        expected = oracle.get(name)
        # The email parser trims the left of a value only; the RFC's
        # optional whitespace is on both sides, and so is ours.
        assert headers.get(name) == (
            None if expected is None else expected.rstrip(" \t")
        )


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_arbitrary_bytes_parse_or_raise_bad_head(raw):
    try:
        head = read_head(io.BytesIO(raw))
    except BadHead as bad:
        assert bad.status in (400, 431)
        assert bad.reason
    else:
        assert head is None or len(head) == 4


# ---------------------------------------------------------------------- #
# Fail closed: arbitrary bytes at a live server
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live(engine):
    """A live server whose every unhandled handler exception is recorded."""
    with running(engine) as server:
        raised: list[str] = []
        server.handle_error = lambda request, address: raised.append(
            traceback.format_exc()
        )
        yield server, engine, raised


def _replies(raw: bytes) -> list[tuple[int, dict, dict]]:
    """Split a response stream into (status, headers, JSON body); asserts
    it is nothing but well-formed replies."""
    replies = []
    stream = io.BytesIO(raw)
    while line := stream.readline():
        version, status, _reason = line.decode("latin-1").split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        if status == "100":
            continue
        body = stream.read(int(headers["content-length"]))
        assert len(body) == int(headers["content-length"])
        assert headers["content-type"] == "application/json"
        replies.append((int(status), headers, json.loads(body)))
    return replies


_BODY = json.dumps({"question": BERLIN_Q}).encode()
_GOOD = b"POST /ask HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(_BODY) + _BODY
mutations = st.tuples(
    st.integers(0, len(_GOOD) - 1), st.integers(0, 4), st.binary(max_size=6)
).map(lambda m: _GOOD[: m[0]] + m[2] + _GOOD[m[0] + m[1]:])
head_ish = st.lists(
    st.sampled_from([
        b"POST /ask HTTP/1.1", b"GET /healthz HTTP/1.1", b"GET /stats HTTP/1.0",
        b"PUT /ask HTTP/1.1", b"POST /batch HTTP/1.1", b"POST /ingest HTTP/1.1",
        b"GET / HTTP/2.0", b"Content-Length: 5", b"Content-Length: 0",
        b"Content-Length: -1", b"Content-Length: 99999999999", b"Content-Length: 44",
        b"Transfer-Encoding: chunked", b"Connection: close", b"Connection: keep-alive",
        b"Expect: 100-continue", b"X: y", b" folded", b"no colon", b"", b"{}",
        _BODY, b"\x00\xff", b"\xe2\x80\xa8",
    ]),
    max_size=10,
).flatmap(
    lambda lines: st.sampled_from([b"\r\n", b"\n", b"\r"]).map(
        lambda eol: eol.join(lines) + eol
    )
)
hostile = st.one_of(st.binary(max_size=200), mutations, head_ish)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(hostile)
def test_live_server_fails_closed(live, junk):
    server, engine, raised = live
    errors = engine.metrics.counter("serve.internal_errors")
    # A reset counts as a closed connection; a timeout is a hang and raises.
    raw = raw_exchange(server.server_address, junk + _GOOD, half_close=True)
    replies = _replies(raw)
    assert raised == []
    assert engine.metrics.counter("serve.internal_errors") == errors
    for position, (status, headers, body) in enumerate(replies):
        assert status < 500, (status, body)
        if status >= 400:
            assert body["error"]
        if headers.get("connection") == "close":
            assert position == len(replies) - 1      # nothing is served after it
        if status == 200 and body.get("question") == BERLIN_Q:
            assert body["answers"] == ["res:Klaus_Wowereit"]

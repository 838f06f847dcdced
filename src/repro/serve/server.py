"""Stdlib-only JSON HTTP transport over a :class:`QAEngine`, on
:mod:`socketserver`: a connection's handler reads a head (:func:`read_head`),
routes its ``(method, path)`` and writes one JSON response (head, then
body) while the connection is kept alive — no HTTP library is imported.

One thread per *open* connection, and that thread answers the question
itself; a thread whose connection has ended parks for a moment and is
handed the next accepted socket, so a short-lived client costs a
hand-off, not a thread (see :class:`QAServer`).  Answering concurrency
is still bounded by the engine's slots + admission budget, so a
thundering herd turns into fast 429s, not an overload.
For true parallelism across cores, :mod:`repro.serve.prefork` runs N
processes each holding one of these servers over a shared listening
port — a :class:`QAServer` can adopt an already-bound socket for that.

Routes::

    POST /ask      {"question": str, "deadline_s"?: float, "trace"?: bool,
                    "no_cache"?: bool}
    POST /batch    {"questions": [str, ...], "deadline_s"?: float,
                    "no_cache"?: bool}
    POST /ingest   {"add"?: [[s, p, o], ...], "remove"?: [[s, p, o], ...]}
                   (authenticated; see below) — apply one triple batch to
                   the live overlay store and refresh derived state
    POST /compact  {"snapshot_path"?: str}
                   (authenticated) — re-compact base + delta into a fresh
                   frozen base and swap it in atomically
    GET  /healthz  liveness/readiness + store version (+ worker pid/index)
    GET  /metrics  the engine's counters and histogram summaries;
                   in a multi-worker deployment, aggregated across workers
    GET  /stats    caches, admission, kernel, config, request threads
                   (always this worker)

Wire triples are ``[subject, predicate, object]``; subject and predicate
are IRI strings, the object is an IRI string or
``{"literal": str, "language"?: str, "datatype"?: str}``.

The write endpoints are off unless the server was built with an
``ingest_token``; requests present it as ``X-Ingest-Token: <token>`` or
``Authorization: Bearer <token>``.  No token configured → 403; wrong
token → 401 (compared constant-time).

Error mapping: malformed body → 400, missing ``Content-Length`` → 411,
oversized body → 413, unknown route → 404, admission budget exhausted →
429 with a ``Retry-After`` hint (reads and writes each have their own
budget).  Every response body is JSON, including errors
(``{"error": ...}``) — and including a request head the server does not
accept: whatever :func:`read_head` refuses (a malformed request line or
version, a header line without a colon or folded onto the next, a
control character, a repeated or non-numeric ``Content-Length``, any
``Transfer-Encoding`` → 400; a line over 65 536 bytes or more than 100
headers → 431; a method other than GET/POST → 405) is answered in the
same JSON shape with ``Connection: close``.

Two transport-level invariants the handler maintains:

* **Keep-alive never desynchronizes.**  A request rejected before its
  body was read (401/403, POST to an unknown route, 411/413, a GET that
  declares a body) answers with ``Connection: close`` and drops the
  connection — otherwise the unread body bytes would be parsed as the
  next request's request line, poisoning every subsequent exchange on
  the connection.  A head with two readings of where the body ends
  (two ``Content-Length`` lines, a ``Transfer-Encoding``) is refused
  for the same reason.
* **A disconnected client is not an error.**  ``BrokenPipeError`` /
  ``ConnectionResetError`` while writing means the client hung up;
  the handler counts ``serve.client_disconnects`` and stops writing
  instead of logging an internal error and pushing a 500 at a dead
  socket.
"""

from __future__ import annotations

import hmac
import json
import math
import os
import queue
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import BinaryIO

from repro.contracts import guarded_by
from repro.exceptions import SnapshotError
from repro.obs.metrics import merge_snapshots
from repro.rdf.terms import IRI, Literal, Triple
from repro.serve.admission import AdmissionRejected
from repro.serve.engine import QAEngine

__all__ = ["QAServer", "build_server"]

#: Cap on accepted request bodies — a question is a sentence, not a corpus.
MAX_BODY_BYTES = 1 << 20

#: Budget for one sibling-worker metrics fetch during aggregation.
PEER_TIMEOUT_S = 2.0

#: The stdlib's own limits on a request head (``http.client._MAXLINE``,
#: ``_MAXHEADERS``): bytes per line, header lines per request.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

#: How long a request thread whose connection has ended waits for the
#: next one before it exits, and how many may wait at once (a burst
#: starts as many threads as it has connections; this many outlive it).
IDLE_SECONDS = 5.0
MAX_PARKED_THREADS = 16

#: The ``Server`` header of every response.
SERVER_SOFTWARE = f"repro-serve/1.0 Python/{sys.version.split()[0]}"


# ---------------------------------------------------------------------- #
# The request head
# ---------------------------------------------------------------------- #

_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(rb"(%s) ([\x21-\x7e]+) HTTP/1\.([0-9])\r?\n" % _TOKEN)
# A value is visible bytes, blanks and tabs — no CR, NUL or other control
# character.  Greedy on purpose: trimmed in code, never by backtracking.
_HEADER_LINE = re.compile(rb"(%s):([\t\x20-\x7e\x80-\xff]*)\r?\n" % _TOKEN)
#: The headers the handler reads, by lower-cased wire name.
_KEPT_HEADERS = {
    name.encode("ascii"): name
    for name in (
        "authorization", "connection", "content-length", "expect",
        "x-ingest-token",
    )
}


class BadHead(Exception):
    """A request head :func:`read_head` refuses, with the status to answer."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


def _refused(line: bytes, reason: str) -> BadHead:
    if len(line) > MAX_LINE_BYTES:
        return BadHead(431, f"request head line exceeds {MAX_LINE_BYTES} bytes")
    if not line.endswith(b"\n"):
        return BadHead(400, "request head ended before its blank line")
    return BadHead(400, reason)


def read_head(rfile: BinaryIO) -> "tuple[str, str, int, dict[str, str]] | None":
    """Read one request head: ``(method, target, minor version, headers)``.

    ``headers`` holds the first value of each header the handler reads
    (``_KEPT_HEADERS``), keyed by lower-cased name, surrounding blanks
    trimmed; every other line is checked for shape and dropped.  None
    means the peer closed before sending anything — the ordinary end of
    a keep-alive connection.  Anything else that is not one
    ``METHOD SP target SP HTTP/1.x`` line, ``name: value`` lines within
    the stdlib's limits and a blank line raises :class:`BadHead`; so does
    a head that frames its body ambiguously (a repeated or non-numeric
    ``Content-Length``, any ``Transfer-Encoding`` — bodies here are
    length-delimited JSON).  Bare LF line ends are accepted, as the
    stdlib accepts them.
    """
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    match = _REQUEST_LINE.fullmatch(line)
    if match is None:
        raise _refused(line, "malformed request line (METHOD target HTTP/1.x)")
    method, target, minor = match.groups()
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if line == b"\r\n" or line == b"\n":
            return method.decode("ascii"), target.decode("ascii"), int(minor), headers
        match = _HEADER_LINE.fullmatch(line)
        if match is None:
            if line[:1] in b" \t":
                raise _refused(line, "folded header lines are not accepted")
            raise _refused(line, "malformed header line (name: value)")
        wire_name = match[1].lower()
        name = _KEPT_HEADERS.get(wire_name)
        if name is None:
            if wire_name == b"transfer-encoding":
                raise BadHead(400, "Transfer-Encoding is not accepted (send Content-Length)")
            continue
        value = match[2].strip(b" \t")
        if name == "content-length":
            if name in headers:
                raise BadHead(400, "repeated Content-Length")
            if not value.isdigit():
                raise BadHead(400, "Content-Length must be a decimal number")
        headers.setdefault(name, value.decode("latin-1"))
    raise BadHead(431, f"more than {MAX_HEADERS} request headers")


# ---------------------------------------------------------------------- #
# The server
# ---------------------------------------------------------------------- #


class _RequestThread(threading.Thread):
    """A thread that serves connections one after another.

    Connections arrive through ``inbox`` (``None`` = exit); between two
    of them the thread is parked on the server's idle stack, see
    :meth:`QAServer.process_request`.
    """

    def __init__(self, server: "QAServer"):
        super().__init__(name="qa-request", daemon=True)
        self._server = server
        self.inbox: "queue.SimpleQueue[tuple | None]" = queue.SimpleQueue()

    def run(self) -> None:
        server = self._server
        while True:
            try:
                connection = self.inbox.get(timeout=IDLE_SECONDS)
            except queue.Empty:
                if server._retire(self):
                    return
                # The acceptor took this thread off the stack while the
                # wait was timing out: its connection is on the way.
                connection = self.inbox.get()
            if connection is None:
                return
            request, client_address = connection
            try:
                server.finish_request(request, client_address)
            except Exception:
                # Reported, and it costs that connection only.
                server.handle_error(request, client_address)
            finally:
                server.shutdown_request(request)
            if not server._park(self):
                return


@guarded_by(
    "_threads_lock",
    "_idle_threads", "_threads_started", "_connections_reused", "_closing",
)
class QAServer(socketserver.TCPServer):
    """A TCP server that owns the engine and reuses its request threads.

    Every accepted connection is served on a thread of its own, so a
    client that holds a keep-alive connection open occupies one thread
    and can never make a newcomer wait.  What is *not* per connection is
    the thread's creation: a thread whose connection has ended parks on
    an idle stack for ``IDLE_SECONDS`` (at most ``MAX_PARKED_THREADS``
    do), and :meth:`process_request` hands the next accepted socket to
    the most recently parked one, starting a new thread only when none is
    parked.  No thread exists before the first connection — nothing of
    this crosses ``os.fork()`` — and :meth:`server_close` releases and
    joins the parked ones; threads still inside a connection are daemons,
    as they always were.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind — ignored when ``sock`` is given.
    engine:
        The warm :class:`QAEngine` answering requests.
    sock:
        An already-bound listening socket to adopt instead of binding a
        fresh one.  The pre-fork supervisor binds (``SO_REUSEPORT`` or a
        single shared socket) in the parent and each worker wraps its
        inherited socket this way.
    worker:
        ``{"index": int, "pid": int, "workers": int}`` identifying this
        process in a multi-worker deployment (surfaced on ``/healthz``).
    peers:
        Sibling admin endpoints ``[{"index": int, "url": str}, ...]``
        (including this worker's own entry); when set, ``GET /metrics``
        aggregates counters and histograms across all of them.
    ingest_token:
        Shared secret enabling the write endpoints (``POST /ingest``,
        ``POST /compact``).  None (the default) keeps them disabled —
        every write answers 403.  Single-worker only: in a pre-fork
        deployment each worker holds its own copy of the store, so a
        write applied to one would silently diverge the others.
    """

    #: Let quick restarts (tests, CI) rebind the port immediately.
    allow_reuse_address = True
    #: Load tests open a fresh TCP connection per request from many
    #: clients at once; the stdlib default backlog of 5 drops the burst
    #: with connection resets.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        engine: QAEngine,
        sock: socket.socket | None = None,
        worker: dict | None = None,
        peers: list[dict] | None = None,
        ingest_token: str | None = None,
    ):
        # Set before binding: a failed bind calls ``server_close``.
        self._threads_lock = threading.Lock()
        self._idle_threads: list[_RequestThread] = []
        self._threads_started = 0
        self._connections_reused = 0
        self._closing = False
        super().__init__(address, _Handler, bind_and_activate=sock is None)
        if sock is not None:
            # Adopt the inherited socket: skip bind, replace the fresh
            # unbound socket the base constructor made, then activate
            # (listen() on an already-listening socket is idempotent).
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            self.server_activate()
        self.engine = engine
        self.worker = worker
        self.peers = peers
        self.ingest_token = ingest_token

    # ------------------------------------------------------------------ #
    # Request threads
    # ------------------------------------------------------------------ #

    def process_request(self, request, client_address) -> None:
        """Hand the accepted socket to a parked thread, or to a new one."""
        with self._threads_lock:
            parked = bool(self._idle_threads)
            if parked:
                thread = self._idle_threads.pop()
                self._connections_reused += 1
            else:
                thread = _RequestThread(self)
                self._threads_started += 1
        thread.inbox.put((request, client_address))
        if not parked:
            thread.start()

    def server_close(self) -> None:
        super().server_close()
        with self._threads_lock:
            self._closing = True
            parked, self._idle_threads = self._idle_threads, []
        for thread in parked:
            thread.inbox.put(None)
        for thread in parked:
            thread.join()

    def thread_stats(self) -> dict:
        """The ``server`` section of ``GET /stats`` (a read; wakes nothing)."""
        with self._threads_lock:
            return {
                "threads_started": self._threads_started,
                "connections_reused": self._connections_reused,
                "threads_idle": len(self._idle_threads),
            }

    def _park(self, thread: _RequestThread) -> bool:
        """Put a thread whose connection ended on the idle stack; False
        (the thread exits) when the server is closing or the stack full."""
        with self._threads_lock:
            if self._closing or len(self._idle_threads) >= MAX_PARKED_THREADS:
                return False
            self._idle_threads.append(thread)
            return True

    def _retire(self, thread: _RequestThread) -> bool:
        """Take a thread whose idle wait ran out off the stack; False when
        :meth:`process_request` or :meth:`server_close` got there first
        (something is already on its way to the thread's inbox)."""
        with self._threads_lock:
            if thread in self._idle_threads:
                self._idle_threads.remove(thread)
                return True
            return False


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a head, route it, write one JSON response —
    and again, for as long as the connection is kept alive."""

    server: QAServer
    #: The request being answered: its method, target, HTTP minor version
    #: and what :func:`read_head` kept of its headers (lower-cased names).
    method: str
    path: str
    minor: int
    headers: dict[str, str]

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.close_connection = True
                try:
                    head = read_head(self.rfile)
                except BadHead as bad:
                    self._send_json(bad.status, {"error": bad.reason}, close=True)
                    return
                if head is None:
                    return
                self.method, self.path, self.minor, self.headers = head
                options = [
                    option.strip()
                    for option in self.headers.get("connection", "").lower().split(",")
                ]
                self.close_connection = "close" in options or (
                    self.minor == 0 and "keep-alive" not in options
                )
                self._route()
        except (BrokenPipeError, ConnectionResetError):
            # Reset before (or between) requests: reading the next request
            # line fails instead of a write.  Same event, same accounting.
            self._client_disconnected()

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def _route(self) -> None:
        method, path = self.method, self.path
        route = _ROUTES.get((method, path))
        engine: QAEngine = self.server.engine
        if method not in ("GET", "POST"):
            self._send_json(
                405,
                {"error": f"method not allowed: {method}"},
                headers={"Allow": "GET, POST"},
                close=True,
            )
        elif method == "GET" and self.headers.get("content-length", "0").lstrip("0"):
            # A body nobody will read: it must not become the next request.
            self._send_json(400, {"error": f"GET {path} takes no request body"}, close=True)
        elif route is None:
            # A POST is answered before its body is read, so the connection
            # closes (see "Keep-alive never desynchronizes" above).
            self._send_json(404, {"error": f"no such route: {path}"}, close=method == "POST")
        elif method == "GET":
            route(self, engine)
        elif path in ("/ingest", "/compact") and not self._authorize_write():
            return  # _authorize_write already answered 401/403
        elif (payload := self._read_json()) is not None:
            try:
                route(self, engine, payload)
            except AdmissionRejected as rejected:
                self._send_json(
                    429,
                    {
                        "error": "server busy",
                        "in_flight": rejected.in_flight,
                        "capacity": rejected.capacity,
                    },
                    headers={"Retry-After": "1"},
                )
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up while we were answering; nothing to send
                # and nobody to send it to.
                self._client_disconnected()
            except Exception as error:  # pragma: no cover - defensive surface
                engine.metrics.incr("serve.internal_errors")
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def _healthz(self, engine: QAEngine) -> None:
        body = {
            "status": "ok" if engine.ready else "starting",
            "ready": engine.ready,
            "uptime_s": round(engine.uptime_s(), 3),
            "store_version": engine.store_version,
            "pid": os.getpid(),
        }
        if self.server.worker is not None:
            body["worker"] = self.server.worker
        self._send_json(200 if engine.ready else 503, body)

    def _metrics(self, engine: QAEngine) -> None:
        peers = self.server.peers
        self._send_json(200, self._cluster_metrics() if peers else engine.metrics.snapshot())

    def _stats(self, engine: QAEngine) -> None:
        self._send_json(200, {**engine.stats(), "server": self.server.thread_stats()})

    # ------------------------------------------------------------------ #

    def _handle_ask(self, engine: QAEngine, payload: dict) -> None:
        question = payload.get("question")
        if not isinstance(question, str) or not question.strip():
            self._send_json(400, {"error": "'question' must be a non-empty string"})
            return
        options = _question_options(payload, ("trace", "no_cache"))
        if isinstance(options, str):
            self._send_json(400, {"error": options})
            return
        deadline_s, trace, no_cache = options
        response = engine.ask(
            question, deadline_s=deadline_s, trace=trace, use_cache=not no_cache
        )
        self._send_json(200, response)

    def _handle_batch(self, engine: QAEngine, payload: dict) -> None:
        questions = payload.get("questions")
        if (
            not isinstance(questions, list)
            or not questions
            or not all(isinstance(q, str) and q.strip() for q in questions)
        ):
            self._send_json(
                400, {"error": "'questions' must be a non-empty list of strings"}
            )
            return
        options = _question_options(payload, ("no_cache",))
        if isinstance(options, str):
            self._send_json(400, {"error": options})
            return
        deadline_s, no_cache = options
        responses = engine.batch(questions, deadline_s=deadline_s, use_cache=not no_cache)
        self._send_json(200, {"responses": responses})

    # ------------------------------------------------------------------ #
    # Live ingest
    # ------------------------------------------------------------------ #

    def _authorize_write(self) -> bool:
        """Token-gate the write endpoints; False after answering 401/403.

        Runs *before* the body is read, so rejections close the
        connection (the same keep-alive reasoning as 411/413: leaving the
        unread body on the socket would poison the next request).
        """
        token = self.server.ingest_token
        if token is None:
            self._send_json(
                403,
                {"error": "ingest is disabled (server started without a token)"},
                close=True,
            )
            return False
        provided = self.headers.get("x-ingest-token")
        if provided is None:
            auth = self.headers.get("authorization", "")
            if auth.startswith("Bearer "):
                provided = auth[len("Bearer "):]
        if provided is None or not hmac.compare_digest(provided, token):
            self.server.engine.metrics.incr("serve.ingest.unauthorized")
            self._send_json(401, {"error": "bad or missing ingest token"}, close=True)
            return False
        return True

    def _handle_ingest(self, engine: QAEngine, payload: dict) -> None:
        adds = _parse_wire_triples(payload.get("add", []))
        if isinstance(adds, str):
            self._send_json(400, {"error": f"'add': {adds}"})
            return
        removes = _parse_wire_triples(payload.get("remove", []))
        if isinstance(removes, str):
            self._send_json(400, {"error": f"'remove': {removes}"})
            return
        if not adds and not removes:
            self._send_json(
                400, {"error": "batch is empty ('add' and/or 'remove' required)"}
            )
            return
        self._send_json(200, engine.ingest(adds, removes))

    def _handle_compact(self, engine: QAEngine, payload: dict) -> None:
        snapshot_path = payload.get("snapshot_path")
        if snapshot_path is not None and not isinstance(snapshot_path, str):
            self._send_json(400, {"error": "'snapshot_path' must be a string"})
            return
        try:
            compacted = engine.compact(snapshot_path=snapshot_path)
        except SnapshotError as error:
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(200, compacted)

    # ------------------------------------------------------------------ #
    # Cluster introspection
    # ------------------------------------------------------------------ #

    def _cluster_metrics(self) -> dict:
        """``/metrics`` aggregated across every worker's admin endpoint.

        The local registry is read directly; siblings are fetched over
        their loopback admin ports with a short timeout.  A worker that
        cannot be reached (mid-respawn) is reported in its per-worker
        entry and simply missing from the merged totals — aggregation
        degrades, it never 500s.
        """
        # Only the pre-fork fan-in is an HTTP client.
        import urllib.error
        import urllib.request

        local_index = (self.server.worker or {}).get("index")
        snapshots: list[dict] = []
        workers: list[dict] = []
        for peer in self.server.peers:
            entry: dict = {"index": peer["index"], "url": peer["url"]}
            if peer["index"] == local_index:
                snap = self.server.engine.metrics.snapshot()
                entry["pid"] = os.getpid()
            else:
                try:
                    with urllib.request.urlopen(
                        f"{peer['url']}/metrics", timeout=PEER_TIMEOUT_S
                    ) as response:
                        snap = json.loads(response.read())
                    with urllib.request.urlopen(
                        f"{peer['url']}/healthz", timeout=PEER_TIMEOUT_S
                    ) as response:
                        entry["pid"] = json.loads(response.read()).get("pid")
                except (urllib.error.URLError, ConnectionError, OSError, TimeoutError) as exc:
                    entry["error"] = str(exc)
                    workers.append(entry)
                    continue
            entry["counters"] = snap.get("counters", {})
            snapshots.append(snap)
            workers.append(entry)
        merged = merge_snapshots(snapshots)
        merged["workers"] = workers
        return merged

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _read_json(self) -> dict | None:
        """The request body as a JSON object, or None after answering.

        Rejections that happen *before* the body was consumed (missing
        length, oversized) close the connection: on HTTP/1.1 keep-alive
        the unread body would otherwise be parsed as the next request.
        """
        length_header = self.headers.get("content-length")
        if length_header is None:
            # Absent framing: we cannot know where the body ends, so we
            # cannot drain it — reject and close.
            self._send_json(
                411, {"error": "Content-Length required (JSON object body)"},
                close=True,
            )
            return None
        # read_head admitted decimal digits only; a run of them longer
        # than the cap's own is past the cap without converting it.
        digits = length_header.lstrip("0")
        if not digits:
            self._send_json(
                400, {"error": "request body required (JSON object)"}, close=True
            )
            return None
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            # Refusing to read MAX+ bytes is the point; the unread body
            # makes the connection unusable, so it goes down with the 413.
            self._send_json(
                413,
                {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
                close=True,
            )
            return None
        if self.headers.get("expect", "").lower() == "100-continue" and self.minor:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(int(digits))
        try:
            payload = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._send_json(400, {"error": "request body is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return payload

    def _send_json(
        self,
        status: int,
        body: dict,
        headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> None:
        """Answer with ``body``: the head in one write, the body in the next."""
        encoded = json.dumps(body, default=str).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Server: {SERVER_SOFTWARE}",
            f"Date: {_http_date()}",
            "Content-Type: application/json",
            f"Content-Length: {len(encoded)}",
        ]
        if close:
            self.close_connection = True
            head.append("Connection: close")
        head.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        head.append("\r\n")
        try:
            self.wfile.write("\r\n".join(head).encode("latin-1"))
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            self._client_disconnected()

    def _client_disconnected(self) -> None:
        """Account a mid-response hangup and stop talking to the socket."""
        self.close_connection = True
        self.server.engine.metrics.incr("serve.client_disconnects")


#: ``(method, path)`` → the handler answering it; a GET handler is given
#: the engine, a POST handler the engine and the request's JSON object.
_ROUTES = {
    ("GET", "/healthz"): _Handler._healthz,
    ("GET", "/metrics"): _Handler._metrics,
    ("GET", "/stats"): _Handler._stats,
    ("POST", "/ask"): _Handler._handle_ask,
    ("POST", "/batch"): _Handler._handle_batch,
    ("POST", "/ingest"): _Handler._handle_ingest,
    ("POST", "/compact"): _Handler._handle_compact,
}

_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def _http_date() -> str:
    """Now, as the ``Date`` header's IMF-fixdate (RFC 9110, 5.6.7); the
    names are spelled out, not left to the locale's ``%a`` and ``%b``."""
    now = time.gmtime()
    day, month = _DAYS[now.tm_wday], _MONTHS[now.tm_mon - 1]
    return time.strftime(f"{day}, %d {month} %Y %H:%M:%S GMT", now)


def _parse_wire_triples(items) -> "list[Triple] | str":
    """Decode wire-format triples; returns an error string on bad input.

    Each item is ``[s, p, o]`` — subject/predicate IRI strings, object an
    IRI string or ``{"literal": ..., "language"?: ..., "datatype"?: ...}``.
    """
    if not isinstance(items, list):
        return "must be a list of [s, p, o] triples"
    triples: list[Triple] = []
    for position, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            return f"item {position} is not an [s, p, o] triple"
        s, p, o = item
        if not isinstance(s, str) or not s:
            return f"item {position}: subject must be an IRI string"
        if not isinstance(p, str) or not p:
            return f"item {position}: predicate must be an IRI string"
        obj: IRI | Literal
        if isinstance(o, str) and o:
            obj = IRI(o)
        elif isinstance(o, dict) and isinstance(o.get("literal"), str):
            language = o.get("language")
            datatype = o.get("datatype")
            if language is not None and not isinstance(language, str):
                return f"item {position}: 'language' must be a string"
            if datatype is not None and not isinstance(datatype, str):
                return f"item {position}: 'datatype' must be an IRI string"
            if language is not None and datatype is not None:
                return f"item {position}: literal cannot have both language and datatype"
            obj = Literal(
                o["literal"],
                datatype=IRI(datatype) if datatype is not None else None,
                language=language,
            )
        else:
            return (
                f"item {position}: object must be an IRI string or "
                "{'literal': ...}"
            )
        triples.append(Triple(IRI(s), IRI(p), obj))
    return triples


def _question_options(payload: dict, flags: tuple[str, ...]) -> "tuple | str":
    """``(deadline_s, *flags)`` of a question request; returns an error
    string on bad input.

    ``deadline_s`` is None when absent, else a positive finite number:
    ``json.loads`` reads ``NaN`` and ``Infinity``, and a deadline at either
    never comes due.  A flag is False when absent, else a JSON boolean: the
    string ``"false"`` is not false.
    """
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None and (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or not 0 < deadline_s < math.inf
    ):
        return "'deadline_s' must be a positive finite number"
    values = [payload.get(flag, False) for flag in flags]
    for flag, value in zip(flags, values):
        if not isinstance(value, bool):
            return f"'{flag}' must be a JSON boolean"
    return (deadline_s, *values)


def build_server(
    engine: QAEngine,
    host: str = "127.0.0.1",
    port: int = 8765,
    ingest_token: str | None = None,
) -> QAServer:
    """A bound (not yet serving) server; ``port=0`` picks an ephemeral port
    (read it back from ``server.server_address[1]`` — tests rely on this).
    ``ingest_token`` enables the authenticated write endpoints.
    """
    return QAServer((host, port), engine, ingest_token=ingest_token)

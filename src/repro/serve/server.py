"""Stdlib-only JSON HTTP transport over a :class:`QAEngine`.

One thread per connection (``ThreadingHTTPServer``), and that thread
answers the question itself; answering concurrency is still bounded by
the engine's slots + admission budget, so a thundering herd turns into
fast 429s, not an overload.
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
    POST /compact  {"shards"?: int, "snapshot_path"?: str}
                   (authenticated) — re-compact base + delta into a fresh
                   frozen base and swap it in atomically
    GET  /healthz  liveness/readiness + store version (+ worker pid/index)
    GET  /metrics  the engine's counters and histogram summaries;
                   in a multi-worker deployment, aggregated across workers
    GET  /stats    caches, admission, kernel, config (always this worker)

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
(``{"error": ...}``).

Two transport-level invariants the handler maintains:

* **Keep-alive never desynchronizes.**  A request rejected before its
  body was read (401/403, POST to an unknown route, 411/413) answers
  with ``Connection: close`` and drops the connection — otherwise the
  unread body bytes would be parsed as the next request's request
  line, poisoning every subsequent exchange on the connection.
* **A disconnected client is not an error.**  ``BrokenPipeError`` /
  ``ConnectionResetError`` while writing means the client hung up;
  the handler counts ``serve.client_disconnects`` and stops writing
  instead of logging an internal error and pushing a 500 at a dead
  socket.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import merge_snapshots
from repro.rdf.terms import IRI, Literal, Triple
from repro.serve.admission import AdmissionRejected
from repro.serve.engine import QAEngine

__all__ = ["QAServer", "build_server"]

#: Cap on accepted request bodies — a question is a sentence, not a corpus.
MAX_BODY_BYTES = 1 << 20

#: Budget for one sibling-worker metrics fetch during aggregation.
PEER_TIMEOUT_S = 2.0


class QAServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that owns a reference to the engine.

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

    daemon_threads = True
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
        if sock is None:
            super().__init__(address, _Handler)
        else:
            # Adopt the inherited socket: skip bind, replace the fresh
            # unbound socket the base constructor made, then activate
            # (listen() on an already-listening socket is idempotent).
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
            self.server_activate()
        self.engine = engine
        self.worker = worker
        self.peers = peers
        self.ingest_token = ingest_token


class _Handler(BaseHTTPRequestHandler):
    #: Advertised in error bodies and the Server header.
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionResetError:
            # Reset before (or between) requests: reading the next request
            # line fails instead of a write.  Same event, same accounting.
            self._client_disconnected()

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler casing)
        engine: QAEngine = self.server.engine
        if self.path == "/healthz":
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
        elif self.path == "/metrics":
            if self.server.peers:
                self._send_json(200, self._cluster_metrics())
            else:
                self._send_json(200, engine.metrics.snapshot())
        elif self.path == "/stats":
            self._send_json(200, engine.stats())
        else:
            self._send_json(404, {"error": f"no such route: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        engine: QAEngine = self.server.engine
        if self.path not in ("/ask", "/batch", "/ingest", "/compact"):
            # Answered before the body is read, so the connection closes
            # (see "Keep-alive never desynchronizes" above).
            self._send_json(
                404, {"error": f"no such route: {self.path}"}, close=True
            )
            return
        if self.path in ("/ingest", "/compact") and not self._authorize_write():
            return  # _authorize_write already answered 401/403
        payload = self._read_json()
        if payload is None:
            return  # _read_json already answered
        try:
            if self.path == "/ask":
                self._handle_ask(engine, payload)
            elif self.path == "/ingest":
                self._handle_ingest(engine, payload)
            elif self.path == "/compact":
                self._handle_compact(engine, payload)
            else:
                self._handle_batch(engine, payload)
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

    # ------------------------------------------------------------------ #

    def _handle_ask(self, engine: QAEngine, payload: dict) -> None:
        question = payload.get("question")
        if not isinstance(question, str) or not question.strip():
            self._send_json(400, {"error": "'question' must be a non-empty string"})
            return
        deadline_s = _optional_number(payload, "deadline_s")
        if deadline_s is _INVALID:
            self._send_json(400, {"error": "'deadline_s' must be a positive number"})
            return
        response = engine.ask(
            question,
            deadline_s=deadline_s,
            trace=bool(payload.get("trace", False)),
            use_cache=not bool(payload.get("no_cache", False)),
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
        deadline_s = _optional_number(payload, "deadline_s")
        if deadline_s is _INVALID:
            self._send_json(400, {"error": "'deadline_s' must be a positive number"})
            return
        responses = engine.batch(
            questions,
            deadline_s=deadline_s,
            use_cache=not bool(payload.get("no_cache", False)),
        )
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
        provided = self.headers.get("X-Ingest-Token")
        if provided is None:
            auth = self.headers.get("Authorization", "")
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
        shards = payload.get("shards")
        if shards is not None and (
            isinstance(shards, bool) or not isinstance(shards, int) or shards < 1
        ):
            self._send_json(400, {"error": "'shards' must be a positive integer"})
            return
        snapshot_path = payload.get("snapshot_path")
        if snapshot_path is not None and not isinstance(snapshot_path, str):
            self._send_json(400, {"error": "'snapshot_path' must be a string"})
            return
        self._send_json(
            200, engine.compact(shards=shards, snapshot_path=snapshot_path)
        )

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
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            # Chunked or absent framing: we cannot know where the body
            # ends, so we cannot drain it — reject and close.
            self._send_json(
                411, {"error": "Content-Length required (JSON object body)"},
                close=True,
            )
            return None
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length <= 0:
            self._send_json(
                400, {"error": "request body required (JSON object)"}, close=True
            )
            return None
        if length > MAX_BODY_BYTES:
            # Refusing to read MAX+ bytes is the point; the unread body
            # makes the connection unusable, so it goes down with the 413.
            self._send_json(
                413,
                {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
                close=True,
            )
            return None
        raw = self.rfile.read(length)
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
        encoded = json.dumps(body, default=str).encode("utf-8")
        if close:
            self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            if close:
                self.send_header("Connection", "close")
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            self._client_disconnected()

    def _client_disconnected(self) -> None:
        """Account a mid-response hangup and stop talking to the socket."""
        self.close_connection = True
        self.server.engine.metrics.incr("serve.client_disconnects")

    def log_message(self, format: str, *args) -> None:
        # Per-request stderr lines would swamp load tests; the engine's
        # metrics registry is the serving log.
        pass


_INVALID = object()


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


def _optional_number(payload: dict, key: str):
    """The positive float at ``key``, None when absent, _INVALID when bad."""
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        return _INVALID
    return float(value)


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

"""``repro serve`` as a subprocess, a timing HTTP client, and the closed loop.

The server is always ``repro serve --workers 1`` on an ephemeral port; the
client reads the four instants a caller can see — connect done, request
sent, response headers read (first byte), body complete — for every
request, traced or not, so both runs exercise the same client path.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bench.common import ROOT

REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0


@dataclass(slots=True)
class Sample:
    """One HTTP exchange as the caller saw it (milliseconds)."""

    kind: str                 # "ask" | "ingest" | "compact" | "get"
    started: float            # perf_counter at request start
    total_ms: float
    connect_ms: float         # 0.0 on a reused connection
    first_byte_ms: float      # request start → response headers read
    body_gap_ms: float        # headers read → body complete
    status: int               # 0 = transport failure / timeout
    payload: dict
    size: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 200


class Server:
    """One ``repro serve --snapshot`` child process."""

    def __init__(
        self,
        snapshot: Path,
        log: Path,
        cache_size: int | None = None,
        ingest_token: str | None = None,
    ):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--snapshot", str(snapshot), "--port", "0", "--workers", "1",
        ]
        if cache_size is not None:
            command += ["--cache-size", str(cache_size)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("REPRO_INGEST_TOKEN", None)
        if ingest_token is not None:
            env["REPRO_INGEST_TOKEN"] = ingest_token
        self.token = ingest_token
        self._log = open(log, "w", encoding="utf-8")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env, text=True
        )
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r} (see {log})")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.spawned

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            sample = Client(self).get("/healthz")
            if sample.ok and sample.payload.get("ready"):
                return
            time.sleep(0.01)
        raise RuntimeError("repro serve never became ready")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Terminate the child and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Client:
    """A caller of the HTTP API; ``keepalive`` holds one persistent
    HTTP/1.1 connection, otherwise every request opens a new one."""

    def __init__(self, server: Server, keepalive: bool = False):
        self.server = server
        self.keepalive = keepalive
        self._connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def ask(self, question: str, no_cache: bool = False) -> Sample:
        body: dict = {"question": question}
        if no_cache:
            body["no_cache"] = True
        sample = self._exchange("ask", "POST", "/ask", body)
        sample.payload["question"] = question  # failed replies carry none
        return sample

    def ingest(self, add: list, remove: list | None = None) -> Sample:
        body: dict = {"add": add}
        if remove:
            body["remove"] = remove
        return self._exchange("ingest", "POST", "/ingest", body)

    def compact(self) -> Sample:
        return self._exchange("compact", "POST", "/compact", {})

    def get(self, path: str) -> Sample:
        return self._exchange("get", "GET", path, None)

    def _exchange(self, kind: str, method: str, path: str, body: dict | None) -> Sample:
        headers = {}
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
            if self.server.token is not None and kind in ("ingest", "compact"):
                headers["X-Ingest-Token"] = self.server.token
        started = time.perf_counter()
        connect_ms = 0.0
        connection = self._connection
        try:
            if connection is None:
                connection = http.client.HTTPConnection(
                    self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S
                )
                connection.connect()
                connect_ms = (time.perf_counter() - started) * 1000.0
                if self.keepalive:
                    self._connection = connection
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            first_byte = time.perf_counter()
            raw = response.read()
            finished = time.perf_counter()
            status = response.status
            payload = json.loads(raw) if raw else {}
        except (OSError, http.client.HTTPException, ValueError) as error:
            finished = first_byte = time.perf_counter()
            status, payload, raw = 0, {"error": f"{type(error).__name__}: {error}"}, b""
            self._connection = None
        finally:
            if connection is not None and (not self.keepalive or self._connection is None):
                connection.close()
        return Sample(
            kind=kind,
            started=started,
            total_ms=(finished - started) * 1000.0,
            connect_ms=connect_ms,
            first_byte_ms=(first_byte - started) * 1000.0,
            body_gap_ms=(finished - first_byte) * 1000.0,
            status=status,
            payload=payload if isinstance(payload, dict) else {"value": payload},
            size=len(raw),
        )


def closed_loop(
    clients: int,
    seconds: float,
    step: Callable[[int, float], list[Sample]],
) -> tuple[list[Sample], float, float]:
    """Run ``clients`` threads, each calling ``step(client, elapsed)`` until
    ``seconds`` have passed; a client sends its next request only when the
    previous reply has arrived.  Returns every sample, the common start
    instant, and the wall time from it to the last completion.
    """
    results: list[list[Sample]] = [[] for _ in range(clients)]
    errors: list[Exception] = []
    barrier = threading.Barrier(clients + 1)
    origin = [0.0]

    def run(client: int) -> None:
        try:
            barrier.wait()
            while True:
                elapsed = time.perf_counter() - origin[0]
                if elapsed >= seconds:
                    return
                results[client].extend(step(client, elapsed))
        except Exception as error:  # re-raised in the caller below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(c,), daemon=True) for c in range(clients)]
    for thread in threads:
        thread.start()
    origin[0] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 4 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    wall = time.perf_counter() - origin[0]
    if errors:
        raise errors[0]
    return [sample for per_client in results for sample in per_client], origin[0], wall

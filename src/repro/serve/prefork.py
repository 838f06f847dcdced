"""Pre-fork multi-process serving: N workers behind one port.

A single :class:`QAServer` runs one thread per open connection (reused
across connections), but CPython's GIL serializes the CPU-bound QA
work, so one process cannot use more than one core no matter how many
threads it runs.  This module runs the same
server in N forked worker processes that all accept on the same
``host:port``:

* **Bind before fork.**  The parent binds one listening socket per
  worker with ``SO_REUSEPORT`` (the kernel load-balances accepts across
  them) — or, where ``SO_REUSEPORT`` is unavailable, a single shared
  socket every worker accepts on.  Binding in the parent means a
  respawned worker inherits a still-valid fd; no re-bind race.
* **Load once, build engines after the fork.**  The supervisor loads the
  heavy immutable state (graph, kernel, dictionary, linker index, the
  snapshot's mmap) and hands over a zero-argument engine factory
  (:meth:`QAEngine.factory`); after ``fork()`` every worker shares the
  same physical pages, so N workers cost one copy of the graph, and
  each worker — first start and respawn alike — calls the factory, so
  every lock, cache, counter and clock anchor is created in the process
  that uses it.  No :class:`QAEngine` ever crosses a fork.
* **Fork single-threaded.**  A lock held by another thread at fork time
  stays locked forever in the child.  The shared state carries a lock
  (the graph's kernel lock), so the supervisor refuses to fork unless it is the only thread in its
  process — the one precondition, checked at the fork site.
* **Supervise.**  The parent loops in ``waitpid``: a worker that dies is
  respawned from the same inherited sockets; SIGTERM/SIGINT tears the
  whole tree down.  The parent never serves HTTP itself.
* **Aggregate.**  Every worker also serves a loopback *admin* endpoint
  on its own ephemeral port; ``GET /metrics`` on the public port fans
  out to the sibling admin endpoints and merges the registries
  (:func:`repro.obs.metrics.merge_snapshots`), so one scrape sees the
  whole deployment.

Usage (what ``repro serve --workers N`` runs)::

    factory = QAEngine.factory(kg, dictionary, config)   # shared state built here
    supervisor = PreforkServer(factory, host="127.0.0.1", port=8765, workers=4)
    host, port = supervisor.start()     # sockets bound, nothing forked yet
    print(f"listening on {host}:{port}")
    supervisor.run()                    # forks workers, supervises until signalled
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ReproError
from repro.serve.engine import QAEngine
from repro.serve.server import QAServer

__all__ = ["PreforkServer", "supports_reuseport"]

#: Respawns per worker slot before the supervisor gives up on it.
_MAX_RESPAWNS = 8


def supports_reuseport() -> bool:
    """Whether this platform can load-balance accepts across per-worker
    sockets; without it the workers share one socket (fork-after-bind)."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    except OSError:  # pragma: no cover - no IPv4 stack
        return False
    with probe:
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:  # pragma: no cover - kernel without SO_REUSEPORT
            return False
    return True


def _listener(host: str, port: int, reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(QAServer.request_queue_size)
    except OSError:
        sock.close()
        raise
    return sock


@dataclass
class _Worker:
    index: int
    listen_sock: socket.socket
    admin_sock: socket.socket
    pid: int = 0
    respawns: int = 0


class PreforkServer:
    """Bind, fork, supervise: N :class:`QAServer` workers on one port.

    ``engine_factory`` is called with no arguments in each worker after
    the fork and returns that worker's :class:`QAEngine`; the heavy state
    it closes over (KG, kernel, dictionary, mmap columns) is what the
    forks share, so build it before :meth:`run`.

    ``_MAX_RESPAWNS`` bounds respawns *per worker slot*; a worker that
    keeps crashing stops being restarted (a crash-loop would otherwise
    spin forever), and the supervisor exits once no workers remain.
    """

    def __init__(
        self,
        engine_factory: Callable[[], QAEngine],
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine_factory = engine_factory
        self.host = host
        self.port = port
        self.workers = workers
        self.reuseport = False
        self._workers: list[_Worker] = []
        self._peers: list[dict] = []
        self._shutdown = threading.Event()

    # ------------------------------------------------------------------ #
    # Parent: bind + supervise
    # ------------------------------------------------------------------ #

    def start(self) -> tuple[str, int]:
        """Bind every socket (public listeners + per-worker admin) in the
        parent and return the public ``(host, port)``.  Nothing forks yet,
        so the caller can print the address before the workers exist."""
        self.reuseport = self.workers > 1 and supports_reuseport()
        listeners: list[socket.socket] = []
        first = _listener(self.host, self.port, self.reuseport)
        listeners.append(first)
        bound_port = first.getsockname()[1]
        if self.reuseport:
            try:
                for _ in range(self.workers - 1):
                    listeners.append(_listener(self.host, bound_port, True))
            except OSError:
                # Some stacks accept the sockopt but refuse the second
                # bind; fall back to one shared socket.
                for extra in listeners[1:]:
                    extra.close()
                listeners = [first]
                self.reuseport = False
        self.port = bound_port
        for index in range(self.workers):
            listen_sock = listeners[index] if self.reuseport else first
            admin_sock = _listener("127.0.0.1", 0, False)
            self._workers.append(_Worker(index, listen_sock, admin_sock))
            self._peers.append(
                {"index": index, "url": f"http://127.0.0.1:{admin_sock.getsockname()[1]}"}
            )
        return self.host, self.port

    def run(self) -> int:
        """Fork the workers and supervise until SIGTERM/SIGINT (or until
        every worker slot has exhausted its respawn budget)."""
        if not self._workers:
            self.start()

        class _Stop(Exception):
            pass

        def _on_signal(signum, frame):
            # Raising is load-bearing: PEP 475 retries waitpid after the
            # handler returns, so a returning handler would never break
            # the supervision loop.
            self._shutdown.set()
            raise _Stop()

        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
            signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
        }
        exit_code = 0
        try:
            for worker in self._workers:
                self._spawn(worker)
            while True:
                alive = {w.pid: w for w in self._workers if w.pid}
                if not alive:
                    print("repro serve: no workers left, exiting", file=sys.stderr)
                    exit_code = 1
                    break
                try:
                    pid, status = os.waitpid(-1, 0)
                except ChildProcessError:
                    break
                worker = alive.get(pid)
                if worker is None:
                    continue
                worker.pid = 0
                if self._shutdown.is_set():
                    continue
                worker.respawns += 1
                if worker.respawns > _MAX_RESPAWNS:
                    print(
                        f"repro serve: worker {worker.index} exceeded "
                        f"{_MAX_RESPAWNS} respawns, giving up on it",
                        file=sys.stderr,
                    )
                    continue
                print(
                    f"repro serve: worker {worker.index} (pid {pid}) exited "
                    f"with status {status}, respawning",
                    file=sys.stderr,
                )
                self._spawn(worker)
        except _Stop:
            pass
        finally:
            self._shutdown.set()
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._terminate_workers()
            self._close_sockets()
        return exit_code

    def _terminate_workers(self) -> None:
        for worker in self._workers:
            if worker.pid:
                try:
                    os.kill(worker.pid, signal.SIGTERM)
                except ProcessLookupError:
                    worker.pid = 0
        for worker in self._workers:
            if worker.pid:
                try:
                    os.waitpid(worker.pid, 0)
                except ChildProcessError:
                    pass
                worker.pid = 0

    def _close_sockets(self) -> None:
        seen: set[int] = set()
        for worker in self._workers:
            for sock in (worker.listen_sock, worker.admin_sock):
                if id(sock) not in seen:
                    seen.add(id(sock))
                    sock.close()

    # ------------------------------------------------------------------ #
    # Child
    # ------------------------------------------------------------------ #

    def _spawn(self, worker: _Worker) -> None:
        if threading.active_count() != 1:
            # The child would inherit, locked forever, any lock another
            # thread holds right now (the graph's, the store's).
            raise ReproError(
                f"refusing to fork with {threading.active_count()} live "
                "threads: the pre-fork supervisor must be single-threaded"
            )
        pid = os.fork()
        if pid:
            worker.pid = pid
            return
        # Child: never return into the supervisor's stack.
        try:
            code = self._worker_main(worker)
        except BaseException:  # noqa: BLE001 - last-resort worker crash log
            import traceback

            traceback.print_exc()
            code = 1
        finally:
            # Skip atexit/GC finalizers — they belong to the parent's
            # state (its sockets, its loaded graph) which this child
            # must not tear down.
            os._exit(code)

    def _worker_main(self, me: _Worker) -> int:
        # Drop inherited fds that belong to siblings: their admin sockets
        # always, their listeners only in SO_REUSEPORT mode (in shared-
        # socket mode every worker holds the same listener).
        for other in self._workers:
            if other.index == me.index:
                continue
            other.admin_sock.close()
            if self.reuseport:
                other.listen_sock.close()

        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates

        engine = self.engine_factory()
        engine.warm()
        info = {"index": me.index, "pid": os.getpid(), "workers": self.workers}

        public = QAServer(
            me.listen_sock.getsockname()[:2],
            engine,
            sock=me.listen_sock,
            worker=info,
            peers=self._peers,
        )
        # Admin endpoint: local registry only (peers=None) — it is what
        # the siblings' aggregation fans out to, so it must never fan out
        # itself (that would recurse across the cluster).
        admin = QAServer(
            me.admin_sock.getsockname()[:2],
            engine,
            sock=me.admin_sock,
            worker=info,
            peers=None,
        )
        admin_thread = threading.Thread(
            target=admin.serve_forever, name="qa-admin", daemon=True
        )
        admin_thread.start()
        try:
            public.serve_forever()
        except (SystemExit, KeyboardInterrupt):
            pass
        finally:
            admin.shutdown()
            public.server_close()
            admin.server_close()
            engine.close()
        return 0

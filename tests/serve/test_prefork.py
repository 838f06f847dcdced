"""Pre-fork serving: socket binding, the fork guard, fork hygiene, N=2
end-to-end smoke.

The smoke test drives the real ``repro serve --workers 2`` CLI as a
subprocess over a compiled snapshot (so worker warmup is near-instant):
requests must land on two distinct PIDs, answers must be identical to a
single worker's, ``/metrics`` must aggregate both registries, and a
SIGKILLed worker must be respawned by the supervisor.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.rdf.snapshot import compile_snapshot
from repro.serve import EngineConfig, PreforkServer, QAEngine, supports_reuseport

BERLIN_Q = "Who is the mayor of Berlin?"


# --------------------------------------------------------------------- #
# Unit-level: binding and argument validation
# --------------------------------------------------------------------- #

class TestBinding:
    def test_supports_reuseport_is_boolean(self):
        assert supports_reuseport() in (True, False)

    def test_workers_must_be_positive(self, kg, dictionary):
        with pytest.raises(ValueError, match="workers"):
            PreforkServer(QAEngine.factory(kg, dictionary), workers=0)

    def test_start_binds_before_forking(self, kg, dictionary):
        supervisor = PreforkServer(QAEngine.factory(kg, dictionary), port=0, workers=2)
        try:
            host, port = supervisor.start()
            assert host == "127.0.0.1"
            assert port > 0
            # Every worker slot has a listener on the public port and its
            # own loopback admin socket; nothing has forked yet.
            assert len(supervisor._workers) == 2
            for worker in supervisor._workers:
                assert worker.pid == 0
                assert worker.listen_sock.getsockname()[1] == port
                assert worker.admin_sock.getsockname()[0] == "127.0.0.1"
            assert len({p["url"] for p in supervisor._peers}) == 2
        finally:
            supervisor._close_sockets()


class TestForkGuard:
    def test_refuses_to_fork_with_a_second_live_thread(self, kg, dictionary):
        """A lock another thread holds at fork time stays locked forever in
        the child, so the supervisor forks only while single-threaded."""
        built = []

        def factory():
            built.append(os.getpid())
            return QAEngine(kg, dictionary)

        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        supervisor = PreforkServer(factory, port=0, workers=2)
        try:
            with pytest.raises(ReproError, match="single-threaded"):
                supervisor.run()
        finally:
            release.set()
            bystander.join(timeout=5)
        assert not bystander.is_alive()
        assert built == []  # refused before any fork, in any process
        assert all(worker.pid == 0 for worker in supervisor._workers)

    def test_supervisor_never_builds_an_engine(self, monkeypatch, capsys):
        """``repro serve --workers 2`` up to the fork: state is loaded and
        warmed, sockets are bound, and no QAEngine exists in this process."""
        from repro.cli import main

        def no_engine_here(self, *args, **kwargs):
            raise AssertionError("QAEngine built in the supervisor")

        seen = {}

        def run_instead_of_forking(self):
            seen["factory"] = self.engine_factory
            self._close_sockets()
            return 0

        monkeypatch.setattr(QAEngine, "__init__", no_engine_here)
        monkeypatch.setattr(PreforkServer, "run", run_instead_of_forking)
        assert main(["serve", "--workers", "2", "--port", "0"]) == 0
        assert "workers=2" in capsys.readouterr().out
        kg = seen["factory"].args[0]
        assert kg._kernel is not None  # shared structures built before the fork


# --------------------------------------------------------------------- #
# Fork hygiene: nothing a worker locks or counts is inherited
# --------------------------------------------------------------------- #

def _run_in_fork(child) -> bytes:
    """Run ``child()`` in a forked process; return the bytes it produced.

    The child must never re-enter pytest — it writes its result to a pipe
    and ``os._exit``\\ s.  An empty result means the child died before
    reporting (the assertion failure surfaces as such in the parent).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = child()
            os.write(write_fd, payload)
            os.close(write_fd)
            os._exit(0)
        except BaseException:
            os._exit(1)
    os.close(write_fd)
    chunks = []
    with open(read_fd, "rb") as reader:
        chunks.append(reader.read())
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return b"".join(chunks)


class TestForkHygiene:
    CONFIG = EngineConfig(pool_size=2, queue_limit=2)

    def test_worker_engine_owes_nothing_to_a_busy_parent_engine(self, kg, dictionary):
        """The hazard itself: fork while a served engine's locks are all
        held.  A copied engine would deadlock on its first counter; the
        worker instead builds its own over the inherited graph, through
        the factory ``repro serve --workers N`` uses, so it starts with
        its own locks and empty caches and counters."""
        factory = QAEngine.factory(kg, dictionary, self.CONFIG)
        parent = factory()
        parent.warm()
        parent.ask(BERLIN_Q)
        assert len(parent.answer_cache) == 1
        held = [
            parent.metrics._lock,
            parent.answer_cache._lock,
            parent.link_cache._lock,
            parent._state_lock,
        ]
        for lock in held:
            lock.acquire()
        try:
            def child() -> bytes:
                engine = factory()
                assert not engine.ready  # a new engine demands its own warm
                engine.warm()
                assert engine.kg is parent.kg  # the graph is what is shared
                assert len(engine.answer_cache) == 0
                assert len(engine.link_cache) == 0
                assert engine.metrics.snapshot()["counters"] == {}
                response = engine.ask(BERLIN_Q)
                assert not response["cached"]
                engine.close()
                return json.dumps(response["answers"]).encode()

            assert json.loads(_run_in_fork(child)) == ["res:Klaus_Wowereit"]
        finally:
            for lock in held:
                lock.release()
        # The parent's engine is untouched by whatever the child did.
        assert parent.ready
        assert parent.ask(BERLIN_Q)["answers"] == ["res:Klaus_Wowereit"]
        parent.close()



# --------------------------------------------------------------------- #
# End-to-end: repro serve --workers 2 over a compiled snapshot
# --------------------------------------------------------------------- #

def _get(base: str, path: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.loads(response.read())


def _ask(base: str, question: str, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        f"{base}/ask",
        data=json.dumps({"question": question}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def snapshot_path(kg, dictionary, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("prefork") / "graph.snap"
    compile_snapshot(path, kg, dictionary)
    return path


@pytest.fixture(scope="module")
def cluster(snapshot_path):
    """``repro serve --workers 2`` as a subprocess on an ephemeral port."""
    repo_root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo_root / "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workers", "2", "--port", "0",
            "--snapshot", str(snapshot_path),
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    assert match, f"no address in server banner: {line!r}"
    base = f"http://{match.group(1)}:{match.group(2)}"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            if _get(base, "/healthz", timeout=2.0).get("ready"):
                break
        except OSError:
            pass
        time.sleep(0.1)
    else:
        process.kill()
        pytest.fail("pre-fork cluster never became ready")
    yield base, process
    process.send_signal(signal.SIGTERM)
    try:
        assert process.wait(timeout=15) == 0
    except subprocess.TimeoutExpired:
        process.kill()
        raise


def _observed_pids(base: str, want: int, budget_s: float = 30.0) -> set[int]:
    """PIDs seen on /healthz until ``want`` distinct ones (kernel accept
    balancing decides which worker answers each probe)."""
    pids: set[int] = set()
    deadline = time.monotonic() + budget_s
    while len(pids) < want and time.monotonic() < deadline:
        try:
            health = _get(base, "/healthz", timeout=2.0)
        except OSError:
            time.sleep(0.1)
            continue
        if health.get("ready"):
            pids.add(health["pid"])
        time.sleep(0.02)
    return pids


class TestClusterSmoke:
    def test_two_distinct_worker_pids(self, cluster):
        base, process = cluster
        pids = _observed_pids(base, want=2)
        assert len(pids) == 2
        assert process.pid not in pids  # the supervisor never serves

    def test_workers_answer_identically(self, cluster, kg, dictionary):
        base, _process = cluster
        reference = QAEngine(
            kg, dictionary, EngineConfig(pool_size=2, queue_limit=2)
        )
        reference.warm()
        try:
            expected = reference.ask(BERLIN_Q)["answers"]
        finally:
            reference.close()
        # Enough requests that both workers answer some of them.
        for _ in range(8):
            assert _ask(base, BERLIN_Q)["answers"] == expected

    def test_healthz_reports_worker_identity(self, cluster):
        base, _process = cluster
        health = _get(base, "/healthz")
        worker = health["worker"]
        assert worker["workers"] == 2
        assert worker["index"] in (0, 1)
        assert worker["pid"] == health["pid"]

    def test_metrics_aggregates_across_workers(self, cluster):
        base, _process = cluster
        for _ in range(4):
            _ask(base, BERLIN_Q)
        merged = _get(base, "/metrics")
        assert set(merged) == {"counters", "histograms", "workers"}
        entries = {entry["index"]: entry for entry in merged["workers"]}
        assert set(entries) == {0, 1}
        reachable = [e for e in entries.values() if "error" not in e]
        assert len(reachable) == 2
        per_worker = sum(e["counters"].get("serve.requests", 0) for e in reachable)
        assert merged["counters"]["serve.requests"] == per_worker
        assert per_worker >= 4

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/<pid>/maps")
    def test_metrics_fan_in_loads_no_http_client(self, cluster):
        """A worker fetches its siblings' ``/metrics`` and ``/healthz`` over
        plain sockets: after aggregated ``/metrics`` no worker maps
        ``_ssl``, which an HTTP client library would have loaded."""
        base, _process = cluster
        for _ in range(6):  # the kernel picks the answering worker
            merged = _get(base, "/metrics")
        pids = [entry.get("pid") for entry in merged["workers"]]
        assert len(pids) == 2 and all(pids), merged["workers"]
        for pid in pids:
            assert "_ssl" not in Path(f"/proc/{pid}/maps").read_text(), pid

    def test_killed_worker_is_respawned(self, cluster):
        base, _process = cluster
        before = _observed_pids(base, want=2)
        assert len(before) == 2
        victim = sorted(before)[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        replacement: set[int] = set()
        while time.monotonic() < deadline:
            replacement = _observed_pids(base, want=2, budget_s=5.0)
            if len(replacement) == 2 and victim not in replacement:
                break
        assert len(replacement) == 2
        assert victim not in replacement

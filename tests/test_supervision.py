"""Supervised, drainable ricd: health, graceful drain, crash restart.

The operational contract (INTERNALS §10):

* ``STAT`` exposes health/readiness so a supervisor can tell "alive"
  from "shutting down" without guessing from traffic;
* SIGTERM drains: in-flight requests finish and get their responses,
  the write-through store is durable, exit code is 0;
* the supervisor restarts a crashed daemon with jittered exponential
  backoff and gives up on a restart storm instead of busy-looping.

Supervisor logic is tested against injected fakes (no processes, no
sleeping); the drain path against a real in-process daemon; and the
end-to-end signal behavior against real ``ric-serve`` subprocesses
(marked ``slow``/``net``).
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import Engine
from repro.server import protocol
from repro.server.client import RemoteRecordStore
from repro.server.daemon import RecordCacheDaemon
from repro.server.supervisor import (
    EXIT_CLEAN,
    EXIT_STOPPED,
    EXIT_STORM,
    Supervisor,
)

ROOT = Path(__file__).resolve().parent.parent

pytestmark = [
    pytest.mark.net,
    pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="unix sockets required"
    ),
]

LIB_SOURCE = """
function Pair(a, b) { this.a = a; this.b = b; }
var total = 0;
for (var i = 0; i < 20; i = i + 1) { total = total + new Pair(i, i).a; }
console.log("total:", total);
"""


@pytest.fixture
def daemon(tmp_path):
    ricd = RecordCacheDaemon(
        tmp_path / "ricd.sock", directory=tmp_path / "records"
    )
    ricd.start()
    yield ricd
    ricd.stop()


def _extracted_record():
    engine = Engine(seed=31)
    engine.run([("lib.jsl", LIB_SOURCE)], name="initial")
    return engine.extract_per_script_records()["lib.jsl"]


class TestHealth:
    def test_stat_reports_health(self, daemon):
        store = RemoteRecordStore(daemon.socket_path)
        client = store.clients[str(daemon.socket_path)]
        response = client._request(protocol.request("STAT"))
        health = response["health"]
        assert health["ready"] is True and health["draining"] is False
        assert health["uptime_s"] > 0
        # The STAT request itself is the one in flight.
        assert health["inflight"] == 1
        pressure = health["pressure"]
        assert pressure["records"] == 0 and pressure["records_frac"] == 0.0
        assert 0.0 <= pressure["bytes_frac"] <= 1.0
        store.close()

    def test_pressure_tracks_occupancy(self, daemon):
        store = RemoteRecordStore(daemon.socket_path)
        store.put("lib.jsl", LIB_SOURCE, _extracted_record())
        client = store.clients[str(daemon.socket_path)]
        health = client._request(protocol.request("STAT"))["health"]
        assert health["pressure"]["records"] == 1
        assert health["pressure"]["bytes"] > 0
        store.close()

    def test_drained_daemon_reports_not_ready(self, daemon):
        assert daemon.health()["ready"] is True
        assert daemon.drain(timeout_s=2.0) is True
        blob = daemon.health()
        assert blob["ready"] is False and blob["draining"] is True


class TestDrain:
    def test_idle_drain_is_clean(self, daemon):
        assert daemon.drain(timeout_s=2.0) is True
        assert not daemon.socket_path.exists()

    def test_drain_finishes_inflight_put(self, daemon, monkeypatch):
        """A PUT in flight when the drain starts still gets its response,
        and the record is durable in the write-through store."""
        record = _extracted_record()
        entered = threading.Event()
        original = daemon.store.put_by_key

        def slow_put(key, rec):
            entered.set()
            time.sleep(0.3)  # hold the request in flight across the drain
            original(key, rec)

        monkeypatch.setattr(daemon.store, "put_by_key", slow_put)
        store = RemoteRecordStore(daemon.socket_path, timeout_s=5.0)
        result: dict = {}

        def do_put():
            store.put("lib.jsl", LIB_SOURCE, record)
            result["stats"] = store.stats_snapshot()

        putter = threading.Thread(target=do_put)
        putter.start()
        assert entered.wait(2.0), "PUT never reached the store"
        assert daemon.drain(timeout_s=5.0) is True
        putter.join(timeout=5.0)
        assert not putter.is_alive()
        # The in-flight PUT was answered, not cut.
        assert result["stats"]["puts"] == 1
        assert result["stats"]["fallbacks"] == 0
        # And it is durable: a fresh store over the same directory has it.
        from repro.ric.store import RecordStore

        reloaded = RecordStore(directory=daemon.store._directory)
        assert reloaded.get("lib.jsl", LIB_SOURCE) is not None
        store.close()

    def test_drain_deadline_cuts_stragglers(self, daemon, monkeypatch):
        entered = threading.Event()
        release = threading.Event()

        def stuck_put(key, rec):
            entered.set()
            release.wait(10.0)

        monkeypatch.setattr(daemon.store, "put_by_key", stuck_put)
        store = RemoteRecordStore(daemon.socket_path, timeout_s=15.0)
        record = _extracted_record()
        putter = threading.Thread(
            target=lambda: store.put("lib.jsl", LIB_SOURCE, record)
        )
        putter.start()
        assert entered.wait(2.0)
        assert daemon.drain(timeout_s=0.2) is False
        release.set()
        putter.join(timeout=5.0)
        store.close()

    def test_draining_daemon_rejects_new_work(self, daemon):
        store = RemoteRecordStore(daemon.socket_path)
        assert store.ping()
        daemon.drain(timeout_s=2.0)
        fresh = RemoteRecordStore(daemon.socket_path)
        assert fresh.ping() is False
        fresh.close()
        store.close()


class _FakeChild:
    """Popen-shaped test double: scripted exit code, optional callback."""

    def __init__(self, code, on_wait=None):
        self.code = code
        self.on_wait = on_wait
        self.terminated = False

    def wait(self):
        if self.on_wait is not None:
            self.on_wait()
        return self.code

    def terminate(self):
        self.terminated = True

    def kill(self):  # pragma: no cover - parity with Popen
        self.terminated = True


class TestSupervisor:
    def _supervisor(self, codes, clock=None, **kwargs):
        spawned = []

        def spawn(command):
            child = _FakeChild(codes.pop(0))
            spawned.append(child)
            return child

        sleeps: list[float] = []
        sup = Supervisor(
            ["ricd"],
            spawn=spawn,
            sleep=sleeps.append,
            clock=clock if clock is not None else lambda: 0.0,
            rng=random.Random(0),
            **kwargs,
        )
        return sup, sleeps, spawned

    def test_clean_exit_ends_supervision(self):
        sup, sleeps, spawned = self._supervisor([0])
        assert sup.run() == EXIT_CLEAN
        assert sup.restarts == 0 and sleeps == []

    def test_crashes_restart_until_clean(self):
        sup, sleeps, spawned = self._supervisor([1, 1, 0])
        assert sup.run() == EXIT_CLEAN
        assert sup.restarts == 2 and len(spawned) == 3

    def test_backoff_doubles_and_caps(self):
        sup, sleeps, _ = self._supervisor(
            [1] * 8 + [0],
            backoff_base_s=1.0,
            backoff_cap_s=4.0,
            jitter_frac=0.0,
            storm_threshold=100,
        )
        assert sup.run() == EXIT_CLEAN
        assert sleeps == [1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]

    def test_jitter_stays_in_band(self):
        sup, sleeps, _ = self._supervisor(
            [1] * 5 + [0],
            backoff_base_s=1.0,
            backoff_cap_s=1.0,
            jitter_frac=0.5,
            storm_threshold=100,
        )
        sup.run()
        assert all(1.0 <= pause <= 1.5 for pause in sleeps)

    def test_healthy_runtime_resets_backoff(self):
        now = [0.0]

        def clock():
            return now[0]

        codes = [1, 1, 1, 0]
        sleeps: list[float] = []

        def spawn(command):
            code = codes.pop(0)
            if len(codes) == 1:
                # Third child: runs "healthily" for 100s before dying.
                return _FakeChild(code, on_wait=lambda: now.__setitem__(0, now[0] + 100.0))
            return _FakeChild(code)

        sup = Supervisor(
            ["ricd"],
            spawn=spawn,
            sleep=sleeps.append,
            clock=clock,
            rng=random.Random(0),
            backoff_base_s=1.0,
            jitter_frac=0.0,
            healthy_after_s=5.0,
            storm_window_s=10.0,
            storm_threshold=100,
        )
        assert sup.run() == EXIT_CLEAN
        # Crash 1: 1s.  Crash 2: 2s.  Crash 3 after a healthy 100s run:
        # the ladder reset, so back to 1s.
        assert sleeps == [1.0, 2.0, 1.0]

    def test_restart_storm_trips_breaker(self):
        sup, sleeps, _ = self._supervisor(
            [1] * 50, storm_window_s=30.0, storm_threshold=3
        )
        assert sup.run() == EXIT_STORM
        assert len(sleeps) == 3  # threshold restarts, then gave up

    def test_crashes_outside_window_do_not_storm(self):
        now = [0.0]

        def spawn(command):
            # Every child "runs" for 100s: crashes never cluster.
            return _FakeChild(1, on_wait=lambda: now.__setitem__(0, now[0] + 100.0))

        stop_after = [6]

        def sleep(pause):
            stop_after[0] -= 1
            if stop_after[0] == 0:
                sup.request_stop()

        sup = Supervisor(
            ["ricd"],
            spawn=spawn,
            sleep=sleep,
            clock=lambda: now[0],
            rng=random.Random(0),
            storm_window_s=30.0,
            storm_threshold=2,
        )
        assert sup.run() == EXIT_STOPPED
        assert sup.restarts == 6

    def test_request_stop_terminates_child(self):
        sup_box = {}

        def spawn(command):
            child = _FakeChild(1, on_wait=lambda: sup_box["sup"].request_stop())
            sup_box["child"] = child
            return child

        sup = Supervisor(
            ["ricd"], spawn=spawn, sleep=lambda s: None, clock=lambda: 0.0
        )
        sup_box["sup"] = sup
        assert sup.run() == EXIT_STOPPED
        assert sup_box["child"].terminated


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def _spawn_serve(tmp_path, *extra) -> "tuple[subprocess.Popen, str]":
    socket_path = str(tmp_path / "ricd.sock")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.harness.serve_cli",
            "--socket",
            socket_path,
            "--dir",
            str(tmp_path / "records"),
            *extra,
        ],
        cwd=str(ROOT),
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc, socket_path


def _wait_for_ping(socket_path: str, proc, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read() if proc.stdout else ""
            pytest.fail(f"daemon exited early (rc={proc.returncode}): {out}")
        probe = RemoteRecordStore(socket_path, timeout_s=1.0, retry_after_s=0.0)
        try:
            if probe.ping():
                return
        finally:
            probe.close()
        time.sleep(0.05)
    pytest.fail(f"daemon never came up on {socket_path}")


@pytest.mark.slow
class TestServeSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, socket_path = _spawn_serve(tmp_path)
        try:
            _wait_for_ping(socket_path, proc)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
            assert "drained cleanly" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout:
                proc.stdout.close()

    def test_supervise_restarts_sigkilled_daemon(self, tmp_path):
        """SIGKILL the supervised daemon; the supervisor restarts it,
        clients reconnect, and disk-backed records survive."""
        proc, socket_path = _spawn_serve(tmp_path, "--supervise")
        store = None
        try:
            _wait_for_ping(socket_path, proc)
            store = RemoteRecordStore(
                socket_path, timeout_s=2.0, retry_after_s=0.0
            )
            store.put("lib.jsl", LIB_SOURCE, _extracted_record())

            # Find and SIGKILL the *child* daemon (its pid is in STAT).
            stat = store.clients[socket_path]._request(protocol.request("STAT"))
            child_pid = stat["cache"]["pid"]
            assert child_pid != proc.pid
            os.kill(child_pid, signal.SIGKILL)

            # The supervisor restarts it; a client eventually reconnects.
            deadline = time.monotonic() + 30.0
            revived = False
            while time.monotonic() < deadline:
                probe = RemoteRecordStore(
                    socket_path, timeout_s=1.0, retry_after_s=0.0
                )
                try:
                    if probe.ping():
                        pid = probe.clients[socket_path]._request(
                            protocol.request("STAT")
                        )["cache"]["pid"]
                        if pid != child_pid:
                            revived = True
                            break
                finally:
                    probe.close()
                time.sleep(0.1)
            assert revived, "supervisor never restarted the daemon"

            # Records written through to disk survived the kill.
            fresh = RemoteRecordStore(socket_path, timeout_s=2.0)
            assert fresh.get("lib.jsl", LIB_SOURCE) is not None
            assert fresh.stats_snapshot()["hits"] == 1
            fresh.close()
        finally:
            if store is not None:
                store.close()
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout:
                proc.stdout.close()

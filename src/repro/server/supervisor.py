"""Crash-restart supervision for ``ricd`` (``ric-serve --supervise``).

The daemon is deliberately allowed to die: one bad allocation, one
un-handled signal, one OOM kill must cost clients a reconnect (absorbed
by the :class:`~repro.server.client.EndpointClient` retry budget),
not the sharing win for the rest of the day.  The supervisor closes
that loop:

* **Restart with backoff + jitter** — each crash waits
  ``backoff_base_s * 2**consecutive_crashes``, capped at
  ``backoff_cap_s``, with a uniform jitter fraction so a fleet of
  supervisors restarting against a shared broken dependency doesn't
  thunder in lockstep.
* **Healthy-runtime reset** — a child that stays up for
  ``healthy_after_s`` earns the backoff counter back to zero; a flaky
  dependency that recovers doesn't leave the daemon paying yesterday's
  penalty.
* **Restart-storm circuit breaker** — more than ``storm_threshold``
  crashes inside ``storm_window_s`` means restarting is not helping
  (bad config, missing directory, poisoned socket path): the supervisor
  gives up with a distinct exit so an operator or init system sees a
  persistent failure, not a busy loop.
* **Clean exits are final** — a child that exits 0 (e.g. after a
  SIGTERM-triggered drain) is done; the supervisor does not resurrect
  a daemon that was *asked* to stop.

Everything nondeterministic is injectable (``spawn``, ``sleep``,
``clock``, ``rng``), so the whole state machine is unit-testable in
milliseconds without ever forking a real daemon.
"""

from __future__ import annotations

import logging
import random
import subprocess
import threading
import typing

logger = logging.getLogger(__name__)

#: ``run()`` outcomes.
EXIT_CLEAN = "clean-exit"  # child exited 0; supervision complete
EXIT_STORM = "restart-storm"  # breaker tripped; restarting isn't helping
EXIT_STOPPED = "stopped"  # request_stop() ended supervision


class Supervisor:
    """Restart a child command until it exits cleanly or storms.

    ``spawn`` must return an object with ``wait()`` (blocking, returns
    the exit code), ``terminate()`` and ``kill()`` — the
    :class:`subprocess.Popen` surface.  The default spawns the real
    command; tests inject fakes.
    """

    def __init__(
        self,
        command: list[str],
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 8.0,
        jitter_frac: float = 0.5,
        healthy_after_s: float = 5.0,
        storm_window_s: float = 30.0,
        storm_threshold: int = 5,
        spawn: "typing.Callable[[list[str]], typing.Any] | None" = None,
        sleep: typing.Callable[[float], None] | None = None,
        clock: typing.Callable[[], float] | None = None,
        rng: random.Random | None = None,
    ):
        if storm_threshold < 1:
            raise ValueError("storm_threshold must be >= 1")
        self.command = list(command)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter_frac = jitter_frac
        self.healthy_after_s = healthy_after_s
        self.storm_window_s = storm_window_s
        self.storm_threshold = storm_threshold
        self._spawn = spawn if spawn is not None else self._spawn_subprocess
        self._sleep = sleep if sleep is not None else self._interruptible_sleep
        self._clock = clock if clock is not None else self._monotonic
        self._rng = rng if rng is not None else random.Random()
        #: Crash timestamps inside the storm window (pruned as it slides).
        self._crash_times: list[float] = []
        self._consecutive_crashes = 0
        self.restarts = 0
        self._child: typing.Any = None
        self._stop = threading.Event()

    # -- injectable defaults -------------------------------------------------

    @staticmethod
    def _spawn_subprocess(command: list[str]):
        return subprocess.Popen(command)

    @staticmethod
    def _monotonic() -> float:
        import time

        return time.monotonic()

    def _interruptible_sleep(self, seconds: float) -> None:
        # Event.wait so request_stop() cuts a pending backoff short.
        self._stop.wait(seconds)

    # -- the state machine ---------------------------------------------------

    def backoff_s(self) -> float:
        """Backoff before the next restart: jittered exponential."""
        pause = self.backoff_base_s * (2 ** self._consecutive_crashes)
        pause = min(pause, self.backoff_cap_s)
        return pause * (1.0 + self.jitter_frac * self._rng.random())

    def _record_crash(self, now: float) -> bool:
        """Note a crash; True when the storm breaker trips."""
        self._crash_times.append(now)
        cutoff = now - self.storm_window_s
        self._crash_times = [t for t in self._crash_times if t >= cutoff]
        return len(self._crash_times) > self.storm_threshold

    def run(self) -> str:
        """Supervise until clean exit, storm, or :meth:`request_stop`.

        Returns one of :data:`EXIT_CLEAN`, :data:`EXIT_STORM`,
        :data:`EXIT_STOPPED`.
        """
        while not self._stop.is_set():
            started = self._clock()
            self._child = self._spawn(self.command)
            logger.info("supervisor: started %s", self.command)
            code = self._child.wait()
            now = self._clock()
            if self._stop.is_set():
                return EXIT_STOPPED
            if code == 0:
                logger.info("supervisor: child exited cleanly")
                return EXIT_CLEAN
            # Crash path.
            if now - started >= self.healthy_after_s:
                # It ran long enough to count as healthy before dying:
                # forgive the history, start the ladder over.
                self._consecutive_crashes = 0
            if self._record_crash(now):
                logger.error(
                    "supervisor: %d crashes in %.0fs — restart storm, giving up",
                    len(self._crash_times),
                    self.storm_window_s,
                )
                return EXIT_STORM
            pause = self.backoff_s()
            self._consecutive_crashes += 1
            self.restarts += 1
            logger.warning(
                "supervisor: child exited %s; restarting in %.2fs",
                code,
                pause,
            )
            self._sleep(pause)
        return EXIT_STOPPED

    def request_stop(self) -> None:
        """Stop supervising and forward termination to the child.

        The child gets SIGTERM (so a ricd child drains gracefully); the
        run loop then observes the stop flag and returns
        :data:`EXIT_STOPPED` without restarting.
        """
        self._stop.set()
        child = self._child
        if child is not None:
            try:
                child.terminate()
            except (OSError, AttributeError):  # already gone / fake child
                pass

"""Runner-side management of ``repro serve`` child processes.

The kill -9 story needs a real process to kill: :class:`ServeProcess`
spawns ``python -m repro serve`` for a subset of a scenario's replicas
(pinned by its host map) with a ``--data-dir``, waits for its startup
banner, and can SIGKILL or SIGTERM it; :class:`ServeProcessManager`
maps replica ids to their hosting process so the
:class:`~repro.scenario.faults.KillProcess` /
:class:`~repro.scenario.faults.RestartProcess` fault pair can route
through the :class:`~repro.scenario.faults.FaultInjector`.

Blocking waits (spawn banner, SIGKILL reap) run in the event loop's
default executor when called from async code, so a mid-run restart
never stalls the runner's own traffic.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["ServeProcess", "ServeProcessManager"]

#: How long to wait for the "serving ..." banner before giving up.
READY_TIMEOUT_S = 30.0


class ServeProcess:
    """One ``python -m repro serve`` child hosting some replicas.

    The child inherits this interpreter and ``PYTHONPATH`` (plus
    ``extra_env``), prints its banner on stdout (which :meth:`start`
    waits for -- the cluster is listening once it appears), and sends
    stderr to ``log_path`` when given so post-mortems survive the
    process."""

    def __init__(self, spec_path: str, replicas: Tuple[str, ...],
                 data_dir: Optional[str] = None,
                 snapshot_path: Optional[str] = None,
                 log_path: Optional[str] = None,
                 extra_env: Optional[Dict[str, str]] = None) -> None:
        if not replicas:
            raise ConfigurationError(
                "ServeProcess needs at least one replica id")
        self.spec_path = spec_path
        self.replicas = tuple(replicas)
        self.data_dir = data_dir
        self.snapshot_path = snapshot_path
        self.log_path = log_path
        self.extra_env = dict(extra_env or {})
        self._proc: Optional[subprocess.Popen] = None
        self._log_fh = None

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def argv(self) -> List[str]:
        argv = [sys.executable, "-m", "repro", "serve",
                "--spec", self.spec_path,
                "--replicas", ",".join(self.replicas)]
        if self.data_dir:
            argv += ["--data-dir", self.data_dir]
        if self.snapshot_path:
            argv += ["--snapshot", self.snapshot_path]
        return argv

    def start(self, timeout: float = READY_TIMEOUT_S) -> None:
        """Spawn and block until the serve banner appears (listeners
        are bound and any disk recovery has already run by then)."""
        if self.alive:
            raise ConfigurationError(
                f"serve process for {self.replicas} is already running")
        env = dict(os.environ)
        env.update(self.extra_env)
        stderr: object = None
        if self.log_path:
            self._log_fh = open(self.log_path, "ab")
            stderr = self._log_fh
        self._proc = subprocess.Popen(
            self.argv(), stdout=subprocess.PIPE, stderr=stderr,
            env=env)
        self._wait_ready(timeout)

    def _wait_ready(self, timeout: float) -> None:
        # repro: allow[wall-clock] -- real subprocess spawn deadline,
        # never on the sim path.
        deadline = time.monotonic() + timeout
        assert self._proc is not None and self._proc.stdout is not None
        while True:
            # repro: allow[wall-clock] -- same spawn deadline.
            if time.monotonic() > deadline:
                self.kill()
                raise ConfigurationError(
                    f"serve process for {self.replicas} did not print "
                    f"its banner within {timeout:.0f}s")
            line = self._proc.stdout.readline()
            if not line:
                code = self._proc.poll()
                raise ConfigurationError(
                    f"serve process for {self.replicas} exited "
                    f"(code {code}) before becoming ready")
            if line.decode("utf-8", "replace").startswith("serving "):
                return

    async def start_async(self, timeout: float = READY_TIMEOUT_S
                          ) -> None:
        """:meth:`start` off the event loop thread."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: self.start(timeout))

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL: no drain, no flush -- the point of the exercise."""
        if self._proc is None:
            return
        try:
            self._proc.kill()
        except OSError:
            pass
        self._reap()

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self._proc is None:
            return 0
        if self._proc.poll() is None:
            try:
                self._proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        try:
            code = self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self._proc.returncode
        self._close_pipes()
        return code if code is not None else -1

    def _reap(self) -> None:
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self._proc is not None and self._proc.stdout is not None:
            try:
                self._proc.stdout.close()
            except OSError:
                pass
        if self._log_fh is not None:
            try:
                self._log_fh.close()
            except OSError:
                pass
            self._log_fh = None


class ServeProcessManager:
    """replica id -> hosting :class:`ServeProcess`, for fault routing."""

    def __init__(self) -> None:
        self._procs: Dict[str, ServeProcess] = {}

    def register(self, process: ServeProcess) -> ServeProcess:
        for rid in process.replicas:
            self._procs[rid] = process
        return process

    @property
    def replicas(self) -> Tuple[str, ...]:
        """Every replica some registered process hosts."""
        return tuple(sorted(self._procs))

    def process_for(self, replica: str) -> ServeProcess:
        try:
            return self._procs[replica]
        except KeyError:
            raise ConfigurationError(
                f"no registered serve process hosts replica "
                f"{replica!r} (have {self.replicas})") from None

    def kill(self, replica: str) -> None:
        self.process_for(replica).kill()

    async def restart(self, replica: str,
                      timeout: float = READY_TIMEOUT_S) -> None:
        process = self.process_for(replica)
        if process.alive:
            raise ConfigurationError(
                f"serve process for {replica!r} is still alive; "
                f"KillProcess it before RestartProcess")
        await process.start_async(timeout)

    def terminate_all(self) -> None:
        """Teardown: SIGTERM every distinct live process."""
        for process in {id(p): p for p in self._procs.values()}.values():
            if process.alive:
                process.terminate()
            else:
                process.kill()  # reap a SIGKILLed child if needed

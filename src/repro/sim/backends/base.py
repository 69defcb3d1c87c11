"""The sweep-execution backend protocol.

A backend owns *how* one cell attempt executes — in-process, on a
supervised local worker pool, or on external workers coordinating
through a shared directory — while the backend-agnostic supervisor
loop in :mod:`repro.sim.sweep` owns *what happens around* execution:
retry budgets, exponential backoff, per-cell timeouts, and quarantine
into the :class:`~repro.sim.sweep.FailureManifest`.  That split is the
interface contract: a dead remote worker surfaces as the same
``"lost"`` outcome as a SIGKILLed local one, and flows through the
same retry/backoff/quarantine accounting.

The conversation is deliberately small:

* :meth:`SweepBackend.open` — bring up execution resources for a
  sweep of ``cells`` missing cells.
* :meth:`SweepBackend.dispatch` — start one :class:`Attempt`;
  return ``False`` if the backend could not take it right now (the
  supervisor re-queues the cell without consuming the attempt).
* :meth:`SweepBackend.poll` — collect finished :class:`Outcome`\\ s,
  blocking up to ``timeout`` seconds (``None`` blocks until at least
  one outcome arrives).
* :meth:`SweepBackend.cancel` — give up on an in-flight attempt
  (timeout enforcement); best effort.
* :meth:`SweepBackend.close` — tear down resources.

Backends are selected by name through :class:`BackendSpec`, the one
place the ``auto`` rule (serial for ``jobs == 1`` or single-cell
sweeps, pool otherwise) lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

#: Names accepted by ``BackendSpec`` / ``--backend``.
BACKEND_NAMES = ("auto", "serial", "pool", "fileq")


@dataclass(frozen=True)
class Attempt:
    """One dispatch of one unique cell."""

    key: str        # cache key / canonical identity
    data: dict      # config.to_dict() — process/host portable
    label: str      # human-readable cell_label()
    attempt: int    # 1-based attempt counter


@dataclass
class Outcome:
    """What became of one dispatched attempt.

    ``status`` is one of:

    * ``"ok"`` — ``result`` holds the :class:`RunResult`.
    * ``"error"`` — the cell raised; ``error`` holds the traceback.
    * ``"lost"`` — the executor vanished mid-attempt (SIGKILL, OOM,
      stale heartbeat); counted as a worker death by the supervisor.
    """

    key: str
    attempt: int
    status: str
    result: Optional[object] = None
    error: str = ""


class SweepBackend:
    """Protocol base class; see the module docstring for the contract.

    ``supports_timeout`` tells the supervisor whether per-cell
    deadlines can be enforced (the serial backend cannot preempt an
    in-process cell).  ``capacity()`` bounds concurrently in-flight
    attempts; ``None`` means unbounded (the fileq backend queues
    everything and lets workers pull).
    """

    name = "base"
    supports_timeout = False

    def open(self, run_fn, plan_text: Optional[str],
             cells: int) -> None:
        raise NotImplementedError

    def capacity(self) -> Optional[int]:
        return 1

    def dispatch(self, attempt: Attempt) -> bool:
        raise NotImplementedError

    def poll(self, timeout: Optional[float]) -> List[Outcome]:
        raise NotImplementedError

    def cancel(self, key: str, attempt: int) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class BackendSpec:
    """Declarative backend selection — *which* backend, with what
    resources — resolved against a concrete sweep at execution time
    (the ``auto`` rule needs the missing-cell count and timeout).

    ``jobs`` is worker processes for ``pool``, *local* worker
    processes for ``fileq`` (``0`` means external ``repro worker``
    processes only), and ignored by ``serial``.
    """

    name: str = "auto"
    jobs: int = 1
    queue_dir: Optional[Union[str, Path]] = None
    heartbeat_interval: float = 1.0
    stale_after: float = 5.0
    poll_interval: float = 0.05

    def resolve(self, missing: int,
                cell_timeout: Optional[float]) -> SweepBackend:
        """Instantiate the backend for a sweep with ``missing`` cells."""
        name = self.name
        if name == "auto":
            use_pool = self.jobs > 1 and (
                missing > 1 or cell_timeout is not None)
            name = "pool" if use_pool else "serial"
        if name == "serial":
            from repro.sim.backends.serial import SerialBackend
            return SerialBackend()
        if name == "pool":
            from repro.sim.backends.pool import PoolBackend
            return PoolBackend(jobs=max(1, self.jobs))
        if name == "fileq":
            if self.queue_dir is None:
                raise ValueError(
                    "fileq backend needs a queue_dir (the shared "
                    "directory workers coordinate through)")
            from repro.sim.backends.fileq import FileQueueBackend
            return FileQueueBackend(
                self.queue_dir, workers=max(0, self.jobs),
                heartbeat_interval=self.heartbeat_interval,
                stale_after=self.stale_after,
                poll_interval=self.poll_interval)
        raise ValueError(
            f"unknown sweep backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}")

"""Deterministic fault injection for sweep fault-tolerance testing.

The supervision machinery in :mod:`repro.sim.sweep` (per-cell outcome
capture, timeouts, worker respawn, quarantine) and the integrity layer
in :mod:`repro.analysis.cache` (checksums, corrupt-entry quarantine)
only earn trust if every recovery path can be exercised on demand.  A
:class:`FaultPlan` is a declarative list of faults to inject — raise
inside a cell, sleep past the supervisor's timeout, SIGKILL the worker
mid-cell, corrupt a cache entry right after it is written — matched
against cells by a substring of their human-readable label
(:func:`cell_label`) and, optionally, by attempt number.  Tests and the
CI chaos job use it to script scenarios like "cell X fails on attempt 1
and recovers on attempt 2" with full determinism.

Plans travel as text — the ``REPRO_FAULT_PLAN`` environment variable or
``SweepPolicy(fault_plan=...)`` — with one ``;``-separated clause per
fault::

    fail:bfs/ndpage/:*         raise InjectedFault on every attempt
    fail:bfs/ndpage/:1,2       ... on attempts 1 and 2 only
    hang:xs/radix/:1:30        sleep 30 s on attempt 1
    kill:rnd/radix/:1          SIGKILL the worker on attempt 1
    corrupt:bfs/radix/         corrupt the cache entry once, at store
    ioerr:cache/:1             EIO on the first matching cache write
    enospc:queue/:*            ENOSPC on every matching queue write
    stall:events/:1:0.2        delay the first matching sink write

``fail``/``hang``/``kill`` fire in the process about to simulate the
cell (:func:`apply_cell_faults`, called by the sweep worker entry
point and the serial path); ``corrupt`` fires in whichever process
stores the entry (:func:`maybe_corrupt_entry`, called by
``ResultCache.store``) and at most once per (clause, cell) per process
so a repaired entry stays repaired.

The I/O actions (``ioerr``/``enospc``/``stall``) fire at *write
sites* instead of cells.  There is one writer per kind of file, both
under :func:`guarded_io` (the bounded-backoff retry contract):
:func:`atomic_write` replaces whole files (cache entries, queue
items) and :class:`~repro.obs.events.JsonlSink` appends event lines
(``--events-out`` logs and the sweep journal).  Each write names a
``site/detail`` target — ``cache/<cell label>``, ``queue/<item
name>`` or ``events/<event type>``.  The clause's attempt list
selects the n-th matching write at that target (per process), so
``enospc:cache/:1`` is a transient fault a retry absorbs while
``enospc:cache/:*`` is a persistent one the caller must degrade on.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Set, Tuple, Union

#: Environment variable holding the active plan text ('' / unset: none).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Recognised fault actions.
ACTIONS = ("fail", "hang", "kill", "corrupt", "ioerr", "enospc",
           "stall")

#: The subset injected at filesystem-write sites (see
#: :func:`maybe_io_fault`).
IO_ACTIONS = ("ioerr", "enospc", "stall")


class InjectedFault(RuntimeError):
    """Raised by a ``fail`` clause; recognisable in failure manifests."""


def cell_label(config) -> str:
    """Human-readable identity of a sweep cell, the match target.

    ``workload/mechanism/system/<cores>c/s<seed>`` — stable across
    processes, unique enough for fault matching (substring semantics:
    a clause matching ``bfs/ndpage/`` hits exactly the bfs+ndpage
    cells of a grid, whatever their position).
    """
    return (f"{config.workload}/{config.mechanism}/{config.system}/"
            f"{config.num_cores}c/s{config.seed}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault clause: what to do, where, and when."""

    action: str
    match: str                                  # substring of the label
    attempts: Optional[Tuple[int, ...]] = None  # None: every attempt
    seconds: float = 60.0                       # hang duration

    def applies(self, label: str,
                attempt: Optional[int] = None) -> bool:
        if self.match not in label:
            return False
        if self.attempts is None or attempt is None:
            return True
        return attempt in self.attempts

    def to_clause(self) -> str:
        parts = [self.action, self.match,
                 "*" if self.attempts is None
                 else ",".join(str(a) for a in self.attempts)]
        if self.action in ("hang", "stall"):
            parts.append(str(self.seconds))
        return ":".join(parts)


class FaultPlan:
    """An ordered set of :class:`FaultSpec` clauses.

    Falsy when empty, round-trips through :meth:`to_text` /
    :meth:`parse` (how the supervisor ships it to worker processes).
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) < 2 or parts[0] not in ACTIONS:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected "
                    f"action:match[:attempts[:seconds]] with action "
                    f"one of {ACTIONS}")
            attempts = None
            if len(parts) > 2 and parts[2] not in ("", "*"):
                attempts = tuple(int(p) for p in parts[2].split(","))
            # A `hang` must outlast a cell timeout; a `stall` only
            # needs to be observable, so its default stays small.
            default_seconds = 0.05 if parts[0] == "stall" else 60.0
            seconds = (float(parts[3]) if len(parts) > 3
                       else default_seconds)
            specs.append(FaultSpec(parts[0], parts[1], attempts,
                                   seconds))
        return cls(specs)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        text = (environ if environ is not None
                else os.environ).get(FAULT_PLAN_ENV, "").strip()
        return cls.parse(text) if text else None

    def to_text(self) -> str:
        return ";".join(spec.to_clause() for spec in self.specs)

    def find(self, actions: Union[str, Sequence[str]], label: str,
             attempt: Optional[int] = None) -> Optional[FaultSpec]:
        """First clause in ``actions`` applying to (label, attempt)."""
        if isinstance(actions, str):
            actions = (actions,)
        for spec in self.specs:
            if spec.action in actions and spec.applies(label, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_text()!r})"


def apply_cell_faults(plan: FaultPlan, label: str,
                      attempt: int) -> None:
    """Fire any ``fail``/``hang``/``kill`` clause for this attempt.

    Called by the worker entry point (and the serial path) just before
    simulating a cell — the seam every recovery path is driven
    through.  ``fail`` raises :class:`InjectedFault`, ``hang`` sleeps
    (long enough to trip the supervisor's cell timeout), ``kill``
    SIGKILLs the calling process, exactly like the OOM killer would.
    """
    spec = plan.find(("fail", "hang", "kill"), label, attempt)
    if spec is None:
        return
    if spec.action == "fail":
        raise InjectedFault(
            f"injected failure for {label} (attempt {attempt})")
    if spec.action == "hang":
        time.sleep(spec.seconds)
        return
    os.kill(os.getpid(), signal.SIGKILL)


def corrupt_entry(path) -> None:
    """Perturb a cache entry's payload without touching its checksum.

    Prefers the adversarial case: a *well-formed* JSON entry whose
    result payload changed under it (bit flip, partial overwrite) —
    exactly what a parse-only loader would serve silently.  Falls back
    to truncation when the entry isn't parseable JSON.
    """
    path = Path(path)
    text = path.read_text()
    try:
        entry = json.loads(text)
        result = entry.get("result")
        if (isinstance(result, dict)
                and isinstance(result.get("cycles"), (int, float))):
            result["cycles"] = result["cycles"] + 1.0
            path.write_text(json.dumps(entry) + "\n")
            return
    except json.JSONDecodeError:
        pass
    path.write_text(text[:max(1, len(text) // 2)])


#: (action, match, label) triples whose corrupt clause already fired in
#: this process — corruption is one-shot so a repaired entry survives.
_FIRED: Set[Tuple[str, str, str]] = set()


def maybe_corrupt_entry(path, label: str,
                        plan: Optional[FaultPlan] = None) -> bool:
    """Corrupt ``path`` if an active ``corrupt`` clause matches.

    ``plan`` defaults to the environment plan; returns whether the
    entry was corrupted.  Hooked into ``ResultCache.store``.
    """
    if plan is None:
        plan = FaultPlan.from_env()
    if not plan:
        return False
    spec = plan.find("corrupt", label)
    if spec is None:
        return False
    token = (spec.action, spec.match, label)
    if token in _FIRED:
        return False
    _FIRED.add(token)
    corrupt_entry(path)
    return True


# -- I/O fault injection ------------------------------------------------------

#: Per-(clause, target) count of write opportunities seen in this
#: process; an I/O clause's attempt list indexes into this sequence.
_IO_COUNTS: Dict[Tuple[str, str, str], int] = {}


def maybe_io_fault(site: str, detail: str = "",
                   plan: Optional[FaultPlan] = None) -> None:
    """Fire any ``ioerr``/``enospc``/``stall`` clause for this write.

    ``site`` names the writer class (``"cache"``, ``"queue"``,
    ``"events"``); ``detail`` its per-write identity
    (cell label, item name, event type).  Clauses match the combined
    ``site/detail`` target by substring, and their attempt list picks
    the n-th matching write at that target — so transient
    (``:1``-style) and persistent (``:*``) faults are both
    expressible.  ``plan`` defaults to the environment plan.
    """
    if plan is None:
        plan = FaultPlan.from_env()
    if not plan:
        return
    target = f"{site}/{detail}"
    spec = plan.find(IO_ACTIONS, target)
    if spec is None:
        return
    token = (spec.action, spec.match, target)
    count = _IO_COUNTS.get(token, 0) + 1
    _IO_COUNTS[token] = count
    if not spec.applies(target, count):
        return
    if spec.action == "stall":
        time.sleep(spec.seconds)
        return
    code = errno.ENOSPC if spec.action == "enospc" else errno.EIO
    raise OSError(code, f"injected {spec.action} at {target} "
                        f"(write {count})")


def guarded_io(fn: Callable[[], object], site: str, detail: str = "",
               plan: Optional[FaultPlan] = None, retries: int = 2,
               backoff: float = 0.02,
               sleep: Callable[[float], None] = time.sleep):
    """Run the I/O action ``fn`` under injection and bounded retry.

    Before each try, any matching I/O clause fires
    (:func:`maybe_io_fault`); an ``OSError`` — injected or real — is
    retried up to ``retries`` times with exponential backoff, and the
    final failure propagates for the caller to degrade on.  This is
    the shared hardening contract of every writer (:func:`atomic_write`
    and the event sink): transient faults are absorbed here,
    persistent ones become a hole instead of a crash at the call site.
    """
    for attempt in range(retries + 1):
        try:
            maybe_io_fault(site, detail, plan)
            return fn()
        except OSError:
            if attempt >= retries:
                raise
            sleep(backoff * (2 ** attempt))


def atomic_write(path: Union[str, Path], text: str, site: str,
                 detail: str = "",
                 plan: Optional[FaultPlan] = None) -> None:
    """Replace ``path`` with ``text`` atomically, under :func:`guarded_io`.

    The text goes to ``<name>.tmp.<pid>`` beside ``path`` and is
    ``os.replace``-d into place, so readers see the old file or the
    new one, never a torn one.  The tmp file is unlinked on any raise:
    a faulting writer strews no orphans for the cache's or the
    queue's tmp scans to find, and never amplifies ENOSPC.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")

    def write() -> None:
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    guarded_io(write, site, detail, plan)


def reset_fired() -> None:
    """Forget which one-shot clauses fired and the per-site write
    counts (test isolation)."""
    _FIRED.clear()
    _IO_COUNTS.clear()

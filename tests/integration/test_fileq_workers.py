"""The multi-host acceptance path: external ``repro worker`` processes.

These tests spawn real ``python -m repro worker`` subprocesses against
a shared queue directory — the deployment the fileq backend exists for
— and pin the PR's acceptance criteria: a fig12-shaped grid driven by
two external workers is bit-identical to the serial loop, and a worker
SIGKILLed mid-cell loses nothing (its claim is reclaimed, the cell
retried elsewhere, zero quarantined cells).
"""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.core.mechanisms import PAPER_MECHANISMS
from repro.service import SweepPolicy, SweepService
from repro.sim.backends.fileq import (
    QueueLayout,
    _atomic_write,
    item_name,
    repair_queue,
)
from repro.sim.faults import cell_label
from repro.sim.sweep import expand_grid

# The fig12 axes (1-core speedups over Radix: every workload x every
# paper mechanism) at test scale.
FIG12 = dict(workloads=("bfs", "xs", "rnd"),
             mechanisms=PAPER_MECHANISMS, core_counts=(1,),
             refs_per_core=300, scale=1 / 64, seed=42)
#: Tight liveness intervals so dead-worker detection runs in test time.
FAST_Q = dict(heartbeat_interval=0.05, stale_after=0.4)


def fields(result) -> dict:
    return dataclasses.asdict(result)


def worker_env(extra_env=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1])]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    env.update(extra_env or {})
    return env


def spawn_worker(queue: Path, extra_env=None,
                 max_idle: float = 30) -> subprocess.Popen:
    # Workers judge staleness far more patiently than the supervisor
    # (30 s vs 0.4 s), so dead-worker recovery deterministically goes
    # through the supervisor's reclaim — the path these tests pin.
    # Worker-side stealing has its own unit tests.
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--queue", str(queue), "--poll-interval", "0.02",
         "--heartbeat-interval", "0.05", "--stale-after", "30",
         "--max-idle", str(max_idle)],
        env=worker_env(extra_env), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def terminate(workers) -> None:
    for proc in workers:
        if proc.poll() is None:
            proc.terminate()
    for proc in workers:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


class TestExternalWorkers:
    def test_two_external_workers_bit_identical_to_serial(
            self, tmp_path):
        configs = expand_grid(**FIG12)
        reference = SweepService(backend="serial").run_grid(configs).results

        queue = tmp_path / "queue"
        workers = [spawn_worker(queue) for _ in range(2)]
        try:
            service = SweepService(backend="fileq", jobs=0,
                                   queue_dir=queue, **FAST_Q)
            results = service.run_grid(configs).results
        finally:
            terminate(workers)

        assert [fields(r) for r in results] \
            == [fields(r) for r in reference]
        stats = service.last_stats
        assert stats.simulated == len(configs)
        assert not stats.manifest

    def test_sigkilled_worker_cells_are_stolen_and_completed(
            self, tmp_path):
        """One worker wedges on a cell (injected hang) and is
        SIGKILLed mid-attempt.  Its heartbeat stops, the supervisor
        reclaims the claim as lost, the surviving worker completes the
        retry — zero quarantined cells, results bit-identical."""
        configs = expand_grid(**FIG12)
        reference = SweepService(backend="serial").run_grid(configs).results

        victim_config = configs[len(configs) // 2]
        victim = cell_label(victim_config)
        queue = tmp_path / "queue"
        # Only the workers see the plan: whichever claims the victim
        # cell's first attempt sleeps far past the test's patience.
        plan = {"REPRO_FAULT_PLAN": f"hang:{victim}:1:120"}
        workers = [spawn_worker(queue, extra_env=plan)
                   for _ in range(2)]

        victim_item = item_name(victim_config.canonical_json(), 1)
        killed: dict = {}

        def kill_wedged_worker() -> None:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                for claim in queue.glob(f"claims/*/{victim_item}"):
                    worker_id = claim.parent.name
                    pid = int(worker_id.rsplit("-", 1)[1])
                    os.kill(pid, signal.SIGKILL)
                    killed["pid"] = pid
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_wedged_worker,
                                  daemon=True)
        killer.start()
        try:
            service = SweepService(
                backend="fileq", jobs=0, queue_dir=queue,
                policy=SweepPolicy(retries=2, backoff=0.01),
                **FAST_Q)
            results = service.run_grid(configs).results
        finally:
            killer.join(timeout=5)
            terminate(workers)

        assert killed, "no worker ever claimed the wedged cell"
        assert [fields(r) for r in results] \
            == [fields(r) for r in reference]
        stats = service.last_stats
        assert stats.worker_deaths >= 1
        assert stats.retries >= 1
        assert not stats.manifest           # zero quarantined cells
        assert stats.failed == 0
        # The SIGKILLed process is really gone and the survivor did
        # the rest.
        assert any(proc.poll() == -signal.SIGKILL
                   for proc in workers)


# -- resilience-layer helpers -------------------------------------------------

#: One fast cell for the single-worker drain/fencing scenarios.
ONE_CELL = dict(workloads=("rnd",), mechanisms=("radix",),
                core_counts=(1,), refs_per_core=300, scale=1 / 64,
                seed=42)


def enqueue(queue: Path, config, attempt: int = 1) -> str:
    """Pre-fill one todo item the way the supervisor's dispatch does;
    returns the item's key (its canonical config JSON)."""
    layout = QueueLayout(queue)
    layout.ensure()
    key = config.canonical_json()
    _atomic_write(layout.todo / item_name(key, attempt),
                  {"key": key, "attempt": attempt,
                   "label": cell_label(config),
                   "config": config.to_dict()})
    return key


def wait_for(predicate, timeout: float, interval: float = 0.01):
    """Poll ``predicate`` until it returns something truthy."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


class TestWorkerDrain:
    """SIGTERM semantics of ``repro worker``: first signal finishes
    the in-flight cell and drains; a second abandons it promptly.
    Either way the exit is clean — claim returned, heartbeat gone."""

    def test_sigterm_finishes_in_flight_cell_then_drains(
            self, tmp_path):
        config = expand_grid(**ONE_CELL)[0]
        queue = tmp_path / "queue"
        key = enqueue(queue, config)
        item = item_name(key, 1)
        # The injected hang holds the cell in flight long enough for
        # the signal to land mid-cell.
        plan = {"REPRO_FAULT_PLAN":
                f"hang:{cell_label(config)}:1:1.5"}
        worker = spawn_worker(queue, extra_env=plan)
        try:
            assert wait_for(
                lambda: list(queue.glob(f"claims/*/{item}")), 30)
            worker.send_signal(signal.SIGTERM)
            out, _ = worker.communicate(timeout=60)
        finally:
            terminate([worker])

        assert worker.returncode == 0
        assert "1 cell(s) executed (drained)" in out
        # The in-flight cell was finished and published, not dropped.
        assert (queue / "results" / item).exists()
        assert not (queue / "todo" / item).exists()
        # No ghost STALE debris: heartbeat and claim dir are gone,
        # and a repair pass over the drained queue finds nothing.
        assert not list(queue.glob("workers/*.hb"))
        assert not list((queue / "claims").iterdir())
        assert sum(repair_queue(queue).values()) == 0

    def test_second_sigterm_abandons_in_flight_cell(self, tmp_path):
        config = expand_grid(**ONE_CELL)[0]
        queue = tmp_path / "queue"
        key = enqueue(queue, config)
        item = item_name(key, 1)
        # Far past the test's patience: only an abandon gets out.
        plan = {"REPRO_FAULT_PLAN":
                f"hang:{cell_label(config)}:1:120"}
        worker = spawn_worker(queue, extra_env=plan)
        try:
            assert wait_for(
                lambda: list(queue.glob(f"claims/*/{item}")), 30)
            worker.send_signal(signal.SIGTERM)
            time.sleep(0.3)
            worker.send_signal(signal.SIGTERM)
            out, _ = worker.communicate(timeout=60)
        finally:
            terminate([worker])

        assert worker.returncode == 0
        assert "worker drained (in-flight cell abandoned)" in out
        # The abandoned claim went straight back to todo/ — no result
        # was published, no other worker has to wait out staleness.
        assert (queue / "todo" / item).exists()
        assert not (queue / "results" / item).exists()
        assert not list(queue.glob("workers/*.hb"))
        assert not list(queue.glob("claims/*/*.json"))


class TestZombieFencing:
    def test_sigstopped_zombie_never_publishes_stolen_claim(
            self, tmp_path):
        """A worker SIGSTOPped mid-cell looks dead; its claim is
        stolen.  When it wakes and finishes the cell anyway, the fence
        (claim-file re-check) makes it abandon the result instead of
        racing the thief — the acceptance scenario."""
        config = expand_grid(**ONE_CELL)[0]
        queue = tmp_path / "queue"
        key = enqueue(queue, config)
        item = item_name(key, 1)
        # A ~2 s hang gives the test a window to freeze the worker
        # mid-cell; the cell still completes afterwards.
        plan = {"REPRO_FAULT_PLAN":
                f"hang:{cell_label(config)}:1:2"}
        worker = spawn_worker(queue, extra_env=plan, max_idle=1)
        try:
            claims = wait_for(
                lambda: list(queue.glob(f"claims/*/{item}")), 30)
            assert claims
            os.kill(worker.pid, signal.SIGSTOP)
            # Steal the frozen worker's claim, as a live worker would
            # after its heartbeat went stale.
            thief = queue / "claims" / "thief"
            thief.mkdir(parents=True, exist_ok=True)
            os.replace(claims[0], thief / item)
            (queue / "workers" / "thief.hb").touch()
            os.kill(worker.pid, signal.SIGCONT)
            out, err = worker.communicate(timeout=60)
        finally:
            terminate([worker])

        assert worker.returncode == 0
        assert "was stolen; abandoning result" in err
        # The fenced-off zombie never published: the attempt's result
        # slot belongs to whoever owns the claim now.
        assert not (queue / "results" / item).exists()
        assert "0 cell(s) executed" in out
        # The thief's claim is untouched (the worker's 30 s staleness
        # patience spares the fresh thief heartbeat).
        assert (thief / item).exists()


#: Driver for the supervisor-SIGKILL scenario, run as its own process
#: group so `kill -9` takes supervisor and local workers together.
#: The victim cell fails its first two attempts and succeeds on the
#: third; the generous backoff opens a kill window after the second.
SUPERVISOR_DRIVER = """
import sys

from repro.service import SweepPolicy, SweepService
from repro.sim.faults import cell_label
from repro.sim.sweep import expand_grid

queue_dir, cache_dir = sys.argv[1], sys.argv[2]
configs = expand_grid(workloads=("bfs", "rnd"),
                      mechanisms=("radix", "ndpage"),
                      core_counts=(1,), refs_per_core=300,
                      scale=1 / 64, seed=42)
plan = "fail:" + cell_label(configs[-1]) + ":1,2"
service = SweepService(backend="fileq", jobs=2, queue_dir=queue_dir,
                       cache_dir=cache_dir,
                       heartbeat_interval=0.05, stale_after=0.4,
                       policy=SweepPolicy(retries=3, backoff=1.5,
                                          strict=False,
                                          fault_plan=plan),
                       resume="--resume" in sys.argv)
service.run_grid(configs)
stats = service.last_stats
print(f"RESULT cached={stats.cache_hits} "
      f"simulated={stats.simulated} retries={stats.retries} "
      f"failed={stats.failed}", flush=True)
"""


class TestSupervisorResume:
    def test_sigkilled_supervisor_resumes_with_attempt_counts(
            self, tmp_path):
        """SIGKILL the supervisor mid-sweep (after the victim cell
        burned two attempts), then ``--resume``: completed cells come
        from the cache, the victim's attempt count carries over from
        the journal, and it succeeds on attempt 3 without re-failing —
        the acceptance scenario."""
        from repro.analysis.cache import ResultCache
        from repro.obs.events import read_events
        from repro.sim.sweep import JOURNAL_DIR, journal_path

        script = tmp_path / "drive.py"
        script.write_text(SUPERVISOR_DRIVER)
        queue, cache_dir = tmp_path / "queue", tmp_path / "cache"

        def launch(*extra):
            return subprocess.Popen(
                [sys.executable, str(script), str(queue),
                 str(cache_dir), *extra],
                env=worker_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                start_new_session=True)

        configs = expand_grid(workloads=("bfs", "rnd"),
                              mechanisms=("radix", "ndpage"),
                              core_counts=(1,), refs_per_core=300,
                              scale=1 / 64, seed=42)
        cache = ResultCache(cache_dir)
        keys = [cache.key(config) for config in configs]
        victim_key = keys[-1]
        jpath = journal_path(cache_dir / JOURNAL_DIR, keys)

        def victim_outcomes(status_ok: bool):
            if not jpath.exists():
                return []
            wanted = "cell.completed" if status_ok else "cell.failed"
            # strict=False: skip a torn tail mid-append.
            return [event.data for event in read_events(jpath,
                                                        strict=False)
                    if event.type == wanted
                    and event.data["key"] == victim_key]

        first = launch()
        try:
            # Kill window: the victim has failed twice and sits in
            # its 3 s backoff; every healthy cell is already durable.
            assert wait_for(
                lambda: (len(victim_outcomes(False)) >= 2
                         and len(list(cache_dir.glob("*.json")))
                         >= len(configs) - 1),
                timeout=60, interval=0.01)
            os.killpg(first.pid, signal.SIGKILL)
            first.wait(timeout=30)
        finally:
            terminate([first])
        assert first.returncode == -signal.SIGKILL
        entries_at_kill = len(list(cache_dir.glob("*.json")))
        assert entries_at_kill == len(configs) - 1
        errors_at_kill = len(victim_outcomes(False))

        resumed = launch("--resume")
        try:
            out, err = resumed.communicate(timeout=120)
        finally:
            terminate([resumed])
        assert resumed.returncode == 0, err
        # No completed cell was re-simulated; only the victim ran.
        assert (f"RESULT cached={entries_at_kill} "
                f"simulated={len(configs) - entries_at_kill} "
                f"retries=1 failed=0") in out
        # The journal carried the attempt count across the kill: the
        # victim succeeded at attempt 3 and never re-failed.
        ok = victim_outcomes(True)
        assert [r["attempt"] for r in ok] == [3]
        assert len(victim_outcomes(False)) == errors_at_kill == 2

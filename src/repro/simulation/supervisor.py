"""Shard supervision: retries, timeouts, quarantine, typed failures.

:func:`supervise` replaces the fire-and-forget ``executor.map`` the
sharded city-scale driver used to fan shards out with: each shard attempt
runs in its **own disposable worker process** (or in-process when nothing
needs isolation), and the supervisor

* detects crashes (abrupt worker exit — segfault, OOM kill, chaos) and
  hangs (per-shard wall-clock timeout) without taking the run down;
* retries a failed shard with capped-exponential backoff in a *fresh*
  process — the shard's deterministic seed makes the retried execution
  byte-identical to a first-try success, so failures never leak into the
  merged telemetry;
* quarantines a shard after ``max_attempts`` failures and either fails
  fast with a typed :class:`ShardError` (shard index + per-attempt
  causes, not a raw multiprocessing traceback) or — under
  ``allow_partial`` — drops it and lets the caller account for the
  missing coverage;
* reports every completed shard through ``on_result`` the moment it
  lands, which is where checkpoint spilling hooks in.

A :class:`~repro.faults.chaos.WorkerChaos` schedule attached to the
:class:`SupervisorConfig` sabotages worker attempts deterministically,
which is how the chaos test suites and the CI smoke pin the invariant
that supervised runs with injected worker failures export the same bytes
as clean runs.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable

from repro.faults.chaos import WorkerChaos

#: Failure causes carried by :class:`ShardFailure`.
CAUSE_CRASH = "crash"  # worker process died without delivering a result
CAUSE_TIMEOUT = "timeout"  # worker exceeded the per-shard deadline
CAUSE_ERROR = "error"  # shard raised an exception (in-process or worker)

#: Poll granularity of the supervision loop (seconds).  Only affects how
#: promptly completions/timeouts are noticed, never the results.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ShardFailure:
    """One failed attempt of one shard."""

    shard_index: int
    attempt: int  # 0-based attempt number that failed
    cause: str  # CAUSE_CRASH | CAUSE_TIMEOUT | CAUSE_ERROR
    detail: str

    def describe(self) -> str:
        return (
            f"attempt {self.attempt + 1}: {self.cause}"
            + (f" ({self.detail})" if self.detail else "")
        )


class ShardError(RuntimeError):
    """A shard exhausted its retry budget (poison shard).

    Carries the shard index and the per-attempt failure history so
    callers (and the CLI) can report precisely what died and why, instead
    of surfacing a raw multiprocessing traceback.
    """

    def __init__(self, shard_index: int, failures: tuple[ShardFailure, ...]):
        self.shard_index = shard_index
        self.failures = tuple(failures)
        self.cause = failures[-1].cause if failures else CAUSE_ERROR
        history = "; ".join(f.describe() for f in failures)
        super().__init__(
            f"shard {shard_index} quarantined after "
            f"{len(failures)} failed attempt(s): {history}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/quarantine policy for one supervised run."""

    #: Executions (1 + retries) granted to each shard before quarantine.
    max_attempts: int = 3
    #: Per-shard wall-clock cap; None = no timeout (a hung worker then
    #: blocks its slot forever, exactly like the unsupervised pool did).
    timeout_seconds: float | None = None
    #: Capped-exponential backoff between retries of one shard:
    #: ``min(cap, base * 2**(retry - 1))`` seconds.
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    #: Quarantined shards: fail fast (False) or degrade to a partial
    #: merge with explicit coverage accounting (True).
    allow_partial: bool = False
    #: Deterministic worker sabotage (tests/CI); None = no chaos.
    chaos: WorkerChaos | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_cap_seconds < 0:
            raise ValueError("backoff_cap_seconds must be >= 0")

    @property
    def needs_processes(self) -> bool:
        """Must shard attempts run in disposable worker processes?

        Chaos kills a whole process and timeouts need something the
        supervisor can terminate, so either forces process isolation even
        for a single worker.
        """
        if self.timeout_seconds is not None:
            return True
        return self.chaos is not None and not self.chaos.is_noop


def retry_delay(retry: int, base: float, cap: float) -> float:
    """Capped-exponential delay before retry number ``retry`` (1-based)."""
    if retry < 1:
        raise ValueError("retry must be >= 1")
    return min(cap, base * (2.0 ** (retry - 1)))


@dataclass
class SupervisionReport:
    """What happened around the results: retries and quarantines."""

    failures: dict[int, tuple[ShardFailure, ...]] = field(default_factory=dict)
    quarantined: tuple[int, ...] = ()
    retries: int = 0


def _process_entry(conn, runner, job, attempt, chaos) -> None:
    """Worker-process main: (maybe) act out chaos, run the shard, ship
    the result back over the pipe.  Anything abnormal — an os._exit, a
    real crash, an exception — is observed by the parent as pipe EOF or
    process death; exceptions are reported in-band so the parent can
    distinguish a shard *error* from a worker *crash*."""
    if chaos is not None:
        chaos.inject(job.index, attempt)
    try:
        result = runner(job)
    except Exception as exc:  # noqa: BLE001 - reported to the supervisor
        payload = ("error", f"{type(exc).__name__}: {exc}")
    else:
        payload = ("ok", result)
    conn.send(payload)
    conn.close()


def _start_attempt(runner, job, attempt: int, chaos) -> LocalAttempt:
    """Start one shard attempt in a fresh worker process.

    The process runs :func:`_process_entry` (forked where the platform
    allows, spawned otherwise) and reports back over a one-way pipe; the
    returned :class:`LocalAttempt` is the supervisor's only view of it.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_process_entry, args=(sender, runner, job, attempt, chaos)
    )
    process.start()
    sender.close()
    return LocalAttempt(process, receiver)


class LocalAttempt:
    """Handle for one in-flight worker process.

    It hides the process-and-pipe lifecycle from the supervision loop,
    which only waits on :attr:`waitable`, then calls :meth:`receive` and
    :meth:`finish`, or :meth:`kill` on a timeout or abort.
    """

    def __init__(self, process, receiver):
        self._process = process
        self._receiver = receiver

    @property
    def waitable(self):
        """Object accepted by :func:`multiprocessing.connection.wait`."""
        return self._receiver

    def receive(self):
        """The worker's ``(status, payload)``; raises ``EOFError`` /
        ``OSError`` when the worker died before delivering one."""
        return self._receiver.recv()

    def finish(self) -> None:
        """Reap a worker that delivered (or visibly died)."""
        self._process.join()
        self._receiver.close()

    def kill(self) -> None:
        """Tear down a worker that must not deliver (timeout, abort)."""
        self._process.terminate()
        self._process.join()
        self._receiver.close()

    def crash_detail(self) -> str:
        return (
            f"worker exited with code {self._process.exitcode} "
            "before delivering a result"
        )


@dataclass
class _Active:
    """One in-flight worker attempt."""

    job: Any
    attempt: int
    handle: LocalAttempt
    deadline: float | None


class _Tracker:
    """Shared retry/quarantine bookkeeping for both execution modes."""

    def __init__(self, config: SupervisorConfig):
        self.config = config
        self.failures: dict[int, list[ShardFailure]] = {}
        self.quarantined: list[int] = []
        self.retries = 0

    def record_failure(
        self, index: int, attempt: int, cause: str, detail: str
    ) -> float | None:
        """Register one failed attempt.

        Returns the backoff delay (seconds) before the next attempt, or
        None when the shard is now quarantined.  Raises
        :class:`ShardError` on quarantine unless partial merges are
        allowed.
        """
        history = self.failures.setdefault(index, [])
        history.append(ShardFailure(index, attempt, cause, detail))
        if len(history) >= self.config.max_attempts:
            self.quarantined.append(index)
            if not self.config.allow_partial:
                raise ShardError(index, tuple(history))
            return None
        self.retries += 1
        return retry_delay(
            len(history),
            self.config.backoff_base_seconds,
            self.config.backoff_cap_seconds,
        )

    def report(self) -> SupervisionReport:
        return SupervisionReport(
            failures={
                index: tuple(history)
                for index, history in sorted(self.failures.items())
            },
            quarantined=tuple(sorted(self.quarantined)),
            retries=self.retries,
        )


def _supervise_inprocess(
    jobs, runner, config: SupervisorConfig, deliver
) -> _Tracker:
    """Serial fallback when nothing needs process isolation.

    Retry/quarantine semantics are identical to the process mode — a
    retried shard re-runs the same deterministic job, so the two modes
    produce byte-identical results (pinned by the equivalence suites).
    """
    tracker = _Tracker(config)
    for job in jobs:
        attempt = 0
        while True:
            try:
                result = runner(job)
            except Exception as exc:  # noqa: BLE001 - typed + retried
                delay = tracker.record_failure(
                    job.index, attempt, CAUSE_ERROR,
                    f"{type(exc).__name__}: {exc}",
                )
                if delay is None:
                    break  # quarantined under allow_partial
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                deliver(job.index, result)
                break
    return tracker


def _supervise_processes(
    jobs, runner, config: SupervisorConfig, workers: int, deliver
) -> _Tracker:
    """Run shard attempts in worker processes, at most ``workers`` at once.

    Which process runs which shard never affects the results — shards
    are deterministic and the merge is order-independent.
    """
    tracker = _Tracker(config)
    # (ready_at, shard index, attempt, job): retries re-enter with a
    # backoff timestamp; launch order prefers earliest-ready then lowest
    # shard index.
    pending: list[tuple[float, int, int, Any]] = [
        (0.0, job.index, 0, job) for job in jobs
    ]
    active: dict[Any, _Active] = {}

    def launch(job, attempt) -> None:
        handle = _start_attempt(runner, job, attempt, config.chaos)
        deadline = (
            time.monotonic() + config.timeout_seconds
            if config.timeout_seconds is not None
            else None
        )
        active[handle.waitable] = _Active(job, attempt, handle, deadline)

    def fail(entry: _Active, cause: str, detail: str) -> None:
        delay = tracker.record_failure(
            entry.job.index, entry.attempt, cause, detail
        )
        if delay is not None:
            pending.append(
                (
                    time.monotonic() + delay,
                    entry.job.index,
                    entry.attempt + 1,
                    entry.job,
                )
            )

    try:
        while pending or active:
            now = time.monotonic()
            pending.sort(key=lambda entry: (entry[0], entry[1]))
            while pending and len(active) < workers and pending[0][0] <= now:
                _, _, attempt, job = pending.pop(0)
                launch(job, attempt)
            if not active:
                # Everything runnable is backing off; sleep to the
                # earliest retry timestamp.
                time.sleep(max(0.0, min(pending[0][0] - now, _POLL_SECONDS)))
                continue
            ready = mp_connection.wait(list(active), timeout=_POLL_SECONDS)
            for waitable in ready:
                entry = active.pop(waitable)
                try:
                    status, payload = entry.handle.receive()
                except (EOFError, OSError):
                    # Abrupt worker death: chaos kill, OOM, segfault.
                    # Reap first so the crash detail can see the exit
                    # code.
                    entry.handle.finish()
                    fail(entry, CAUSE_CRASH, entry.handle.crash_detail())
                    continue
                entry.handle.finish()
                if status == "ok":
                    deliver(entry.job.index, payload)
                else:
                    fail(entry, CAUSE_ERROR, payload)
            now = time.monotonic()
            for waitable, entry in list(active.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    active.pop(waitable)
                    entry.handle.kill()
                    fail(
                        entry, CAUSE_TIMEOUT,
                        f"no result within {config.timeout_seconds:g}s; "
                        "worker terminated",
                    )
    finally:
        # Fail-fast (ShardError) or an interrupt: reap every in-flight
        # worker so nothing leaks past the supervisor.
        for entry in active.values():
            entry.handle.kill()
    return tracker


def supervise(
    jobs,
    runner: Callable[[Any], Any],
    *,
    workers: int = 1,
    config: SupervisorConfig | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    keep_results: bool = True,
) -> tuple[dict[int, Any], SupervisionReport]:
    """Run every job under supervision; returns (results, report).

    ``jobs`` must expose an ``index`` attribute (the shard index);
    ``runner(job)`` produces the shard result.  ``on_result`` fires in
    the supervisor process as each shard completes (checkpoint spilling);
    with ``keep_results=False`` delivered results are dropped afterwards
    — ``results[index]`` is then ``None`` — so huge runs never hold every
    shard's telemetry in memory at once.

    Raises :class:`ShardError` the moment any shard exhausts its attempts
    (unless ``config.allow_partial``); already-completed shards will have
    been delivered through ``on_result`` first.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    config = config or SupervisorConfig()
    jobs = sorted(jobs, key=lambda job: job.index)
    results: dict[int, Any] = {}

    def deliver(index: int, result: Any) -> None:
        if on_result is not None:
            on_result(index, result)
        results[index] = result if keep_results else None

    if workers == 1 and not config.needs_processes:
        tracker = _supervise_inprocess(jobs, runner, config, deliver)
    else:
        tracker = _supervise_processes(jobs, runner, config, workers, deliver)
    return results, tracker.report()

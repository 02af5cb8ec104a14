"""Parallel sweep execution with deterministic seed streams.

Every ``run_*`` function in :mod:`repro.experiments.runner` decomposes its
sweep into independent :class:`SweepTask` records and hands them to
:func:`run_tasks`.  Three properties make the decomposition safe:

* **Deterministic seed streams.**  Each task's RNG seed comes from
  :func:`derive_seed`, a ``spawn_key``-style derivation that hashes
  ``(base_seed, *task_key)`` through SHA-256.  Seeds therefore depend only
  on the task's *identity* (its grid coordinates), never on execution
  order, worker count, or platform ``hash()`` randomization — so a sweep
  is bit-identical whether it runs serially, on 4 workers, or resumes
  from a warm cache.
* **Process isolation.**  Tasks run under
  :class:`concurrent.futures.ProcessPoolExecutor` (``REPRO_JOBS`` env
  knob, explicit ``jobs=`` argument wins).  The simulator is
  bit-reproducible *per process*; separate processes per task mean no
  shared mutable state can leak between sweep points.  ``jobs=1`` — the
  default — bypasses the pool entirely, and any pickling failure degrades
  gracefully to the same serial path.
* **Content-keyed memoization.**  An optional on-disk
  :class:`ResultCache` stores each task's result under a stable SHA-256
  fingerprint of the task's callable and its full keyword set (scenario
  parameters, topology arguments, seed, duration).  Changing *any* field
  of :class:`~repro.experiments.params.ScenarioParams` changes the
  fingerprint, so stale hits are impossible; corrupted cache files are
  treated as misses.

Per-task progress and wall-clock timings are recorded into the process
global :func:`repro.sim.trace.global_recorder` under the ``sweep``
category (enable with ``REPRO_TRACE_SWEEP=1``, the broader
``REPRO_TRACE`` knob, or ``global_recorder().enable("sweep")``).

Observability (:mod:`repro.obs`)
--------------------------------

Pool workers are separate processes with their *own* module-global
recorder and counter registry, so anything recorded there would
silently vanish when the worker exits.  The pool entry point therefore
snapshots both around each task and ships the deltas back inside the
task result; the parent merges them into its own
:func:`~repro.sim.trace.global_recorder` /
:func:`~repro.obs.counters.global_registry`, making a 2-worker run's
trace indistinguishable from a serial one (same events, worker PIDs in
the ``task_run`` records).  When a manifest sink is active
(``REPRO_MANIFEST_DIR`` or :func:`repro.obs.manifest.manifest_sink`),
every :func:`run_tasks` call also writes a schema-validated
``<label>.manifest.json`` recording the task grid, seeds, git SHA,
wall time, and counter snapshot.  All of it costs nothing measurable
when disabled: one env lookup and a handful of perf-counter reads per
*sweep*, not per task.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import manifest as obs_manifest
from repro.obs.counters import diff_snapshot, global_registry
from repro.obs.profile import maybe_profiler
from repro.obs.trace_io import events_from_payload, events_to_payload
from repro.phy.spatial import spatial_manifest_block
from repro.sim.trace import configure_from_env, global_recorder
from repro.util.hotpath import hotpath_enabled
from repro.util.rng import _canonical, derive_seed

#: Environment knob: worker-process count for sweep execution.
JOBS_ENV = "REPRO_JOBS"
#: Environment knob: enable the on-disk result cache ("1" to enable).
CACHE_ENV = "REPRO_CACHE"
#: Environment knob: override the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment knob: record sweep progress into the global trace recorder.
TRACE_ENV = "REPRO_TRACE_SWEEP"
#: Environment knob: per-task wall-clock limit in seconds (float).
TIMEOUT_ENV = "REPRO_TASK_TIMEOUT_S"
#: Environment knob: bounded re-attempts for failed/timed-out tasks.
RETRIES_ENV = "REPRO_TASK_RETRIES"
#: Environment knob: "raise" (default) or "record" failed tasks.
ON_ERROR_ENV = "REPRO_ON_ERROR"

#: Bump when the cache payload format (not the keyed content) changes.
CACHE_VERSION = 1

# ``derive_seed`` (and its canonical encoding) lives in
# :mod:`repro.util.rng` so the PHY layer can key per-link shadowing
# substreams with the same machinery; it is re-exported here because
# every runner, bench, and test imports it from this module.


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent unit of a sweep.

    ``fn`` must be a module-level callable (so it pickles by reference)
    and must depend only on ``kwargs`` — no closures, no globals — so the
    result is a pure function of the task record.  ``key`` is the task's
    human-readable grid identity, used for tracing and regrouping.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Tuple = ()

    def fingerprint(self) -> str:
        """Stable content hash: callable identity + full keyword set."""
        blob = _canonical((f"v{CACHE_VERSION}", self.fn, self.kwargs))
        return hashlib.sha256(blob).hexdigest()

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


class TaskTimeout(Exception):
    """A sweep task exceeded its per-task wall-clock limit.

    Raised *inside* the executing process (worker or parent) by the
    :func:`_alarm` guard, so it pickles back through the pool like any
    task exception and carries the task key for diagnostics.
    """


@contextlib.contextmanager
def _alarm(timeout_s: Optional[float]):
    """Bound a block's wall-clock time via ``SIGALRM``.

    A no-op when no limit is set, when ``SIGALRM`` is unavailable
    (Windows), or off the main thread (signal handlers can only be
    installed there) — in those cases tasks simply run unbounded, the
    pre-hardening behavior.  ``setitimer`` gives sub-second resolution
    and the handler/timer are always restored, so nesting with user
    code that uses alarms stays safe.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise TaskTimeout(f"task exceeded {timeout_s:g}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_indexed(
    task: SweepTask, timeout_s: Optional[float] = None
) -> Tuple[Any, float]:
    """Run one task, returning (result, elapsed_s).

    Records a ``sweep/task_run`` event *in the executing process* (the
    parent when serial, the worker when pooled) — the per-task half of
    the profiling hooks.
    """
    trace = _sweep_trace()
    started = time.perf_counter()
    with _alarm(timeout_s):
        result = task.execute()
    elapsed = time.perf_counter() - started
    trace.record(
        "sweep", "task_run", key=task.key, pid=os.getpid(), elapsed_s=elapsed
    )
    return result, elapsed


def _execute_shipping(
    task: SweepTask, timeout_s: Optional[float] = None
) -> Tuple[Any, float, list, Dict[str, Any]]:
    """Pool entry point: run one task and ship observability deltas.

    A worker process has its own module-global trace recorder and
    counter registry; whatever the task records there would be lost when
    the worker exits.  So: snapshot both, run, and return the deltas
    (versioned JSON-safe payloads) with the result for the parent to
    merge.  Baselines are taken per call, which also fences off events
    inherited over ``fork`` and events from earlier tasks on a reused
    worker.
    """
    recorder = _sweep_trace()
    events_base = len(recorder)
    dropped_base = recorder.dropped_events
    registry = global_registry()
    counters_base = registry.snapshot()
    result, elapsed = _execute_indexed(task, timeout_s)
    # Ring-buffer aware slice: events dropped during the task shift the
    # baseline index left.
    shift = recorder.dropped_events - dropped_base
    fresh = recorder.events()[max(0, events_base - shift):]
    return (
        result,
        elapsed,
        events_to_payload(fresh),
        diff_snapshot(counters_base, registry.snapshot()),
    )


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed on-disk memo of completed sweep tasks.

    One JSON file per task, named by the task fingerprint.  Values must
    be JSON-round-trippable (the runners return floats and lists of
    floats; JSON round-trips floats exactly).  Any unreadable, corrupt,
    or wrong-version file is a miss — a broken cache can cost recompute
    time but can never crash or corrupt a sweep.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def get(self, digest: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; every failure mode is a miss."""
        try:
            with open(self.path_for(digest), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or payload.get("key") != digest
                or "result" not in payload
            ):
                raise ValueError("malformed cache payload")
        except (OSError, ValueError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, payload["result"]

    def put(self, digest: str, value: Any) -> None:
        """Store a result atomically; swallow storage failures.

        The payload lands in a same-directory temp file, is flushed and
        fsynced, and only then renamed over the final name — a process
        killed mid-write leaves at worst an orphaned ``.tmp`` (reaped by
        :meth:`clear`), never a truncated ``.json`` that a later run
        could read as a corrupt entry.
        """
        try:
            payload = json.dumps(
                {"version": CACHE_VERSION, "key": digest, "result": value}
            )
        except (TypeError, ValueError):
            return  # non-JSON result: simply don't memoize it
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.path_for(digest))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return  # read-only/full disk: caching is best-effort

    #: ``clear()`` only reaps ``.tmp`` files at least this old (seconds).
    #: A fresh ``.tmp`` belongs to a *live* concurrent writer mid-
    #: :meth:`put` — several queue workers share one cache directory —
    #: and deleting it would make the writer's ``os.replace`` fail,
    #: silently losing that entry.  A dead writer's orphan just waits
    #: out the guard before the next ``clear()`` removes it.
    ORPHAN_AGE_S = 60.0

    def clear(self, orphan_age_s: Optional[float] = None) -> int:
        """Delete all cache entries; returns the number removed.

        Also reaps ``.tmp`` orphans left by writers that died mid-put
        (those never count toward the removed total — they were never
        entries) — but only orphans older than ``orphan_age_s``
        (default :data:`ORPHAN_AGE_S`), so a concurrent worker that is
        *currently* between ``mkstemp`` and ``os.replace`` on a shared
        cache directory never has its temp file yanked away mid-write.
        """
        if orphan_age_s is None:
            orphan_age_s = self.ORPHAN_AGE_S
        removed = 0
        now = time.time()
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            path = os.path.join(self.root, name)
            if name.endswith(".json"):
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
            elif name.endswith(".tmp"):
                try:
                    if now - os.path.getmtime(path) >= orphan_age_s:
                        os.unlink(path)
                except OSError:
                    pass
        return removed


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "sweeps")


def _env_cache() -> Optional[ResultCache]:
    if os.environ.get(CACHE_ENV, "0") == "1":
        return ResultCache()
    return None


# ----------------------------------------------------------------------
# Failure policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep treats tasks that raise, hang, or kill their worker.

    The default (no timeout, no retries, ``on_error="raise"``) is the
    pre-hardening behavior: the first failure propagates.  With
    ``on_error="record"`` a sweep becomes crash-tolerant: failed tasks
    yield ``None`` results and structured :class:`TaskFailure` records
    in the trace and run manifest, while every other task completes.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    on_error: str = "raise"


def resolve_policy(
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: Optional[str] = None,
) -> FailurePolicy:
    """Explicit arguments win; the ``REPRO_TASK_*`` env knobs back-fill."""
    if timeout_s is None:
        env = os.environ.get(TIMEOUT_ENV, "")
        try:
            timeout_s = float(env) if env else None
        except ValueError:
            timeout_s = None
    if retries is None:
        env = os.environ.get(RETRIES_ENV, "")
        try:
            retries = int(env) if env else 0
        except ValueError:
            retries = 0
    if on_error is None:
        on_error = os.environ.get(ON_ERROR_ENV, "") or "raise"
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    return FailurePolicy(
        timeout_s=timeout_s, retries=max(0, int(retries)), on_error=on_error
    )


@dataclass(frozen=True)
class TaskFailure:
    """One task that failed after exhausting its retry budget."""

    index: int
    key: Tuple
    #: "exception" (the task raised), "timeout" (wall-clock limit), or
    #: "broken_pool" (the task repeatedly killed its worker process).
    kind: str
    error: str
    attempts: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": obs_manifest.jsonable(self.key),
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "")
        try:
            jobs = int(env) if env else 1
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def _sweep_trace():
    """The global recorder, with env-requested categories enabled.

    Runs in parent and workers alike, so ``REPRO_TRACE``/
    ``REPRO_TRACE_SWEEP`` opt-ins follow the environment into pool
    processes.
    """
    recorder = configure_from_env(global_recorder())
    if os.environ.get(TRACE_ENV, "0") == "1":
        recorder.enable("sweep")
    return recorder


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    label: str = "sweep",
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: Optional[str] = None,
) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    Results are a pure function of each task record, so the output is
    bit-identical for every ``jobs`` value — including across retries: a
    re-attempted task re-derives the *same* seed from the same record,
    so a retry that succeeds is indistinguishable from a first-try
    success.  ``cache=None`` consults ``$REPRO_CACHE`` (off by default);
    a provided :class:`ResultCache` is always used.

    ``timeout_s``/``retries``/``on_error`` build a
    :class:`FailurePolicy` (env knobs ``REPRO_TASK_TIMEOUT_S``,
    ``REPRO_TASK_RETRIES``, ``REPRO_ON_ERROR`` back-fill unset
    arguments).  With ``on_error="record"``, failed tasks return
    ``None`` in the result list and are recorded as ``sweep/task_failed``
    trace events plus ``failures`` entries in the run manifest; a worker
    process dying (``BrokenProcessPool``) respawns the pool and resumes
    the unfinished tasks rather than aborting the sweep.  Failed tasks
    are never cached.
    """
    tasks = list(tasks)
    trace = _sweep_trace()
    if cache is None:
        cache = _env_cache()
    jobs = resolve_jobs(jobs)
    policy = resolve_policy(timeout_s, retries, on_error)
    profiler = maybe_profiler()
    if profiler is not None:
        profiler.start()
    sweep_started = time.perf_counter()
    trace.record(
        "sweep", "start", label=label, tasks=len(tasks), jobs=jobs,
        cached=cache is not None,
    )

    results: List[Any] = [None] * len(tasks)
    pending: List[int] = []
    digests: Dict[int, str] = {}
    for index, task in enumerate(tasks):
        if cache is not None:
            digest = task.fingerprint()
            digests[index] = digest
            hit, value = cache.get(digest)
            if hit:
                results[index] = value
                trace.record("sweep", "cache_hit", label=label, key=task.key)
                continue
        pending.append(index)
    scan_elapsed = time.perf_counter() - sweep_started
    trace.record(
        "sweep", "phase", label=label, phase="cache_scan",
        elapsed_s=scan_elapsed, pending=len(pending),
    )

    exec_started = time.perf_counter()
    completed, failures = _run_pending(tasks, pending, jobs, label, trace, policy)
    exec_elapsed = time.perf_counter() - exec_started
    trace.record(
        "sweep", "phase", label=label, phase="execute",
        elapsed_s=exec_elapsed, tasks=len(pending),
    )
    for index, (value, elapsed) in completed.items():
        results[index] = value
        if cache is not None:
            cache.put(digests[index], value)
        trace.record(
            "sweep", "task_done", label=label, key=tasks[index].key,
            elapsed_s=elapsed,
        )
    for failure in failures:
        trace.record(
            "sweep", "task_failed", label=label, key=failure.key,
            kind=failure.kind, attempts=failure.attempts, error=failure.error,
        )
    wall_s = time.perf_counter() - sweep_started
    trace.record("sweep", "done", label=label, tasks=len(tasks), elapsed_s=wall_s)
    profile_block = None
    if profiler is not None:
        profiler.stop()
        # The phase boundaries mirror the sweep/phase trace events above.
        profiler.add_phase("cache_scan", scan_elapsed)
        profiler.add_phase("execute", exec_elapsed)
        profile_block = profiler.as_block()
    manifest_dir = obs_manifest.active_manifest_dir()
    if manifest_dir:
        _write_sweep_manifest(
            manifest_dir, label=label, tasks=tasks, jobs=jobs, wall_s=wall_s,
            cache=cache, trace=trace, profile=profile_block,
            failures=[failure.as_dict() for failure in failures]
            if policy.on_error == "record"
            else None,
        )
    return results


def split_common_params(
    tasks: Sequence[SweepTask],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Common-kwargs intersection plus per-task overrides (JSON-safe).

    A sweep manifest's ``params`` field used to record
    ``tasks[0].kwargs`` wholesale, silently misreporting heterogeneous
    grids (every task after the first could disagree with it).  Instead:
    ``params`` is the intersection of keyword arguments shared — equal
    after :func:`~repro.obs.manifest.jsonable` rendering — by *every*
    task, and each task row carries only its deviations from that
    intersection.  For a homogeneous grid the intersection equals the
    old field and every override is empty.
    """
    rendered = [
        {str(k): obs_manifest.jsonable(v) for k, v in task.kwargs.items()}
        for task in tasks
    ]
    if not rendered:
        return {}, []
    common = {
        key: value
        for key, value in rendered[0].items()
        if all(key in row and row[key] == value for row in rendered[1:])
    }
    overrides = [
        {key: value for key, value in row.items() if key not in common}
        for row in rendered
    ]
    return common, overrides


def manifest_task_rows(
    tasks: Sequence[SweepTask],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Manifest task rows + common ``params`` for a task grid.

    Shared by :func:`_write_sweep_manifest` and the sweep-queue merge
    (:mod:`repro.experiments.queue`) so a merged manifest's grid
    description is bit-identical to the one a single uninterrupted
    :func:`run_tasks` call would have written.
    """
    common, overrides = split_common_params(tasks)
    rows = []
    for task, override in zip(tasks, overrides):
        try:
            fingerprint = task.fingerprint()
        except TypeError:
            fingerprint = "unfingerprintable"
        row: Dict[str, Any] = {
            "key": obs_manifest.jsonable(task.key),
            "seed": task.kwargs.get("seed"),
            "fingerprint": fingerprint,
        }
        if override:
            row["overrides"] = override
        rows.append(row)
    return rows, common


def grid_seeds(tasks: Sequence[SweepTask]) -> List[int]:
    """Sorted distinct integer seeds across a task grid."""
    return sorted(
        {
            int(task.kwargs["seed"])
            for task in tasks
            if isinstance(task.kwargs.get("seed"), int)
        }
    )


def _write_sweep_manifest(
    directory: str,
    label: str,
    tasks: Sequence[SweepTask],
    jobs: int,
    wall_s: float,
    cache: Optional[ResultCache],
    trace,
    profile: Optional[Dict[str, Any]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
) -> Optional[str]:
    """Write this sweep's run manifest; storage failures are non-fatal."""
    task_rows, params = manifest_task_rows(tasks)
    manifest = obs_manifest.build_manifest(
        label=label,
        tasks=task_rows,
        jobs=jobs,
        wall_s=wall_s,
        params=params,
        seeds=grid_seeds(tasks),
        counters=global_registry().snapshot(),
        trace_counts=trace.counts(),
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        profile=profile,
        failures=failures,
        spatial=spatial_manifest_block(),
        hotpath=hotpath_enabled(),
    )
    try:
        return obs_manifest.write_manifest(manifest, directory)
    except OSError:
        return None  # read-only/full disk: manifests are best-effort


def _run_pending(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    label: str,
    trace,
    policy: FailurePolicy,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Run the not-yet-cached tasks, parallel when possible.

    Every pending task is probed for picklability individually:
    unpicklable tasks run on the serial path while the rest still go
    through the pool (one bad task used to either abort the whole pool
    mid-batch or, when it happened to sit at ``pending[0]``, demote the
    entire sweep to serial).  If the pool still fails — a task whose
    kwargs probe fine but whose *result* will not pickle, missing fork
    support, a dead worker — the serial fallback resumes only the
    indices the pool did not finish: tasks already completed have had
    their shipped counter deltas and trace events merged into the
    parent registry, and re-running them would double-merge both.
    """
    completed: Dict[int, Tuple[Any, float]] = {}
    failures: Dict[int, TaskFailure] = {}
    if not pending:
        return completed, []
    serial_indices = list(pending)
    if jobs > 1 and len(pending) > 1:
        pooled = [index for index in pending if _picklable(tasks[index])]
        if len(pooled) > 1:
            pooled_set = set(pooled)
            serial_indices = [i for i in pending if i not in pooled_set]
            try:
                _run_parallel(tasks, pooled, jobs, policy, completed, failures)
            except (pickle.PicklingError, AttributeError, TypeError, OSError) as exc:
                # The sweep must finish either way — but resume only the
                # unfinished indices, never the already-merged ones.
                trace.record(
                    "sweep", "serial_fallback", label=label,
                    reason=f"{type(exc).__name__}: {exc}",
                )
                finished = set(completed) | set(failures)
                serial_indices = [i for i in pending if i not in finished]
    if serial_indices:
        _run_serial(tasks, serial_indices, policy, completed, failures)
    return completed, [failures[index] for index in sorted(failures)]


def _picklable(task: SweepTask) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


def _fail_or_retry(
    task: SweepTask,
    index: int,
    kind: str,
    exc: BaseException,
    attempts: Dict[int, int],
    policy: FailurePolicy,
    requeue: List[int],
    failures: Dict[int, TaskFailure],
) -> None:
    """Shared post-attempt bookkeeping for serial and pooled execution.

    The attempt has already been charged.  Budget left → requeue the
    *identical* task record (same derived seed, so a successful retry is
    bit-identical to a first-try success).  Budget exhausted →
    ``on_error="raise"`` propagates the original exception (the
    pre-hardening contract), ``"record"`` files a structured failure.
    """
    if attempts[index] <= policy.retries:
        requeue.append(index)
        return
    if policy.on_error == "raise":
        raise exc
    failures[index] = TaskFailure(
        index=index,
        key=task.key,
        kind=kind,
        error=f"{type(exc).__name__}: {exc}",
        attempts=attempts[index],
    )


def _run_serial(
    tasks: Sequence[SweepTask],
    pending: List[int],
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """In-process execution honoring the same failure policy as the pool.

    ``completed``/``failures`` may be passed in (and are mutated) so a
    serial resume after a pool fallback extends the pool's partial
    progress instead of discarding it.
    """
    completed = {} if completed is None else completed
    failures = {} if failures is None else failures
    attempts = {index: 0 for index in pending}
    queue = deque(pending)
    while queue:
        index = queue.popleft()
        attempts[index] += 1
        requeue: List[int] = []
        try:
            completed[index] = _execute_indexed(tasks[index], policy.timeout_s)
        except TaskTimeout as exc:
            _fail_or_retry(
                tasks[index], index, "timeout", exc, attempts, policy,
                requeue, failures,
            )
        except Exception as exc:
            _fail_or_retry(
                tasks[index], index, "exception", exc, attempts, policy,
                requeue, failures,
            )
        queue.extend(requeue)
    return completed, [failures[index] for index in sorted(failures)]


def _run_parallel(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Pooled execution that survives raising, hanging, and dying tasks.

    Tasks are submitted individually (not chunked ``map``) so one bad
    task fails alone.  A :class:`BrokenProcessPool` — a worker died —
    respawns the pool and resumes every unfinished task *without*
    charging their retry budgets (the victim tasks did nothing wrong).
    If the pool keeps breaking (>2 times) the remaining tasks run one
    per single-worker pool, where a break is attributable to the task
    it ran and *is* charged, bounding the total number of respawns.

    ``pickle.PicklingError`` always re-raises so :func:`_run_pending`
    can fall back to the serial path.  ``completed``/``failures`` are
    mutated in place, so when that fallback happens the caller still
    sees everything the pool finished (and merged) before the error —
    the fallback must not re-run those indices.
    """
    workers = min(jobs, len(pending))
    completed = {} if completed is None else completed
    failures = {} if failures is None else failures
    attempts = {index: 0 for index in pending}
    remaining = deque(pending)
    pool_breaks = 0
    recorder = global_recorder()
    registry = global_registry()

    def merge(index: int, outcome) -> None:
        # Merge each worker's shipped trace/counter deltas into this
        # process's globals — without this, everything recorded inside
        # the pool would die with the workers.
        value, elapsed, events_payload, counter_delta = outcome
        if events_payload:
            recorder.merge(events_from_payload(events_payload))
        if counter_delta:
            registry.merge_snapshot(counter_delta)
        completed[index] = (value, elapsed)

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while remaining and pool_breaks <= 2:
            batch = sorted(remaining)
            remaining.clear()
            futures = {}
            for index in batch:
                attempts[index] += 1
                futures[
                    pool.submit(_execute_shipping, tasks[index], policy.timeout_s)
                ] = index
            requeue: List[int] = []
            broken = False
            for future in as_completed(futures):
                index = futures[future]
                try:
                    merge(index, future.result())
                except pickle.PicklingError:
                    raise  # serial fallback handles the whole batch
                except BrokenProcessPool:
                    # The worker died under this task — maybe its own
                    # doing, maybe a sibling's.  Resume without charging.
                    attempts[index] -= 1
                    requeue.append(index)
                    broken = True
                except TaskTimeout as exc:
                    _fail_or_retry(
                        tasks[index], index, "timeout", exc, attempts,
                        policy, requeue, failures,
                    )
                except Exception as exc:
                    _fail_or_retry(
                        tasks[index], index, "exception", exc, attempts,
                        policy, requeue, failures,
                    )
            if broken:
                pool_breaks += 1
                pool.shutdown(wait=False)
                pool = ProcessPoolExecutor(max_workers=workers)
            remaining.extend(requeue)
    finally:
        pool.shutdown(wait=False)

    # Isolation mode: the pool broke repeatedly, so some task is killing
    # its worker.  One task per throwaway single-worker pool pins the
    # blame and charges it, so a crashing task cannot respawn forever.
    while remaining:
        index = remaining.popleft()
        attempts[index] += 1
        requeue: List[int] = []
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                outcome = solo.submit(
                    _execute_shipping, tasks[index], policy.timeout_s
                ).result()
            merge(index, outcome)
        except pickle.PicklingError:
            raise
        except BrokenProcessPool as exc:
            _fail_or_retry(
                tasks[index], index, "broken_pool", exc, attempts, policy,
                requeue, failures,
            )
        except TaskTimeout as exc:
            _fail_or_retry(
                tasks[index], index, "timeout", exc, attempts, policy,
                requeue, failures,
            )
        except Exception as exc:
            _fail_or_retry(
                tasks[index], index, "exception", exc, attempts, policy,
                requeue, failures,
            )
        remaining.extend(requeue)

    return completed, [failures[index] for index in sorted(failures)]

"""Sweep execution with deterministic seed streams.

Every ``run_*`` function in :mod:`repro.experiments.runner` decomposes its
sweep into independent :class:`SweepTask` records and hands them to
:func:`run_tasks`.  Three properties make the decomposition safe:

* **Deterministic seed streams.**  Each task's RNG seed comes from
  :func:`derive_seed`, a ``spawn_key``-style SHA-256 derivation over
  ``(base_seed, *task_key)``.  Seeds depend only on the task's *identity*
  (its grid coordinates), never on execution order, worker count, or
  ``hash()`` randomization — so a sweep is bit-identical whether it runs
  serially, on 4 workers, or resumes from a warm cache.
* **Process isolation.**  ``jobs > 1`` (``REPRO_JOBS``; an explicit
  ``jobs=`` wins) shards the tasks one per shard into a private temporary
  :mod:`repro.experiments.queue` and drains it with that many worker
  processes, so crash handling exists once.  ``jobs=1`` — the default —
  runs in-process, as do tasks that cannot travel to a worker.
* **Content-keyed memoization.**  An optional on-disk
  :class:`ResultCache` stores each task's result under a SHA-256
  fingerprint of the task's callable and full keyword set, so changing
  *any* :class:`~repro.experiments.params.ScenarioParams` field misses;
  corrupted cache files are misses too.

Observability (:mod:`repro.obs`)
--------------------------------

Per-task progress and timings go to
:func:`repro.sim.trace.global_recorder` under the ``sweep`` category
(``REPRO_TRACE_SWEEP=1``, the broader ``REPRO_TRACE`` knob, or
``global_recorder().enable("sweep")``).  A worker's trace events,
counter deltas and spatial record come back in its shard's fragment and
are folded into this process's in task order, so a 2-worker trace
matches a serial one (worker PIDs in the ``task_run`` records).  With a
manifest sink active (``REPRO_MANIFEST_DIR`` or
:func:`repro.obs.manifest.manifest_sink`) every :func:`run_tasks` call
writes a schema-validated ``<label>.manifest.json`` — grid, seeds, git
SHA, wall time, counters and the PHY path taken — through
:func:`sweep_manifest`, which ``queue merge`` uses too.  Disabled, all of
it costs a few env lookups and perf-counter reads per *sweep*.
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import manifest as obs_manifest
from repro.obs.counters import global_registry
from repro.obs.profile import maybe_profiler
from repro.obs.trace_io import events_from_payload
from repro.phy.spatial import (
    merge_spatial_record,
    spatial_manifest_block,
    spatial_record,
)
from repro.sim.trace import configure_from_env, global_recorder
from repro.util.atomic import atomic_write
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

# ``derive_seed`` lives in :mod:`repro.util.rng` (the PHY keys its
# substreams with it) and is re-exported for runners, benches and tests.


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
    :func:`_alarm` guard and recorded there as a ``"timeout"`` failure.
    """


@contextlib.contextmanager
def _alarm(timeout_s: Optional[float]):
    """Bound a block's wall-clock time via ``SIGALRM``.

    A no-op without a limit, without ``SIGALRM`` (Windows) or off the
    main thread, where handlers cannot be installed.  The handler and
    timer are always restored, so user code using alarms stays safe.
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
    """Run one task, returning (result, elapsed_s); records a
    ``sweep/task_run`` event in the executing process."""
    trace = _sweep_trace()
    started = time.perf_counter()
    with _alarm(timeout_s):
        result = task.execute()
    elapsed = time.perf_counter() - started
    trace.record(
        "sweep", "task_run", key=task.key, pid=os.getpid(), elapsed_s=elapsed
    )
    return result, elapsed


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
        """Store a result atomically; swallow storage failures."""
        try:
            payload = json.dumps(
                {"version": CACHE_VERSION, "key": digest, "result": value}
            )
        except (TypeError, ValueError):
            return  # non-JSON result: simply don't memoize it
        try:
            atomic_write(self.path_for(digest), payload.encode("utf-8"))
        except OSError:
            return  # read-only/full disk: caching is best-effort

    #: ``clear()`` only reaps ``.tmp`` files at least this old (seconds):
    #: a fresh one belongs to a *live* writer mid-:meth:`put` (queue
    #: workers share cache directories), whose rename must not fail.
    ORPHAN_AGE_S = 60.0

    def clear(self, orphan_age_s: Optional[float] = None) -> int:
        """Delete all cache entries; returns the number removed.

        Also reaps (uncounted) ``.tmp`` orphans of writers that died
        mid-put, once older than ``orphan_age_s`` (default
        :data:`ORPHAN_AGE_S`).
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
            try:
                if name.endswith(".json"):
                    os.unlink(path)
                    removed += 1
                elif name.endswith(".tmp"):
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

    By default the first failure propagates.  With ``on_error="record"``
    failed tasks yield ``None`` results and structured
    :class:`TaskFailure` records while every other task completes.
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
    #: "broken_pool" (the task killed its worker process more often
    #: than its retry budget allows).
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


class TaskFailed(RuntimeError):
    """A multi-worker ``on_error="raise"`` sweep hit a failed task.

    Workers always record failures; the driver raises this for the first
    one in task order.  The original exception stayed in the worker, so
    the message names the task key, the failure kind and the worker's
    ``Type: message``.  Serial sweeps re-raise the original instead.
    """


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
    """The global recorder with env-requested categories enabled (in
    parent and workers alike)."""
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
    trace events plus ``failures`` entries in the run manifest; a task
    that kills its worker process costs only itself an attempt.  With
    ``on_error="raise"`` a serial sweep re-raises the task's exception
    and a multi-worker one raises :class:`TaskFailed`.  Failed tasks are
    never cached.
    """
    tasks = list(tasks)
    trace = _sweep_trace()
    if cache is None:
        cache = _env_cache()
    jobs = resolve_jobs(jobs)
    policy = resolve_policy(timeout_s, retries, on_error)
    spatial_base = spatial_record()
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
        manifest = sweep_manifest(
            label, tasks, jobs=jobs, wall_s=wall_s, cache=cache,
            profile=profile_block, spatial_base=spatial_base,
            failures=[failure.as_dict() for failure in failures]
            if policy.on_error == "record"
            else None,
        )
        try:
            obs_manifest.write_manifest(manifest, manifest_dir)
        except OSError:
            pass  # read-only/full disk: manifests are best-effort
    return results


def split_common_params(
    tasks: Sequence[SweepTask],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Common-kwargs intersection plus per-task overrides (JSON-safe).

    ``params`` is the set of keyword arguments every task shares (equal
    after :func:`~repro.obs.manifest.jsonable` rendering); each task row
    carries only its deviations, so heterogeneous grids are reported
    faithfully.
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
    """Manifest task rows + common ``params`` for a task grid."""
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


def sweep_manifest(
    label: str,
    tasks: Sequence[SweepTask],
    jobs: int,
    wall_s: float,
    fragments: Optional[Sequence[Dict[str, Any]]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
    cache: Optional[ResultCache] = None,
    profile: Optional[Dict[str, Any]] = None,
    shards: Optional[Dict[str, Any]] = None,
    spatial_base: Optional[Dict[str, Any]] = None,
) -> obs_manifest.RunManifest:
    """A sweep's run manifest: the one builder for every executor.

    Without ``fragments`` (a :func:`run_tasks` sweep) counters, trace
    counts and hot-path state are this process's, which already hold
    every worker's fragment, and the spatial block covers the grids
    built since ``spatial_base`` (the sweep's start record).  With
    ``fragments`` (``queue merge``) those and the failure rows are
    folded from the fragments alone; ``hotpath`` is their common value,
    ``None`` when they disagree or a fragment predates the field.
    """
    rows, params = manifest_task_rows(tasks)
    if fragments is None:
        counters = global_registry().snapshot()
        trace_counts = global_recorder().counts()
        spatial: Optional[Dict[str, Any]] = spatial_manifest_block(
            [spatial_record(since=spatial_base)]
        )
        hotpath: Optional[bool] = hotpath_enabled()
    else:
        counters = obs_manifest.merge_fragment_counters(list(fragments))
        trace_counts = {}
        for fragment in fragments:
            for key, value in fragment["trace_counts"].items():
                trace_counts[key] = trace_counts.get(key, 0) + int(value)
        failures = sorted(
            (row for fragment in fragments for row in fragment["failures"]),
            key=lambda row: row.get("index", 0),
        )
        records = [fragment.get("spatial") for fragment in fragments]
        spatial = None if None in records else spatial_manifest_block(records)
        states = {fragment.get("hotpath") for fragment in fragments}
        hotpath = states.pop() if len(states) == 1 else None
    seeds = {task.kwargs.get("seed") for task in tasks}
    return obs_manifest.build_manifest(
        label=label,
        tasks=rows,
        jobs=jobs,
        wall_s=wall_s,
        params=params,
        seeds=sorted(seed for seed in seeds if isinstance(seed, int)),
        counters=counters,
        trace_counts=trace_counts,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        profile=profile,
        failures=failures,
        shards=shards,
        spatial=spatial,
        hotpath=hotpath,
    )


def _run_pending(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    label: str,
    trace,
    policy: FailurePolicy,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Run the not-yet-cached tasks, on workers when possible.

    Tasks that cannot travel to a worker (unpicklable or
    unfingerprintable) run serially, as does whatever the workers leave
    unfinished: a result that would not pickle, or everything not yet
    folded when the driver raised ``OSError`` (temp dir, process start).
    Finished tasks are never re-run — their deltas are already merged.
    """
    completed: Dict[int, Tuple[Any, float]] = {}
    failures: Dict[int, TaskFailure] = {}
    serial_indices = list(pending)
    shipped = [i for i in pending if _shippable(tasks[i])] if jobs > 1 else []
    if len(shipped) > 1:
        try:
            _run_parallel(tasks, shipped, jobs, policy, completed, failures)
        except OSError as exc:
            trace.record(
                "sweep", "serial_fallback", label=label,
                reason=f"{type(exc).__name__}: {exc}",
            )
        finished = set(completed) | set(failures)
        serial_indices = [i for i in pending if i not in finished]
    _run_serial(tasks, serial_indices, policy, completed, failures)
    return completed, [failures[index] for index in sorted(failures)]


def _shippable(task: SweepTask) -> bool:
    """Can ``task`` go into a queue shard (pickle it, fingerprint it)?"""
    try:
        pickle.dumps(task)
        task.fingerprint()
        return True
    except Exception:
        return False


def _run_serial(
    tasks: Sequence[SweepTask],
    pending: List[int],
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """In-process execution under a failure policy (serial sweeps, and
    each queue shard inside its worker).

    A failed task with budget left is re-run from the *identical* record
    (same derived seed, so a successful retry is bit-identical); once
    exhausted, ``on_error="raise"`` re-raises the original exception and
    ``"record"`` files a :class:`TaskFailure`.  ``completed``/``failures``
    may be passed in and are mutated, extending earlier progress.
    """
    completed = {} if completed is None else completed
    failures = {} if failures is None else failures
    attempts = {index: 0 for index in pending}
    queue = deque(pending)
    while queue:
        index = queue.popleft()
        attempts[index] += 1
        try:
            completed[index] = _execute_indexed(tasks[index], policy.timeout_s)
        except Exception as exc:
            if attempts[index] <= policy.retries:
                queue.append(index)
            elif policy.on_error == "raise":
                raise
            else:
                timeout = isinstance(exc, TaskTimeout)
                failures[index] = TaskFailure(
                    index=index,
                    key=tasks[index].key,
                    kind="timeout" if timeout else "exception",
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempts[index],
                )
    return completed, [failures[index] for index in sorted(failures)]


def _run_parallel(
    tasks: Sequence[SweepTask],
    pending: List[int],
    jobs: int,
    policy: FailurePolicy,
    completed: Optional[Dict[int, Tuple[Any, float]]] = None,
    failures: Optional[Dict[int, TaskFailure]] = None,
) -> Tuple[Dict[int, Tuple[Any, float]], List[TaskFailure]]:
    """Run ``pending`` on worker processes draining a private sweep queue.

    One task per shard; :func:`repro.experiments.queue.drain` handles
    worker deaths.  The fragments are folded in task order: each result
    (unpickled, so types survive), counter delta, trace event and
    spatial record joins this process's once.  A shard whose result did
    not pickle stays unfinished, deltas unmerged, for the serial path.
    Raise mode raises :class:`TaskFailed` at the first failure.
    ``completed``/``failures`` are mutated in place, so they hold every
    shard folded before an error.
    """
    from repro.experiments import queue  # only multi-worker sweeps load it

    completed = {} if completed is None else completed
    failures = {} if failures is None else failures
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as root:
        spec = queue.shard_tasks([tasks[i] for i in pending], root, chunk=1)
        try:
            queue.drain(spec, jobs, policy)
        finally:
            for shard, index in zip(spec.shards, pending):
                path = queue.fragment_path(spec, shard)
                if not os.path.exists(path):
                    continue
                fragment = obs_manifest.load_fragment(path)
                row, key = fragment["tasks"][0], tasks[index].key
                if fragment["failures"]:
                    record = fragment["failures"][0]
                    if policy.on_error == "raise":
                        raise TaskFailed(
                            f"sweep task {key!r} failed ({record['kind']}): "
                            f"{record['error']}"
                        )
                    failures[index] = TaskFailure(
                        index, key, record["kind"], record["error"],
                        record["attempts"],
                    )
                elif "result_pickle" in row:
                    completed[index] = (queue.row_result(row), row["elapsed_s"])
                else:
                    continue
                global_recorder().merge(events_from_payload(fragment.get("events", ())))
                global_registry().merge_snapshot(fragment["counters"])
                if "spatial" in fragment:
                    merge_spatial_record(fragment["spatial"])
    return completed, [failures[index] for index in sorted(failures)]

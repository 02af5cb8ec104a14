"""Executor fallback correctness: per-task probes, resume-only-unfinished.

Two historical bugs, each with a failing-before/passing-after test here:

* ``_run_pending`` probed picklability only on ``tasks[pending[0]]``.
  One unpicklable task at the head demoted the *whole* sweep to serial;
  one anywhere else reached the pool and blew it up mid-batch.  Now
  every pending task is probed and only the unpicklable ones take the
  serial path.
* The serial fallback after a pool exception re-ran *every* pending
  index, including tasks the pool had already completed — whose shipped
  counter deltas and trace events were already merged into the parent
  registry, so the re-run double-merged both.  Now the fallback resumes
  only the unfinished indices.
"""

import os

import pytest

import repro.experiments.parallel as parallel_mod
import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import (
    SweepTask,
    _run_pending,
    _run_serial,
    resolve_policy,
    run_tasks,
)
from repro.obs.counters import CounterRegistry, global_registry
from repro.sim.trace import TraceRecorder


@pytest.fixture
def fresh_globals(monkeypatch):
    monkeypatch.setattr(trace_mod, "_global_recorder", TraceRecorder())
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


class _TraceStub:
    def __init__(self):
        self.events = []

    def record(self, *args, **kwargs):
        self.events.append((args, kwargs))


def _counting_cell(x: float, tag=None) -> float:
    """Counts its executions; ``tag`` exists to smuggle in unpicklables."""
    global_registry().counter("fallback/runs").inc()
    return x * 2.0


def _boom_cell(x: float) -> float:
    """Always fails (module-level, so it passes the pickle probe)."""
    raise RuntimeError(f"x={x}")


def _append_cell(path: str, x: float) -> float:
    """Appends one line per execution — an exactly-once witness."""
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    return x


def _grid(n, unpicklable_at=()):
    return [
        SweepTask(
            fn=_counting_cell,
            kwargs={
                "x": float(i),
                "tag": (lambda: None) if i in unpicklable_at else None,
            },
            key=("fallback", i),
        )
        for i in range(n)
    ]


class TestPerTaskProbe:
    def test_unpicklable_mid_batch_runs_exactly_once(self, fresh_globals):
        """End-to-end: a lambda-carrying task at index 2 of 5, jobs=2.

        Before the fix this task reached the pool (only ``pending[0]``
        was probed) and killed the batch; now it runs serially alongside
        the pooled rest, every task exactly once.
        """
        results = run_tasks(_grid(5, unpicklable_at={2}), jobs=2)
        assert results == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert global_registry().snapshot()["fallback/runs"] == 5

    def test_unpicklable_at_head_does_not_demote_the_pool(
        self, fresh_globals, monkeypatch
    ):
        """Old behavior: probe ``pending[0]``, unpicklable → all serial.

        Instrument ``_run_parallel`` to observe exactly which indices
        are pooled: with the bad task at index 0, the rest must still
        be handed to the pool.
        """
        pooled_batches = []

        def observing_parallel(tasks, pending, jobs, policy,
                               completed=None, failures=None):
            pooled_batches.append(list(pending))
            return _run_serial(tasks, pending, policy, completed, failures)

        monkeypatch.setattr(parallel_mod, "_run_parallel", observing_parallel)
        tasks = _grid(4, unpicklable_at={0})
        trace = _TraceStub()
        completed, failures = _run_pending(
            tasks, [0, 1, 2, 3], jobs=2, label="probe", trace=trace,
            policy=resolve_policy(on_error="record"),
        )
        assert pooled_batches == [[1, 2, 3]]  # index 0 stayed serial
        assert failures == []
        assert {i: v for i, (v, _) in completed.items()} == {
            0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0,
        }
        assert global_registry().snapshot()["fallback/runs"] == 4

    def test_all_unpicklable_skips_the_pool_entirely(
        self, fresh_globals, monkeypatch
    ):
        def exploding_parallel(*args, **kwargs):
            raise AssertionError("pool must not be used")

        monkeypatch.setattr(parallel_mod, "_run_parallel", exploding_parallel)
        tasks = _grid(3, unpicklable_at={0, 1, 2})
        completed, failures = _run_pending(
            tasks, [0, 1, 2], jobs=4, label="allserial", trace=_TraceStub(),
            policy=resolve_policy(on_error="record"),
        )
        assert failures == []
        assert len(completed) == 3


class TestFallbackResumesOnlyUnfinished:
    def test_pool_partial_progress_is_not_rerun(self, tmp_path, monkeypatch):
        """The double-merge regression, made deterministic.

        A fake driver completes task 0 for real (file-append side effect,
        mimicking a worker whose result and deltas already merged) and
        then dies with ``OSError`` — the old fallback re-ran *all*
        pending indices, executing task 0 twice and double-merging its
        already-shipped deltas.  The witness file must show each task
        exactly once.
        """
        witness = str(tmp_path / "witness.log")
        tasks = [
            SweepTask(
                fn=_append_cell,
                kwargs={"path": witness, "x": float(i)},
                key=("once", i),
            )
            for i in range(4)
        ]

        def dying_parallel(tasks_, pending, jobs, policy,
                           completed=None, failures=None):
            _run_serial(tasks_, [pending[0]], policy, completed, failures)
            raise OSError("cannot start a worker process")

        monkeypatch.setattr(parallel_mod, "_run_parallel", dying_parallel)
        trace = _TraceStub()
        completed, failures = _run_pending(
            tasks, [0, 1, 2, 3], jobs=2, label="resume", trace=trace,
            policy=resolve_policy(on_error="record"),
        )
        assert failures == []
        assert sorted(completed) == [0, 1, 2, 3]
        with open(witness) as handle:
            lines = handle.read().split()
        assert sorted(lines) == ["0.0", "1.0", "2.0", "3.0"]  # exactly once
        # The fallback was recorded as a trace event with its reason.
        kinds = [args for args, _ in trace.events]
        assert ("sweep", "serial_fallback") in kinds

    def test_pool_partial_failures_are_not_recharged(self, monkeypatch):
        """A task the pool already *failed* must not be re-attempted
        either — its retry budget was spent and its failure recorded."""

        def dying_parallel(tasks_, pending, jobs, policy,
                           completed=None, failures=None):
            _run_serial(tasks_, pending[:2], policy, completed, failures)
            raise OSError("boom")

        tasks = [
            SweepTask(fn=_boom_cell, kwargs={"x": float(i)}, key=("fail", i))
            for i in range(3)
        ]
        monkeypatch.setattr(parallel_mod, "_run_parallel", dying_parallel)
        completed, failures = _run_pending(
            tasks, [0, 1, 2], jobs=2, label="failures", trace=_TraceStub(),
            policy=resolve_policy(on_error="record"),
        )
        assert completed == {}
        assert [f.index for f in failures] == [0, 1, 2]
        # One attempt each: the fallback did not re-run the pool's two.
        assert all(f.attempts == 1 for f in failures)

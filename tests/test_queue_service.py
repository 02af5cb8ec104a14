"""The sharded sweep queue: layout, leases, draining, merging.

The queue layer must preserve the executor's determinism contract —
results are a pure function of each task record — while letting many
independent worker processes drain one grid.  These tests exercise the
pieces in-process (sharding, the lockfile lease protocol, the work loop,
fragment merging, the CLI verbs); the crash/SIGKILL scenarios live in
``test_queue_resume.py``.
"""

import json
import os
import time

import pytest

import repro.obs.counters as counters_mod
import repro.sim.trace as trace_mod
from repro.experiments.parallel import SweepTask, resolve_policy, run_tasks
from repro.experiments.queue import (
    DEFAULT_LEASE_TTL_S,
    QUEUE_FILE,
    QueueError,
    demo_grid,
    fragment_path,
    lease_path,
    load_queue,
    load_shard_tasks,
    main,
    merge,
    queue_results,
    read_lease,
    release_shard,
    resume,
    shard_done,
    shard_tasks,
    try_claim_shard,
    work,
)
from repro.obs.counters import CounterRegistry, global_registry
from repro.obs.manifest import load_fragment, load_manifest
from repro.sim.trace import TraceRecorder


@pytest.fixture
def fresh_globals(monkeypatch):
    """Isolate the process-wide recorder/registry for one test."""
    monkeypatch.setattr(trace_mod, "_global_recorder", TraceRecorder())
    monkeypatch.setattr(counters_mod, "_global_registry", CounterRegistry())


def _fail_if_marker(x: float, marker: str) -> float:
    """Fails exactly while ``marker`` exists — a repairable failure."""
    if os.path.exists(marker):
        raise RuntimeError(f"marker present for x={x}")
    global_registry().counter("flaky/runs").inc()
    return x * 10.0


class TestSharding:
    def test_layout_and_spec(self, tmp_path):
        spec = shard_tasks(demo_grid(7), str(tmp_path), chunk=2, label="lay")
        assert spec.total_tasks == 7
        assert [s.index for s in spec.shards] == [0, 1, 2, 3]
        assert [len(s.task_indices) for s in spec.shards] == [2, 2, 2, 1]
        assert os.path.exists(tmp_path / QUEUE_FILE)
        # Shard files are fingerprint-addressed: the digest in the name
        # commits to the tasks inside.
        for shard in spec.shards:
            assert shard.digest[:12] in os.path.basename(
                os.path.join(str(tmp_path), "shards", f"{shard.name}.pkl")
            )
            tasks = load_shard_tasks(spec, shard)
            assert [t.key for t in tasks] == [
                ("demo", i) for i in shard.task_indices
            ]

    def test_grid_fingerprint_tracks_content(self, tmp_path):
        a = shard_tasks(demo_grid(4, seed=0), str(tmp_path / "a"), chunk=2)
        b = shard_tasks(demo_grid(4, seed=1), str(tmp_path / "b"), chunk=2)
        c = shard_tasks(demo_grid(4, seed=0), str(tmp_path / "c"), chunk=2)
        assert a.grid_fingerprint == c.grid_fingerprint
        assert a.grid_fingerprint != b.grid_fingerprint

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(QueueError, match="empty"):
            shard_tasks([], str(tmp_path))

    def test_unpicklable_grid_rejected_at_shard_time(self, tmp_path):
        bad = SweepTask(fn=_fail_if_marker, kwargs={"x": lambda: 1, "marker": ""})
        with pytest.raises(QueueError, match="not fingerprintable|pickle"):
            shard_tasks([bad], str(tmp_path))

    def test_load_queue_accepts_dir_file_and_manifest(self, tmp_path, fresh_globals):
        shard_tasks(demo_grid(3), str(tmp_path), chunk=1, label="forms")
        work(str(tmp_path))
        merged = merge(str(tmp_path))
        for target in (str(tmp_path), str(tmp_path / QUEUE_FILE), merged):
            assert load_queue(target).label == "forms"

    def test_missing_shard_file_rejected(self, tmp_path):
        spec = shard_tasks(demo_grid(3), str(tmp_path), chunk=1)
        os.unlink(os.path.join(spec.root, "shards", f"{spec.shards[1].name}.pkl"))
        with pytest.raises(QueueError, match="missing shard files"):
            load_queue(str(tmp_path))

    def test_corrupt_queue_json_rejected(self, tmp_path):
        (tmp_path / QUEUE_FILE).write_text("{not json")
        with pytest.raises(QueueError, match="unreadable"):
            load_queue(str(tmp_path))


class TestLeaseProtocol:
    def setup_queue(self, tmp_path):
        return shard_tasks(demo_grid(2), str(tmp_path), chunk=1)

    def test_claim_is_exclusive(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "alice", 60.0)
        assert not try_claim_shard(spec, shard, "bob", 60.0)
        lease = read_lease(lease_path(spec, shard))
        assert lease["worker"] == "alice"

    def test_release_frees_the_shard(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "alice", 60.0)
        release_shard(spec, shard, "alice")
        assert try_claim_shard(spec, shard, "bob", 60.0)

    def test_release_requires_ownership(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "alice", 60.0)
        release_shard(spec, shard, "bob")  # not bob's to release
        assert read_lease(lease_path(spec, shard))["worker"] == "alice"

    def test_expired_lease_is_reclaimable(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "crashed", 0.01)
        time.sleep(0.02)
        assert try_claim_shard(spec, shard, "heir", 60.0)
        assert read_lease(lease_path(spec, shard))["worker"] == "heir"

    def test_reclaim_race_has_one_winner(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "crashed", 0.01)
        time.sleep(0.02)
        winners = [
            worker
            for worker in ("heir-a", "heir-b", "heir-c")
            if try_claim_shard(spec, shard, worker, 60.0)
        ]
        assert len(winners) == 1
        assert read_lease(lease_path(spec, shard))["worker"] == winners[0]

    def test_corrupt_lease_expires_by_mtime(self, tmp_path):
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        path = lease_path(spec, shard)
        with open(path, "w") as handle:
            handle.write("not json")
        # Fresh corrupt lease: treated as live (a writer may be mid-create).
        assert not try_claim_shard(spec, shard, "bob", 60.0)
        stale = time.time() - 2 * DEFAULT_LEASE_TTL_S
        os.utime(path, (stale, stale))
        assert try_claim_shard(spec, shard, "bob", 60.0)

    def test_claim_is_atomic_with_its_content(self, tmp_path):
        # A successful claim's lease must carry the owner's nonce from
        # the instant the file exists — never an empty lockfile readable
        # only through the mtime fallback.  No temp artifacts survive.
        spec = self.setup_queue(tmp_path)
        shard = spec.shards[0]
        assert try_claim_shard(spec, shard, "alice", 60.0)
        lease = read_lease(lease_path(spec, shard))
        assert lease["worker"] == "alice"
        assert lease["ttl_s"] == 60.0
        assert "acquired_unix" in lease
        leases_dir = os.path.dirname(lease_path(spec, shard))
        assert all(
            name.endswith(".lease") for name in os.listdir(leases_dir)
        ), os.listdir(leases_dir)

    def test_fragment_write_reverifies_ownership(
        self, tmp_path, fresh_globals, monkeypatch
    ):
        # A reclaim can land in the window between a worker's final
        # heartbeat and its fragment write (the worker stalled past its
        # TTL building the fragment).  The write must notice and abandon
        # the shard: the new owner re-runs and records it.
        import repro.experiments.queue as qmod

        spec = shard_tasks(demo_grid(1), str(tmp_path), chunk=1, label="own")
        shard = spec.shards[0]
        real_run_shard = qmod._run_shard

        def run_then_lose_lease(spec, shard, worker_id, ttl_s, policy):
            fragment = real_run_shard(spec, shard, worker_id, ttl_s, policy)
            os.unlink(lease_path(spec, shard))
            assert try_claim_shard(spec, shard, "heir", 60.0)
            return fragment

        monkeypatch.setattr(qmod, "_run_shard", run_then_lose_lease)
        assert work(str(tmp_path), worker_id="victim") == 0
        assert not shard_done(spec, shard)
        # The victim's release must not have clobbered the heir's claim.
        assert read_lease(lease_path(spec, shard))["worker"] == "heir"


class TestWorkAndMerge:
    def test_single_worker_drains_queue(self, tmp_path, fresh_globals):
        tasks = demo_grid(5)
        spec = shard_tasks(tasks, str(tmp_path), chunk=2, label="drain")
        assert work(str(tmp_path), worker_id="solo") == 3
        assert all(shard_done(spec, shard) for shard in spec.shards)
        # Results come back in grid order and match direct execution.
        assert queue_results(str(tmp_path)) == [t.execute() for t in tasks]
        # Leases are all released.
        leases = os.listdir(os.path.join(spec.root, "leases"))
        assert [n for n in leases if n.endswith(".lease")] == []

    def test_max_shards_bounds_a_worker(self, tmp_path, fresh_globals):
        spec = shard_tasks(demo_grid(6), str(tmp_path), chunk=2)
        assert work(str(tmp_path), max_shards=2) == 2
        assert sum(shard_done(spec, shard) for shard in spec.shards) == 2

    def test_second_worker_sees_nothing_to_do(self, tmp_path, fresh_globals):
        shard_tasks(demo_grid(4), str(tmp_path), chunk=2)
        assert work(str(tmp_path), worker_id="first") == 2
        assert work(str(tmp_path), worker_id="second") == 0

    def test_fragments_validate_and_carry_deltas(self, tmp_path, fresh_globals):
        spec = shard_tasks(demo_grid(4), str(tmp_path), chunk=2, label="frag")
        work(str(tmp_path), worker_id="w1")
        for shard in spec.shards:
            fragment = load_fragment(fragment_path(spec, shard))
            assert fragment["label"] == "frag"
            assert fragment["shard"]["digest"] == shard.digest
            assert fragment["counters"] == {"demo/cells": 2}
            assert [row["index"] for row in fragment["tasks"]] == list(
                shard.task_indices
            )
            assert all("result" in row for row in fragment["tasks"])

    def test_merge_requires_every_fragment(self, tmp_path, fresh_globals):
        spec = shard_tasks(demo_grid(4), str(tmp_path), chunk=1)
        work(str(tmp_path), max_shards=2)
        with pytest.raises(QueueError, match=r"shards \[2, 3\]"):
            merge(str(tmp_path))

    def test_merge_rejects_foreign_fragment(self, tmp_path, fresh_globals):
        spec = shard_tasks(demo_grid(2), str(tmp_path), chunk=1, label="x")
        work(str(tmp_path))
        a, b = (fragment_path(spec, shard) for shard in spec.shards)
        with open(a) as handle:
            fragment = json.load(handle)
        fragment["shard"]["index"] = 1
        with open(b, "w") as handle:
            json.dump(fragment, handle)
        with pytest.raises(QueueError, match="digest"):
            merge(str(tmp_path))

    def test_merged_manifest_counters_sum_shard_deltas(
        self, tmp_path, fresh_globals
    ):
        shard_tasks(demo_grid(6), str(tmp_path), chunk=2, label="sum")
        work(str(tmp_path))
        manifest = load_manifest(merge(str(tmp_path)))
        assert manifest.counters == {"demo/cells": 6}
        assert manifest.failures == []
        assert manifest.shards["count"] == 3
        assert manifest.shards["workers"]  # the worker id is recorded

    def test_merge_records_the_path_the_fragments_agree_on(
        self, tmp_path, fresh_globals
    ):
        spec = shard_tasks(demo_grid(3), str(tmp_path), chunk=1, label="path")
        work(str(tmp_path))
        merged = load_manifest(merge(str(tmp_path)))
        assert merged.hotpath is True
        assert merged.spatial == {"grids_built": 0}

        def rewrite(shard, edit):
            path = fragment_path(spec, shard)
            fragment = load_fragment(path)
            edit(fragment)
            with open(path, "w") as handle:
                json.dump(fragment, handle)

        # Workers that disagree on the hot path leave it unknown...
        rewrite(spec.shards[1], lambda f: f.update(hotpath=False))
        assert load_manifest(merge(str(tmp_path))).hotpath is None

        # ...and so does a version-1 fragment, for both fields.
        def downgrade(fragment):
            fragment["version"] = 1
            for name in ("events", "spatial", "hotpath"):
                del fragment[name]

        rewrite(spec.shards[1], lambda f: f.update(hotpath=True))
        rewrite(spec.shards[2], downgrade)
        merged = load_manifest(merge(str(tmp_path)))
        assert merged.hotpath is None and merged.spatial is None
        assert merged.counters == {"demo/cells": 3}

    def test_merge_matches_uninterrupted_run_tasks_manifest(
        self, tmp_path, fresh_globals
    ):
        """The acceptance contract, cheap edition (demo grid).

        Deterministic manifest fields of queue-merge ≡ one serial
        ``run_tasks`` sweep of the identical grid.
        """
        from repro.obs.manifest import manifest_sink

        tasks = demo_grid(5)
        with manifest_sink(str(tmp_path / "serial")):
            serial_results = run_tasks(
                tasks, jobs=1, label="contract", on_error="record"
            )
        serial = load_manifest(tmp_path / "serial" / "contract.manifest.json")

        qdir = str(tmp_path / "queue")
        shard_tasks(tasks, qdir, chunk=2, label="contract")
        work(qdir)
        merged = load_manifest(merge(qdir))

        assert merged.tasks == serial.tasks
        assert merged.params == serial.params
        assert merged.seeds == serial.seeds
        assert merged.failures == serial.failures == []
        # Serial counters double the queue's because the same fixture
        # registry ran both sweeps — compare the queue's run directly.
        assert merged.counters == {"demo/cells": 5}
        assert queue_results(qdir) == serial_results


class TestResume:
    def test_resume_reruns_failed_shards(self, tmp_path, fresh_globals):
        marker = str(tmp_path / "outage.marker")
        tasks = [
            SweepTask(
                fn=_fail_if_marker,
                kwargs={"x": float(i), "marker": marker},
                key=("flaky", i),
            )
            for i in range(3)
        ]
        qdir = str(tmp_path / "queue")
        shard_tasks(tasks, qdir, chunk=1, label="flaky")
        with open(marker, "w"):
            pass  # everything fails while the marker exists...
        work(qdir, policy=resolve_policy(on_error="record"))
        manifest = load_manifest(merge(qdir))
        assert len(manifest.failures) == 3
        assert queue_results(qdir) == [None, None, None]

        os.unlink(marker)  # ...the environment heals...
        merged = load_manifest(resume(qdir))
        # ...and resume re-ran every failed shard to a clean manifest.
        assert merged.failures == []
        assert queue_results(qdir) == [0.0, 10.0, 20.0]
        assert global_registry().snapshot()["flaky/runs"] == 3

    def test_resume_is_a_no_op_on_a_complete_queue(self, tmp_path, fresh_globals):
        shard_tasks(demo_grid(4), str(tmp_path), chunk=2, label="idle")
        work(str(tmp_path))
        first = load_manifest(merge(str(tmp_path)))
        again = load_manifest(resume(str(tmp_path)))
        assert again.tasks == first.tasks
        assert again.counters == first.counters
        # No shard re-ran: the demo counter did not move.
        assert global_registry().snapshot()["demo/cells"] == 4

    def test_resume_accepts_the_merged_manifest_path(self, tmp_path, fresh_globals):
        shard_tasks(demo_grid(2), str(tmp_path), chunk=1, label="byref")
        work(str(tmp_path))
        merged = merge(str(tmp_path))
        assert resume(merged) == merged


class TestCli:
    def test_shard_work_merge_verbs(self, tmp_path, capsys, fresh_globals):
        qdir = str(tmp_path / "q")
        assert main(["shard", "--queue", qdir, "--grid", "demo",
                     "--demo-tasks", "4", "--chunk", "2"]) == 0
        assert "2 shards" in capsys.readouterr().out
        assert main(["work", "--queue", qdir]) == 0
        assert "completed 2 shards" in capsys.readouterr().out
        assert main(["merge", "--queue", qdir]) == 0
        out = capsys.readouterr().out
        path = out.split("merged manifest:")[1].strip()
        assert load_manifest(path).label == "demo_queue"

    def test_resume_verb(self, tmp_path, capsys, fresh_globals):
        qdir = str(tmp_path / "q")
        main(["shard", "--queue", qdir, "--grid", "demo", "--demo-tasks", "3",
              "--chunk", "1"])
        main(["work", "--queue", qdir, "--max-shards", "1"])
        capsys.readouterr()
        assert main(["resume", qdir]) == 0
        assert "resumed and merged" in capsys.readouterr().out
        assert queue_results(qdir) == [t.execute() for t in demo_grid(3)]

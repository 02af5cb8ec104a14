"""Run manifests (repro.obs.manifest)."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.experiments.parallel import (
    SweepTask,
    run_tasks,
    split_common_params,
)
from repro.obs.manifest import (
    FRAGMENT_SCHEMA,
    FRAGMENT_SCHEMA_VERSION,
    MANIFEST_DIR_ENV,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    active_manifest_dir,
    build_fragment,
    build_manifest,
    current_git_sha,
    jsonable,
    load_fragment,
    load_manifest,
    manifest_sink,
    merge_fragment_counters,
    validate_fragment,
    validate_manifest,
    write_fragment,
    write_manifest,
)


def make_manifest(**overrides):
    base = dict(
        label="fig1",
        created_unix=1700000000.0,
        wall_s=1.5,
        jobs=2,
        tasks=[{"key": ["fig1", 0], "seed": 3, "fingerprint": "abc"}],
        params={"seed": 3},
        seeds=[3],
        counters={"mac/data_transmissions": 10},
        trace_counts={"sweep/task_run": 1},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestWriteLoadValidate:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = write_manifest(manifest, tmp_path)
        assert os.path.basename(path) == "fig1.manifest.json"
        loaded = load_manifest(path)
        assert loaded == manifest

    def test_written_document_carries_schema(self, tmp_path):
        path = write_manifest(make_manifest(), tmp_path)
        with open(path) as handle:
            obj = json.load(handle)
        assert obj["schema"] == MANIFEST_SCHEMA
        assert obj["version"] == MANIFEST_SCHEMA_VERSION

    def test_label_sanitized_for_filename(self, tmp_path):
        path = write_manifest(make_manifest(label="fig 1/exposed"), tmp_path)
        assert os.path.basename(path) == "fig_1_exposed.manifest.json"

    def test_missing_field_rejected(self):
        obj = make_manifest().to_dict()
        del obj["seeds"]
        with pytest.raises(ManifestError, match="seeds"):
            validate_manifest(obj)

    def test_wrong_type_rejected(self):
        obj = make_manifest().to_dict()
        obj["jobs"] = "two"
        with pytest.raises(ManifestError, match="jobs"):
            validate_manifest(obj)

    def test_foreign_schema_rejected(self):
        obj = make_manifest().to_dict()
        obj["schema"] = "something.else"
        with pytest.raises(ManifestError, match="not a repro.manifest"):
            validate_manifest(obj)

    def test_version_mismatch_rejected(self):
        obj = make_manifest().to_dict()
        obj["version"] = 99
        with pytest.raises(ManifestError, match="version"):
            validate_manifest(obj)

    def test_task_without_fingerprint_rejected(self):
        obj = make_manifest(tasks=[{"key": [1]}]).to_dict()
        with pytest.raises(ManifestError, match="fingerprint"):
            validate_manifest(obj)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_manifest(path)


class TestSink:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv(MANIFEST_DIR_ENV, raising=False)
        assert active_manifest_dir() is None

    def test_env_knob(self, monkeypatch, tmp_path):
        monkeypatch.setenv(MANIFEST_DIR_ENV, str(tmp_path))
        assert active_manifest_dir() == str(tmp_path)

    def test_context_manager_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(MANIFEST_DIR_ENV, "/somewhere/else")
        with manifest_sink(str(tmp_path)):
            assert active_manifest_dir() == str(tmp_path)
        assert active_manifest_dir() == "/somewhere/else"

    def test_empty_sink_disables_writing(self, monkeypatch):
        monkeypatch.setenv(MANIFEST_DIR_ENV, "/somewhere/else")
        with manifest_sink(""):
            assert active_manifest_dir() is None


class TestProvenanceHelpers:
    def test_current_git_sha_in_repo(self):
        sha = current_git_sha(os.path.dirname(__file__))
        # The repo is git-initialised; tolerate git being absent.
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_jsonable_scalars_pass_through(self):
        assert jsonable(None) is None
        assert jsonable(3) == 3
        assert jsonable("x") == "x"

    def test_jsonable_dataclass(self):
        @dataclasses.dataclass
        class Cfg:
            radius: float = 10.0

        out = jsonable({"error_model": Cfg(), "seeds": (1, 2)})
        assert out["error_model"]["radius"] == 10.0
        assert out["error_model"]["__type__"].endswith("Cfg")
        assert out["seeds"] == [1, 2]
        json.dumps(out)  # must always be serializable

    def test_jsonable_callable_and_fallback(self):
        out = jsonable(make_manifest)
        assert "make_manifest" in out
        assert isinstance(jsonable(object()), str)


def _square(x: int, seed: int = 0) -> int:
    return x * x


class TestRunTasksIntegration:
    def tasks(self):
        return [
            SweepTask(fn=_square, kwargs={"x": x, "seed": 10 + x}, key=("sq", x))
            for x in range(3)
        ]

    def test_sweep_writes_validated_manifest(self, tmp_path):
        with manifest_sink(str(tmp_path)):
            results = run_tasks(self.tasks(), jobs=1, label="unit_sweep")
        assert results == [0, 1, 4]
        manifest = load_manifest(tmp_path / "unit_sweep.manifest.json")
        assert manifest.label == "unit_sweep"
        assert manifest.jobs == 1
        assert manifest.seeds == [10, 11, 12]
        assert [t["key"] for t in manifest.tasks] == [["sq", 0], ["sq", 1], ["sq", 2]]
        assert all(len(t["fingerprint"]) == 64 for t in manifest.tasks)
        assert manifest.wall_s >= 0

    def test_no_sink_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MANIFEST_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        run_tasks(self.tasks(), jobs=1, label="quiet")
        assert list(tmp_path.iterdir()) == []

    def test_env_knob_routes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MANIFEST_DIR_ENV, str(tmp_path))
        run_tasks(self.tasks(), jobs=1, label="env_sweep")
        assert (tmp_path / "env_sweep.manifest.json").exists()


class TestSchemaVersions:
    """Version 2 is written; archived version-1 manifests still load."""

    def test_written_version_is_two(self):
        assert MANIFEST_SCHEMA_VERSION == 2
        assert make_manifest().to_dict()["version"] == 2

    def test_version_one_manifest_still_validates(self, tmp_path):
        # An archived v1 manifest: no overrides, no shards block.
        obj = make_manifest().to_dict()
        obj["version"] = 1
        del obj["shards"]
        validate_manifest(obj)
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(obj))
        loaded = load_manifest(path)
        assert loaded.label == "fig1"
        assert loaded.shards is None

    def test_shards_block_round_trips(self, tmp_path):
        shards = {"count": 2, "chunk": 1, "grid_fingerprint": "f" * 64,
                  "digests": ["a" * 64, "b" * 64], "workers": ["w-1"]}
        path = write_manifest(make_manifest(shards=shards), tmp_path)
        assert load_manifest(path).shards == shards


class TestParamsIntersection:
    """``params`` records only kwargs every task agrees on (satellite:
    the old field copied ``tasks[0].kwargs`` wholesale, misreporting
    heterogeneous grids)."""

    def grid(self):
        return [
            SweepTask(
                fn=_square,
                kwargs={"x": x, "seed": 7},  # x varies, seed is common
                key=("het", x),
            )
            for x in range(3)
        ]

    def test_split_common_params(self):
        common, overrides = split_common_params(self.grid())
        assert common == {"seed": 7}
        assert overrides == [{"x": 0}, {"x": 1}, {"x": 2}]

    def test_homogeneous_grid_keeps_old_params_shape(self):
        tasks = [
            SweepTask(fn=_square, kwargs={"x": 5, "seed": 1}, key=("h", i))
            for i in range(2)
        ]
        common, overrides = split_common_params(tasks)
        assert common == {"x": 5, "seed": 1}
        assert overrides == [{}, {}]

    def test_manifest_records_intersection_and_overrides(self, tmp_path):
        with manifest_sink(str(tmp_path)):
            run_tasks(self.grid(), jobs=1, label="het_sweep")
        manifest = load_manifest(tmp_path / "het_sweep.manifest.json")
        assert manifest.params == {"seed": 7}
        assert [t["overrides"] for t in manifest.tasks] == [
            {"x": 0}, {"x": 1}, {"x": 2},
        ]
        validate_manifest(manifest.to_dict())  # overrides stay schema-valid


def make_fragment(**overrides):
    base = dict(
        label="q",
        shard_index=0,
        shard_digest="d" * 64,
        worker="w-1",
        wall_s=0.5,
        tasks=[{"index": 0, "key": ["q", 0], "seed": 3,
                "fingerprint": "abc", "result": 9}],
        counters={"demo/cells": 1},
        trace_counts={"sweep/task_done": 1},
        failures=[],
    )
    base.update(overrides)
    return build_fragment(**base)


class TestAtomicManifestWrite:
    """``write_manifest`` is atomic: dying mid-write keeps the old file."""

    #: Writes one complete manifest, then SIGKILLs itself inside the
    #: rewrite — after the new payload hit its temp file, just before
    #: ``os.replace`` would publish it.
    _KILLED_MID_WRITE = """
import os, signal
from repro.obs import manifest as m

def manifest(jobs):
    return m.build_manifest(
        label="crash", tasks=[], jobs=jobs, wall_s=0.0, params=dict(),
        seeds=[], counters=dict(), trace_counts=dict(),
    )

def _die(src, dst):
    os.kill(os.getpid(), signal.SIGKILL)

m.write_manifest(manifest(1), {root!r})
os.replace = _die
m.write_manifest(manifest(2), {root!r})
raise SystemExit("unreachable: the write above must have killed us")
"""

    def test_kill_mid_write_leaves_the_previous_manifest(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             self._KILLED_MID_WRITE.format(root=str(tmp_path))],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -9, proc.stderr  # SIGKILL, not SystemExit
        # The published manifest is the complete first one, not a
        # truncated second one; the only debris is the orphaned temp file.
        assert load_manifest(tmp_path / "crash.manifest.json").jobs == 1
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2 and names[1].endswith(".tmp")


class TestFragments:
    def test_version_one_fragment_still_loads(self, tmp_path):
        fragment = make_fragment()
        fragment["version"] = 1
        validate_fragment(fragment)
        assert "events" not in fragment and "spatial" not in fragment

    def test_version_two_fields_round_trip(self, tmp_path):
        fragment = make_fragment(
            events=[{"t": 0.0, "category": "sweep", "name": "task_run"}],
            spatial={"cell_size_m": [[250.0, 1]], "reach_radius_m": []},
            hotpath=False,
        )
        loaded = load_fragment(write_fragment(fragment, tmp_path / "frag.json"))
        assert loaded == fragment
        assert loaded["hotpath"] is False

    def test_round_trip(self, tmp_path):
        fragment = make_fragment()
        path = write_fragment(fragment, tmp_path / "frag.json")
        loaded = load_fragment(path)
        assert loaded == fragment
        assert loaded["schema"] == FRAGMENT_SCHEMA
        assert loaded["version"] == FRAGMENT_SCHEMA_VERSION

    def test_foreign_schema_rejected(self):
        fragment = make_fragment()
        fragment["schema"] = "something.else"
        with pytest.raises(ManifestError, match="not a repro.manifest.fragment"):
            validate_fragment(fragment)

    def test_version_mismatch_rejected(self):
        fragment = make_fragment()
        fragment["version"] = 99
        with pytest.raises(ManifestError, match="version"):
            validate_fragment(fragment)

    def test_missing_field_rejected(self):
        fragment = make_fragment()
        del fragment["counters"]
        with pytest.raises(ManifestError, match="counters"):
            validate_fragment(fragment)

    def test_shard_block_needs_index_and_digest(self):
        fragment = make_fragment()
        del fragment["shard"]["digest"]
        with pytest.raises(ManifestError, match="index/digest"):
            validate_fragment(fragment)

    def test_task_row_needs_global_index(self):
        fragment = make_fragment(
            tasks=[{"key": ["q", 0], "fingerprint": "abc"}]
        )
        with pytest.raises(ManifestError, match="index/fingerprint"):
            validate_fragment(fragment)

    def test_write_refuses_invalid_fragment(self, tmp_path):
        fragment = make_fragment()
        del fragment["worker"]
        with pytest.raises(ManifestError):
            write_fragment(fragment, tmp_path / "frag.json")
        assert not (tmp_path / "frag.json").exists()

    def test_unreadable_fragment_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(ManifestError, match="unreadable"):
            load_fragment(path)

    def test_merge_fragment_counters_sums_deltas(self):
        fragments = [
            make_fragment(counters={"a": 2, "b": 1}),
            make_fragment(shard_index=1, counters={"a": 3}),
            make_fragment(shard_index=2, counters={}),
        ]
        assert merge_fragment_counters(fragments) == {"a": 5, "b": 1}

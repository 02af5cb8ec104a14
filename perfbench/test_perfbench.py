"""Tests of the benchmark itself (not part of the package's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_of_a_nested_trace():
    # root [0, 100] -> a [10, 40] -> a1 [20, 30];  root -> b [50, 90]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert list(tracing.self_times(starts, ends, parents)) == [30, 20, 10, 40]


def test_layer_totals_sum_self_times_per_layer():
    names_table = [
        "bench.run",
        "repro.mac.dcf:DcfMac._ifs_elapsed",
        "repro.phy.radio:Radio.start_transmission",
        "repro.mac.dcf:DcfMac.on_tx_complete",
        "gc",
    ]
    # bench.run [0,100] -> dcf [10,60] -> radio [20,50] -> gc [30,35]
    #                   -> dcf [70,80]
    names = [0, 1, 2, 4, 3]
    starts = [0, 10, 20, 30, 70]
    ends = [100, 60, 50, 35, 80]
    parents = [-1, 0, 1, 2, 0]
    totals = tracing.layer_totals(names, starts, ends, parents, names_table)
    assert totals == {
        "bench": {"self_ns": 40, "calls": 1},
        "mac.dcf": {"self_ns": 30, "calls": 2},
        "phy.radio": {"self_ns": 25, "calls": 1},
        "gc": {"self_ns": 5, "calls": 1},
    }
    assert sum(entry["self_ns"] for entry in totals.values()) == 100


def test_layer_names():
    assert tracing.layer_of_module("repro.core.arq") == "core"
    assert tracing.layer_of_module("repro.mac.comap") == "mac.comap"
    assert tracing.layer_of_module("repro.util.rng") is None
    assert tracing.layer_of_name("repro.experiments.parallel:SweepTask.execute") == "experiments.task"
    assert tracing.layer_of_name("repro.experiments.parallel:run_tasks") == "experiments.parallel"
    assert tracing.layer_of_name("bench.build") == "bench"


def test_tracer_restores_the_package_and_accounts_for_the_run():
    from repro.mac import dcf
    from repro.sim import engine

    before = (engine.Simulator.schedule, dcf.DcfMac.on_tx_complete)
    tracer = tracing.Tracer()
    scenario = workloads.SCENARIOS["dense_cell"]
    with tracer:
        with tracer.span("bench.run"):
            net = scenario.build(workloads.DEFAULT_SEED)
            net.run(scenario.sim_s["toy"])
    assert (engine.Simulator.schedule, dcf.DcfMac.on_tx_complete) == before
    totals = tracer.layer_totals()
    assert {"sim.engine", "phy.channel", "phy.radio", "mac.dcf", "mac.comap"} <= set(totals)
    root_ns = tracer.inclusive_ns(["bench.run"])
    assert sum(entry["self_ns"] for entry in totals.values()) == root_ns
    calls = tracer.call_counts()
    assert calls["repro.phy.channel:Channel._deliver_air_start"] > 0  # engine-fired
    assert tracer.scheduled >= net.sim.events_fired
    # Tracing changes no simulated outcome.
    plain = scenario.build(workloads.DEFAULT_SEED)
    plain.run(scenario.sim_s["toy"])
    assert workloads.scenario_output(plain) == workloads.scenario_output(net)


# ----------------------------------------------------------------------
# BENCHMARK.json and spec.json
# ----------------------------------------------------------------------
def test_benchmark_json_follows_the_metric_grammar():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(json.dumps(bench)) <= 64 * 1024
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
               for arg in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    assert all(PATH.match(path) and ".." not in path for path in bench["paths"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60

    assert 2 <= len(bench["workloads"]) <= 8
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    assert 1 <= len(bench["end_to_end"]) <= 16
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])

    assert 1 <= len(bench["per_layer"]) <= 128
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [item["name"] for section in ("workloads", "end_to_end", "per_layer")
             for item in bench[section]]
    assert len(names) == len(set(names))
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in bench[section]:
            assert NAME.match(item["name"]), item["name"]
            if section != "workloads":
                assert UNIT.match(item["unit"]), item["unit"]
                assert item["better"] in ("lower", "higher")


def test_spec_covers_every_workload_and_per_layer_metric():
    bench, spec = _benchmark(), _spec()
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    for entry in spec["workloads"].values():
        assert entry["why"] and entry["loads"] and entry["bypasses"]
    mapped = {name for row in spec["layer_map"] for name in row["metrics"]}
    assert mapped == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert set(spec["end_to_end"]) == e2e
    for row in spec["layer_map"]:
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) | set(row["little_or_none_on"]) <= set(workloads.WORKLOADS)
    for name in spec["supersedes"]["files"]:
        assert os.path.exists(os.path.join(ROOT, name)), name


# ----------------------------------------------------------------------
# Workloads at toy length, and their output checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_scenario_passes_its_output_check(name):
    result, details = run.run_workload(name, workloads.DEFAULT_SEED, 0.2, trace=False, length="toy")
    assert result["correct"], details["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_perturbed_reference_fails_the_run(name):
    references = copy.deepcopy(workloads.load_references())
    want = references[name]["toy"][str(workloads.DEFAULT_SEED)]
    node = sorted(want["nodes"])[0]
    want["nodes"][node][0] += 1
    result, details = run.run_workload(name, workloads.DEFAULT_SEED, 0.2, trace=False,
                                       length="toy", references=references)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"] < 1.0
    assert any(node in error for error in details["errors"])


def test_traced_run_reports_the_layers_a_workload_uses():
    result, details = run.run_workload("csr_floor", workloads.HELD_OUT_SEED, 0.4, trace=True,
                                       length="toy")
    assert result["correct"], details["errors"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    for name in ("mac.csr.self_s", "net.backhaul.self_s", "net.backhaul.deliveries",
                 "core.self_s", "mac.comap.self_s", "sim.engine.events_fired",
                 "experiments.topologies.build_s", "trace.overhead_ratio"):
        assert metrics[name] > 0, name
    assert metrics["net.mobility.self_s"] == 0
    assert 0.9 < metrics["trace.covered_ratio"] <= 1.0
    assert os.path.exists(os.path.join(ROOT, details["spans_file"]))


def test_report_check_against_the_reference(tmp_path):
    references = workloads.load_references()
    out_dir = str(tmp_path / "report")
    workloads.run_report(workloads.DEFAULT_SEED, out_dir)
    output = workloads.report_output(out_dir)
    workloads.check_report(output, workloads.DEFAULT_SEED, references)

    perturbed = copy.deepcopy(references)
    csvs = perturbed["report_quick"][str(workloads.DEFAULT_SEED)]["csvs"]
    name = sorted(csvs)[0]
    csvs[name] = csvs[name].replace(",", ",9", 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(output, workloads.DEFAULT_SEED, perturbed)


def test_report_invariants_for_a_seed_without_a_reference():
    refs = workloads.load_references()["report_quick"]
    other = copy.deepcopy(refs[str(workloads.HELD_OUT_SEED)])
    output = {"csvs": other["csvs"], "tasks": other["tasks"], "failures": 0}
    workloads.check_report_invariants(output, refs)
    name = "fig1_fig8_exposed.csv"
    broken = dict(output, csvs=dict(output["csvs"]))
    broken["csvs"][name] = broken["csvs"][name].replace("14.0,", "15.0,", 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report_invariants(broken, refs)
    negative = dict(output, csvs=dict(output["csvs"]))
    lines = negative["csvs"][name].splitlines()
    lines[1] = ",".join(lines[1].split(",")[:1] + ["-1.0"] * (len(lines[1].split(",")) - 1))
    negative["csvs"][name] = "\n".join(lines) + "\n"
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report_invariants(negative, refs)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def test_knobs_are_cleared(monkeypatch):
    monkeypatch.setenv("REPRO_VECTOR", "1")
    monkeypatch.setenv("REPRO_JOBS", "4")
    cleared = run.clean_environment()
    assert cleared == {"REPRO_VECTOR": "1", "REPRO_JOBS": "4"}
    assert not [key for key in os.environ if key.startswith("REPRO_")]
    assert "REPRO_VECTOR" not in run.child_environment()


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
